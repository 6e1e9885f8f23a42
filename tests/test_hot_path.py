"""A deterministic budget for the per-frame hot path.

Counts Python-level function entries (``sys.setprofile`` "call" events) for
one warm loopback round trip, client and node together, with an event sink
attached. Unlike a timing, the count does not depend on host load, so a hot
path that grows again fails here.
"""

from __future__ import annotations

import sys

from conftest import make_cluster, make_ctx
from helenos.cc import TxnDescriptor, begin
from helenos.metrics import EventSink
from helenos.model import bucket_of, seqno_key
from helenos.wire import Op, Read, Scheme

B = 8
KEY = seqno_key(1)
BUCKET = bucket_of(KEY, B)


def calls_made(fn) -> int:
    """Python-level function entries while ``fn()`` runs, ``fn`` included."""
    count = 0

    def profile(_frame, event, _arg) -> None:
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def _ctx(scheme: Scheme):
    ctx = make_ctx(make_cluster(4), scheme, buckets=B)
    ctx.sink = EventSink()
    return ctx


def test_storage_read_through_access():
    handle = begin(_ctx(Scheme.GLOCK), TxnDescriptor(1, {BUCKET: 2}))
    handle.access(BUCKET, Read(KEY))  # warm: the node's bucket state and routes exist
    calls = calls_made(lambda: handle.access(BUCKET, Read(KEY)))
    assert calls <= 38, calls  # 55 before frames were built and opened in one pass


def test_fgl_lock_verb_through_cc_call():
    ctx = _ctx(Scheme.FGL)
    ctx.cc_call(Op.FGL_LOCK, BUCKET, 1)  # warm: the lock exists and the route is known
    ctx.cc_call(Op.FGL_UNLOCK, BUCKET, 1)
    calls = calls_made(lambda: ctx.cc_call(Op.FGL_LOCK, BUCKET, 2))
    assert calls <= 16, calls  # 30 before frames were built and opened in one pass
