"""A deterministic budget for the per-frame and per-transaction hot path.

Counts Python-level function entries (``sys.setprofile`` "call" events) for
one warm loopback round trip, and for one warm transaction with its
planning, client and node together, recording into the context's event
sink. Unlike a timing, the count does not depend on host load, so a hot
path that grows again fails here.
"""

from __future__ import annotations

import gc
import sys

import pytest

from conftest import make_cluster, make_ctx
from helenos import workload
from helenos.cc import begin, run_atomic
from helenos.model import bucket_of, seqno_key
from helenos.wire import Op, Read, Scheme

B = 8
KEY = seqno_key(1)
BUCKET = bucket_of(KEY, B)


def calls_made(fn) -> int:
    """Python-level function entries while ``fn()`` runs, ``fn`` included.

    The cyclic collector runs first and is paused while ``fn`` runs: a
    collection inside ``fn`` would also count the callbacks of garbage that
    earlier tests left, such as a thread's ``WeakSet`` removal."""
    count = 0

    def profile(_frame, event, _arg) -> None:
        nonlocal count
        if event == "call":
            count += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return count


def _ctx(scheme: Scheme):
    return make_ctx(make_cluster(4), scheme, buckets=B)  # it records into its own sink


def test_storage_read_through_access():
    handle = begin(_ctx(Scheme.GLOCK), 1, {BUCKET: 2})
    handle.access(BUCKET, Read(KEY))  # warm: the node's bucket state and routes exist
    calls = calls_made(lambda: handle.access(BUCKET, Read(KEY)))
    # 55 before frames were built and opened in one pass, 38 before the reply
    # was opened with one unpack and the op recorded without a hop.
    assert calls <= 25, calls


def test_fgl_lock_verb_through_cc_call():
    ctx = _ctx(Scheme.FGL)
    ctx.cc_call(Op.FGL_LOCK, BUCKET, 1)  # warm: the lock exists and the route is known
    ctx.cc_call(Op.FGL_UNLOCK, BUCKET, 1)
    calls = calls_made(lambda: ctx.cc_call(Op.FGL_LOCK, BUCKET, 2))
    # 30 before frames were built and opened in one pass, 16 before request
    # ids and known bucket owners were found without a Python-level call.
    assert calls <= 13, calls


def _send_msg_calls(scheme: Scheme) -> int:
    # One recipient, two words: planning, begin, five storage ops, commit.
    ctx = _ctx(scheme)

    def send() -> None:
        run_atomic(ctx, "send_msg", workload.plan_send_msg(B, 1, 2, (3, 4)),
                   lambda tx: workload.txn_send_msg(tx, 1, 2, (3, 4)))

    send()  # warm: the node's bucket states and routes exist
    return calls_made(send)


def test_glock_send_msg_transaction():
    calls = _send_msg_calls(Scheme.GLOCK)
    # 403 before task planning and the send path were cut, 249 before a
    # planner returned the plan it fills, 248 before a stored message was a
    # named tuple that the node decodes and stamps without a Python-level call,
    # 245 before begin took the plan itself and run_atomic returned the body's
    # value, 242 before the body was given the attempt's handle itself, 241
    # before a message's index keys were built in one call.
    assert calls <= 235, calls


# One more call each before a planner returned the plan it fills, three more
# before a stored message was a named tuple, three more before begin took the
# plan itself and run_atomic returned the body's value, and one more before
# the body was given the attempt's handle itself, and six more before a
# message's index keys were built in one call; occ 428 before its buffer
# served as the read overlay, pesv 397 before its versions lived in the
# release ledger.
SEND_MSG_BUDGETS = {Scheme.FGL: 341, Scheme.OCC: 409, Scheme.PESV: 378}


@pytest.mark.parametrize("scheme", SEND_MSG_BUDGETS, ids=lambda s: s.name.lower())
def test_send_msg_transaction(scheme):
    calls = _send_msg_calls(scheme)
    assert calls <= SEND_MSG_BUDGETS[scheme], calls
