"""Span tracer for the benchmark's traced run.

Spans are recorded by wrappers that the benchmark installs around the
program's public functions and methods, at the names the program looks
them up by. Each span records its name, start, end, the span that caused
it, and the transaction id current on its thread. Spans stay in memory
and are written out after the run. A span's self time is its duration
minus the time its child spans cover.

Nothing here is imported by the program; the measured (untraced) runs do
not install any wrapper.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import types
from collections import defaultdict

_clock = time.perf_counter_ns

# Frame layout (see helenos.wire): length(u32) request_id(u64) tag(u8)
# index(u32) opcode(u8); storage requests then carry scheme(u8) txn(u64),
# verbs carry txn(u64) directly.
OPCODE_AT = 17
CC_OPCODE_MIN = 0x10
CONTROL_OPCODE_MIN = 0x20


def frame_opcode(frame: bytes) -> int:
    return frame[OPCODE_AT] if len(frame) > OPCODE_AT else CONTROL_OPCODE_MIN


def frame_txn(frame: bytes) -> int:
    opcode = frame_opcode(frame)
    if opcode < CC_OPCODE_MIN:
        return int.from_bytes(frame[19:27], "big")
    if opcode < CONTROL_OPCODE_MIN:
        return int.from_bytes(frame[18:26], "big")
    return 0


class _ThreadState:
    __slots__ = ("stack", "spans", "txn", "off")

    def __init__(self) -> None:
        self.stack: list[list[int]] = []  # [span id, ns covered by children]
        self.spans: list[tuple] = []
        self.txn = 0
        self.off = False


class Tracer:
    """Collects spans from every thread while ``enabled`` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.stage_ns: dict[str, int] = defaultdict(int)
        self._guard = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._buffers: list[list[tuple]] = []
        self.stage_ns.clear()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._guard:
                self._buffers.append(st.spans)
        return st

    def set_txn(self, txn: int) -> None:
        self._state().txn = txn

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span per call while enabled."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            st = tracer._state()
            if st.off:
                return fn(*args, **kwargs)
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                st.spans.append((frame[0], parent[0] if parent else 0, name, st.txn,
                                 start, end, duration - frame[1]))

        return traced

    def wrap_frame_handler(self, name: str, fn):
        """Like ``wrap`` for ``Node.handle_frame``: tags spans with the
        frame's txn id and leaves control frames (PING, SNAPSHOT) untraced."""
        inner = self.wrap(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(node, data):
            if not tracer.enabled:
                return fn(node, data)
            st = tracer._state()
            if frame_opcode(data) >= CONTROL_OPCODE_MIN:
                st.off, was_off = True, st.off
                try:
                    return fn(node, data)
                finally:
                    st.off = was_off
            st.txn, saved = frame_txn(data), st.txn
            try:
                return inner(node, data)
            finally:
                st.txn = saved

        return traced

    def timed(self, name: str, fn):
        """Return ``fn`` adding its wall time to ``stage_ns[name]`` on every call."""
        tracer = self

        @functools.wraps(fn)
        def stage(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.stage_ns[name] += _clock() - start

        return stage

    def spans(self) -> list[tuple]:
        with self._guard:
            return [span for buf in self._buffers for span in buf]


SPAN_COLUMNS = ("span_id", "parent_id", "name", "txn_id", "start_ns", "end_ns", "self_ns")


def summarize(spans: list[tuple]) -> dict[str, list[int]]:
    """name -> [count, total ns, self ns]."""
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for _sid, _parent, name, _txn, start, end, self_ns in spans:
        agg = out[name]
        agg[0] += 1
        agg[1] += end - start
        agg[2] += self_ns
    return dict(out)


def durations(spans: list[tuple], name: str) -> list[int]:
    return [end - start for _s, _p, n, _t, start, end, _self in spans if n == name]


def write_spans(spans: list[tuple], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(SPAN_COLUMNS) + "\n")
        for span in spans:
            fh.write("\t".join(map(str, span)) + "\n")


class Patches:
    """Attribute replacements that ``undo`` restores in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, name: str, owner: object, attr: str) -> None:
        self.set(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# Wire functions the node calls through ``helenos.store.wire``.
NODE_CODEC = ("split_frame", "decode_header", "decode_cc", "decode_storage_body",
              "encode_entry", "encode_message", "encode_msgid", "encode_seqpair",
              "storage_ok_body", "ok_reply", "err_reply")
# Wire functions the client calls by the names ``helenos.cc`` imported.
CLIENT_CODEC = ("storage_request", "cc_request", "unwrap_reply", "decode_storage_ok",
                "decode_entry", "decode_message", "decode_msgid", "decode_seqpair")
# Node-side calls that can block on another transaction.
WAITS = (("FifoLock", "acquire"), ("SupremumTable", "take"),
         ("SupremumTable", "await_turn"), ("SupremumTable", "release"))


def install_node_side(tracer: Tracer, patches: Patches) -> None:
    """Wrap what a store node runs: dispatch, node codec, waits, apply, routing."""
    from helenos import model, store, wire

    patches.set(store.Node, "handle_frame",
                tracer.wrap_frame_handler("store.dispatch", store.Node.handle_frame))
    proxy = types.ModuleType(wire.__name__)
    proxy.__dict__.update(vars(wire))
    for fn in NODE_CODEC:
        setattr(proxy, fn, tracer.wrap(f"wire.node.{fn}", getattr(wire, fn)))
    patches.set(store, "wire", proxy)
    patches.wrap(tracer, "store.apply", store.StorageEngine, "apply")
    for cls, method in WAITS:
        patches.wrap(tracer, f"store.wait.{cls}.{method}", getattr(store, cls), method)
    patches.wrap(tracer, "model.owner_of", model.RingLayout, "owner_of")


def install_client_side(tracer: Tracer, patches: Patches) -> None:
    """Wrap what a client runs; tracing is on only while clients run."""
    from helenos import cc, driver, metrics, model, workload

    for mod in (model, cc, workload):
        patches.wrap(tracer, "model.bucket_of", mod, "bucket_of")
    for fn in CLIENT_CODEC:
        patches.wrap(tracer, f"wire.client.{fn}", cc, fn)
    patches.wrap(tracer, "cc.run_atomic", workload, "run_atomic")
    for fn in [n for n in vars(workload) if n.startswith("plan_")]:
        patches.wrap(tracer, f"workload.{fn}", workload, fn)
    for method in ("client_start", "client_end", "txn_start", "retry_start", "commit",
                   "bucket_op"):
        patches.wrap(tracer, f"metrics.sink.{method}", metrics.EventSink, method)
    original_txn_start = metrics.EventSink.txn_start

    def txn_start(sink, time_ns, txn_id, client_id, kind):
        tracer.set_txn(txn_id)
        return original_txn_start(sink, time_ns, txn_id, client_id, kind)

    patches.set(metrics.EventSink, "txn_start", txn_start)

    context_cls = driver.TxnContext

    def make_context(*args, **kwargs):
        ctx = context_cls(*args, **kwargs)
        ctx.sleep = tracer.wrap("cc.backoff", ctx.sleep)
        return ctx

    patches.set(driver, "TxnContext", make_context)
    run_clients = driver.run_clients

    def traced_run_clients(*args, **kwargs):
        tracer.enabled = True
        try:
            return run_clients(*args, **kwargs)
        finally:
            tracer.enabled = False

    patches.set(driver, "run_clients", traced_run_clients)
    patches.set(driver, "cluster_snapshot",
                tracer.timed("driver.cluster_snapshot", driver.cluster_snapshot))


class TracedTransport:
    """Client transport wrapper: one span per frame plus frame and byte counts."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._request = tracer.wrap("transport.request", inner.request)
        self.storage_frames = 0
        self.cc_frames = 0
        self.request_bytes = 0
        self.reply_bytes = 0

    def request(self, node_id: str, frame_bytes: bytes) -> bytes:
        reply = self._request(node_id, frame_bytes)
        if frame_opcode(frame_bytes) < CC_OPCODE_MIN:
            self.storage_frames += 1
        else:
            self.cc_frames += 1
        self.request_bytes += len(frame_bytes)
        self.reply_bytes += len(reply)
        return reply
