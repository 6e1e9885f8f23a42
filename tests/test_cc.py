"""Scheme behavior: locking, versioning, validation, retries."""

from __future__ import annotations

import random
import threading
import time

import pytest

from conftest import committed_attempts, make_cluster, make_ctx
from helenos import cc, wire
from helenos.cc import (
    OccConflict,
    TxnHandle,
    begin,
    run_atomic,
)
from helenos.driver import cluster_snapshot
from helenos.errors import AccessSetError, ConfigError, ProtocolError, ServerError
from helenos.metrics import BucketOp, Commit, EventSink, TxnStart
from helenos.model import (
    TABLE_BY_TAG,
    BucketId,
    Message,
    MsgId,
    SeqPair,
    bucket_of,
    inter_key,
    message_key,
    seqno_key,
)
from helenos.transport import unwrap_reply
from helenos.wire import Append, ErrCode, IncrSeq, Op, Read, Scheme, WriteSeq

B = 8


def seq_bucket(user: int) -> BucketId:
    return bucket_of(seqno_key(user), B)


def commit_outcome(handle) -> str:
    """'committed', or 'aborted_retry' when the commit raises ``OccConflict``."""
    try:
        handle.commit()
    except OccConflict:
        return "aborted_retry"
    return "committed"


class TestDescriptors:
    def test_empty_access_set_rejected(self):
        ctx = make_ctx(make_cluster(2), Scheme.FGL)
        with pytest.raises(ConfigError, match="^empty access set$"):
            begin(ctx, 1, {})

    def test_zero_op_count_rejected(self):
        ctx = make_ctx(make_cluster(2), Scheme.FGL)
        with pytest.raises(ConfigError, match="^access set op counts must be >= 1$"):
            begin(ctx, 1, {seq_bucket(1): 0})

    def test_undeclared_bucket_fails_the_run(self, scheme):
        cluster = make_cluster(2)
        ctx = make_ctx(cluster, scheme)
        handle = begin(ctx, ctx.next_txn_id(), {seq_bucket(1): 1})
        with pytest.raises(AccessSetError):
            handle.access(seq_bucket(2), Read(seqno_key(2)))
        handle.commit()

    def test_exhausted_op_count_fails_the_run(self, scheme):
        cluster = make_cluster(2)
        ctx = make_ctx(cluster, scheme)
        handle = begin(ctx, ctx.next_txn_id(), {seq_bucket(1): 1})
        handle.access(seq_bucket(1), Read(seqno_key(1)))
        with pytest.raises(AccessSetError):
            handle.access(seq_bucket(1), Read(seqno_key(1)))
        handle.commit()


class TestGLock:
    def test_overlapping_transactions_serialize(self):
        cluster = make_cluster(2)
        intervals: list[tuple[float, float]] = []
        lock = threading.Lock()

        def worker(client_id: int) -> None:
            ctx = make_ctx(cluster, Scheme.GLOCK, client_id=client_id, delay_ms=20)
            handle = begin(ctx, ctx.next_txn_id(), {seq_bucket(1): 2})
            start = time.monotonic()
            handle.access(seq_bucket(1), IncrSeq(seqno_key(1)))
            handle.access(seq_bucket(1), IncrSeq(seqno_key(1)))
            end = time.monotonic()
            handle.commit()
            with lock:
                intervals.append((start, end))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        (a0, a1), (b0, b1) = sorted(intervals)
        assert a1 <= b0, "global lock admitted two transactions at once"

    def test_single_client_matches_raw_storage_trace(self):
        cluster = make_cluster(1)
        ctx = make_ctx(cluster, Scheme.GLOCK)
        result = run_atomic(
            ctx, "probe", {seq_bucket(4): 2},
            lambda tx: (tx.incr_seq(seqno_key(4)), tx.read(seqno_key(4))),
        )
        assert result == (SeqPair(1, 0), SeqPair(1, 0))
        assert committed_attempts(ctx.sink) == [1]


STORAGE_OPCODES = {spec.opcode for spec in wire.OP_SPECS.values()}
ALL_REQUEST_OPCODES = STORAGE_OPCODES | {op for op in Op if 0x10 <= op < 0x20}  # ops and verbs


class RecordFrames:
    """Transport wrapper that records the frames with the given opcodes in
    send order, as (opcode, bucket, argument). The bucket of a global-lock
    verb is None; a storage op's argument is its cc flags."""

    def __init__(self, inner, opcodes: set[Op]) -> None:
        self.inner = inner
        self.opcodes = opcodes
        self.trace: list[tuple[Op, BucketId | None, int | None]] = []

    def request(self, node_id: str, frame_bytes: bytes) -> bytes:
        _rid, tag, index, opcode, rest = wire.decode_header(wire.split_frame(frame_bytes))
        if opcode in self.opcodes:
            table = TABLE_BY_TAG.get(tag)
            if opcode in STORAGE_OPCODES:
                arg = wire.decode_cc(rest)[0].flags
            else:
                arg = int.from_bytes(rest[8:16], "big") if len(rest) >= 16 else None
            bucket = None if table is None else BucketId(table, index)
            self.trace.append((Op(opcode), bucket, arg))
        return self.inner.request(node_id, frame_bytes)


class FailNth:
    """Transport wrapper that answers the nth frame with one opcode with ERR
    and does not forward it."""

    def __init__(self, inner, opcode: Op, n: int) -> None:
        self.inner = inner
        self.opcode = opcode
        self.n = n
        self.seen = 0

    def request(self, node_id: str, frame_bytes: bytes) -> bytes:
        request_id, _tag, _index, opcode, _rest = wire.decode_header(wire.split_frame(frame_bytes))
        if opcode == self.opcode:
            self.seen += 1
            if self.seen == self.n:
                return wire.err_reply(request_id, ErrCode.REFUSED,
                                      f"injected failure of {self.opcode.name} #{self.n}")
        return self.inner.request(node_id, frame_bytes)


class TamperStorageReplies:
    """Transport wrapper that passes each storage op's reply through
    ``change`` and keeps the request id and the reply it returned."""

    def __init__(self, inner, change) -> None:
        self.inner = inner
        self.change = change
        self.last: tuple[int, bytes] | None = None

    def request(self, node_id: str, frame_bytes: bytes) -> bytes:
        reply = self.inner.request(node_id, frame_bytes)
        request_id, _tag, _index, opcode, _rest = wire.decode_header(wire.split_frame(frame_bytes))
        if opcode not in STORAGE_OPCODES:
            return reply
        reply = self.change(reply)
        self.last = request_id, reply
        return reply


# A storage reply that is not a whole OK reply to its request is refused as
# unwrap_reply and then decode_storage_ok refuse it; one that is, whatever
# bucket its header names, is accepted, as those two accept it.
TAMPERED_REPLIES = {
    "another request id": lambda reply: reply[:4] + (1 << 60).to_bytes(8, "big") + reply[12:],
    "one byte short": lambda reply: reply[:-1],
    "one byte long": lambda reply: reply + b"!",
    "length over the limit": lambda reply: (wire.MAX_FRAME + 1).to_bytes(4, "big") + reply[4:],
    "ok without a storage head": lambda reply: wire.ok_reply(
        int.from_bytes(reply[4:12], "big"), b"seq"),
    "reply opcode of a request": lambda reply: reply[:17] + bytes([Op.READ]) + reply[18:],
}


@pytest.mark.parametrize("change", TAMPERED_REPLIES.values(), ids=TAMPERED_REPLIES)
def test_storage_reply_refused_as_unwrap_reply_refuses_it(change):
    cluster = make_cluster(2)
    ctx = make_ctx(cluster, Scheme.GLOCK)
    ctx.transport = tamper = TamperStorageReplies(cluster, change)
    handle = begin(ctx, ctx.next_txn_id(), {seq_bucket(1): 1})
    with pytest.raises(ProtocolError) as got:
        handle.access(seq_bucket(1), Read(seqno_key(1)))
    request_id, reply = tamper.last
    with pytest.raises(ProtocolError) as expected:
        wire.decode_storage_ok(unwrap_reply(request_id, reply))
    assert str(got.value) == str(expected.value)
    handle.abandon()
    assert all(node.quiescent() for node in cluster.nodes.values())


def test_storage_reply_with_another_header_bucket_is_accepted():
    cluster = make_cluster(2)
    ctx = make_ctx(cluster, Scheme.GLOCK)
    ctx.transport = TamperStorageReplies(cluster, lambda reply: reply[:12] + b"\x03" + reply[13:])
    handle = begin(ctx, ctx.next_txn_id(), {seq_bucket(1): 2})
    assert handle.access(seq_bucket(1), IncrSeq(seqno_key(1))) == SeqPair(1, 0)
    assert handle.access(seq_bucket(1), Read(seqno_key(1))) == SeqPair(1, 0)
    handle.commit()


@pytest.mark.parametrize("key, item, message", [
    (inter_key(1, 2), Message(MsgId(2, 1), 1, 2, (0,), 0),
     "identifier list append got a full message"),
    (message_key(2), MsgId(2, 1), "message table append requires a full message"),
    # A message equals the plain tuple of its fields, but only a Message is stored.
    (message_key(2), (MsgId(2, 1), 1, 2, (0,), 0),
     "message table append requires a full message"),
], ids=["message-on-id-list", "id-on-message-list", "tuple-on-message-list"])
def test_wrongly_typed_append_refused_before_sending(scheme, key, item, message):
    cluster = make_cluster(2)
    ctx = make_ctx(cluster, scheme)
    ctx.transport = recorder = RecordFrames(cluster, {Op.APPEND})
    bucket = bucket_of(key, B)
    handle = begin(ctx, ctx.next_txn_id(), {bucket: 1})
    with pytest.raises(ProtocolError, match=message):
        handle.access(bucket, Append(key, item))
    assert recorder.trace == []


class TestFgl:
    def test_two_phase_discipline(self):
        cluster = make_cluster(2)
        ctx = make_ctx(cluster, Scheme.FGL)
        ctx.transport = recorder = RecordFrames(cluster, {Op.FGL_LOCK, Op.FGL_UNLOCK})
        plan = {seq_bucket(1): 1, seq_bucket(2): 1, seq_bucket(3): 2}
        handle = begin(ctx, ctx.next_txn_id(), plan)
        handle.access(seq_bucket(1), Read(seqno_key(1)))
        handle.access(seq_bucket(3), Read(seqno_key(3)))
        handle.commit()
        trace = recorder.trace
        first_release = next(i for i, (what, _, _) in enumerate(trace) if what is Op.FGL_UNLOCK)
        assert all(what is Op.FGL_LOCK for what, _, _ in trace[:first_release])
        assert all(what is Op.FGL_UNLOCK for what, _, _ in trace[first_release:])
        acquired = [b for what, b, _ in trace if what is Op.FGL_LOCK]
        assert acquired == sorted(acquired), "locks not taken in canonical order"
        released = sorted(b for what, b, _ in trace if what is Op.FGL_UNLOCK)
        assert released == sorted(plan)

    def test_early_release_lets_second_txn_in(self):
        cluster = make_cluster(2)
        beta, gamma = seq_bucket(1), seq_bucket(2)
        order: list[str] = []
        a_committed = threading.Event()
        a_released_beta = threading.Event()

        def txn_a() -> None:
            ctx = make_ctx(cluster, Scheme.FGL, client_id=0)
            handle = begin(ctx, ctx.next_txn_id(), {beta: 1, gamma: 1})
            handle.access(beta, Read(seqno_key(1)))  # count hits 0: released now
            a_released_beta.set()
            assert a_committed.wait(5.0), "txn B never finished"
            order.append("a_commit")
            handle.access(gamma, Read(seqno_key(2)))
            handle.commit()

        def txn_b() -> None:
            ctx = make_ctx(cluster, Scheme.FGL, client_id=1)
            assert a_released_beta.wait(5.0)
            handle = begin(ctx, ctx.next_txn_id(), {beta: 1})
            handle.access(beta, Read(seqno_key(1)))
            handle.commit()
            order.append("b_commit")
            a_committed.set()

        ta, tb = threading.Thread(target=txn_a), threading.Thread(target=txn_b)
        ta.start(), tb.start()
        ta.join(10.0), tb.join(10.0)
        assert order == ["b_commit", "a_commit"], "early release did not happen"


class TestPesv:
    def test_disjoint_access_sets_do_not_wait(self):
        cluster = make_cluster(2)
        barrier = threading.Barrier(2)
        start = time.monotonic()

        def worker(client_id: int, user: int) -> None:
            ctx = make_ctx(cluster, Scheme.PESV, client_id=client_id, delay_ms=60)
            barrier.wait()
            run_atomic(ctx, "probe", {seq_bucket(user): 1},
                       lambda tx: tx.incr_seq(seqno_key(user)))

        users = [1, 2]
        assert seq_bucket(users[0]) != seq_bucket(users[1])
        threads = [threading.Thread(target=worker, args=(i, u)) for i, u in enumerate(users)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Two 60 ms operations overlapped; serialized they would take >= 120 ms.
        assert time.monotonic() - start < 0.115

    def test_fifo_blocking_on_shared_bucket(self):
        cluster = make_cluster(2)
        bucket = seq_bucket(1)
        times: dict[str, float] = {}
        a_begun = threading.Event()

        def txn_a() -> None:
            ctx = make_ctx(cluster, Scheme.PESV, client_id=0, delay_ms=100)
            handle = begin(ctx, ctx.next_txn_id(), {bucket: 1})
            a_begun.set()
            handle.access(bucket, IncrSeq(seqno_key(1)))  # sleeps 100 ms, then releases
            times["a_done"] = time.monotonic()
            handle.commit()

        def txn_b() -> None:
            ctx = make_ctx(cluster, Scheme.PESV, client_id=1, delay_ms=0)
            assert a_begun.wait(5.0)
            handle = begin(ctx, ctx.next_txn_id(), {bucket: 1})
            times["b_started_access"] = time.monotonic()
            handle.access(bucket, IncrSeq(seqno_key(1)))
            times["b_done"] = time.monotonic()
            handle.commit()

        ta, tb = threading.Thread(target=txn_a), threading.Thread(target=txn_b)
        ta.start(), tb.start()
        ta.join(10.0), tb.join(10.0)
        assert times["b_done"] >= times["a_done"], "second version overtook the first"

    def test_versions_are_fifo_per_bucket(self):
        cluster = make_cluster(2)
        bucket = seq_bucket(3)
        completions: list[int] = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def worker(client_id: int) -> None:
            ctx = make_ctx(cluster, Scheme.PESV, client_id=client_id)
            barrier.wait()
            handle = begin(ctx, ctx.next_txn_id(), {bucket: 1})
            version = handle.held[Op.VER_RELEASE, bucket]  # the last access drops it
            handle.access(bucket, IncrSeq(seqno_key(3)))
            with lock:
                completions.append(version)
            handle.commit()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert completions == sorted(completions)
        assert sorted(completions) == [1, 2, 3, 4]

    def test_commit_releases_untouched_buckets(self):
        cluster = make_cluster(2)
        bucket = seq_bucket(1)
        ctx_a = make_ctx(cluster, Scheme.PESV, client_id=0)
        handle_a = begin(ctx_a, ctx_a.next_txn_id(), {bucket: 3})
        handle_a.commit()  # never accessed the bucket
        done = threading.Event()

        def txn_b() -> None:
            ctx_b = make_ctx(cluster, Scheme.PESV, client_id=1)
            run_atomic(ctx_b, "probe", {bucket: 1}, lambda tx: tx.incr_seq(seqno_key(1)))
            done.set()

        t = threading.Thread(target=txn_b)
        t.start()
        t.join(5.0)
        assert done.is_set(), "stale version blocked the successor"


class TestOcc:
    def test_read_your_own_write(self):
        cluster = make_cluster(2)
        ctx = make_ctx(cluster, Scheme.OCC)
        key = seqno_key(1)

        def body(tx: TxnHandle):
            tx.write_seq(key, SeqPair(5, 2))
            return tx.read(key)

        assert run_atomic(ctx, "probe", {seq_bucket(1): 2}, body) == SeqPair(5, 2)

    def test_writes_invisible_until_commit(self):
        cluster = make_cluster(2)
        ctx_w = make_ctx(cluster, Scheme.OCC, client_id=0)
        ctx_r = make_ctx(cluster, Scheme.OCC, client_id=1)
        key = seqno_key(1)
        handle = begin(ctx_w, ctx_w.next_txn_id(), {seq_bucket(1): 1})
        handle.access(seq_bucket(1), WriteSeq(key, SeqPair(9, 0)))
        observed = run_atomic(ctx_r, "probe", {seq_bucket(1): 1},
                              lambda tx: tx.read(key))
        assert observed == SeqPair(0, 0)
        handle.commit()
        observed = run_atomic(ctx_r, "probe", {seq_bucket(1): 1},
                              lambda tx: tx.read(key))
        assert observed == SeqPair(9, 0)

    def test_uncontended_commit_first_attempt(self):
        cluster = make_cluster(2)
        ctx = make_ctx(cluster, Scheme.OCC)
        run_atomic(ctx, "probe", {seq_bucket(1): 1}, lambda tx: tx.incr_seq(seqno_key(1)))
        assert committed_attempts(ctx.sink) == [1]

    def test_forced_conflict_exactly_one_winner(self):
        cluster = make_cluster(2)
        bucket = seq_bucket(1)
        barrier = threading.Barrier(2)
        outcomes: list[str] = []
        lock = threading.Lock()

        def worker(client_id: int) -> None:
            ctx = make_ctx(cluster, Scheme.OCC, client_id=client_id)
            handle = begin(ctx, ctx.next_txn_id(), {bucket: 1})
            handle.access(bucket, IncrSeq(seqno_key(1)))
            barrier.wait()
            outcome = commit_outcome(handle)
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == ["aborted_retry", "committed"]

    def test_lost_update_impossible(self):
        cluster = make_cluster(2)
        bucket = seq_bucket(1)
        per_client, clients = 50, 4
        barrier = threading.Barrier(clients)

        def worker(client_id: int) -> None:
            ctx = make_ctx(cluster, Scheme.OCC, client_id=client_id, seed=client_id)
            barrier.wait()
            for _ in range(per_client):
                run_atomic(ctx, "incr", {bucket: 1}, lambda tx: tx.incr_seq(seqno_key(1)))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ctx = make_ctx(cluster, Scheme.OCC, client_id=99)
        final = run_atomic(ctx, "probe", {bucket: 1}, lambda tx: tx.read(seqno_key(1)))
        assert final == SeqPair(per_client * clients, 0)

    def test_mixed_version_reads_rejected_eagerly(self):
        cluster = make_cluster(2)
        # Two distinct keys landing in the same bucket of the seq table.
        keys_by_bucket: dict = {}
        k1 = k2 = None
        for user in range(500):
            key = seqno_key(user)
            bucket = bucket_of(key, B)
            if bucket in keys_by_bucket:
                k1, k2 = keys_by_bucket[bucket], key
                break
            keys_by_bucket[bucket] = key
        assert k1 is not None
        shared = bucket_of(k1, B)

        ctx_a = make_ctx(cluster, Scheme.OCC, client_id=0)
        handle = begin(ctx_a, ctx_a.next_txn_id(), {shared: 2})
        handle.access(shared, Read(k1))
        # A competitor commits a write to the same bucket in between.
        ctx_b = make_ctx(cluster, Scheme.OCC, client_id=1)
        run_atomic(ctx_b, "bump", {shared: 1}, lambda tx: tx.incr_seq(k1))
        with pytest.raises(OccConflict):
            handle.access(shared, Read(k2))

    def test_retry_limit_aborts_run_with_diagnostic(self, monkeypatch):
        from helenos.errors import RetryLimitError

        monkeypatch.setattr(cc, "RETRY_LIMIT", 3)
        monkeypatch.setattr(cc, "BACKOFF_CAP_MS", 0.1)
        cluster = make_cluster(2)
        bucket = seq_bucket(1)
        stop = threading.Event()

        def competitor() -> None:
            ctx = make_ctx(cluster, Scheme.OCC, client_id=1)
            while not stop.is_set():
                try:
                    run_atomic(ctx, "bump", {bucket: 1}, lambda tx: tx.incr_seq(seqno_key(1)))
                except RetryLimitError:
                    pass  # the lowered limit holds for the competitor too: keep bumping

        t = threading.Thread(target=competitor, daemon=True)
        t.start()
        try:
            ctx = make_ctx(cluster, Scheme.OCC, client_id=0)

            def slow_rmw(tx):
                pair = tx.read(seqno_key(1))
                time.sleep(0.01)  # let the competitor invalidate the read
                tx.write_seq(seqno_key(1), SeqPair(pair.current + 1, pair.deleted))

            with pytest.raises(RetryLimitError, match="exceeded 3 attempts"):
                run_atomic(ctx, "rmw", {bucket: 2}, slow_rmw)
        finally:
            stop.set()
            t.join(5.0)

    def test_write_skew_prevented(self):
        # Classic cross validation: A reads x writes y, B reads y writes x.
        cluster = make_cluster(2)
        kx, ky = seqno_key(1), seqno_key(2)
        bx, by = seq_bucket(1), seq_bucket(2)
        assert bx != by
        barrier = threading.Barrier(2)
        results: list[str] = []
        lock = threading.Lock()

        def worker(client_id: int, read_key, read_bucket, write_key, write_bucket) -> None:
            ctx = make_ctx(cluster, Scheme.OCC, client_id=client_id)
            handle = begin(ctx, ctx.next_txn_id(), {read_bucket: 1, write_bucket: 1})
            observed = handle.access(read_bucket, Read(read_key))
            barrier.wait()
            handle.access(write_bucket, WriteSeq(write_key, SeqPair(observed.current + 1, 0)))
            outcome = commit_outcome(handle)
            with lock:
                results.append(outcome)

        ta = threading.Thread(target=worker, args=(0, kx, bx, ky, by))
        tb = threading.Thread(target=worker, args=(1, ky, by, kx, bx))
        ta.start(), tb.start()
        ta.join(10.0), tb.join(10.0)
        assert "aborted_retry" in results, "write skew committed"


class TestRunAtomic:
    def test_non_occ_schemes_always_one_attempt(self, scheme):
        if scheme is Scheme.OCC:
            pytest.skip("optimistic scheme may retry")
        cluster = make_cluster(2)
        clients = 4
        sink = EventSink()
        barrier = threading.Barrier(clients)

        def worker(client_id: int) -> None:
            ctx = make_ctx(cluster, scheme, client_id=client_id)
            ctx.sink = sink
            barrier.wait()
            for _ in range(10):
                run_atomic(ctx, "incr", {seq_bucket(1): 1},
                           lambda tx: tx.incr_seq(seqno_key(1)))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert committed_attempts(sink) == [1] * (clients * 10)

    def test_counter_correct_under_every_scheme(self, scheme):
        cluster = make_cluster(2)
        clients, per_client = 3, 20
        barrier = threading.Barrier(clients)

        def worker(client_id: int) -> None:
            ctx = make_ctx(cluster, scheme, client_id=client_id, seed=client_id)
            barrier.wait()
            for _ in range(per_client):
                run_atomic(ctx, "incr", {seq_bucket(7): 1},
                           lambda tx: tx.incr_seq(seqno_key(7)))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ctx = make_ctx(cluster, scheme, client_id=99)
        final = run_atomic(ctx, "probe", {seq_bucket(7): 1},
                           lambda tx: tx.read(seqno_key(7)))
        assert final.current == clients * per_client


class TestAbandon:
    def test_body_failure_releases_scheme_state(self, scheme):
        cluster = make_cluster(2)
        ctx = make_ctx(cluster, scheme)

        def bad_body(tx):
            tx.read(seqno_key(1))
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            run_atomic(ctx, "bad", {seq_bucket(1): 2}, bad_body)
        # The cluster must stay usable and quiescent afterwards.
        ctx2 = make_ctx(cluster, scheme, client_id=2)
        run_atomic(ctx2, "probe", {seq_bucket(1): 1}, lambda tx: tx.incr_seq(seqno_key(1)))
        assert committed_attempts(ctx2.sink) == [1]
        for node in cluster.nodes.values():
            assert node.quiescent()


class FailFirstWriteSeq:
    """Transport wrapper whose first WRITE_SEQ request fails in transit."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.tripped = False

    def request(self, node_id: str, frame_bytes: bytes) -> bytes:
        opcode = wire.decode_header(wire.split_frame(frame_bytes))[3]
        if opcode == Op.WRITE_SEQ and not self.tripped:
            self.tripped = True
            raise ConnectionError("injected WRITE_SEQ failure")
        return self.inner.request(node_id, frame_bytes)


class TestOccApplyFailure:
    def test_failed_commit_apply_releases_commit_locks(self):
        cluster = make_cluster(2)
        ctx = make_ctx(cluster, Scheme.OCC)
        ctx.transport = FailFirstWriteSeq(cluster)
        with pytest.raises(ConnectionError, match="injected"):
            run_atomic(ctx, "incr", {seq_bucket(1): 1}, lambda tx: tx.incr_seq(seqno_key(1)))
        assert all(node.quiescent() for node in cluster.nodes.values())
        owner = cluster.nodes[cluster.layout.owner_of(seq_bucket(1))]
        assert owner.engine.version(seq_bucket(1)) == 1  # a write may have landed
        cluster_snapshot(cluster, cluster.layout)


class TestDeadlockFreedom:
    def test_random_overlapping_access_sets_terminate(self, scheme):
        cluster = make_cluster(3)
        clients = 6
        rngs = [random.Random(100 + i) for i in range(clients)]
        barrier = threading.Barrier(clients)
        errors: list[BaseException] = []

        def worker(client_id: int) -> None:
            rng = rngs[client_id]
            ctx = make_ctx(cluster, scheme, client_id=client_id, seed=client_id)
            barrier.wait()
            try:
                for _ in range(15):
                    users = rng.sample(range(6), rng.randint(1, 3))
                    plan: dict[BucketId, int] = {}
                    for u in users:
                        plan[seq_bucket(u)] = plan.get(seq_bucket(u), 0) + 1

                    def body(tx: TxnHandle, users=tuple(users)):
                        for u in users:
                            tx.incr_seq(seqno_key(u))

                    run_atomic(ctx, "mix", plan, body)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        for t in threads:
            t.join(max(0.1, deadline - time.monotonic()))
        assert not any(t.is_alive() for t in threads), f"stuck under {scheme.name}"
        assert not errors, errors[0]


# One transaction over three buckets on two nodes. Each bucket is declared
# with two accesses and only the last one uses both, so fgl unlocks it early
# and pesv releases its version with its last access, while the other two
# are given back at commit.
K1, K2, K3 = seqno_key(1), seqno_key(2), seqno_key(3)
B1, B2, B3 = (bucket_of(key, B) for key in (K1, K2, K3))
PLAN = {B1: 2, B2: 2, B3: 2}


def three_bucket_body(tx: TxnHandle) -> None:
    tx.read(K1)
    tx.incr_seq(K2)
    tx.read(K3)
    tx.incr_seq(K3)


def within_deadline(fn, seconds: float = 10.0):
    """Run ``fn`` on a daemon thread and return what it raised, or None; a
    call still running at the deadline fails the test instead of hanging it."""
    raised: list[BaseException | None] = []

    def run() -> None:
        try:
            fn()
        except BaseException as exc:
            raised.append(exc)
        else:
            raised.append(None)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "still running at the deadline"
    return raised[0]


# name: (scheme, opcode of the failed frame, its number within the attempt)
FAULT_CASES = {
    "fgl 2nd FGL_LOCK": (Scheme.FGL, Op.FGL_LOCK, 2),
    "pesv 2nd SUP_TAKE": (Scheme.PESV, Op.SUP_TAKE, 2),
    "pesv 2nd SUP_UNLATCH": (Scheme.PESV, Op.SUP_UNLATCH, 2),
    # The first FGL_UNLOCK is the early one of the bucket used twice.
    "fgl 2nd FGL_UNLOCK at commit": (Scheme.FGL, Op.FGL_UNLOCK, 3),
    "pesv 2nd VER_RELEASE at commit": (Scheme.PESV, Op.VER_RELEASE, 2),
    "occ 1st OCC_UNLOCK": (Scheme.OCC, Op.OCC_UNLOCK, 1),
    "occ 2nd OCC_LOCK": (Scheme.OCC, Op.OCC_LOCK, 2),
    "occ 1st OCC_VALIDATE": (Scheme.OCC, Op.OCC_VALIDATE, 1),
    "glock 1st GLOCK_RELEASE": (Scheme.GLOCK, Op.GLOCK_RELEASE, 1),
    **{f"{scheme.name.lower()} 2nd READ": (scheme, Op.READ, 2)
       for scheme in (Scheme.GLOCK, Scheme.FGL, Scheme.OCC, Scheme.PESV)},
}


# The cases whose frame fails after the transaction's writes have landed:
# the event log still records their commit, and no other case's.
WRITES_LANDED = {"glock 1st GLOCK_RELEASE", "fgl 2nd FGL_UNLOCK at commit",
                 "pesv 2nd VER_RELEASE at commit", "occ 1st OCC_UNLOCK"}


@pytest.mark.parametrize("case", FAULT_CASES)
def test_failed_frame_gives_back_everything(case):
    scheme, opcode, n = FAULT_CASES[case]
    cluster = make_cluster(2)
    ctx = make_ctx(cluster, scheme)
    ctx.transport = FailNth(cluster, opcode, n)
    raised = within_deadline(lambda: run_atomic(ctx, "probe", PLAN, three_bucket_body))
    assert isinstance(raised, ServerError) and raised.message.startswith("injected"), raised
    assert any(isinstance(ev, Commit) for ev in ctx.sink.events()) is (case in WRITES_LANDED)
    assert all(node.quiescent() for node in cluster.nodes.values())
    again = make_ctx(cluster, scheme, client_id=1)
    assert within_deadline(lambda: run_atomic(again, "probe", PLAN, three_bucket_body)) is None


# Every request frame of the transaction above, as RecordFrames records it.
# Sorted, the buckets are B2 < B1 < B3.
_APPLY, _RELEASE = wire.FLAG_COMMIT_APPLY, wire.FLAG_RELEASE_AFTER
FRAME_ORDERS = {
    Scheme.GLOCK: [
        (Op.GLOCK_ACQUIRE, None, None), (Op.READ, B1, 0), (Op.INCR_SEQ, B2, 0),
        (Op.READ, B3, 0), (Op.INCR_SEQ, B3, 0), (Op.GLOCK_RELEASE, None, None)],
    Scheme.FGL: [
        (Op.FGL_LOCK, B2, None), (Op.FGL_LOCK, B1, None), (Op.FGL_LOCK, B3, None),
        (Op.READ, B1, 0), (Op.INCR_SEQ, B2, 0), (Op.READ, B3, 0), (Op.INCR_SEQ, B3, 0),
        (Op.FGL_UNLOCK, B3, None), (Op.FGL_UNLOCK, B2, None), (Op.FGL_UNLOCK, B1, None)],
    Scheme.OCC: [
        (Op.READ, B1, 0), (Op.READ, B2, 0), (Op.READ, B3, 0), (Op.READ, B3, 0),
        (Op.OCC_LOCK, B2, None), (Op.OCC_LOCK, B3, None),
        (Op.OCC_VALIDATE, B2, 0), (Op.OCC_VALIDATE, B1, 0), (Op.OCC_VALIDATE, B3, 0),
        (Op.WRITE_SEQ, B2, _APPLY), (Op.WRITE_SEQ, B3, _APPLY),
        (Op.OCC_UNLOCK, B2, 1), (Op.OCC_UNLOCK, B3, 1)],
    Scheme.PESV: [
        (Op.SUP_TAKE, B2, None), (Op.SUP_TAKE, B1, None), (Op.SUP_TAKE, B3, None),
        (Op.SUP_UNLATCH, B2, None), (Op.SUP_UNLATCH, B1, None), (Op.SUP_UNLATCH, B3, None),
        (Op.READ, B1, 0), (Op.INCR_SEQ, B2, 0), (Op.READ, B3, 0), (Op.INCR_SEQ, B3, _RELEASE),
        (Op.VER_RELEASE, B2, 1), (Op.VER_RELEASE, B1, 1)],
}


@pytest.mark.parametrize("scheme", FRAME_ORDERS, ids=[s.name.lower() for s in FRAME_ORDERS])
def test_success_path_frame_order(scheme):
    cluster = make_cluster(2)
    ctx = make_ctx(cluster, scheme)
    ctx.transport = recorder = RecordFrames(cluster, ALL_REQUEST_OPCODES)
    run_atomic(ctx, "probe", PLAN, three_bucket_body)
    assert committed_attempts(ctx.sink) == [1]
    assert recorder.trace == FRAME_ORDERS[scheme]


def test_context_records_into_its_own_sink(scheme):
    ctx = make_ctx(make_cluster(2), scheme)  # no sink given
    run_atomic(ctx, "probe", PLAN, three_bucket_body)
    rows = [type(ev) for ev in ctx.sink.events()]
    assert rows[0] is TxnStart and rows[-1] is Commit
    assert set(rows[1:-1]) == {BucketOp} and len(rows) >= 6  # one row per access at least


def test_failed_validation_frame_order():
    cluster = make_cluster(2)
    ctx = make_ctx(cluster, Scheme.OCC)
    ctx.transport = recorder = RecordFrames(cluster, ALL_REQUEST_OPCODES)
    handle = begin(ctx, ctx.next_txn_id(), PLAN)
    handle.access(B1, Read(K1))
    handle.access(B2, IncrSeq(K2))
    competitor = make_ctx(cluster, Scheme.OCC, client_id=1)
    run_atomic(competitor, "bump", {B1: 1}, lambda tx: tx.incr_seq(K1))
    with pytest.raises(OccConflict, match="failed validation$"):
        handle.commit()
    assert not handle.committed
    assert recorder.trace == [
        (Op.READ, B1, 0), (Op.READ, B2, 0), (Op.OCC_LOCK, B2, None),
        (Op.OCC_VALIDATE, B2, 0), (Op.OCC_VALIDATE, B1, 0), (Op.OCC_UNLOCK, B2, 0)]
