"""Scheme behavior: locking, versioning, validation, retries."""

from __future__ import annotations

import random
import threading
import time

import pytest

from conftest import make_cluster, make_ctx
from helenos import wire
from helenos.cc import (
    CommitOutcome,
    TxnDescriptor,
    TxnView,
    begin,
    run_atomic,
)
from helenos.driver import cluster_snapshot
from helenos.errors import AccessSetError, ConfigError
from helenos.model import BucketId, SeqPair, TableId, bucket_of, seqno_key, term_key
from helenos.wire import IncrSeq, Op, Read, Scheme, WriteSeq

B = 8


def seq_bucket(user: int) -> BucketId:
    return bucket_of(seqno_key(user), B)


class TestDescriptors:
    def test_empty_access_set_rejected(self):
        with pytest.raises(ConfigError):
            TxnDescriptor(1, {})

    def test_zero_op_count_rejected(self):
        with pytest.raises(ConfigError):
            TxnDescriptor(1, {seq_bucket(1): 0})

    def test_undeclared_bucket_fails_the_run(self, scheme):
        cluster = make_cluster(2)
        ctx = make_ctx(cluster, scheme)
        handle = begin(ctx, TxnDescriptor(ctx.next_txn_id(), {seq_bucket(1): 1}))
        with pytest.raises(AccessSetError):
            handle.access(seq_bucket(2), Read(seqno_key(2)))
        handle.commit()

    def test_exhausted_op_count_fails_the_run(self, scheme):
        cluster = make_cluster(2)
        ctx = make_ctx(cluster, scheme)
        handle = begin(ctx, TxnDescriptor(ctx.next_txn_id(), {seq_bucket(1): 1}))
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
            handle = begin(ctx, TxnDescriptor(ctx.next_txn_id(), {seq_bucket(1): 2}))
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
        assert result.payload == (SeqPair(1, 0), SeqPair(1, 0))
        assert result.attempts == 1


class TestFgl:
    def test_two_phase_discipline(self):
        cluster = make_cluster(2)
        ctx = make_ctx(cluster, Scheme.FGL)
        plan = {seq_bucket(1): 1, seq_bucket(2): 1, seq_bucket(3): 2}
        handle = begin(ctx, TxnDescriptor(ctx.next_txn_id(), plan))
        handle.access(seq_bucket(1), Read(seqno_key(1)))
        handle.access(seq_bucket(3), Read(seqno_key(3)))
        handle.commit()
        trace = handle.lock_trace
        first_release = next(i for i, (what, _) in enumerate(trace) if what == "release")
        assert all(what == "acquire" for what, _ in trace[:first_release])
        assert all(what == "release" for what, _ in trace[first_release:])
        acquired = [b for what, b in trace if what == "acquire"]
        assert acquired == sorted(acquired), "locks not taken in canonical order"
        released = sorted(b for what, b in trace if what == "release")
        assert released == sorted(plan)

    def test_early_release_lets_second_txn_in(self):
        cluster = make_cluster(2)
        beta, gamma = seq_bucket(1), seq_bucket(2)
        order: list[str] = []
        a_committed = threading.Event()
        a_released_beta = threading.Event()

        def txn_a() -> None:
            ctx = make_ctx(cluster, Scheme.FGL, client_id=0)
            handle = begin(ctx, TxnDescriptor(ctx.next_txn_id(), {beta: 1, gamma: 1}))
            handle.access(beta, Read(seqno_key(1)))  # count hits 0: released now
            a_released_beta.set()
            assert a_committed.wait(5.0), "txn B never finished"
            order.append("a_commit")
            handle.access(gamma, Read(seqno_key(2)))
            handle.commit()

        def txn_b() -> None:
            ctx = make_ctx(cluster, Scheme.FGL, client_id=1)
            assert a_released_beta.wait(5.0)
            handle = begin(ctx, TxnDescriptor(ctx.next_txn_id(), {beta: 1}))
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
            handle = begin(ctx, TxnDescriptor(ctx.next_txn_id(), {bucket: 1}))
            a_begun.set()
            handle.access(bucket, IncrSeq(seqno_key(1)))  # sleeps 100 ms, then releases
            times["a_done"] = time.monotonic()
            handle.commit()

        def txn_b() -> None:
            ctx = make_ctx(cluster, Scheme.PESV, client_id=1, delay_ms=0)
            assert a_begun.wait(5.0)
            handle = begin(ctx, TxnDescriptor(ctx.next_txn_id(), {bucket: 1}))
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
            handle = begin(ctx, TxnDescriptor(ctx.next_txn_id(), {bucket: 1}))
            handle.access(bucket, IncrSeq(seqno_key(3)))
            with lock:
                completions.append(handle.versions[bucket])
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
        handle_a = begin(ctx_a, TxnDescriptor(ctx_a.next_txn_id(), {bucket: 3}))
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

        def body(tx: TxnView):
            tx.write_seq(key, SeqPair(5, 2))
            return tx.read(key)

        result = run_atomic(ctx, "probe", {seq_bucket(1): 2}, body)
        assert result.payload == SeqPair(5, 2)

    def test_writes_invisible_until_commit(self):
        cluster = make_cluster(2)
        ctx_w = make_ctx(cluster, Scheme.OCC, client_id=0)
        ctx_r = make_ctx(cluster, Scheme.OCC, client_id=1)
        key = seqno_key(1)
        handle = begin(ctx_w, TxnDescriptor(ctx_w.next_txn_id(), {seq_bucket(1): 1}))
        handle.access(seq_bucket(1), WriteSeq(key, SeqPair(9, 0)))
        observed = run_atomic(ctx_r, "probe", {seq_bucket(1): 1},
                              lambda tx: tx.read(key))
        assert observed.payload == SeqPair(0, 0)
        handle.commit()
        observed = run_atomic(ctx_r, "probe", {seq_bucket(1): 1},
                              lambda tx: tx.read(key))
        assert observed.payload == SeqPair(9, 0)

    def test_uncontended_commit_first_attempt(self):
        cluster = make_cluster(2)
        ctx = make_ctx(cluster, Scheme.OCC)
        result = run_atomic(ctx, "probe", {seq_bucket(1): 1},
                            lambda tx: tx.incr_seq(seqno_key(1)))
        assert result.attempts == 1

    def test_forced_conflict_exactly_one_winner(self):
        cluster = make_cluster(2)
        bucket = seq_bucket(1)
        barrier = threading.Barrier(2)
        outcomes: list[CommitOutcome] = []
        lock = threading.Lock()

        def worker(client_id: int) -> None:
            ctx = make_ctx(cluster, Scheme.OCC, client_id=client_id)
            handle = begin(ctx, TxnDescriptor(ctx.next_txn_id(), {bucket: 1}))
            handle.access(bucket, IncrSeq(seqno_key(1)))
            barrier.wait()
            outcome = handle.commit()
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(o.value for o in outcomes) == ["aborted_retry", "committed"]

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
        assert final.payload == SeqPair(per_client * clients, 0)

    def test_mixed_version_reads_rejected_eagerly(self):
        from helenos.cc import OccConflict
        from helenos.model import TableKey, TableId

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
        handle = begin(ctx_a, TxnDescriptor(ctx_a.next_txn_id(), {shared: 2}))
        handle.access(shared, Read(k1))
        # A competitor commits a write to the same bucket in between.
        ctx_b = make_ctx(cluster, Scheme.OCC, client_id=1)
        run_atomic(ctx_b, "bump", {shared: 1}, lambda tx: tx.incr_seq(k1))
        with pytest.raises(OccConflict):
            handle.access(shared, Read(k2))

    def test_retry_limit_aborts_run_with_diagnostic(self):
        from helenos.errors import RetryLimitError

        cluster = make_cluster(2)
        bucket = seq_bucket(1)
        stop = threading.Event()

        def competitor() -> None:
            ctx = make_ctx(cluster, Scheme.OCC, client_id=1)
            while not stop.is_set():
                run_atomic(ctx, "bump", {bucket: 1}, lambda tx: tx.incr_seq(seqno_key(1)))

        t = threading.Thread(target=competitor, daemon=True)
        t.start()
        try:
            ctx = make_ctx(cluster, Scheme.OCC, client_id=0)
            ctx.retry_limit = 3
            ctx.backoff_cap_ms = 0.1

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
        results: list[CommitOutcome] = []
        lock = threading.Lock()

        def worker(client_id: int, read_key, read_bucket, write_key, write_bucket) -> None:
            ctx = make_ctx(cluster, Scheme.OCC, client_id=client_id)
            handle = begin(ctx, TxnDescriptor(
                ctx.next_txn_id(), {read_bucket: 1, write_bucket: 1}))
            observed = handle.access(read_bucket, Read(read_key))
            barrier.wait()
            handle.access(write_bucket, WriteSeq(write_key, SeqPair(observed.current + 1, 0)))
            outcome = handle.commit()
            with lock:
                results.append(outcome)

        ta = threading.Thread(target=worker, args=(0, kx, bx, ky, by))
        tb = threading.Thread(target=worker, args=(1, ky, by, kx, bx))
        ta.start(), tb.start()
        ta.join(10.0), tb.join(10.0)
        assert CommitOutcome.ABORTED_RETRY in results, "write skew committed"


class TestRunAtomic:
    def test_non_occ_schemes_always_one_attempt(self, scheme):
        if scheme is Scheme.OCC:
            pytest.skip("optimistic scheme may retry")
        cluster = make_cluster(2)
        clients = 4
        attempts: list[int] = []
        lock = threading.Lock()
        barrier = threading.Barrier(clients)

        def worker(client_id: int) -> None:
            ctx = make_ctx(cluster, scheme, client_id=client_id)
            barrier.wait()
            for _ in range(10):
                r = run_atomic(ctx, "incr", {seq_bucket(1): 1},
                               lambda tx: tx.incr_seq(seqno_key(1)))
                with lock:
                    attempts.append(r.attempts)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert set(attempts) == {1}

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
        assert final.payload.current == clients * per_client


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
        result = run_atomic(ctx2, "probe", {seq_bucket(1): 1},
                            lambda tx: tx.incr_seq(seqno_key(1)))
        assert result.attempts == 1
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

                    def body(tx: TxnView, users=tuple(users)):
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
