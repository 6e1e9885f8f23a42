"""Transaction and task semantics, traced under every scheme."""

from __future__ import annotations

import math
import random
import threading
from collections import Counter
from dataclasses import replace

import pytest

from conftest import committed_attempts, make_cluster, make_ctx
from helenos import cc, store
from helenos import workload as wl
from helenos.cc import run_atomic
from helenos.config import ScenarioConfig, TaskType, bundled_scenarios, load_scenario
from helenos.driver import cluster_snapshot, run_in_process
from helenos.errors import AccessSetError, HelenosError
from helenos.metrics import Commit, EventSink, RetryStart, TxnStart
from helenos.model import (
    Message,
    MsgId,
    SeqPair,
    bucket_of,
    inter_key,
    message_key,
    seqno_key,
    term_key,
)
from helenos.verify import state_from_snapshot
from helenos.wire import Scheme, WriteSeq

B = 8
A, USER_B, C = 1, 2, 3
W1, W2 = 10, 11


class Rig:
    """A fresh two-node cluster plus ready-made transaction runners."""

    def __init__(self, scheme: Scheme, delay_ms: int = 0) -> None:
        self.cluster = make_cluster(2)
        self.scheme = scheme
        self.ctx = make_ctx(self.cluster, scheme, buckets=B, delay_ms=delay_ms)

    def state(self) -> dict:
        snap = cluster_snapshot(self.cluster, self.cluster.layout)
        return state_from_snapshot(snap)

    def seed_seq(self, user: int, pair: SeqPair) -> None:
        key = seqno_key(user)
        bucket = bucket_of(key, B)
        owner = self.cluster.layout.owner_of(bucket)
        self.cluster.nodes[owner].engine.apply(bucket, WriteSeq(key, pair))

    # -- single transactions ----------------------------------------------

    def send(self, sender: int, recipient: int, content) -> MsgId:
        return run_atomic(
            self.ctx, "send_msg", wl.plan_send_msg(B, sender, recipient, content),
            lambda tx: wl.txn_send_msg(tx, sender, recipient, content),
        )

    def association(self, u1: int, u2: int):
        return run_atomic(
            self.ctx, "get_association", wl.plan_get_association(B, u1, u2),
            lambda tx: wl.txn_get_association(tx, u1, u2),
        )

    def by_keyword(self, user: int, kws):
        return run_atomic(
            self.ctx, "get_by_keyword", wl.plan_get_by_keyword(B, user, kws),
            lambda tx: wl.txn_get_by_keyword(tx, user, kws),
        )

    def conversation(self, s: int, r: int, both=False):
        return run_atomic(
            self.ctx, "get_conversation", wl.plan_get_conversation(B, s, r, both),
            lambda tx: wl.txn_get_conversation(tx, s, r, both),
        )

    def get_messages(self, ids):
        return run_atomic(
            self.ctx, "get_messages", wl.plan_get_messages(B, ids),
            lambda tx: wl.txn_get_messages(tx, ids),
        )

    def index(self, queries, cap=3):
        return run_atomic(
            self.ctx, "index_messages", wl.plan_index_messages(B, queries),
            lambda tx: wl.txn_index_messages(tx, queries, cap),
        )

    def reset_cutoff(self, user: int) -> SeqPair:
        return run_atomic(
            self.ctx, "reset_cutoff", wl.plan_reset_cutoff(B, user),
            lambda tx: wl.txn_reset_cutoff(tx, user),
        )

    def remove(self, messages) -> None:
        run_atomic(
            self.ctx, "remove_messages", wl.plan_remove_messages(B, messages),
            lambda tx: wl.txn_remove_messages(tx, messages),
        )

    def import_batch(self, messages) -> int:
        return run_atomic(
            self.ctx, "import_messages", wl.plan_import_messages(B, messages),
            lambda tx: wl.txn_import_messages(tx, messages),
        )


@pytest.fixture
def rig(scheme) -> Rig:
    return Rig(scheme)


class _NoStorage:
    """Transaction view stub for bodies that must not touch storage."""

    def __getattr__(self, name):
        raise AssertionError(f"unexpected storage access: {name}")


class TestGetAssociation:
    def test_empty_database(self, rig):
        ids, pairs = rig.association(A, USER_B)
        assert ids == []
        assert pairs == [SeqPair(0, 0), SeqPair(0, 0)]

    def test_after_one_send_both_directions_hold_it(self, rig):
        mid = rig.send(A, USER_B, [W1, W2])
        assert mid == MsgId(USER_B, 1)
        ids, pairs = rig.association(A, USER_B)
        assert ids == [MsgId(USER_B, 1), MsgId(USER_B, 1)]
        assert pairs == [SeqPair(0, 0), SeqPair(1, 0)]

    def test_symmetric_up_to_concatenation_order(self, rig):
        rig.send(A, USER_B, [W1])
        rig.send(USER_B, A, [W2])
        ids_ab, pairs_ab = rig.association(A, USER_B)
        ids_ba, pairs_ba = rig.association(USER_B, A)
        assert sorted(ids_ab) == sorted(ids_ba)
        assert pairs_ab == list(reversed(pairs_ba))


class TestGetByKeyword:
    def test_empty_keyword_set_touches_nothing(self):
        assert wl.txn_get_by_keyword(_NoStorage(), A, set()) == set()

    def test_finds_message_under_recipient(self, rig):
        rig.send(A, USER_B, [W1, W2])
        assert rig.by_keyword(USER_B, {W1}) == {MsgId(USER_B, 1)}

    def test_terms_indexed_under_recipient_not_sender(self, rig):
        rig.send(A, USER_B, [W1, W2])
        assert rig.by_keyword(A, {W1}) == set()


class TestGetConversation:
    def test_empty_database(self, rig):
        assert rig.conversation(A, USER_B) == []

    def test_single_direction_read_sees_send(self, rig):
        rig.send(A, USER_B, [W1])
        assert rig.conversation(A, USER_B) == [MsgId(USER_B, 1)]
        assert rig.conversation(USER_B, A) == [MsgId(USER_B, 1)]

    def test_pair_variant_reads_both_directions(self, rig):
        rig.send(A, USER_B, [W1])
        rig.send(USER_B, A, [W2])
        ids = rig.conversation(A, USER_B, both=True)
        assert ids == [MsgId(USER_B, 1), MsgId(A, 1), MsgId(USER_B, 1), MsgId(A, 1)]


class TestGetMessages:
    def test_empty_ids_touch_nothing(self):
        assert wl.txn_get_messages(_NoStorage(), []) == []

    def test_fetches_stored_message(self, rig):
        rig.send(A, USER_B, [W1, W2])
        msgs = rig.get_messages([MsgId(USER_B, 1)])
        assert len(msgs) == 1
        assert msgs[0].sender == A
        assert msgs[0].recipient == USER_B
        assert msgs[0].content == (W1, W2)

    def test_missing_ids_silently_skipped(self, rig):
        rig.send(A, USER_B, [W1])
        msgs = rig.get_messages([MsgId(USER_B, 1), MsgId(USER_B, 9), MsgId(C, 1)])
        assert [m.id for m in msgs] == [MsgId(USER_B, 1)]

    def test_deleted_message_contributes_nothing(self, rig):
        rig.send(A, USER_B, [W1])
        (msg,) = rig.get_messages([MsgId(USER_B, 1)])
        rig.remove([msg])
        assert rig.get_messages([MsgId(USER_B, 1)]) == []


class TestIndexMessages:
    def test_empty_database(self, rig):
        msgs, pairs = rig.index({A: {W1}, USER_B: {W2}})
        assert msgs == []
        assert pairs == [SeqPair(0, 0), SeqPair(0, 0)]

    def test_sorted_by_timestamp(self, rig):
        rig.send(A, USER_B, [W1])
        rig.send(C, USER_B, [W2])
        msgs, pairs = rig.index({USER_B: {W1, W2}})
        assert [m.id for m in msgs] == [MsgId(USER_B, 1), MsgId(USER_B, 2)]
        assert msgs[0].timestamp < msgs[1].timestamp
        assert pairs == [SeqPair(2, 0)]

    def test_cropped_to_cap_after_sorting(self, rig):
        for i in range(5):
            rig.send(A, USER_B, [W1])
        msgs, _ = rig.index({USER_B: {W1}}, cap=3)
        assert [m.id.seq for m in msgs] == [1, 2, 3]

    def test_duplicate_hits_deduplicated(self, rig):
        rig.send(A, USER_B, [W1, W2])  # both keywords point at the same message
        msgs, _ = rig.index({USER_B: {W1, W2}})
        assert [m.id for m in msgs] == [MsgId(USER_B, 1)]


class TestResetCutoff:
    def test_fresh_user_is_fixed_point(self, rig):
        assert rig.reset_cutoff(A) == SeqPair(0, 0)
        assert seqno_key(A) not in rig.state()

    def test_trace_and_idempotence(self, rig):
        rig.seed_seq(A, SeqPair(7, 2))
        assert rig.reset_cutoff(A) == SeqPair(7, 2)
        assert rig.state()[seqno_key(A)] == SeqPair(7, 7)
        assert rig.reset_cutoff(A) == SeqPair(7, 7)
        assert rig.state()[seqno_key(A)] == SeqPair(7, 7)


class TestSendMsg:
    def test_full_first_send_trace(self, rig):
        mid = rig.send(A, USER_B, [W1, W2])
        assert mid == MsgId(USER_B, 1)
        state = rig.state()
        assert state[seqno_key(USER_B)] == SeqPair(1, 0)
        (stored,) = state[message_key(USER_B)]
        assert (stored.id, stored.sender, stored.recipient) == (mid, A, USER_B)
        assert stored.content == (W1, W2)
        assert state[inter_key(A, USER_B)] == (mid,)
        assert state[inter_key(USER_B, A)] == (mid,)
        assert state[term_key(USER_B, W1)] == (mid,)
        assert state[term_key(USER_B, W2)] == (mid,)
        # Exactly these six entries and nothing else.
        assert len(state) == 6

    def test_second_send_increments_sequence(self, rig):
        rig.send(A, USER_B, [W1])
        assert rig.send(C, USER_B, [W2]) == MsgId(USER_B, 2)

    def test_duplicate_words_index_once(self, rig):
        mid = rig.send(A, USER_B, [W1, W1, W1])
        state = rig.state()
        assert state[term_key(USER_B, W1)] == (mid,)
        (stored,) = state[message_key(USER_B)]
        assert stored.content == (W1, W1, W1)

    @staticmethod
    def count_hashing(monkeypatch) -> Counter:
        """Count ``bucket_of`` calls by key, in the planner and in the view."""
        hashed: Counter = Counter()

        def counting(key, buckets_per_table):
            hashed[key] += 1
            return bucket_of(key, buckets_per_table)

        monkeypatch.setattr(wl, "bucket_of", counting)
        monkeypatch.setattr(cc, "bucket_of", counting)
        return hashed

    def test_each_distinct_key_hashed_once(self, rig, monkeypatch):
        hashed = self.count_hashing(monkeypatch)
        rig.send(A, USER_B, [W1, W2, W1])
        keys = [seqno_key(USER_B), message_key(USER_B), inter_key(A, USER_B),
                inter_key(USER_B, A), term_key(USER_B, W1), term_key(USER_B, W2)]
        assert hashed == Counter(keys)

    def test_undeclared_key_still_refused(self, rig, monkeypatch):
        plan = wl.plan_send_msg(B, A, USER_B, [W1])
        stray = next(seqno_key(u) for u in range(100) if bucket_of(seqno_key(u), B) not in plan)
        hashed = self.count_hashing(monkeypatch)
        with pytest.raises(AccessSetError):
            run_atomic(rig.ctx, "send_msg", plan, lambda tx: tx.read(stray))
        assert hashed == Counter([stray])


class TestRemoveMessages:
    def test_empty_is_noop(self, rig):
        wl.txn_remove_messages(_NoStorage(), [])

    def test_send_then_remove_clears_everything_but_seq(self, rig):
        rig.send(A, USER_B, [W1, W2])
        (msg,) = rig.get_messages([MsgId(USER_B, 1)])
        rig.remove([msg])
        state = rig.state()
        assert state == {seqno_key(USER_B): SeqPair(1, 0)}

    def test_removing_again_is_noop(self, rig):
        rig.send(A, USER_B, [W1])
        (msg,) = rig.get_messages([MsgId(USER_B, 1)])
        rig.remove([msg])
        before = rig.state()
        rig.remove([msg])
        assert rig.state() == before


class TestImportMessages:
    def msg(self, seq: int, recipient: int = USER_B, sender: int = A,
            content=(W1,), ts: int = 50) -> Message:
        return Message(MsgId(recipient, seq), sender, recipient, tuple(content), ts)

    def test_import_raises_current(self, rig):
        count = rig.import_batch([self.msg(3)])
        assert count == 1
        state = rig.state()
        assert state[seqno_key(USER_B)] == SeqPair(3, 0)
        assert [m.id for m in state[message_key(USER_B)]] == [MsgId(USER_B, 3)]
        assert state[inter_key(A, USER_B)] == (MsgId(USER_B, 3),)
        assert state[inter_key(USER_B, A)] == (MsgId(USER_B, 3),)

    def test_below_cutoff_skipped(self, rig):
        rig.seed_seq(USER_B, SeqPair(5, 5))
        assert rig.import_batch([self.msg(3)]) == 0
        assert message_key(USER_B) not in rig.state()

    def test_reimport_skipped(self, rig):
        assert rig.import_batch([self.msg(3)]) == 1
        assert rig.import_batch([self.msg(3)]) == 0
        state = rig.state()
        assert len(state[message_key(USER_B)]) == 1
        assert state[inter_key(A, USER_B)] == (MsgId(USER_B, 3),)

    def test_cutoff_is_inclusive(self, rig):
        rig.seed_seq(USER_B, SeqPair(5, 5))
        assert rig.import_batch([self.msg(5)]) == 0
        assert rig.import_batch([self.msg(6)]) == 1

    def test_keeps_explicit_timestamp(self, rig):
        rig.import_batch([self.msg(2, ts=333)])
        (stored,) = rig.state()[message_key(USER_B)]
        assert stored.timestamp == 333


class TestTasks:
    def make_runtime(self, scheme: Scheme, seed: int = 0, **cfg_kwargs) -> wl.ClientRuntime:
        cluster = make_cluster(2)
        cfg = ScenarioConfig(nodes=2, buckets=B, clients=1, tasks_per_client=1,
                             user_population=8, keyword_domain=16, op_delay_ms=0,
                             scheme=scheme, seed=seed, **cfg_kwargs)
        ctx = make_ctx(cluster, scheme, buckets=B)
        return wl.ClientRuntime(ctx=ctx, cfg=cfg, rng=random.Random(seed))

    def test_association_level_on_empty_db(self, rig):
        ids, pairs = rig.association(A, USER_B)
        ratio = len(set(ids)) / max(1, pairs[0].current - pairs[0].deleted)
        assert ratio == 0

    def test_association_level_task_value(self, scheme):
        runtime = self.make_runtime(scheme)
        assert runtime.run_task(TaskType.ASSOCIATION_LEVEL) == 0

    def test_clear_inbox_three_transaction_trace(self, rig):
        for sender in (A, C, 4):
            rig.send(sender, USER_B, [W1])
        pre = rig.reset_cutoff(USER_B)
        assert pre == SeqPair(3, 0)
        ids = [MsgId(USER_B, s) for s in range(pre.deleted + 1, pre.current + 1)]
        msgs = rig.get_messages(ids)
        assert len(msgs) == 3
        rig.remove(msgs)
        state = rig.state()
        assert state == {seqno_key(USER_B): SeqPair(3, 3)}

    def test_multicast_is_one_atomic_commit(self, rig):
        recipients = [2, 3, 4, 5]
        content = [W1]
        builder = wl._PlanBuilder(B)
        for r in recipients:
            wl._plan_one_send(builder, A, r, content)
        ids = run_atomic(
            rig.ctx, "send_msg", builder,
            lambda tx: [wl.txn_send_msg(tx, A, r, content) for r in recipients],
        )
        assert committed_attempts(rig.ctx.sink) == [1] or rig.scheme is Scheme.OCC
        assert ids == [MsgId(r, 1) for r in recipients]
        state = rig.state()
        for r in recipients:
            assert state[seqno_key(r)] == SeqPair(1, 0)

    def test_clear_inbox_task_runs_end_to_end(self, scheme):
        runtime = self.make_runtime(scheme, seed=5)
        for _ in range(6):
            runtime.run_task(TaskType.SEND_UNICAST)
        for _ in range(4):
            runtime.ctx.sink = EventSink()
            assert runtime.run_task(TaskType.CLEAR_INBOX) is None
            commits = [e for e in runtime.ctx.sink.events() if isinstance(e, Commit)]
            assert 1 <= len(commits) <= 3

    def test_batch_import_task_reports_count(self, scheme):
        runtime = self.make_runtime(scheme, seed=2)
        imported = runtime.run_task(TaskType.BATCH_IMPORT)
        assert 0 <= imported <= runtime.cfg.import_batch[1]


class TestPickTask:
    STANDARD = {
        TaskType.TERM_SEARCH: 0.25, TaskType.INTERACTION_SEARCH: 0.20,
        TaskType.SEND_UNICAST: 0.06, TaskType.SEND_MULTICAST: 0.04,
        TaskType.BATCH_IMPORT: 0.04, TaskType.CLEAR_INBOX: 0.06,
        TaskType.ASSOCIATION_LEVEL: 0.20, TaskType.INDEXING: 0.15,
    }

    class _Roll:
        def __init__(self, value: float) -> None:
            self.value = value

        def random(self) -> float:
            return self.value

    def cfg(self, probs) -> ScenarioConfig:
        return ScenarioConfig(probabilities=dict(probs))

    def test_cumulative_boundaries(self):
        cfg = self.cfg(self.STANDARD)
        assert wl.pick_task(cfg, self._Roll(0.0)) is TaskType.TERM_SEARCH
        assert wl.pick_task(cfg, self._Roll(0.249)) is TaskType.TERM_SEARCH
        assert wl.pick_task(cfg, self._Roll(0.25)) is TaskType.INTERACTION_SEARCH
        assert wl.pick_task(cfg, self._Roll(0.449)) is TaskType.INTERACTION_SEARCH
        assert wl.pick_task(cfg, self._Roll(0.58)) is TaskType.BATCH_IMPORT
        assert wl.pick_task(cfg, self._Roll(0.649)) is TaskType.CLEAR_INBOX
        assert wl.pick_task(cfg, self._Roll(0.849)) is TaskType.ASSOCIATION_LEVEL
        assert wl.pick_task(cfg, self._Roll(0.999)) is TaskType.INDEXING

    def test_degenerate_vector(self):
        probs = {t: 0.0 for t in TaskType}
        probs[TaskType.INDEXING] = 1.0
        cfg = self.cfg(probs)
        rng = random.Random(4)
        assert all(wl.pick_task(cfg, rng) is TaskType.INDEXING for _ in range(200))

    def test_empirical_frequencies(self):
        cfg = self.cfg(self.STANDARD)
        rng = random.Random(11)
        n = 20_000
        counts = {t: 0 for t in TaskType}
        for _ in range(n):
            counts[wl.pick_task(cfg, rng)] += 1
        for task, p in self.STANDARD.items():
            assert abs(counts[task] / n - p) < 0.02


def _loop_pick(cfg: ScenarioConfig, roll: float) -> TaskType:
    """The accumulate loop that picked tasks before the bound table: the oracle."""
    acc = 0.0
    for task in TaskType:
        acc += cfg.probabilities[task]
        if roll < acc:
            return task
    return list(TaskType)[-1]  # floating point residue


def _degenerate() -> ScenarioConfig:
    probs = {t: 0.0 for t in TaskType}
    probs[TaskType.INDEXING] = 1.0
    return ScenarioConfig(probabilities=probs)


@pytest.mark.parametrize("cfg", [*map(load_scenario, bundled_scenarios()), _degenerate()],
                         ids=[*bundled_scenarios(), "degenerate"])
def test_pick_task_picks_what_the_loop_picks(cfg):
    # Each cumulative boundary and its neighbours, 0.0, and the largest double below 1.0.
    rolls, acc = {0.0, math.nextafter(1.0, 0.0)}, 0.0
    for task in TaskType:
        acc += cfg.probabilities[task]
        rolls.update((math.nextafter(acc, 0.0), acc, math.nextafter(acc, 2.0)))
    for roll in sorted(r for r in rolls if 0.0 <= r < 1.0):
        assert wl.pick_task(cfg, TestPickTask._Roll(roll)) is _loop_pick(cfg, roll), roll


class TestRunClients:
    def small_cfg(self, **kw) -> ScenarioConfig:
        base = dict(nodes=2, buckets=16, clients=2, tasks_per_client=3,
                    user_population=8, keyword_domain=16, op_delay_ms=0,
                    scheme=Scheme.GLOCK, seed=21)
        base.update(kw)
        return ScenarioConfig(**base)

    def test_single_client_single_task(self):
        cfg = self.small_cfg(clients=1, tasks_per_client=1)
        artifacts = run_in_process(cfg)
        starts = [e for e in artifacts.events if isinstance(e, TxnStart)]
        commits = [e for e in artifacts.events if isinstance(e, Commit)]
        retries = [e for e in artifacts.events if isinstance(e, RetryStart)]
        assert len(starts) == len(commits) >= 1
        assert retries == []
        assert all(c.attempt == 1 for c in commits)

    def test_total_tasks_is_clients_times_tasks(self, monkeypatch):
        from helenos.driver import run_clients
        from helenos.transport import LoopbackCluster

        tasks = Counter()
        run_task = wl.ClientRuntime.run_task

        def counted(runtime, task):
            tasks[runtime.ctx.client_id] += 1
            return run_task(runtime, task)

        monkeypatch.setattr(wl.ClientRuntime, "run_task", counted)
        cfg = self.small_cfg(clients=3, tasks_per_client=4, scheme=Scheme.FGL)
        cluster = LoopbackCluster(cfg.node_ids())
        run_clients(cfg, cluster.layout, lambda _i: cluster, EventSink())
        assert tasks == {0: 4, 1: 4, 2: 4}

    def test_per_client_task_sequences_replay(self):
        # State-independent mix so the drawn sequence is visible in events.
        probs = {t: 0.0 for t in TaskType}
        probs[TaskType.SEND_UNICAST] = 1.0
        cfg = self.small_cfg(scheme=Scheme.FGL, probabilities=probs,
                             clients=2, tasks_per_client=5)

        def kinds_by_client(artifacts):
            out: dict[int, list[str]] = {}
            for e in artifacts.events:
                if isinstance(e, TxnStart):
                    out.setdefault(e.client_id, []).append(e.kind)
            return out

        first = kinds_by_client(run_in_process(cfg))
        second = kinds_by_client(run_in_process(cfg))
        assert first == second
        assert all(len(v) == 5 for v in first.values())

    def test_glock_runs_reproduce_snapshots(self):
        cfg = self.small_cfg()
        a = run_in_process(cfg)
        b = run_in_process(cfg)
        assert a.snapshot == b.snapshot
        assert a.report.commits == b.report.commits

    def test_commits_bounded_by_three_txns_per_task(self):
        cfg = self.small_cfg(clients=3, tasks_per_client=4, scheme=Scheme.FGL)
        artifacts = run_in_process(cfg)
        assert artifacts.report.commits <= 3 * 4 * 3

    def test_failed_clients_raise_once_without_thread_tracebacks(self, monkeypatch):
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)

        def failing_apply(_engine, _bucket, _op):
            raise RuntimeError("apply failed")

        monkeypatch.setattr(store.StorageEngine, "apply", failing_apply)
        cfg = replace(load_scenario("small-w"), scheme=Scheme.FGL, clients=4, op_delay_ms=0)
        with pytest.raises(HelenosError, match="client failed"):
            run_in_process(cfg)
        assert hooked == []

    def test_glock_mean_ops_per_txn_pinned(self):
        # c08's k on the standard mix: 630 ops over 96 committed txns.
        cfg = replace(load_scenario("standard"), scheme=Scheme.GLOCK, op_delay_ms=0)
        report = run_in_process(cfg).report
        assert report.total_bucket_ops / report.commits == 630 / 96
