"""Offline checkers: brute-force witness search, conflict graph, integrity."""

from __future__ import annotations

import pytest

from helenos import verify
from helenos.config import ScenarioConfig
from helenos.driver import run_in_process
from helenos.errors import VerificationError
from helenos.metrics import BucketOp, Commit
from helenos.model import (
    BucketId,
    Message,
    MsgId,
    SeqPair,
    TableId,
    inter_key,
    message_key,
    seqno_key,
    term_key,
)
from helenos.verify import (
    History,
    TxnEffect,
    brute_force_serializable,
    build_history,
    check_integrity,
    check_run,
    check_serializable,
    conflict_graph_serializable,
    state_from_snapshot,
)
from helenos.wire import OP_SPECS, Scheme

BX = BucketId(TableId.SEQNO, 0)
BY = BucketId(TableId.SEQNO, 1)
KX = seqno_key(10)
KY = seqno_key(11)


def effect_op(op_index, bucket, kind, key, value, bucket_seq) -> BucketOp:
    return BucketOp(0, 0, 0, 1, bucket, op_index, kind, key, value, bucket_seq)


def write_skew_history() -> tuple[History, dict]:
    t1 = TxnEffect(1, 100, [
        effect_op(1, BX, "read", KX, SeqPair(0, 0), 1),
        effect_op(2, BY, "write_seq", KY, SeqPair(1, 0), 2),
    ])
    t2 = TxnEffect(2, 101, [
        effect_op(1, BY, "read", KY, SeqPair(0, 0), 1),
        effect_op(2, BX, "write_seq", KX, SeqPair(1, 0), 2),
    ])
    return History([t1, t2]), {KX: SeqPair(1, 0), KY: SeqPair(1, 0)}


def lost_update_history() -> tuple[History, dict]:
    """Both transactions read X, then both write X: one update is lost."""
    t1 = TxnEffect(1, 100, [
        effect_op(1, BX, "read", KX, SeqPair(0, 0), 1),
        effect_op(2, BX, "write_seq", KX, SeqPair(1, 0), 3),
    ])
    t2 = TxnEffect(2, 101, [
        effect_op(1, BX, "read", KX, SeqPair(0, 0), 2),
        effect_op(2, BX, "write_seq", KX, SeqPair(1, 0), 4),
    ])
    return History([t1, t2]), {KX: SeqPair(1, 0)}


def stale_read_history() -> tuple[History, dict]:
    """T3 sees T2's write, which read T1's write, yet reads X from before T1."""
    t1 = TxnEffect(1, 100, [effect_op(1, BX, "write_seq", KX, SeqPair(1, 0), 2)])
    t2 = TxnEffect(2, 101, [
        effect_op(1, BX, "read", KX, SeqPair(1, 0), 3),
        effect_op(2, BY, "write_seq", KY, SeqPair(1, 0), 1),
    ])
    t3 = TxnEffect(3, 102, [
        effect_op(1, BY, "read", KY, SeqPair(1, 0), 2),
        effect_op(2, BX, "read", KX, SeqPair(0, 0), 1),
    ])
    return History([t1, t2, t3]), {KX: SeqPair(1, 0), KY: SeqPair(1, 0)}


def chain_history(n: int) -> History:
    """Transaction i writes bucket i-1, which transaction i-1 wrote, and bucket i."""
    buckets = [BucketId(TableId.SEQNO, i) for i in range(n)]
    effects = []
    writes = dict.fromkeys(buckets, 0)
    for i in range(n):
        ops = []
        for op_index, b in enumerate(buckets[max(i - 1, 0):i + 1], start=1):
            writes[b] += 1
            ops.append(effect_op(op_index, b, "write_seq", seqno_key(b.index), SeqPair(i, 0),
                                 writes[b]))
        effects.append(TxnEffect(i, i, ops))
    return History(effects)


def ops_history(orders: dict) -> History:
    """A history of the ops the graph check reads, given as each bucket's
    apply order ``[(bucket_seq, txn, kind)]``; transaction t commits at t."""
    ops: dict[int, list[BucketOp]] = {}
    for bucket, order in orders.items():
        for seq, txn, kind in order:
            mine = ops.setdefault(txn, [])
            mine.append(effect_op(len(mine) + 1, bucket, kind, seqno_key(bucket.index), None, seq))
    return History([TxnEffect(txn, txn, ops[txn]) for txn in sorted(ops)])


def small_cfg(**kw) -> ScenarioConfig:
    base = dict(nodes=2, buckets=2, clients=2, tasks_per_client=1,
                user_population=4, keyword_domain=8, op_delay_ms=0,
                multicast_recipients=(2, 3), import_batch=(1, 3),
                scheme=Scheme.GLOCK, seed=1)
    base.update(kw)
    return ScenarioConfig(**base)


class TestBruteForce:
    def test_serial_run_witness_is_commit_order(self):
        artifacts = run_in_process(small_cfg(clients=2, seed=3))
        history = build_history(artifacts.events)
        state = state_from_snapshot(artifacts.snapshot)
        verdict = brute_force_serializable(history, state)
        assert verdict.ok
        commit_order = [e.txn_id for e in history.effects]
        assert verdict.witness == commit_order

    def test_interleaved_run_has_witness(self, scheme):
        cfg = small_cfg(scheme=scheme, clients=3, seed=9)
        artifacts = run_in_process(cfg)
        history = build_history(artifacts.events)
        assert len(history.effects) <= 10
        state = state_from_snapshot(artifacts.snapshot)
        verdict = brute_force_serializable(history, state)
        assert verdict.ok, verdict.detail
        assert sorted(verdict.witness) == sorted(e.txn_id for e in history.effects)

    def test_write_skew_is_rejected(self):
        history, final = write_skew_history()
        verdict = brute_force_serializable(history, final)
        assert not verdict.ok

    def test_wrong_final_state_is_rejected(self):
        artifacts = run_in_process(small_cfg(seed=5))
        history = build_history(artifacts.events)
        state = state_from_snapshot(artifacts.snapshot)
        state[seqno_key(999)] = SeqPair(42, 0)  # state the run never produced
        verdict = brute_force_serializable(history, state)
        assert not verdict.ok

    def test_incr_seq_effect_asserts_predecessor(self):
        t = TxnEffect(1, 10, [effect_op(1, BX, "incr_seq", KX, SeqPair(5, 0), 1)])
        history = History([t])
        ok = brute_force_serializable(history, {KX: SeqPair(5, 0)},
                                      initial_state={KX: SeqPair(4, 0)})
        assert ok.ok
        bad = brute_force_serializable(history, {KX: SeqPair(5, 0)})
        assert not bad.ok  # increment from (0,0) cannot yield (5,0)

    @pytest.mark.parametrize("make", [lost_update_history, stale_read_history],
                             ids=["lost_update", "stale_read"])
    def test_anomaly_is_rejected(self, make):
        history, final = make()
        assert not brute_force_serializable(history, final).ok

    @pytest.mark.parametrize("txns, mode", [(10, "brute-force"), (11, "conflict-graph")])
    def test_check_picked_by_history_size(self, txns, mode):
        effects = [TxnEffect(i, i, [effect_op(1, BX, "read", KX, SeqPair(0, 0), i)])
                   for i in range(txns)]
        history = History(effects)
        verdict = check_serializable(history, {})
        assert verdict.ok and verdict.mode == mode


@pytest.fixture
def no_cycle_search(monkeypatch):
    def refuse(_edges):
        raise AssertionError("cycle search on an acyclic graph")

    monkeypatch.setattr(verify, "_shortest_cycle", refuse)


class TestConflictGraph:
    def test_write_skew_two_cycle(self):
        history, _final = write_skew_history()
        verdict = conflict_graph_serializable(history)
        assert not verdict.ok
        assert verdict.cycle is not None
        assert sorted(verdict.cycle) == [1, 2]

    def test_acyclic_history_accepted(self, scheme):
        cfg = small_cfg(scheme=scheme, clients=3, seed=13)
        artifacts = run_in_process(cfg)
        history = build_history(artifacts.events)
        verdict = conflict_graph_serializable(history)
        assert verdict.ok

    @pytest.mark.parametrize("make, cycle", [(lost_update_history, [1, 2]),
                                             (stale_read_history, [1, 2, 3])],
                             ids=["lost_update", "stale_read"])
    def test_anomaly_cycle(self, make, cycle):
        history, _final = make()
        verdict = conflict_graph_serializable(history)
        assert not verdict.ok
        assert verdict.cycle == cycle
        assert verdict.detail == "precedence cycle: " + " -> ".join(map(str, cycle))

    def test_witness_order_pinned(self):
        # Edges 3->1 (BX), 5->2 (BY), 4->3 (BZ); ready transactions are taken
        # lowest id first and successors are released in ascending id order.
        bz = BucketId(TableId.SEQNO, 2)
        history = ops_history({
            BX: [(1, 3, "write_seq"), (2, 1, "read")],
            BY: [(1, 5, "append"), (2, 2, "remove")],
            bz: [(1, 4, "read"), (2, 3, "incr_seq")],
        })
        verdict = conflict_graph_serializable(history)
        assert verdict.ok
        assert verdict.witness == [4, 5, 3, 2, 1]

    def test_acyclic_run_never_searches_for_a_cycle(self, scheme, no_cycle_search):
        cfg = small_cfg(scheme=scheme, clients=3, tasks_per_client=4, seed=29, buckets=4)
        artifacts = run_in_process(cfg)
        history = build_history(artifacts.events)
        verdict = conflict_graph_serializable(history)
        assert verdict.ok
        assert sorted(verdict.witness) == sorted(e.txn_id for e in history.effects)

    def test_long_chain_is_checked_without_a_cycle_search(self, no_cycle_search):
        # A BFS from every transaction is quadratic on this history.
        n = 20_000
        verdict = conflict_graph_serializable(chain_history(n))
        assert verdict.ok
        assert verdict.witness == list(range(n))

    @pytest.mark.parametrize("spec", OP_SPECS.values(), ids=lambda spec: spec.kind)
    def test_op_kind_conflicts_exactly_when_its_row_writes(self, spec):
        # T1 does the op on X, T2 reads X and writes Y, and T1 then reads Y.
        history = ops_history({
            BX: [(1, 1, spec.kind), (2, 2, "read")],
            BY: [(1, 2, "write_seq"), (2, 1, "read")],
        })
        verdict = conflict_graph_serializable(history)
        assert verdict.ok is not spec.writes
        assert verdict.cycle == ([1, 2] if spec.writes else None)

    def test_unknown_op_kind_refused(self):
        # With "append" this history has the cycle 1 -> 2; a misspelled kind
        # must not be taken for a read and give a false "serializable".
        history = ops_history({
            BX: [(1, 1, "apend"), (2, 2, "read")],
            BY: [(1, 2, "write_seq"), (2, 1, "read")],
        })
        with pytest.raises(VerificationError, match="unknown effect kind 'apend'"):
            conflict_graph_serializable(history)

    def test_read_read_is_not_a_conflict(self):
        t1 = TxnEffect(1, 10, [effect_op(1, BX, "read", KX, SeqPair(0, 0), 1)])
        t2 = TxnEffect(2, 11, [effect_op(1, BX, "read", KX, SeqPair(0, 0), 2)])
        history = History([t1, t2])
        verdict = conflict_graph_serializable(history)
        assert verdict.ok


def reads_of_kx(txns: range, seen: SeqPair) -> list[TxnEffect]:
    """One transaction per id in ``txns``, each reading ``seen`` from KX."""
    return [TxnEffect(i, i, [effect_op(1, BX, "read", KX, seen, i)]) for i in txns]


class TestWitnessReplay:
    def test_graph_pass_replays_to_the_snapshot(self, scheme):
        cfg = small_cfg(scheme=scheme, clients=3, tasks_per_client=4, seed=29, buckets=4)
        artifacts = run_in_process(cfg)
        serial, integrity = check_run(artifacts.events, artifacts.snapshot)
        assert serial.ok and serial.mode == "conflict-graph", serial.detail
        assert serial.witness == conflict_graph_serializable(build_history(artifacts.events)).witness
        assert integrity.ok

    def test_contradicted_read_named(self):
        # T0's write precedes every read in the bucket order, yet each read
        # saw the entry from before it: an acknowledged write left unstored.
        t0 = TxnEffect(0, 0, [effect_op(1, BX, "write_seq", KX, SeqPair(1, 0), 1)])
        history = History([t0, *reads_of_kx(range(1, 11), SeqPair(0, 0))])
        assert conflict_graph_serializable(history).ok
        verdict = check_serializable(history, {KX: SeqPair(1, 0)})
        assert (verdict.ok, verdict.mode, verdict.witness, verdict.cycle) == (
            False, "conflict-graph", None, None)
        assert verdict.detail == (
            "witness replay: txn 1's read of SEQNO:(10,) observed"
            " SeqPair(current=0, deleted=0), which the replay contradicts")

    def test_snapshot_mismatch_named(self):
        history = History(reads_of_kx(range(11), SeqPair(0, 0)))
        verdict = check_serializable(history, {KY: SeqPair(3, 0)})
        assert not verdict.ok
        assert verdict.detail == (
            "witness replay: SEQNO:(11,) replays to SeqPair(current=0, deleted=0),"
            " the snapshot holds SeqPair(current=3, deleted=0)")

    def test_cycle_verdict_unchanged(self):
        skew, final = write_skew_history()
        history = History([*skew.effects, *reads_of_kx(range(3, 12), SeqPair(0, 0))])
        verdict = check_serializable(history, final)
        assert verdict == conflict_graph_serializable(history)
        assert verdict.cycle == [1, 2]

    def test_long_chain_replays_in_place(self, monkeypatch):
        # Copying the state per transaction would make this replay quadratic.
        monkeypatch.setattr(verify, "_replay_txn", None)
        history = chain_history(20_000)
        final = {op.key: op.value for effect in history.effects for op in effect.ops}
        verdict = check_serializable(history, final)
        assert verdict.ok and verdict.witness == list(range(20_000))


class TestIntegrity:
    def test_empty_snapshot_passes(self):
        assert check_integrity({}).ok

    def test_seeded_runs_pass(self, scheme):
        cfg = small_cfg(scheme=scheme, clients=3, tasks_per_client=2, seed=17,
                        buckets=8)
        artifacts = run_in_process(cfg)
        verdict = check_integrity(state_from_snapshot(artifacts.snapshot))
        assert verdict.ok, verdict.violations[:5]

    def test_dangling_term_id_named(self):
        state = {term_key(1, 2): (MsgId(1, 9),)}
        verdict = check_integrity(state)
        assert not verdict.ok
        assert any("MsgId(recipient=1, seq=9)" in v for v in verdict.violations)

    def test_missing_inter_direction_detected(self):
        msg = Message(MsgId(2, 1), 1, 2, (3,), 1)
        state = {
            message_key(2): (msg,),
            inter_key(1, 2): (msg.id,),
            seqno_key(2): SeqPair(1, 0),
        }
        verdict = check_integrity(state)
        assert any("INTER:(2,1)" in v.replace(" ", "") for v in verdict.violations)

    def test_missing_term_entry_detected(self):
        msg = Message(MsgId(2, 1), 1, 2, (3, 4), 1)
        state = {
            message_key(2): (msg,),
            inter_key(1, 2): (msg.id,),
            inter_key(2, 1): (msg.id,),
            term_key(2, 3): (msg.id,),
            seqno_key(2): SeqPair(1, 0),
        }
        verdict = check_integrity(state)
        assert verdict.violations == [
            "MESSAGE MsgId(recipient=2, seq=1): missing from TERM:(2,4)"]

    def test_sequence_discipline_violations(self):
        msg = Message(MsgId(2, 5), 1, 2, (3,), 1)
        state = {
            message_key(2): (msg,),
            inter_key(1, 2): (msg.id,),
            inter_key(2, 1): (msg.id,),
            seqno_key(2): SeqPair(5, 5),  # live message at seq == deleted
        }
        verdict = check_integrity(state)
        assert any("seq outside" in v for v in verdict.violations)

    def test_deleted_above_current_detected(self):
        verdict = check_integrity({seqno_key(1): SeqPair(1, 2)})
        assert not verdict.ok


class TestHistoryBuilding:
    def test_aborted_attempt_ops_excluded(self):
        cfg = small_cfg(scheme=Scheme.OCC, clients=4, tasks_per_client=2,
                        seed=23, buckets=2, user_population=4,
                        multicast_recipients=(1, 2))
        artifacts = run_in_process(cfg)
        history = build_history(artifacts.events)
        committed = {(e.txn_id) for e in history.effects}
        commit_attempts = {
            e.txn_id: e.attempt for e in artifacts.events if isinstance(e, Commit)
        }
        assert committed == set(commit_attempts)
        for effect in history.effects:
            assert effect.ops, "committed transaction recorded no operations"
