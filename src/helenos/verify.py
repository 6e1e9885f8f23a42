"""Offline correctness checks for recorded runs.

``check_serializable`` decides whether the committed transactions admit a
sequential order that reproduces the final snapshot:

* brute force (small runs): depth-first search over permutations of the
  committed transactions, replaying each transaction's recorded logical
  effect (reads assert the observed value, mutations apply it) and
  pruning on mismatch; memoization on (placed set, state) keeps it
  tractable. The first witness found is returned.
* conflict-graph mode (larger runs): builds precedence edges from the
  per-bucket server apply order and reports acyclicity, a weaker check.

``check_integrity`` asserts referential integrity between the four tables
and the per-inbox sequence discipline on a quiescent snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ProtocolError, VerificationError
from .metrics import BucketOp, Commit, Event, TxnStart
from .model import (
    BucketId,
    Message,
    MsgId,
    SeqPair,
    TableId,
    TableKey,
    decode_key,
    inter_key,
)
from .store import unpack_snapshot
from .wire import OP_OF_KIND, IncrSeq, Read, apply_op, decode_entry, default_entry, store_entry

State = dict[TableKey, object]


@dataclass(frozen=True, slots=True)
class EffectOp:
    op_index: int
    bucket: BucketId
    kind: str
    key: TableKey
    value: object
    bucket_seq: int


@dataclass
class TxnEffect:
    txn_id: int
    kind: str
    commit_ns: int
    ops: list[EffectOp]


@dataclass
class History:
    """Committed transactions' logical effects plus per-bucket apply order."""

    effects: list[TxnEffect]
    bucket_order: dict[BucketId, list[tuple[int, int, str]]]  # (seq, txn, kind)


def build_history(events: list[Event]) -> History:
    committed_attempt: dict[int, int] = {}
    commit_ns: dict[int, int] = {}
    kinds: dict[int, str] = {}
    for ev in events:
        if isinstance(ev, Commit):
            committed_attempt[ev.txn_id] = ev.attempt
            commit_ns[ev.txn_id] = ev.time_ns
        elif isinstance(ev, TxnStart):
            kinds[ev.txn_id] = ev.kind

    ops_of: dict[int, list[EffectOp]] = {t: [] for t in committed_attempt}
    bucket_order: dict[BucketId, list[tuple[int, int, str]]] = {}
    for ev in events:
        if not isinstance(ev, BucketOp):
            continue
        if committed_attempt.get(ev.txn_id) != ev.attempt:
            continue  # op of an aborted attempt
        ops_of[ev.txn_id].append(
            EffectOp(ev.op_index, ev.bucket, ev.kind, ev.key, ev.value, ev.bucket_seq)
        )
        bucket_order.setdefault(ev.bucket, []).append((ev.bucket_seq, ev.txn_id, ev.kind))

    effects = [
        TxnEffect(txn, kinds.get(txn, "?"), commit_ns[txn], sorted(ops, key=lambda o: o.op_index))
        for txn, ops in ops_of.items()
    ]
    effects.sort(key=lambda e: e.commit_ns)
    for order in bucket_order.values():
        order.sort()
    return History(effects, bucket_order)


# ---------------------------------------------------------------------------
# State replay


def state_from_snapshot(dump: bytes) -> State:
    state: State = {}
    for key_enc, entry_enc in unpack_snapshot(dump):
        key, _ = decode_key(key_enc)
        entry, _ = decode_entry(entry_enc)
        state[key] = entry
    return state


def _normalized(state: State) -> State:
    return {key: value for key, value in state.items() if value != default_entry(key.table)}


# Ops whose recorded value is what they observed, to be checked on replay;
# every other op records the argument it applied.
_OBSERVING = frozenset({Read, IncrSeq})


def _apply_effect(state: State, op: EffectOp) -> bool:
    """Replay one op; returns False when a read assertion fails."""
    op_type = OP_OF_KIND.get(op.kind)
    if op_type is None:
        raise VerificationError(f"unknown effect kind {op.kind!r}")
    observing = op_type in _OBSERVING
    storage_op = op_type(op.key) if observing else op_type(op.key, op.value)
    try:
        entry, result = apply_op(state.get(op.key, default_entry(op.key.table)), storage_op)
    except ProtocolError as exc:
        raise VerificationError(f"recorded {op.kind} on {op.key} cannot apply: {exc}") from None
    if observing and result != op.value:
        return False
    store_entry(state, op.key, entry)
    return True


def _replay_txn(state: State, effect: TxnEffect) -> State | None:
    new = dict(state)
    for op in effect.ops:
        if not _apply_effect(new, op):
            return None
    return new


def _state_token(state: State) -> tuple:
    return tuple(sorted(state.items()))


@dataclass
class Verdict:
    ok: bool
    mode: str
    witness: list[int] | None = None  # serial order of txn ids
    cycle: list[int] | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def brute_force_serializable(history: History, final_state: State,
                             initial_state: State | None = None) -> Verdict:
    """Search for a serial order whose replay reproduces the final state."""
    target = _normalized(final_state)
    effects = history.effects  # already in commit order: tried first
    base = _normalized(dict(initial_state or {}))

    seen: set[tuple[frozenset[int], tuple]] = set()

    def search(placed: frozenset[int], state: State, order: list[int]) -> list[int] | None:
        if len(order) == len(effects):
            return list(order) if _normalized(state) == target else None
        token = (placed, _state_token(_normalized(state)))
        if token in seen:
            return None
        seen.add(token)
        for effect in effects:
            if effect.txn_id in placed:
                continue
            new_state = _replay_txn(state, effect)
            if new_state is None:
                continue
            order.append(effect.txn_id)
            found = search(placed | {effect.txn_id}, new_state, order)
            if found is not None:
                return found
            order.pop()
        return None

    witness = search(frozenset(), base, [])
    if witness is None:
        return Verdict(False, "brute-force", detail="no serial order reproduces the snapshot")
    return Verdict(True, "brute-force", witness=witness)


_MUTATIONS = frozenset({"append", "remove", "write_seq", "incr_seq"})


def conflict_graph_serializable(history: History) -> Verdict:
    """Acyclicity of the bucket-level conflict graph (weaker, scales better)."""
    edges: dict[int, set[int]] = {e.txn_id: set() for e in history.effects}

    def add(src: int, dst: int) -> None:
        if src != dst:
            edges.setdefault(src, set()).add(dst)

    # One linear pass per bucket: a write conflicts with the previous write
    # and every read since it; a read conflicts with the previous write.
    for order in history.bucket_order.values():
        last_writer: int | None = None
        readers_since: set[int] = set()
        for _seq, txn, kind in order:
            if kind in _MUTATIONS:
                if last_writer is not None:
                    add(last_writer, txn)
                for reader in readers_since:
                    add(reader, txn)
                last_writer = txn
                readers_since = set()
            else:
                if last_writer is not None:
                    add(last_writer, txn)
                readers_since.add(txn)

    cycle = _shortest_cycle(edges)
    if cycle is None:
        order = _topological(edges)
        return Verdict(True, "conflict-graph", witness=order)
    return Verdict(False, "conflict-graph", cycle=cycle,
                   detail="precedence cycle: " + " -> ".join(map(str, cycle)))


def _shortest_cycle(edges: dict[int, set[int]]) -> list[int] | None:
    best: list[int] | None = None
    for start in edges:
        # BFS from start back to start gives the shortest cycle through it.
        parent: dict[int, int] = {}
        frontier = [start]
        found = False
        while frontier and not found:
            nxt = []
            for node in frontier:
                for succ in edges.get(node, ()):
                    if succ == start:
                        cycle = _walk_back(start, node, parent)
                        if best is None or len(cycle) < len(best):
                            best = cycle
                        found = True
                        break
                    if succ not in parent and succ != start:
                        parent[succ] = node
                        nxt.append(succ)
                if found:
                    break
            frontier = nxt
    return best


def _walk_back(start: int, last: int, parent: dict[int, int]) -> list[int]:
    path = [last]
    cur = last
    while cur != start:
        cur = parent[cur]
        path.append(cur)
    path.reverse()
    return path


def _topological(edges: dict[int, set[int]]) -> list[int]:
    indeg: dict[int, int] = {n: 0 for n in edges}
    for succs in edges.values():
        for s in succs:
            indeg[s] = indeg.get(s, 0) + 1
    ready = sorted(n for n, d in indeg.items() if d == 0)
    out: list[int] = []
    while ready:
        n = ready.pop(0)
        out.append(n)
        for s in sorted(edges.get(n, ())):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    return out


def check_serializable(history: History, final_state: State,
                       brute_force_limit: int = 10,
                       graph_mode: bool = False,
                       initial_state: State | None = None) -> Verdict:
    if graph_mode:
        return conflict_graph_serializable(history)
    if len(history.effects) > brute_force_limit:
        raise VerificationError(
            f"{len(history.effects)} committed transactions exceed the brute-force "
            f"limit of {brute_force_limit}; use graph mode"
        )
    return brute_force_serializable(history, final_state, initial_state)


# ---------------------------------------------------------------------------
# Integrity


@dataclass
class IntegrityVerdict:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def check_integrity(state: State) -> IntegrityVerdict:
    """Referential integrity and sequence discipline at quiescence."""
    v = IntegrityVerdict()
    messages: dict[MsgId, Message] = {}
    for key, value in state.items():
        if key.table is TableId.MESSAGE:
            for m in value:  # type: ignore[union-attr]
                if m.id.recipient != key.parts[0]:
                    v.violations.append(
                        f"MESSAGE:{key.parts[0]}: stored message {m.id} has foreign recipient"
                    )
                if m.id in messages:
                    v.violations.append(f"MESSAGE:{key.parts[0]}: duplicate id {m.id}")
                messages[m.id] = m

    def present(mid: MsgId) -> bool:
        return mid in messages

    for key, value in state.items():
        if key.table is TableId.TERM:
            owner = key.parts[0]
            for mid in value:  # type: ignore[union-attr]
                if mid.recipient != owner:
                    v.violations.append(f"TERM:{key.parts}: id {mid} indexed under wrong inbox")
                if not present(mid):
                    v.violations.append(f"TERM:{key.parts}: dangling id {mid}")
        elif key.table is TableId.INTER:
            for mid in value:  # type: ignore[union-attr]
                if not present(mid):
                    v.violations.append(f"INTER:{key.parts}: dangling id {mid}")

    for mid, m in messages.items():
        fwd = state.get(inter_key(m.sender, m.recipient), default_entry(TableId.INTER))
        back = state.get(inter_key(m.recipient, m.sender), default_entry(TableId.INTER))
        if mid not in fwd:
            v.violations.append(f"MESSAGE {mid}: missing from INTER:({m.sender},{m.recipient})")
        if mid not in back:
            v.violations.append(f"MESSAGE {mid}: missing from INTER:({m.recipient},{m.sender})")

    pairs: dict[int, SeqPair] = {
        key.parts[0]: value  # type: ignore[misc]
        for key, value in state.items()
        if key.table is TableId.SEQNO
    }
    for user, pair in pairs.items():
        if pair.deleted > pair.current:
            v.violations.append(f"SEQNO:{user}: deleted {pair.deleted} > current {pair.current}")
    for mid in messages:
        pair = pairs.get(mid.recipient, default_entry(TableId.SEQNO))
        if not (pair.deleted < mid.seq <= pair.current):
            v.violations.append(
                f"MESSAGE {mid}: seq outside ({pair.deleted}, {pair.current}]"
            )
    return v
