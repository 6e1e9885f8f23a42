"""Offline correctness checks for recorded runs.

``check_serializable`` decides whether the committed transactions admit a
sequential order. It runs brute force on at most ``BRUTE_FORCE_LIMIT``
committed transactions and the conflict graph on more; ``Verdict.mode``
names the check that ran:

* brute force: depth-first search over permutations of the committed
  transactions, replaying each transaction's recorded logical effect
  (reads assert the observed value, mutations apply it) and pruning on
  mismatch; memoization on (placed set, state) keeps it tractable. The
  first order whose replay reproduces the final snapshot is returned.
* conflict graph: groups the committed ops by bucket, orders each
  bucket's ops by the ``bucket_seq`` its node returned (the server apply
  order), and builds precedence edges from those orders, treating every op
  kind whose row in ``wire.OP_SPECS`` says ``writes`` (all but ``read``) as
  a write and refusing a kind with no row, as brute force does. It runs Kahn's
  algorithm over the edges, which is linear in transactions plus edges
  (apart from the sorts that fix the witness order). An acyclic
  graph means the history is conflict serializable (Papadimitriou, JACM
  1979) and the topological order is the witness. Only when Kahn's
  algorithm leaves transactions unplaced does it search for the shortest
  precedence cycle to report. The witness is not replayed against the
  snapshot, so this is a weaker check.

``check_integrity`` asserts referential integrity between the four tables
and the per-inbox sequence discipline on a quiescent snapshot.

A ``History`` is the committed transactions' effects in commit order, each
holding the clients' own ``metrics.BucketOp`` records of its committed
attempt; what each op kind observes and writes is asked of its row in
``wire.OP_SPECS``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import ProtocolError, VerificationError
from .metrics import BucketOp, Commit, Event
from .model import (
    BucketId,
    Message,
    MsgId,
    SeqPair,
    TableId,
    TableKey,
    inter_key,
)
from .store import walk_snapshot
from .wire import OP_SPECS, SPEC_BY_KIND, apply_op, default_entry, store_entry

State = dict[TableKey, object]

# Most committed transactions brute force searches; larger runs get the graph check.
BRUTE_FORCE_LIMIT = 10


@dataclass
class TxnEffect:
    txn_id: int
    commit_ns: int
    ops: list[BucketOp]  # the client's own records, in program order


@dataclass
class History:
    """Committed transactions' logical effects, in commit order."""

    effects: list[TxnEffect]


def build_history(events: list[Event]) -> History:
    committed_attempt: dict[int, int] = {}
    commit_ns: dict[int, int] = {}
    for ev in events:
        if isinstance(ev, Commit):
            committed_attempt[ev.txn_id] = ev.attempt
            commit_ns[ev.txn_id] = ev.time_ns

    ops_of: dict[int, list[BucketOp]] = {t: [] for t in committed_attempt}
    for ev in events:
        if not isinstance(ev, BucketOp):
            continue
        if committed_attempt.get(ev.txn_id) != ev.attempt:
            continue  # op of an aborted attempt
        ops_of[ev.txn_id].append(ev)

    effects = [
        TxnEffect(txn, commit_ns[txn], sorted(ops, key=lambda o: o.op_index))
        for txn, ops in ops_of.items()
    ]
    effects.sort(key=lambda e: e.commit_ns)
    return History(effects)


# ---------------------------------------------------------------------------
# State replay


def state_from_snapshot(dump: bytes) -> State:
    return {key: entry for _, _, key, entry in walk_snapshot(dump)}


def _normalized(state: State) -> State:
    return {key: value for key, value in state.items() if value != default_entry(key.table)}


def _apply_effect(state: State, op: BucketOp) -> bool:
    """Replay one op; returns False when a read assertion fails. An op that
    observes its entry carries no argument and records what it observed,
    which is checked; any other op records the argument it applied."""
    spec = SPEC_BY_KIND.get(op.kind)
    if spec is None:
        raise VerificationError(f"unknown effect kind {op.kind!r}")
    storage_op = spec.op(op.key) if spec.observes else spec.op(op.key, op.value)
    try:
        entry, result = apply_op(state.get(op.key, default_entry(op.key.table)), storage_op)
    except ProtocolError as exc:
        raise VerificationError(f"recorded {op.kind} on {op.key} cannot apply: {exc}") from None
    if spec.observes and result != op.value:
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


# Whether each event-log op kind may change its entry, from the op table.
_WRITES = {spec.kind: spec.writes for spec in OP_SPECS.values()}


def conflict_graph_serializable(history: History) -> Verdict:
    """Acyclicity of the bucket-level conflict graph (weaker, linear time)."""
    edges: dict[int, set[int]] = {e.txn_id: set() for e in history.effects}

    def add(src: int, dst: int) -> None:
        if src != dst:
            edges[src].add(dst)

    # Each bucket's committed ops in the order the server applied them.
    orders: dict[BucketId, list[tuple[int, int, str]]] = {}
    for effect in history.effects:
        for op in effect.ops:
            orders.setdefault(op.bucket, []).append((op.bucket_seq, effect.txn_id, op.kind))

    # One linear pass per bucket: a write conflicts with the previous write
    # and every read since it; a read conflicts with the previous write.
    for order in orders.values():
        order.sort()
        last_writer: int | None = None
        readers_since: set[int] = set()
        for _seq, txn, kind in order:
            writes = _WRITES.get(kind)
            if writes is None:
                raise VerificationError(f"unknown effect kind {kind!r}")
            if writes:
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

    order = _topological(edges)
    if order is not None:
        return Verdict(True, "conflict-graph", witness=order)
    cycle = _shortest_cycle(edges)
    return Verdict(False, "conflict-graph", cycle=cycle,
                   detail="precedence cycle: " + " -> ".join(map(str, cycle)))


def _shortest_cycle(edges: dict[int, set[int]]) -> list[int] | None:
    """Quadratic: a BFS from every node. Run only on a graph with a cycle."""
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


def _topological(edges: dict[int, set[int]]) -> list[int] | None:
    """Kahn's algorithm, lowest ready id first; None when a cycle leaves
    some transaction unplaced."""
    indeg: dict[int, int] = {n: 0 for n in edges}
    for succs in edges.values():
        for s in succs:
            indeg[s] = indeg.get(s, 0) + 1
    ready = deque(sorted(n for n, d in indeg.items() if d == 0))
    out: list[int] = []
    while ready:
        n = ready.popleft()
        out.append(n)
        for s in sorted(edges.get(n, ())):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    return out if len(out) == len(indeg) else None


def check_serializable(history: History, final_state: State) -> Verdict:
    if len(history.effects) <= BRUTE_FORCE_LIMIT:
        return brute_force_serializable(history, final_state)
    return conflict_graph_serializable(history)


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
