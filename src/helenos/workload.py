"""The inbox application: transactions, tasks, and the data generator.

Each transaction comes as a pair: an access-set planner (a pure function
of the transaction's parameters, computable before begin) and a body that
issues the storage operations through the attempt's transaction handle.
Table lookups are direct keyed accesses, so every touched key is known up
front; this is what lets the lock-ordering and versioning schemes declare
their access sets a priori. A planner returns the ``AccessPlan`` it fills,
which also gives the body's verbs the bucket of each planned key.

A task is a client-level unit of work composing one or more transactions
plus local processing. ``ClientRuntime.run_task`` returns the task's
value: an association task's ratio, an import's count of imported
messages, and ``None`` for every other task.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .cc import AccessPlan, TxnContext, TxnHandle, run_atomic
from .config import ScenarioConfig, TaskType
from .model import (
    Message,
    MsgId,
    SeqPair,
    TableKey,
    bucket_of,
    index_keys,
    inter_key,
    message_key,
    seqno_key,
    term_key,
)


class _PlanBuilder(AccessPlan):
    """The plan a planner returns, filled key by key; each distinct key is
    hashed once."""

    __slots__ = ()

    def add(self, key: TableKey, n: int = 1) -> None:
        key_buckets = self.key_buckets
        bucket = key_buckets.get(key)
        if bucket is None:
            bucket = key_buckets[key] = bucket_of(key, self.buckets_per_table)
        self[bucket] = self.get(bucket, 0) + n


# ---------------------------------------------------------------------------
# Transactions


def plan_get_association(b: int, u1: int, u2: int) -> AccessPlan:
    p = _PlanBuilder(b)
    p.add(inter_key(u1, u2))
    p.add(inter_key(u2, u1))
    p.add(seqno_key(u1))
    p.add(seqno_key(u2))
    return p


def txn_get_association(tx: TxnHandle, u1: int, u2: int) -> tuple[list[MsgId], list[SeqPair]]:
    ids = list(tx.read(inter_key(u1, u2)))
    ids.extend(tx.read(inter_key(u2, u1)))
    pairs = [tx.read(seqno_key(u1)), tx.read(seqno_key(u2))]
    return ids, pairs


def plan_get_by_keyword(b: int, user: int, keywords: Iterable[int]) -> AccessPlan:
    p = _PlanBuilder(b)
    for kw in sorted(set(keywords)):
        p.add(term_key(user, kw))
    return p


def txn_get_by_keyword(tx: TxnHandle, user: int, keywords: Iterable[int]) -> set[MsgId]:
    found: set[MsgId] = set()
    for kw in sorted(set(keywords)):
        found.update(tx.read(term_key(user, kw)))
    return found


def plan_get_conversation(b: int, sender: int, recipient: int, both: bool = False) -> AccessPlan:
    p = _PlanBuilder(b)
    p.add(inter_key(sender, recipient))
    if both:
        p.add(inter_key(recipient, sender))
    return p


def txn_get_conversation(tx: TxnHandle, sender: int, recipient: int,
                         both: bool = False) -> list[MsgId]:
    ids = list(tx.read(inter_key(sender, recipient)))
    if both:
        ids.extend(tx.read(inter_key(recipient, sender)))
    return ids


def plan_get_messages(b: int, ids: Sequence[MsgId]) -> AccessPlan:
    p = _PlanBuilder(b)
    for recipient in _distinct(m.recipient for m in ids):
        p.add(message_key(recipient))
    return p


def txn_get_messages(tx: TxnHandle, ids: Sequence[MsgId]) -> list[Message]:
    by_id: dict[MsgId, Message] = {}
    for recipient in _distinct(m.recipient for m in ids):
        for msg in tx.read(message_key(recipient)):
            by_id[msg.id] = msg
    return [by_id[i] for i in ids if i in by_id]


def _distinct(items: Iterable[int]) -> list[int]:
    seen: dict[int, None] = {}
    for item in items:
        seen.setdefault(item)
    return list(seen)


def plan_index_messages(b: int, queries: dict[int, set[int]]) -> AccessPlan:
    p = _PlanBuilder(b)
    for user in sorted(queries):
        for kw in sorted(queries[user]):
            p.add(term_key(user, kw))
    for user in sorted(queries):
        p.add(message_key(user))  # upper bound: read even if no hits
        p.add(seqno_key(user))
    return p


def txn_index_messages(tx: TxnHandle, queries: dict[int, set[int]],
                       index_cap: int) -> tuple[list[Message], list[SeqPair]]:
    ids: set[MsgId] = set()
    for user in sorted(queries):
        for kw in sorted(queries[user]):
            ids.update(tx.read(term_key(user, kw)))
    found: list[Message] = []
    wanted_by_user: dict[int, set[MsgId]] = {}
    for mid in ids:
        wanted_by_user.setdefault(mid.recipient, set()).add(mid)
    for user in sorted(wanted_by_user):
        wanted = wanted_by_user[user]
        found.extend(m for m in tx.read(message_key(user)) if m.id in wanted)
    found.sort(key=lambda m: (m.timestamp, m.id))
    pairs = [tx.read(seqno_key(user)) for user in sorted(queries)]
    return found[:index_cap], pairs


def plan_reset_cutoff(b: int, user: int) -> AccessPlan:
    p = _PlanBuilder(b)
    p.add(seqno_key(user), 2)
    return p


def txn_reset_cutoff(tx: TxnHandle, user: int) -> SeqPair:
    pair = tx.read(seqno_key(user))
    tx.write_seq(seqno_key(user), SeqPair(pair.current, pair.current))
    return pair


def plan_send_msg(b: int, sender: int, recipient: int, content: Sequence[int]) -> AccessPlan:
    p = _PlanBuilder(b)
    _plan_one_send(p, sender, recipient, content)
    return p


def _plan_one_send(p: _PlanBuilder, sender: int, recipient: int,
                   content: Sequence[int]) -> None:
    p.add(seqno_key(recipient))
    p.add(message_key(recipient))
    for key in index_keys(sender, recipient, content):
        p.add(key)


def txn_send_msg(tx: TxnHandle, sender: int, recipient: int,
                 content: Sequence[int]) -> MsgId:
    pair = tx.incr_seq(seqno_key(recipient))
    mid = MsgId(recipient, pair.current)
    tx.append(message_key(recipient), Message(mid, sender, recipient, tuple(content), 0))
    for key in index_keys(sender, recipient, content):
        tx.append(key, mid)
    return mid


def plan_remove_messages(b: int, messages: Sequence[Message]) -> AccessPlan:
    p = _PlanBuilder(b)
    for m in messages:
        for key in index_keys(m.sender, m.recipient, m.content):
            p.add(key)
        p.add(message_key(m.recipient))
    return p


def txn_remove_messages(tx: TxnHandle, messages: Sequence[Message]) -> None:
    for m in messages:
        for key in index_keys(m.sender, m.recipient, m.content):
            tx.remove(key, m.id)
        tx.remove(message_key(m.recipient), m.id)


def plan_import_messages(b: int, messages: Sequence[Message]) -> AccessPlan:
    # Upper bound: assume every message passes both filters.
    p = _PlanBuilder(b)
    for m in messages:
        p.add(seqno_key(m.recipient), 2)  # cutoff read + possible raise
        p.add(message_key(m.recipient), 2)  # duplicate check + insert
        for key in index_keys(m.sender, m.recipient, m.content):
            p.add(key)
    return p


def txn_import_messages(tx: TxnHandle, messages: Sequence[Message]) -> int:
    imported = 0
    for m in messages:
        pair = tx.read(seqno_key(m.recipient))
        if m.id.seq <= pair.deleted:
            continue
        inbox = tx.read(message_key(m.recipient))
        if any(existing.id == m.id for existing in inbox):
            continue
        tx.append(message_key(m.recipient), m)
        for key in index_keys(m.sender, m.recipient, m.content):
            tx.append(key, m.id)
        if m.id.seq > pair.current:
            tx.write_seq(seqno_key(m.recipient), SeqPair(m.id.seq, pair.deleted))
        imported += 1
    return imported


# ---------------------------------------------------------------------------
# Tasks


@dataclass
class ClientRuntime:
    """One closed-loop client: its transaction context and generator state."""

    ctx: TxnContext
    cfg: ScenarioConfig
    rng: random.Random
    # Highest sequence number this client has observed per inbox; seeds the
    # fabricated sequence numbers of import batches.
    est_current: dict[int, int] = field(default_factory=dict)

    def _bump_est(self, user: int, seq: int) -> None:
        if seq > self.est_current.get(user, 0):
            self.est_current[user] = seq

    # -- generator draws -------------------------------------------------

    def _user(self) -> int:
        return self.rng.randrange(self.cfg.user_population)

    def _other_user(self, user: int) -> int:
        other = self.rng.randrange(self.cfg.user_population - 1)
        return other if other < user else other + 1

    def _keywords(self, n: int) -> list[int]:
        return self.rng.sample(range(self.cfg.keyword_domain), n)

    def _content(self) -> tuple[int, ...]:
        length = self.rng.randint(1, self.cfg.message_length)
        return tuple(self.rng.randrange(self.cfg.keyword_domain) for _ in range(length))

    # -- task bodies -----------------------------------------------------

    def run_task(self, task: TaskType) -> float | int | None:
        return _TASK_BODIES[task](self)

    def _term_search(self) -> None:
        cfg = self.cfg
        user = self._user()
        kws = self._keywords(self.rng.randint(1, cfg.query_keyword_cap))
        ids = sorted(run_atomic(
            self.ctx, "get_by_keyword",
            plan_get_by_keyword(cfg.buckets, user, kws),
            lambda tx: txn_get_by_keyword(tx, user, kws),
        ))
        if ids:
            self._fetch_messages(ids)

    def _interaction_search(self) -> None:
        user = self._user()
        other = self._other_user(user)
        ids = run_atomic(
            self.ctx, "get_conversation",
            plan_get_conversation(self.cfg.buckets, user, other, both=True),
            lambda tx: txn_get_conversation(tx, user, other, both=True),
        )
        if ids:
            self._fetch_messages(ids)

    def _fetch_messages(self, ids: list[MsgId]) -> list[Message]:
        return run_atomic(
            self.ctx, "get_messages",
            plan_get_messages(self.cfg.buckets, ids),
            lambda tx: txn_get_messages(tx, ids),
        )

    def _send_unicast(self) -> None:
        sender = self._user()
        recipient = self._other_user(sender)
        content = self._content()
        mid = run_atomic(
            self.ctx, "send_msg",
            plan_send_msg(self.cfg.buckets, sender, recipient, content),
            lambda tx: txn_send_msg(tx, sender, recipient, content),
        )
        self._bump_est(recipient, mid.seq)

    def _send_multicast(self) -> None:
        cfg = self.cfg
        sender = self._user()
        lo, hi = cfg.multicast_recipients
        count = self.rng.randint(lo, hi)
        pool = [u for u in range(cfg.user_population) if u != sender]
        recipients = self.rng.sample(pool, count)
        content = self._content()

        builder = _PlanBuilder(cfg.buckets)
        for recipient in recipients:
            _plan_one_send(builder, sender, recipient, content)

        def body(tx: TxnHandle) -> list[MsgId]:
            return [txn_send_msg(tx, sender, r, content) for r in recipients]

        for mid in run_atomic(self.ctx, "send_msg", builder, body):
            self._bump_est(mid.recipient, mid.seq)

    def _batch_import(self) -> int:
        cfg = self.cfg
        recipient = self._user()
        lo, hi = cfg.import_batch
        count = self.rng.randint(lo, hi)
        ceiling = self.est_current.get(recipient, 0) + count
        batch = []
        for _ in range(count):
            seq = self.rng.randint(1, ceiling)
            sender = self._other_user(recipient)
            batch.append(
                Message(MsgId(recipient, seq), sender, recipient,
                        self._content(), self.rng.randint(1, 1 << 20))
            )
        imported = run_atomic(
            self.ctx, "import_messages",
            plan_import_messages(cfg.buckets, batch),
            lambda tx: txn_import_messages(tx, batch),
        )
        self._bump_est(recipient, max(m.id.seq for m in batch))
        return imported

    def _clear_inbox(self) -> None:
        cfg = self.cfg
        user = self._user()
        pair: SeqPair = run_atomic(
            self.ctx, "reset_cutoff",
            plan_reset_cutoff(cfg.buckets, user),
            lambda tx: txn_reset_cutoff(tx, user),
        )
        ids = [MsgId(user, seq) for seq in range(pair.deleted + 1, pair.current + 1)]
        if ids:
            msgs = self._fetch_messages(ids)
            if msgs:
                run_atomic(
                    self.ctx, "remove_messages",
                    plan_remove_messages(cfg.buckets, msgs),
                    lambda tx: txn_remove_messages(tx, msgs),
                )

    def _association_level(self) -> float:
        user = self._user()
        other = self._other_user(user)
        ids, pairs = run_atomic(
            self.ctx, "get_association",
            plan_get_association(self.cfg.buckets, user, other),
            lambda tx: txn_get_association(tx, user, other),
        )
        inbox_size = max(1, pairs[0].current - pairs[0].deleted)
        return len(set(ids)) / inbox_size

    def _indexing(self) -> None:
        cfg = self.cfg
        user_count = self.rng.randint(1, min(3, cfg.user_population))
        users = self.rng.sample(range(cfg.user_population), user_count)
        queries = {
            u: set(self._keywords(self.rng.randint(1, cfg.query_keyword_cap)))
            for u in users
        }
        run_atomic(
            self.ctx, "index_messages",
            plan_index_messages(cfg.buckets, queries),
            lambda tx: txn_index_messages(tx, queries, cfg.index_cap),
        )


_TASK_BODIES = {
    TaskType.TERM_SEARCH: ClientRuntime._term_search,
    TaskType.INTERACTION_SEARCH: ClientRuntime._interaction_search,
    TaskType.SEND_UNICAST: ClientRuntime._send_unicast,
    TaskType.SEND_MULTICAST: ClientRuntime._send_multicast,
    TaskType.BATCH_IMPORT: ClientRuntime._batch_import,
    TaskType.CLEAR_INBOX: ClientRuntime._clear_inbox,
    TaskType.ASSOCIATION_LEVEL: ClientRuntime._association_level,
    TaskType.INDEXING: ClientRuntime._indexing,
}


def pick_task(cfg: ScenarioConfig, rng: random.Random) -> TaskType:
    """Sample a task type from the scenario's probability vector: the first
    task whose cumulative probability exceeds the roll, or the last task when
    floating-point residue leaves the roll above every bound."""
    bounds, tasks = cfg.task_bounds
    return tasks[bisect_right(bounds, rng.random())]
