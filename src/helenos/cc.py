"""Pluggable concurrency control: one transaction interface, four schemes.

* glock: a single global mutex on the coordinator node, held for the whole
  transaction. The serial baseline.
* fgl: two-phase locking over buckets. All declared locks are taken at
  begin in canonical bucket order (deadlock freedom by resource ordering);
  each bucket is released after the transaction's last declared access to
  it, before commit.
* occ: optimistic. Reads record per-bucket versions, writes are buffered
  privately; commit takes per-bucket commit locks in canonical order,
  validates the read set, then publishes the buffer or aborts for retry.
* pesv: pessimistic versioning. Begin reserves a private version per
  declared bucket (latched, in canonical order, so version vectors are
  mutually consistent); accesses wait for their version's turn and each
  bucket is handed to the successor after the last declared access.

``begin(ctx, txn_id, access, attempt)`` starts one attempt over a declared
access set, bucket -> op-count upper bound. ``run_atomic`` runs attempts
until one commits and returns its body's value; the attempt's number is on
the sink's commit row. The body is given the attempt's ``TxnHandle``, whose
typed verbs (``read``, ``append``, ``remove``, ``write_seq``, ``incr_seq``)
map each key to its bucket through the plan.

Only occ can abort; the other three always commit on the first attempt.
An optimistic attempt aborts by raising ``OccConflict``, mid-execution when
a read sees a changed bucket version and at validation when a read-set
bucket fails it; ``run_atomic`` backs off and runs the next attempt. The
backoff window (``BACKOFF_BASE_MS`` doubling up to ``BACKOFF_CAP_MS``) and
the retry bound (``RETRY_LIMIT``) are fixed.

Each attempt gives back what it holds through one release ledger
(``TxnHandle.held``), filled as each lock, latch or version is taken.
Commit, abandon and a failed begin all empty it the same way: every release
is tried even when one fails, a failed one stays in the ledger, and the
first failure is raised; abandoning the attempt then tries the rest again.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .errors import AccessSetError, ConfigError, RetryLimitError, TxnStateError
from .metrics import EventSink
from .model import BucketId, Message, MsgId, RingLayout, SeqPair, TableKey, bucket_of
from .transport import Transport, unwrap_reply, unwrap_storage_reply
from .wire import (
    FLAG_COMMIT_APPLY,
    FLAG_RELEASE_AFTER,
    OP_SPECS,
    STORAGE_OK_HEAD,
    Append,
    IncrSeq,
    Op,
    Read,
    Remove,
    Scheme,
    StorageOp,
    WriteSeq,
    apply_op,
    cc_request,
    default_entry,
    storage_request,
)
# Unused here, but the benchmark's traced run patches these names on this module.
from .wire import (decode_entry, decode_message, decode_msgid, decode_seqpair,  # noqa: F401
                   decode_storage_ok)


class OccConflict(Exception):
    """Aborts an optimistic attempt: a bucket it read changed version."""


RETRY_LIMIT = 10_000
BACKOFF_BASE_MS = 1.0
BACKOFF_CAP_MS = 64.0


@dataclass
class TxnContext:
    """Everything a client needs to run transactions against the cluster."""

    transport: Transport
    layout: RingLayout
    scheme: Scheme
    buckets_per_table: int
    delay_ms: int = 0
    client_id: int = 0
    backoff_rng: random.Random = field(default_factory=random.Random)
    clock: Callable[[], int] = time.monotonic_ns
    sleep: Callable[[float], None] = time.sleep
    sink: EventSink = field(default_factory=EventSink)
    # Request and txn ids, (client_id << 32) | n for n = 1, 2, ...: each is a
    # bound count.__next__, which hands out an id without a Python-level call.
    next_request_id: Callable[[], int] = field(init=False, repr=False, compare=False)
    next_txn_id: Callable[[], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        first = (self.client_id << 32) | 1
        self.next_request_id = itertools.count(first).__next__
        self.next_txn_id = itertools.count(first).__next__

    def cc_call(self, opcode: Op, bucket: BucketId | None, txn_id: int, arg: int | None = None) -> bytes:
        request_id = self.next_request_id()
        if bucket is None:
            node = self.layout.node_ids[0]  # the coordinator
        else:
            layout = self.layout
            node = layout.owners.get(bucket) or layout.owner_of(bucket)
        reply = self.transport.request(node, cc_request(request_id, opcode, bucket, txn_id, arg))
        return unwrap_reply(request_id, reply)


_RESULT_AT = STORAGE_OK_HEAD.size  # where a storage OK reply's result starts
_VER_RELEASE = Op.VER_RELEASE  # read per pesv access: an Enum member lookup is slow


class AccessPlan(dict):
    """A declared access set, bucket -> op-count bound, that also remembers
    the bucket of each planned key (hashed with ``buckets_per_table``), so
    that the transaction body's verbs look keys up instead of hashing them
    again. A planner fills both in place."""

    __slots__ = ("buckets_per_table", "key_buckets")

    def __init__(self, buckets_per_table: int) -> None:
        super().__init__()
        self.buckets_per_table = buckets_per_table
        self.key_buckets: dict[TableKey, BucketId] = {}


class TxnHandle:
    """Live state of one transaction attempt under one scheme. ``plan`` is the
    declared access set, bucket -> op-count bound. ``held`` is its release
    ledger, (release opcode, bucket) -> release argument, in the order
    taken, which is canonical bucket order. ``committed`` is set once the
    commit's writes have all been sent, before the ledger is given back."""

    scheme = Scheme.NONE

    def __init__(self, ctx: TxnContext, txn_id: int, plan: Mapping[BucketId, int],
                 attempt: int) -> None:
        self.ctx = ctx
        self.txn_id = txn_id
        self.plan = plan
        self.attempt = attempt
        self.remaining = dict(plan)
        self.held: dict[tuple[Op, BucketId | None], int | None] = {}
        self.committed = False
        # Op indexes 1, 2, ... in program order, from a bound count.__next__.
        self._next_op_index = itertools.count(1).__next__
        self._done = False
        self._known = (plan.key_buckets if isinstance(plan, AccessPlan)
                       and plan.buckets_per_table == ctx.buckets_per_table else {})

    # -- typed verbs: a planned key's bucket comes from the plan; any other
    # key is hashed, so an undeclared key still reaches the access-set check.

    def read(self, key: TableKey):
        bucket = self._known.get(key) or bucket_of(key, self.ctx.buckets_per_table)
        return self.access(bucket, Read(key))

    def append(self, key: TableKey, item: MsgId | Message):
        bucket = self._known.get(key) or bucket_of(key, self.ctx.buckets_per_table)
        return self.access(bucket, Append(key, item))

    def remove(self, key: TableKey, item: MsgId) -> None:
        bucket = self._known.get(key) or bucket_of(key, self.ctx.buckets_per_table)
        self.access(bucket, Remove(key, item))

    def write_seq(self, key: TableKey, pair: SeqPair) -> None:
        bucket = self._known.get(key) or bucket_of(key, self.ctx.buckets_per_table)
        self.access(bucket, WriteSeq(key, pair))

    def incr_seq(self, key: TableKey) -> SeqPair:
        bucket = self._known.get(key) or bucket_of(key, self.ctx.buckets_per_table)
        return self.access(bucket, IncrSeq(key))

    # -- scheme hooks ----------------------------------------------------

    def begin(self) -> None:
        pass

    def access(self, bucket: BucketId, op: StorageOp):
        if self._done:
            raise TxnStateError("access after commit")
        left = self.remaining.get(bucket)
        if left is None:
            raise AccessSetError(f"bucket {bucket} not in declared access set")
        if left < 1:
            raise AccessSetError(f"op count exhausted for bucket {bucket}")
        result = self._perform(bucket, op)
        self.remaining[bucket] = left - 1
        return result

    def commit(self) -> None:
        if self._done:
            raise TxnStateError("transaction already committed")
        self._done = True
        try:
            self._finish()
            self.committed = True
        finally:
            self.release_held()

    def abandon(self) -> None:
        """Give back whatever the attempt still holds, without committing;
        used when a begin, a body or a commit raises."""
        self._done = True
        self.release_held()

    def _perform(self, bucket: BucketId, op: StorageOp):
        raise NotImplementedError

    def _finish(self) -> None:
        pass

    # -- release ledger ----------------------------------------------------

    def _take(self, acquire: Op, release: Op, bucket: BucketId | None,
              arg: int | None = None) -> bytes:
        body = self.ctx.cc_call(acquire, bucket, self.txn_id)
        self.held[release, bucket] = arg
        return body

    def _give_back(self, release: Op, bucket: BucketId | None) -> None:
        self.ctx.cc_call(release, bucket, self.txn_id, self.held[release, bucket])
        del self.held[release, bucket]

    def release_held(self) -> None:
        """Send every release still in the ledger, even when one fails; the
        failed ones stay for a later call, and the first failure is raised
        after all were tried."""
        failures: list[Exception] = []
        for release, bucket in list(self.held):
            try:
                self._give_back(release, bucket)
            except Exception as exc:
                failures.append(exc)
        if failures:
            raise failures[0]

    # -- shared plumbing ---------------------------------------------------

    def _send_storage(self, bucket: BucketId, op: StorageOp, op_index: int, flags: int = 0,
                      private_version: int = 0, record: bool = True):
        """Send one storage op, and record it in the sink unless ``record`` is
        false; returns (result, version, bucket_seq)."""
        ctx = self.ctx
        txn_id = self.txn_id
        request_id = ctx.next_request_id()
        layout = ctx.layout
        node = layout.owners.get(bucket) or layout.owner_of(bucket)
        # The CcBlock fields, in wire order.
        cc = (self.scheme, txn_id, self.attempt, op_index, flags, ctx.delay_ms, private_version)
        reply = ctx.transport.request(node, storage_request(request_id, bucket, op, cc))
        bucket_seq, version = unwrap_storage_reply(request_id, reply)
        spec = OP_SPECS[type(op)]
        key = op.key
        result = spec.decode_result[key.table](reply, _RESULT_AT)[0]
        if record:
            ctx.sink.bucket_op(ctx.clock(), txn_id, ctx.client_id, self.attempt, bucket,
                               op_index, spec.kind, key, result, bucket_seq)
        return result, version, bucket_seq


class GLockHandle(TxnHandle):
    scheme = Scheme.GLOCK

    def begin(self) -> None:
        self._take(Op.GLOCK_ACQUIRE, Op.GLOCK_RELEASE, None)

    def _perform(self, bucket: BucketId, op: StorageOp):
        return self._send_storage(bucket, op, self._next_op_index())[0]


class FglHandle(TxnHandle):
    scheme = Scheme.FGL

    def begin(self) -> None:
        for bucket in sorted(self.plan):
            self._take(Op.FGL_LOCK, Op.FGL_UNLOCK, bucket)

    def _perform(self, bucket: BucketId, op: StorageOp):
        result = self._send_storage(bucket, op, self._next_op_index())[0]
        if self.remaining[bucket] == 1:  # this was the last declared access
            self._give_back(Op.FGL_UNLOCK, bucket)
        return result


class PesvHandle(TxnHandle):
    """A bucket's private version lives in the release ledger, from begin
    until the access after which the node releases it."""

    scheme = Scheme.PESV

    def begin(self) -> None:
        order = sorted(self.plan)
        for bucket in order:
            body = self._take(Op.SUP_TAKE, Op.SUP_UNLATCH, bucket)
            self.held[_VER_RELEASE, bucket] = int.from_bytes(body[:8], "big")
        for bucket in order:
            self._give_back(Op.SUP_UNLATCH, bucket)

    def _perform(self, bucket: BucketId, op: StorageOp):
        last = self.remaining[bucket] == 1
        flags = FLAG_RELEASE_AFTER if last else 0
        result = self._send_storage(bucket, op, self._next_op_index(), flags,
                                    self.held[_VER_RELEASE, bucket])[0]
        if last:  # the node released the version after this access
            del self.held[_VER_RELEASE, bucket]
        return result


class OccHandle(TxnHandle):
    """``buffer`` holds the writes, (op_index, bucket, op) in program order,
    that commit publishes; a read applies those on its key to what it read."""

    scheme = Scheme.OCC

    def __init__(self, ctx: TxnContext, txn_id: int, plan: Mapping[BucketId, int],
                 attempt: int) -> None:
        super().__init__(ctx, txn_id, plan, attempt)
        self.read_versions: dict[BucketId, int] = {}
        self.buffer: list[tuple[int, BucketId, StorageOp]] = []

    # -- execution phase -------------------------------------------------

    def _perform(self, bucket: BucketId, op: StorageOp):
        spec = OP_SPECS[type(op)]
        if spec.observes:
            entry = self._overlaid_read(bucket, op.key)
        else:  # a blind write: its result does not depend on the stored entry
            entry = default_entry(op.key.table)
        new, result = apply_op(entry, op)
        if spec.writes:
            # A write that observed its entry (an increment) is published at
            # commit as the pair this attempt computed from its validated read.
            self.buffer.append((self._next_op_index(), bucket,
                                WriteSeq(op.key, new) if spec.observes else op))
        return result

    def _overlaid_read(self, bucket: BucketId, key: TableKey):
        op_index = self._next_op_index()
        committed, version, bucket_seq = self._send_storage(bucket, Read(key), op_index,
                                                            record=False)
        seen = self.read_versions.get(bucket)
        if seen is None:
            self.read_versions[bucket] = version
        elif seen != version:
            raise OccConflict(f"bucket {bucket} changed mid-transaction")
        value = committed
        for _op_index, _bucket, op in self.buffer:
            if op.key == key:
                value = apply_op(value, op)[0]
        # Recorded as observed: the transaction's logical read includes its
        # own buffered writes.
        ctx = self.ctx
        ctx.sink.bucket_op(ctx.clock(), self.txn_id, ctx.client_id, self.attempt, bucket,
                           op_index, OP_SPECS[Read].kind, key, value, bucket_seq)
        return value

    # -- commit phase -----------------------------------------------------

    def _finish(self) -> None:
        txn = self.txn_id
        for bucket in sorted({bucket for _i, bucket, _op in self.buffer}):
            self._take(Op.OCC_LOCK, Op.OCC_UNLOCK, bucket, 0)
        for bucket in sorted(self.read_versions):
            body = self.ctx.cc_call(Op.OCC_VALIDATE, bucket, txn, self.read_versions[bucket])
            if body != b"\x01":
                raise OccConflict(f"bucket {bucket} failed validation")
        # Validation passed: from here writes may land, also when the apply
        # fails part way, so every unlock bumps its bucket's version.
        self.held = dict.fromkeys(self.held, 1)
        for op_index, bucket, op in self.buffer:
            self._send_storage(bucket, op, op_index, flags=FLAG_COMMIT_APPLY)


_HANDLES: dict[Scheme, type[TxnHandle]] = {
    Scheme.GLOCK: GLockHandle,
    Scheme.FGL: FglHandle,
    Scheme.OCC: OccHandle,
    Scheme.PESV: PesvHandle,
}


def begin(ctx: TxnContext, txn_id: int, access: Mapping[BucketId, int],
          attempt: int = 1) -> TxnHandle:
    if not access:
        raise ConfigError("empty access set")
    if min(access.values()) < 1:
        raise ConfigError("access set op counts must be >= 1")
    try:
        handle_cls = _HANDLES[ctx.scheme]
    except KeyError:
        raise ConfigError(f"unknown scheme {ctx.scheme!r}") from None
    handle = handle_cls(ctx, txn_id, access, attempt)
    try:
        handle.begin()
    except BaseException:
        handle.abandon()  # give back what the begin took before it failed
        raise
    return handle


def run_atomic(
    ctx: TxnContext,
    kind: str,
    access: Mapping[BucketId, int],
    body: Callable[[TxnHandle], Any],
) -> Any:
    """Execute ``body`` atomically, retrying aborted attempts with backoff;
    returns the committed attempt's body value."""
    txn_id = ctx.next_txn_id()
    sink = ctx.sink
    sink.txn_start(ctx.clock(), txn_id, ctx.client_id, kind)
    for attempt in range(1, RETRY_LIMIT + 1):
        if attempt >= 2:
            sink.retry_start(ctx.clock(), txn_id, ctx.client_id, attempt)
        handle = begin(ctx, txn_id, access, attempt)
        try:
            payload = body(handle)
            handle.commit()
            return payload
        except OccConflict:
            pass  # the aborted attempt holds nothing: back off and retry
        except BaseException:
            handle.abandon()  # do not leave locks or versions behind
            raise
        finally:
            # Also when a release failed after the writes landed: the log
            # records the commit, so that a check sees those writes.
            if handle.committed:
                sink.commit(ctx.clock(), txn_id, ctx.client_id, attempt)
        window_ms = min(BACKOFF_CAP_MS, BACKOFF_BASE_MS * (2 ** (attempt - 1)))
        ctx.sleep(ctx.backoff_rng.uniform(0.0, window_ms) / 1000.0)
    raise RetryLimitError(f"transaction {txn_id} ({kind}) exceeded {RETRY_LIMIT} attempts")
