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

Only occ can abort; the other three always commit on the first attempt.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Mapping

from .errors import AccessSetError, ConfigError, RetryLimitError, TxnStateError
from .model import BucketId, Message, MsgId, RingLayout, SeqPair, TableKey, bucket_of
from .transport import Transport, unwrap_reply
from .wire import (
    FLAG_COMMIT_APPLY,
    FLAG_RELEASE_AFTER,
    OP_SPECS,
    Append,
    CcBlock,
    IncrSeq,
    Op,
    Read,
    Remove,
    Scheme,
    StorageOp,
    WriteSeq,
    apply_op,
    cc_request,
    decode_storage_ok,
    default_entry,
    storage_request,
)
# Unused here, but the benchmark's traced run patches these names on this module.
from .wire import decode_entry, decode_message, decode_msgid, decode_seqpair  # noqa: F401


class CommitOutcome(Enum):
    COMMITTED = "committed"
    ABORTED_RETRY = "aborted_retry"


class OccConflict(Exception):
    """Raised mid-execution when a read observes a changed bucket version."""


@dataclass(frozen=True)
class TxnDescriptor:
    """A transaction's identity and declared access set (op-count upper bounds)."""

    txn_id: int
    access: Mapping[BucketId, int]

    def __post_init__(self) -> None:
        if not self.access:
            raise ConfigError("empty access set")
        if any(count < 1 for count in self.access.values()):
            raise ConfigError("access set op counts must be >= 1")


@dataclass
class TxnContext:
    """Everything a client needs to run transactions against the cluster."""

    transport: Transport
    layout: RingLayout
    scheme: Scheme
    buckets_per_table: int
    delay_ms: int = 0
    client_id: int = 0
    retry_limit: int = 10_000
    backoff_base_ms: float = 1.0
    backoff_cap_ms: float = 64.0
    backoff_rng: random.Random = field(default_factory=random.Random)
    clock: Callable[[], int] = time.monotonic_ns
    sleep: Callable[[float], None] = time.sleep
    sink: Any = None  # metrics.EventSink or None
    _request_counter: int = 0
    _txn_counter: int = 0

    def next_request_id(self) -> int:
        self._request_counter += 1
        return (self.client_id << 32) | self._request_counter

    def next_txn_id(self) -> int:
        self._txn_counter += 1
        return (self.client_id << 32) | self._txn_counter

    def call(self, node_id: str, frame_bytes: bytes, request_id: int) -> bytes:
        return unwrap_reply(request_id, self.transport.request(node_id, frame_bytes))

    def cc_call(self, opcode: Op, bucket: BucketId | None, txn_id: int, arg: int | None = None) -> bytes:
        request_id = self.next_request_id()
        node = self.layout.coordinator if bucket is None else self.layout.owner_of(bucket)
        return self.call(node, cc_request(request_id, opcode, bucket, txn_id, arg), request_id)


class TxnHandle:
    """Live state of one transaction attempt under one scheme."""

    scheme = Scheme.NONE

    def __init__(self, ctx: TxnContext, descriptor: TxnDescriptor, attempt: int) -> None:
        self.ctx = ctx
        self.descriptor = descriptor
        self.attempt = attempt
        self.remaining = dict(descriptor.access)
        self.op_counts: Counter[BucketId] = Counter()
        self._op_index = 0
        self._done = False

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

    def commit(self) -> CommitOutcome:
        if self._done:
            raise TxnStateError("transaction already committed")
        outcome = self._finish()
        self._done = True
        return outcome

    def abandon(self) -> None:
        """Release scheme state without committing; used when a body raises.

        For the lock- and version-based schemes the release side of commit
        is exactly what is needed; the optimistic handle holds nothing
        during execution and overrides this with a buffer discard.
        """
        if self._done:
            return
        self._done = True
        self._finish()

    def _perform(self, bucket: BucketId, op: StorageOp):
        raise NotImplementedError

    def _finish(self) -> CommitOutcome:
        raise NotImplementedError

    # -- shared plumbing ---------------------------------------------------

    def _next_op_index(self) -> int:
        self._op_index += 1
        return self._op_index

    def _call_storage(self, bucket: BucketId, op: StorageOp, op_index: int,
                      flags: int = 0, private_version: int = 0):
        """Send one storage op; returns (result, version, bucket_seq)."""
        ctx = self.ctx
        cc = CcBlock(
            scheme=self.scheme,
            txn_id=self.descriptor.txn_id,
            attempt=self.attempt,
            op_index=op_index,
            flags=flags,
            delay_ms=ctx.delay_ms,
            private_version=private_version,
        )
        request_id = ctx.next_request_id()
        node = ctx.layout.owner_of(bucket)
        body = ctx.call(node, storage_request(request_id, bucket, op, cc), request_id)
        bucket_seq, version, payload = decode_storage_ok(body)
        result = OP_SPECS[type(op)].decode_result(op.key.table, payload)
        self.op_counts[bucket] += 1
        return result, version, bucket_seq

    def _record_op(self, bucket: BucketId, op_index: int, kind: str,
                   key: TableKey, value: object, bucket_seq: int) -> None:
        if self.ctx.sink is not None:
            self.ctx.sink.bucket_op(
                self.ctx.clock(), self.descriptor.txn_id, self.ctx.client_id,
                self.attempt, bucket, op_index, kind, key, value, bucket_seq,
            )

    def _send_storage(self, bucket: BucketId, op: StorageOp, op_index: int,
                      flags: int = 0, private_version: int = 0):
        result, version, bucket_seq = self._call_storage(
            bucket, op, op_index, flags, private_version
        )
        self._record_op(bucket, op_index, OP_SPECS[type(op)].kind, op.key, result, bucket_seq)
        return result, version


class GLockHandle(TxnHandle):
    scheme = Scheme.GLOCK

    def begin(self) -> None:
        self.ctx.cc_call(Op.GLOCK_ACQUIRE, None, self.descriptor.txn_id)

    def _perform(self, bucket: BucketId, op: StorageOp):
        result, _version = self._send_storage(bucket, op, self._next_op_index())
        return result

    def _finish(self) -> CommitOutcome:
        self.ctx.cc_call(Op.GLOCK_RELEASE, None, self.descriptor.txn_id)
        return CommitOutcome.COMMITTED


class FglHandle(TxnHandle):
    scheme = Scheme.FGL

    def __init__(self, ctx: TxnContext, descriptor: TxnDescriptor, attempt: int) -> None:
        super().__init__(ctx, descriptor, attempt)
        self.held: set[BucketId] = set()
        self.lock_trace: list[tuple[str, BucketId]] = []

    def begin(self) -> None:
        for bucket in sorted(self.descriptor.access):
            self.ctx.cc_call(Op.FGL_LOCK, bucket, self.descriptor.txn_id)
            self.held.add(bucket)
            self.lock_trace.append(("acquire", bucket))

    def _perform(self, bucket: BucketId, op: StorageOp):
        result, _version = self._send_storage(bucket, op, self._next_op_index())
        if self.remaining[bucket] == 1:  # this was the last declared access
            self._unlock(bucket)
        return result

    def _unlock(self, bucket: BucketId) -> None:
        self.ctx.cc_call(Op.FGL_UNLOCK, bucket, self.descriptor.txn_id)
        self.held.discard(bucket)
        self.lock_trace.append(("release", bucket))

    def _finish(self) -> CommitOutcome:
        for bucket in sorted(self.held):
            self.ctx.cc_call(Op.FGL_UNLOCK, bucket, self.descriptor.txn_id)
            self.lock_trace.append(("release", bucket))
        self.held.clear()
        return CommitOutcome.COMMITTED


class PesvHandle(TxnHandle):
    scheme = Scheme.PESV

    def __init__(self, ctx: TxnContext, descriptor: TxnDescriptor, attempt: int) -> None:
        super().__init__(ctx, descriptor, attempt)
        self.versions: dict[BucketId, int] = {}
        self.released: set[BucketId] = set()

    def begin(self) -> None:
        order = sorted(self.descriptor.access)
        for bucket in order:
            body = self.ctx.cc_call(Op.SUP_TAKE, bucket, self.descriptor.txn_id)
            self.versions[bucket] = int.from_bytes(body[:8], "big")
        for bucket in order:
            self.ctx.cc_call(Op.SUP_UNLATCH, bucket, self.descriptor.txn_id)

    def _perform(self, bucket: BucketId, op: StorageOp):
        last = self.remaining[bucket] == 1
        flags = FLAG_RELEASE_AFTER if last else 0
        result, _version = self._send_storage(
            bucket, op, self._next_op_index(), flags=flags,
            private_version=self.versions[bucket],
        )
        if last:
            self.released.add(bucket)
        return result

    def _finish(self) -> CommitOutcome:
        for bucket in sorted(self.versions):
            if bucket not in self.released:
                self.ctx.cc_call(
                    Op.VER_RELEASE, bucket, self.descriptor.txn_id, self.versions[bucket]
                )
        return CommitOutcome.COMMITTED


class OccHandle(TxnHandle):
    scheme = Scheme.OCC

    def __init__(self, ctx: TxnContext, descriptor: TxnDescriptor, attempt: int) -> None:
        super().__init__(ctx, descriptor, attempt)
        self.read_versions: dict[BucketId, int] = {}
        # Buffered mutations in program order: (op_index, bucket, op).
        self.buffer: list[tuple[int, BucketId, StorageOp]] = []
        self._overlay: dict[TableKey, list[StorageOp]] = {}

    # -- execution phase -------------------------------------------------

    def _perform(self, bucket: BucketId, op: StorageOp):
        if isinstance(op, (Read, IncrSeq)):
            entry = self._overlaid_read(bucket, op.key)
        else:  # a blind write: its result does not depend on the stored entry
            entry = default_entry(op.key.table)
        new, result = apply_op(entry, op)
        if isinstance(op, IncrSeq):
            # Published at commit as the pair this attempt computed from its
            # validated read.
            op = WriteSeq(op.key, new)
        if not isinstance(op, Read):
            self._buffer_op(bucket, op)
        return result

    def _overlaid_read(self, bucket: BucketId, key: TableKey):
        op_index = self._next_op_index()
        committed, version, bucket_seq = self._call_storage(bucket, Read(key), op_index)
        seen = self.read_versions.get(bucket)
        if seen is None:
            self.read_versions[bucket] = version
        elif seen != version:
            raise OccConflict(f"bucket {bucket} changed mid-transaction")
        value = committed
        for op in self._overlay.get(key, ()):
            value, _ = apply_op(value, op)
        # Recorded as observed: the transaction's logical read includes its
        # own buffered writes.
        self._record_op(bucket, op_index, OP_SPECS[Read].kind, key, value, bucket_seq)
        return value

    def _buffer_op(self, bucket: BucketId, op: StorageOp) -> None:
        self.buffer.append((self._next_op_index(), bucket, op))
        self._overlay.setdefault(op.key, []).append(op)

    # -- commit phase -----------------------------------------------------

    def _finish(self) -> CommitOutcome:
        txn = self.descriptor.txn_id
        write_buckets = sorted({bucket for _i, bucket, _op in self.buffer})
        locked: list[BucketId] = []
        try:
            for bucket in write_buckets:
                self.ctx.cc_call(Op.OCC_LOCK, bucket, txn)
                locked.append(bucket)
            for bucket in sorted(self.read_versions):
                body = self.ctx.cc_call(
                    Op.OCC_VALIDATE, bucket, txn, self.read_versions[bucket]
                )
                if body != b"\x01":
                    return self._rollback(locked)
        except BaseException:
            self._rollback(locked)
            raise
        try:
            for op_index, bucket, op in self.buffer:
                self._send_storage(bucket, op, op_index, flags=FLAG_COMMIT_APPLY)
        finally:
            # Also when the apply fails: some writes may have landed, so the
            # versions are bumped.
            self._unlock(locked, bump=1)
        return CommitOutcome.COMMITTED

    def _rollback(self, locked: list[BucketId]) -> CommitOutcome:
        self._unlock(locked, bump=0)
        self.buffer.clear()
        self._overlay.clear()
        return CommitOutcome.ABORTED_RETRY

    def _unlock(self, locked: list[BucketId], bump: int) -> None:
        """Release every commit lock, even when one release fails; the first
        failure is raised after all were tried."""
        failures: list[Exception] = []
        for bucket in locked:
            try:
                self.ctx.cc_call(Op.OCC_UNLOCK, bucket, self.descriptor.txn_id, bump)
            except Exception as exc:
                failures.append(exc)
        if failures:
            raise failures[0]

    def abandon(self) -> None:
        if self._done:
            return
        self._done = True
        self.buffer.clear()
        self._overlay.clear()


_HANDLES: dict[Scheme, type[TxnHandle]] = {
    Scheme.GLOCK: GLockHandle,
    Scheme.FGL: FglHandle,
    Scheme.OCC: OccHandle,
    Scheme.PESV: PesvHandle,
}


def begin(ctx: TxnContext, descriptor: TxnDescriptor, attempt: int = 1) -> TxnHandle:
    try:
        handle_cls = _HANDLES[ctx.scheme]
    except KeyError:
        raise ConfigError(f"unknown scheme {ctx.scheme!r}") from None
    handle = handle_cls(ctx, descriptor, attempt)
    handle.begin()
    return handle


class TxnView:
    """Typed storage verbs bound to one live transaction handle."""

    def __init__(self, handle: TxnHandle, buckets_per_table: int) -> None:
        self._handle = handle
        self._buckets = buckets_per_table

    def _bucket(self, key: TableKey) -> BucketId:
        return bucket_of(key, self._buckets)

    def read(self, key: TableKey):
        return self._handle.access(self._bucket(key), Read(key))

    def append(self, key: TableKey, item: MsgId | Message):
        return self._handle.access(self._bucket(key), Append(key, item))

    def remove(self, key: TableKey, item: MsgId) -> None:
        self._handle.access(self._bucket(key), Remove(key, item))

    def write_seq(self, key: TableKey, pair: SeqPair) -> None:
        self._handle.access(self._bucket(key), WriteSeq(key, pair))

    def incr_seq(self, key: TableKey) -> SeqPair:
        return self._handle.access(self._bucket(key), IncrSeq(key))


@dataclass
class TxnResult:
    """Outcome of one committed transaction."""

    kind: str
    txn_id: int
    start_ns: int
    commit_ns: int
    attempts: int
    op_counts: Counter
    payload: Any


def run_atomic(
    ctx: TxnContext,
    kind: str,
    access: Mapping[BucketId, int],
    body: Callable[[TxnView], Any],
) -> TxnResult:
    """Execute ``body`` atomically, retrying aborted attempts with backoff."""
    txn_id = ctx.next_txn_id()
    descriptor = TxnDescriptor(txn_id, dict(access))
    start = ctx.clock()
    if ctx.sink is not None:
        ctx.sink.txn_start(start, txn_id, ctx.client_id, kind)
    attempt = 0
    while True:
        attempt += 1
        if attempt > ctx.retry_limit:
            raise RetryLimitError(
                f"transaction {txn_id} ({kind}) exceeded {ctx.retry_limit} attempts"
            )
        if attempt >= 2 and ctx.sink is not None:
            ctx.sink.retry_start(ctx.clock(), txn_id, ctx.client_id, attempt)
        handle = begin(ctx, descriptor, attempt)
        try:
            payload = body(TxnView(handle, ctx.buckets_per_table))
            outcome = handle.commit()
        except OccConflict:
            outcome = CommitOutcome.ABORTED_RETRY
        except BaseException:
            handle.abandon()  # do not leave locks or versions behind
            raise
        if outcome is CommitOutcome.COMMITTED:
            end = ctx.clock()
            if ctx.sink is not None:
                ctx.sink.commit(end, txn_id, ctx.client_id, attempt)
            return TxnResult(kind, txn_id, start, end, attempt, handle.op_counts, payload)
        window_ms = min(ctx.backoff_cap_ms, ctx.backoff_base_ms * (2 ** (attempt - 1)))
        ctx.sleep(ctx.backoff_rng.uniform(0.0, window_ms) / 1000.0)
