"""Per-node storage engine, scheme registries, and the frame handler.

A node owns a subset of buckets, applies storage operations to them with
per-bucket atomicity, and hosts the server side of each concurrency
scheme: bucket locks, the global lock (on the first node), per-bucket
supremum/release counters, and commit locks with version validation.

The frame handler is transport-agnostic: both the TCP listener and the
in-process loopback feed it whole encoded frames.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from . import wire
from .errors import ProtocolError, RoutingError
from .model import BucketId, Message, RingLayout, TableId, TableKey
from .wire import Append, ErrCode, Op, Read, Scheme, StorageOp, TableEntry

SNAPSHOT_MAGIC = b"HELSNAP1"


class QuiesceRefused(Exception):
    """Snapshot requested while transactions are in flight."""


# ---------------------------------------------------------------------------
# Primitive: a FIFO mutex keyed by opaque owner tokens


class FifoLock:
    """Mutual exclusion granted in arrival order."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._owner: int | None = None
        self._queue: deque[int] = deque()

    def acquire(self, token: int) -> None:
        with self._cond:
            self._queue.append(token)
            while self._owner is not None or self._queue[0] != token:
                self._cond.wait()
            self._queue.popleft()
            self._owner = token

    def release(self, token: int) -> None:
        with self._cond:
            if self._owner != token:
                raise ProtocolError(f"lock not held by {token}")
            self._owner = None
            self._cond.notify_all()

    def owner(self) -> int | None:
        with self._cond:
            return self._owner

    def idle(self) -> bool:
        with self._cond:
            return self._owner is None and not self._queue


class LockTable:
    """One FIFO mutex per bucket; backs both the 2PL and commit-lock schemes."""

    def __init__(self) -> None:
        self._locks: dict[BucketId, FifoLock] = {}
        self._guard = threading.Lock()

    def _lock(self, bucket: BucketId) -> FifoLock:
        with self._guard:
            lock = self._locks.get(bucket)
            if lock is None:
                lock = self._locks[bucket] = FifoLock()
            return lock

    def acquire(self, bucket: BucketId, txn: int) -> None:
        self._lock(bucket).acquire(txn)

    def release(self, bucket: BucketId, txn: int) -> None:
        self._lock(bucket).release(txn)

    def owner(self, bucket: BucketId) -> int | None:
        return self._lock(bucket).owner()

    def idle(self) -> bool:
        with self._guard:
            locks = list(self._locks.values())
        return all(lock.idle() for lock in locks)


class SupremumTable:
    """Per-bucket version counters with FIFO hand-off.

    A transaction reserves a private version with ``take`` (the begin
    latch is held from the first ``take`` until ``unlatch`` so that a
    whole access set is versioned atomically), then each access waits for
    its turn and ``release`` hands the bucket to the next version.
    """

    @dataclass
    class _State:
        supremum: int = 0
        released: int = 0

    def __init__(self) -> None:
        self._latches = LockTable()
        self._states: dict[BucketId, SupremumTable._State] = {}
        self._cond = threading.Condition()

    def _state(self, bucket: BucketId) -> "SupremumTable._State":
        st = self._states.get(bucket)
        if st is None:
            st = self._states[bucket] = self._State()
        return st

    def take(self, bucket: BucketId, txn: int) -> int:
        self._latches.acquire(bucket, txn)
        with self._cond:
            st = self._state(bucket)
            st.supremum += 1
            return st.supremum

    def unlatch(self, bucket: BucketId, txn: int) -> None:
        self._latches.release(bucket, txn)

    def await_turn(self, bucket: BucketId, private_version: int) -> None:
        with self._cond:
            st = self._state(bucket)
            while st.released != private_version - 1:
                self._cond.wait()

    def release(self, bucket: BucketId, private_version: int) -> None:
        # Waits for predecessors so a commit-time release of an untouched
        # bucket cannot jump the queue.
        with self._cond:
            st = self._state(bucket)
            while st.released != private_version - 1:
                self._cond.wait()
            st.released = private_version
            self._cond.notify_all()

    def idle(self) -> bool:
        if not self._latches.idle():
            return False
        with self._cond:
            return all(st.released == st.supremum for st in self._states.values())


# ---------------------------------------------------------------------------
# Storage engine


@dataclass
class _BucketState:
    lock: threading.Lock = field(default_factory=threading.Lock)
    data: dict[TableKey, TableEntry] = field(default_factory=dict)
    version: int = 0  # committed-transaction counter, bumped by commit locks
    seq: int = 0  # application order of operations on this bucket


class StorageEngine:
    """Bucket contents plus per-bucket versions and apply counters."""

    def __init__(self) -> None:
        self._buckets: dict[BucketId, _BucketState] = {}
        self._guard = threading.Lock()
        self._ts = 0

    def _bucket(self, bucket: BucketId) -> _BucketState:
        with self._guard:
            st = self._buckets.get(bucket)
            if st is None:
                st = self._buckets[bucket] = _BucketState()
            return st

    def next_timestamp(self) -> int:
        with self._guard:
            self._ts += 1
            return self._ts

    def version(self, bucket: BucketId) -> int:
        st = self._bucket(bucket)
        with st.lock:
            return st.version

    def bump_version(self, bucket: BucketId) -> None:
        st = self._bucket(bucket)
        with st.lock:
            st.version += 1

    def apply(self, bucket: BucketId, op: StorageOp) -> tuple[int, int, object]:
        """Apply one op atomically; returns (bucket seq, version, result)."""
        st = self._bucket(bucket)
        key = op.key
        with st.lock:
            st.seq += 1
            if isinstance(op, Append) and key.table is TableId.MESSAGE:
                op = self._stamped(op)
            current = st.data.get(key, wire.default_entry(key.table))
            entry, result = wire.apply_op(current, op)
            if entry is not current:  # a read leaves the entry as it is
                wire.store_entry(st.data, key, entry)
            return st.seq, st.version, result

    def _stamped(self, op: Append) -> Append:
        """Assign the node's next logical timestamp to an unstamped message."""
        item = op.item
        if not isinstance(item, Message) or item.timestamp:
            return op
        return Append(op.key, Message(item.id, item.sender, item.recipient, item.content,
                                      self.next_timestamp()))

    def dump_entries(self) -> list[tuple[bytes, bytes]]:
        """All (key encoding, entry encoding) pairs, sorted by key encoding."""
        out: list[tuple[bytes, bytes]] = []
        with self._guard:
            buckets = list(self._buckets.items())
        for _bucket, st in buckets:
            with st.lock:
                for key, entry in st.data.items():
                    out.append((key.encode(), wire.encode_entry(key.table, entry)))
        out.sort(key=lambda kv: kv[0])
        return out


def pack_snapshot(entries: list[tuple[bytes, bytes]]) -> bytes:
    body = b"".join(k + v for k, v in entries)
    return SNAPSHOT_MAGIC + len(entries).to_bytes(8, "big") + body


def unpack_snapshot(dump: bytes) -> list[tuple[bytes, bytes]]:
    from .model import decode_key

    if dump[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise ProtocolError("bad snapshot header")
    count = int.from_bytes(dump[len(SNAPSHOT_MAGIC) : len(SNAPSHOT_MAGIC) + 8], "big")
    off = len(SNAPSHOT_MAGIC) + 8
    entries = []
    for _ in range(count):
        _key, key_end = decode_key(dump[off:])
        _entry, entry_end = wire.decode_entry(dump[off + key_end :])
        entries.append((dump[off : off + key_end], dump[off + key_end : off + key_end + entry_end]))
        off += key_end + entry_end
    if off != len(dump):
        raise ProtocolError("trailing bytes in snapshot")
    return entries


def merge_snapshots(dumps: list[bytes]) -> bytes:
    merged: list[tuple[bytes, bytes]] = []
    for dump in dumps:
        merged.extend(unpack_snapshot(dump))
    merged.sort(key=lambda kv: kv[0])
    return pack_snapshot(merged)


# ---------------------------------------------------------------------------
# Node


class Node:
    """One store node: owned buckets, scheme registries, frame dispatch."""

    def __init__(
        self,
        node_id: str,
        layout: RingLayout,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.node_id = node_id
        self.layout = layout
        self.engine = StorageEngine()
        self.fgl = LockTable()
        self.glock = FifoLock()
        self.suprema = SupremumTable()
        self.occ = LockTable()
        self.stopping = threading.Event()
        self._sleep = sleep
        self._active = 0
        self._active_guard = threading.Lock()

    # -- bookkeeping ---------------------------------------------------

    def _enter(self) -> None:
        with self._active_guard:
            self._active += 1

    def _exit(self) -> None:
        with self._active_guard:
            self._active -= 1

    def quiescent(self) -> bool:
        with self._active_guard:
            if self._active:
                return False
        return self.fgl.idle() and self.glock.idle() and self.suprema.idle() and self.occ.idle()

    # -- dispatch ------------------------------------------------------

    def handle_frame(self, data: bytes) -> bytes:
        try:
            payload = wire.split_frame(data)
            request_id, tag, index, opcode_raw, rest = wire.decode_header(payload)
        except ProtocolError as exc:
            return wire.err_reply(0, ErrCode.MALFORMED, str(exc))
        try:
            opcode = Op(opcode_raw)
        except ValueError:
            return wire.err_reply(request_id, ErrCode.MALFORMED, f"unknown opcode {opcode_raw:#x}")
        try:
            if opcode in wire.STORAGE_OPS or opcode in wire.CC_OPS:
                self._enter()
                try:
                    return self._serve_txn_op(request_id, opcode, tag, index, rest)
                finally:
                    self._exit()
            return self._serve_control(request_id, opcode)
        except RoutingError as exc:
            return wire.err_reply(request_id, ErrCode.ROUTING, str(exc))
        except QuiesceRefused as exc:
            return wire.err_reply(request_id, ErrCode.REFUSED, str(exc))
        except ProtocolError as exc:
            return wire.err_reply(request_id, ErrCode.PROTOCOL, str(exc))
        except Exception as exc:  # never crash the serving loop
            return wire.err_reply(request_id, ErrCode.PROTOCOL, f"internal: {exc!r}")

    def _bucket_from_header(self, tag: int, index: int) -> BucketId:
        try:
            table = TableId(tag)
        except ValueError:
            raise ProtocolError(f"unknown table tag {tag}") from None
        bucket = BucketId(table, index)
        if self.layout.owner_of(bucket) != self.node_id:
            raise RoutingError(f"bucket {table.name}:{index} is not owned by {self.node_id}")
        return bucket

    def _serve_txn_op(
        self, request_id: int, opcode: Op, tag: int, index: int, rest: bytes
    ) -> bytes:
        if opcode in wire.STORAGE_OPS:
            bucket = self._bucket_from_header(tag, index)
            try:
                cc, off = wire.decode_cc(rest)
                op = wire.decode_storage_body(opcode, bucket.table, rest[off:])
            except ProtocolError as exc:
                return wire.err_reply(request_id, ErrCode.MALFORMED, str(exc))
            return self._serve_storage(request_id, bucket, op, cc)

        if len(rest) < 8:
            return wire.err_reply(request_id, ErrCode.MALFORMED, "truncated txn id")
        txn = int.from_bytes(rest[:8], "big")
        arg = int.from_bytes(rest[8:16], "big") if len(rest) >= 16 else None

        if opcode in (Op.GLOCK_ACQUIRE, Op.GLOCK_RELEASE):
            if self.layout.coordinator != self.node_id:
                raise RoutingError(f"global lock is not hosted on {self.node_id}")
            if opcode is Op.GLOCK_ACQUIRE:
                self.glock.acquire(txn)
            else:
                self.glock.release(txn)
            return wire.ok_reply(request_id)

        bucket = self._bucket_from_header(tag, index)
        if opcode is Op.FGL_LOCK:
            self.fgl.acquire(bucket, txn)
            return wire.ok_reply(request_id)
        if opcode is Op.FGL_UNLOCK:
            self.fgl.release(bucket, txn)
            return wire.ok_reply(request_id)
        if opcode is Op.SUP_TAKE:
            pv = self.suprema.take(bucket, txn)
            return wire.ok_reply(request_id, pv.to_bytes(8, "big"))
        if opcode is Op.SUP_UNLATCH:
            self.suprema.unlatch(bucket, txn)
            return wire.ok_reply(request_id)
        if opcode is Op.VER_RELEASE:
            if arg is None:
                return wire.err_reply(request_id, ErrCode.MALFORMED, "missing version")
            self.suprema.release(bucket, arg)
            return wire.ok_reply(request_id)
        if opcode is Op.OCC_LOCK:
            self.occ.acquire(bucket, txn)
            return wire.ok_reply(request_id)
        if opcode is Op.OCC_VALIDATE:
            if arg is None:
                return wire.err_reply(request_id, ErrCode.MALFORMED, "missing version")
            ok = self._occ_validate(bucket, txn, arg)
            return wire.ok_reply(request_id, bytes([1 if ok else 0]))
        if opcode is Op.OCC_UNLOCK:
            bump = bool(arg)
            if bump:
                self.engine.bump_version(bucket)
            self.occ.release(bucket, txn)
            return wire.ok_reply(request_id)
        raise ProtocolError(f"unhandled opcode {opcode:#x}")

    def _occ_validate(self, bucket: BucketId, txn: int, expected: int) -> bool:
        # Version is re-read after the owner check: a competing commit bumps
        # the version before releasing its lock, so one of the two reads (or
        # the owner check) always observes it.
        if self.engine.version(bucket) != expected:
            return False
        owner = self.occ.owner(bucket)
        if owner is not None and owner != txn:
            return False
        return self.engine.version(bucket) == expected

    def _serve_storage(
        self, request_id: int, bucket: BucketId, op: StorageOp, cc: wire.CcBlock
    ) -> bytes:
        if cc.scheme is Scheme.PESV:
            self.suprema.await_turn(bucket, cc.private_version)
        elif cc.scheme is Scheme.OCC and not isinstance(op, Read):
            if not cc.flags & wire.FLAG_COMMIT_APPLY:
                raise ProtocolError("optimistic writes must be applied at commit")
            if self.occ.owner(bucket) != cc.txn_id:
                raise ProtocolError("commit apply without holding the commit lock")
        elif cc.scheme is Scheme.FGL:
            if self.fgl.owner(bucket) != cc.txn_id:
                raise ProtocolError("bucket lock not held by the accessing transaction")

        if cc.delay_ms:
            self._sleep(cc.delay_ms / 1000.0)
        seq, version, result = self.engine.apply(bucket, op)
        if cc.scheme is Scheme.PESV and cc.flags & wire.FLAG_RELEASE_AFTER:
            self.suprema.release(bucket, cc.private_version)

        body = wire.OP_SPECS[type(op)].encode_result(op.key.table, result)
        return wire.ok_reply(request_id, wire.storage_ok_body(seq, version, body))

    def _serve_control(self, request_id: int, opcode: Op) -> bytes:
        if opcode is Op.PING:
            return wire.ok_reply(request_id, b"PONG")
        if opcode is Op.SNAPSHOT:
            if not self.quiescent():
                raise QuiesceRefused("transactions in flight")
            return wire.ok_reply(request_id, pack_snapshot(self.engine.dump_entries()))
        if opcode is Op.SHUTDOWN:
            self.stopping.set()
            return wire.ok_reply(request_id)
        raise ProtocolError(f"opcode {opcode:#x} is not a request")
