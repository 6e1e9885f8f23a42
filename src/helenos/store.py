"""Per-node storage engine, scheme registries, and the frame handler.

A node owns a subset of buckets, applies storage operations to them with
per-bucket atomicity, and hosts the server side of each concurrency
scheme: bucket locks, the global lock (on the coordinator node), per-bucket
version turns behind a begin latch, and commit locks with version validation.

Every wait on a node is a ticket turn (``Turns``). A lock is a turn held by
an owner token (``FifoLock``), and a pesv private version is a ticket on its
bucket's version turns. Each lock and each bucket's turns has its own
lock, and a condition that only a waiter touches; ``PerBucket`` maps create
them on first use.

The frame handler is transport-agnostic: both the TCP listener and the
in-process loopback feed it whole encoded frames. It checks a frame's length
and header with one unpack and reads the rest at offsets. It looks each
frame's opcode byte up once in one table, ``_SERVE``, which sends storage
ops, scheme verbs and control frames each to one server; what a verb does to
the node is its row in ``_VERBS``. A header's bucket is routed once per node
and then looked up.
"""

from __future__ import annotations

import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import wire
from .errors import ProtocolError, RoutingError
from .model import (
    OWNER_CACHE_LIMIT,
    TABLE_BY_TAG,
    BucketId,
    Message,
    RingLayout,
    TableId,
    TableKey,
    decode_key,
)
from .wire import HEAD_SIZE, Append, ErrCode, Op, Scheme, StorageOp, TableEntry

SNAPSHOT_MAGIC = b"HELSNAP1"


class QuiesceRefused(Exception):
    """Snapshot requested while transactions are in flight."""


# ---------------------------------------------------------------------------
# Primitive: ticket turns, and the per-bucket map that holds them


class Turns:
    """Tickets served in the order they were taken (Mellor-Crummey & Scott,
    ACM TOCS 1991); the one place a node waits.

    ``take`` hands out tickets 1, 2, ...; ticket t's turn comes once
    ticket t - 1 is released. ``release`` first waits for that turn, so a
    ticket released out of order cannot jump the queue. A ticket that is
    not waiting, one never taken or already released, is refused instead
    of waited for: its turn would never come.

    Every method enters the plain lock directly. The condition on it is
    built by the first waiter, and notified only while a waiter is counted,
    so an uncontended turn never builds or touches it. The lock is not
    re-entrant: no method calls another that takes it.
    """

    __slots__ = ("_lock", "_cond", "_waiters", "_taken", "_released")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond: threading.Condition | None = None
        self._waiters = 0
        self._taken = 0
        self._released = 0

    def take(self) -> int:
        with self._lock:
            self._taken += 1
            return self._taken

    def _await(self, ticket: int) -> None:  # the caller holds the lock
        while True:
            if not self._released < ticket <= self._taken:
                raise ProtocolError(f"ticket {ticket} is not waiting: "
                                    f"released {self._released}, taken {self._taken}")
            if self._released == ticket - 1:
                return
            if self._cond is None:
                self._cond = threading.Condition(self._lock)
            self._waiters += 1
            try:
                self._cond.wait()
            finally:
                self._waiters -= 1

    def await_turn(self, ticket: int) -> None:
        with self._lock:
            self._await(ticket)

    def release(self, ticket: int) -> None:
        with self._lock:
            self._await(ticket)
            self._released = ticket
            if self._waiters:
                self._cond.notify_all()

    def idle(self) -> bool:
        with self._lock:
            return self._released == self._taken


class FifoLock(Turns):
    """Mutual exclusion granted in arrival order: a turn held by an owner token."""

    __slots__ = ("_owner",)

    def __init__(self) -> None:
        super().__init__()
        self._owner: int | None = None

    def acquire(self, token: int) -> None:
        with self._lock:
            self._taken += 1
            self._await(self._taken)
            self._owner = token

    def release(self, token: int) -> None:  # by owner token, not by ticket
        with self._lock:
            if self._owner != token:
                raise ProtocolError(f"lock not held by {token}")
            self._owner = None
            self._released += 1
            if self._waiters:
                self._cond.notify_all()

    def owner(self) -> int | None:
        with self._lock:
            return self._owner


class PerBucket(dict):
    """Bucket -> state, created on first use. A lookup of a bucket already
    present is a plain dict read; only a creation takes the guard."""

    def __init__(self, factory: Callable[[], object]) -> None:
        super().__init__()
        self._factory = factory
        self._guard = threading.Lock()

    def __missing__(self, bucket: BucketId):
        with self._guard:
            return self.setdefault(bucket, self._factory())

    def states(self) -> list:
        with self._guard:
            return list(self.values())


class SupremumTable:
    """Per-bucket version turns behind a per-bucket begin latch.

    A transaction reserves a private version with ``take`` (the begin
    latch is held from the first ``take`` until ``SUP_UNLATCH`` so that a
    whole access set is versioned atomically), then each access waits for
    its version's turn and ``release`` hands the bucket to the next one.
    """

    def __init__(self) -> None:
        self.latches = PerBucket(FifoLock)
        self.versions = PerBucket(Turns)

    def take(self, bucket: BucketId, txn: int) -> int:
        self.latches[bucket].acquire(txn)
        return self.versions[bucket].take()

    def await_turn(self, bucket: BucketId, private_version: int) -> None:
        self.versions[bucket].await_turn(private_version)

    def release(self, bucket: BucketId, private_version: int) -> None:
        # Waits for predecessors so a commit-time release of an untouched
        # bucket cannot jump the queue.
        self.versions[bucket].release(private_version)


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
        self._buckets = PerBucket(_BucketState)
        self._guard = threading.Lock()
        self._ts = 0

    def next_timestamp(self) -> int:
        with self._guard:
            self._ts += 1
            return self._ts

    def version(self, bucket: BucketId) -> int:
        st = self._buckets[bucket]
        with st.lock:
            return st.version

    def bump_version(self, bucket: BucketId) -> None:
        st = self._buckets[bucket]
        with st.lock:
            st.version += 1

    def apply(self, bucket: BucketId, op: StorageOp) -> tuple[int, int, object]:
        """Apply one op atomically; returns (bucket seq, version, result)."""
        st = self._buckets[bucket]
        key = op.key
        with st.lock:
            st.seq += 1
            if isinstance(op, Append) and key.table is TableId.MESSAGE:
                op = self._stamped(op)
            current = st.data.get(key)
            if current is None:
                current = wire.default_entry(key.table)
            entry, result = wire.apply_op(current, op)
            if entry is not current:  # a read leaves the entry as it is
                wire.store_entry(st.data, key, entry)
            return st.seq, st.version, result

    def _stamped(self, op: Append) -> Append:
        """Assign the node's next logical timestamp to an unstamped message."""
        item = op.item
        if not isinstance(item, Message) or item.timestamp:
            return op
        return Append(op.key, tuple.__new__(Message, (item.id, item.sender, item.recipient,
                                                      item.content, self.next_timestamp())))

    def dump_entries(self) -> list[tuple[bytes, bytes]]:
        """All (key encoding, entry encoding) pairs, sorted by key encoding."""
        out: list[tuple[bytes, bytes]] = []
        for st in self._buckets.states():
            with st.lock:
                for key, entry in st.data.items():
                    out.append((key.encode(), wire.encode_entry(key.table, entry)))
        out.sort(key=lambda kv: kv[0])
        return out


def pack_snapshot(entries: list[tuple[bytes, bytes]]) -> bytes:
    body = b"".join(k + v for k, v in entries)
    return SNAPSHOT_MAGIC + len(entries).to_bytes(8, "big") + body


def walk_snapshot(dump: bytes) -> Iterator[tuple[bytes, bytes, TableKey, TableEntry]]:
    """Each entry of a dump as (key encoding, entry encoding, key, entry): the
    one snapshot reader, behind ``merge_snapshots`` and the checker. It walks
    the dump once with the key and entry decoders that read frames, and
    refuses an entry whose kind is not its key's table's."""
    if dump[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise ProtocolError("bad snapshot header")
    off = len(SNAPSHOT_MAGIC) + 8
    count = int.from_bytes(dump[len(SNAPSHOT_MAGIC) : off], "big")
    for _ in range(count):
        key, split = decode_key(dump, off)
        entry, end = wire.decode_entry(dump, split)
        if dump[split] != wire.TABLE_ROWS[key.table].kind:
            raise ProtocolError(f"entry kind {dump[split]} does not match table {key.table.name}")
        yield dump[off:split], dump[split:end], key, entry
        off = end
    if off != len(dump):
        raise ProtocolError("trailing bytes in snapshot")


def unpack_snapshot(dump: bytes) -> list[tuple[bytes, bytes]]:
    """The (key encoding, entry encoding) pairs of a dump."""
    return [(key_enc, entry_enc) for key_enc, entry_enc, _, _ in walk_snapshot(dump)]


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
        self.fgl = PerBucket(FifoLock)
        self.glock = FifoLock()
        self.suprema = SupremumTable()
        self.occ = PerBucket(FifoLock)
        self.stopping = threading.Event()
        self._sleep = sleep
        self._active = 0  # storage and verb frames being served
        self._active_guard = threading.Lock()
        # (tag, index) of a header -> the owned bucket it names. A refused
        # header is not stored; past OWNER_CACHE_LIMIT headers, a bucket is
        # routed without being stored.
        self._owned: dict[tuple[int, int], BucketId] = {}

    # -- bookkeeping ---------------------------------------------------

    def quiescent(self) -> bool:
        with self._active_guard:
            if self._active:
                return False
        registries = (self.fgl, self.occ, self.suprema.latches, self.suprema.versions)
        turns = [self.glock, *(t for registry in registries for t in registry.states())]
        return all(t.idle() for t in turns)

    # -- dispatch ------------------------------------------------------

    def handle_frame(self, data: bytes) -> bytes:
        try:
            _n, request_id, tag, index, opcode = wire.open_frame(data)
        except ProtocolError as exc:
            return wire.err_reply(0, ErrCode.MALFORMED, str(exc))
        serve = _SERVE.get(opcode)
        if serve is None:
            return wire.err_reply(request_id, ErrCode.MALFORMED, f"unknown opcode {opcode:#x}")
        try:
            return serve(self, request_id, opcode, tag, index, data)
        except RoutingError as exc:
            return wire.err_reply(request_id, ErrCode.ROUTING, str(exc))
        except QuiesceRefused as exc:
            return wire.err_reply(request_id, ErrCode.REFUSED, str(exc))
        except ProtocolError as exc:
            return wire.err_reply(request_id, ErrCode.PROTOCOL, str(exc))
        except Exception as exc:  # never crash the serving loop
            return wire.err_reply(request_id, ErrCode.PROTOCOL, f"internal: {exc!r}")

    def _route(self, tag: int, index: int) -> BucketId:
        """The bucket a header names, refused unless this node owns it; called
        for a header not yet in ``_owned``."""
        table = TABLE_BY_TAG.get(tag)
        if table is None:
            raise ProtocolError(f"unknown table tag {tag}")
        bucket = BucketId(table, index)
        if self.layout.owner_of(bucket) != self.node_id:
            raise RoutingError(f"bucket {table.name}:{index} is not owned by {self.node_id}")
        if len(self._owned) < OWNER_CACHE_LIMIT:
            self._owned[tag, index] = bucket
        return bucket

    def _serve_storage(self, request_id: int, opcode: int, tag: int, index: int,
                       data: bytes) -> bytes:
        with self._active_guard:
            self._active += 1
        try:
            bucket = self._owned.get((tag, index)) or self._route(tag, index)
            try:
                cc, off = wire.decode_cc(data, HEAD_SIZE)
                op = wire.decode_storage_body(opcode, bucket.table, data, off)
            except ProtocolError as exc:
                return wire.err_reply(request_id, ErrCode.MALFORMED, str(exc))
            spec = wire.SPEC_BY_OPCODE[opcode]
            scheme = cc.scheme
            if scheme is _PESV:
                self.suprema.await_turn(bucket, cc.private_version)
            elif scheme is _OCC and spec.writes:
                if not cc.flags & wire.FLAG_COMMIT_APPLY:
                    raise ProtocolError("optimistic writes must be applied at commit")
                if self.occ[bucket].owner() != cc.txn_id:
                    raise ProtocolError("commit apply without holding the commit lock")
            elif scheme is _FGL:
                if self.fgl[bucket].owner() != cc.txn_id:
                    raise ProtocolError("bucket lock not held by the accessing transaction")

            if cc.delay_ms:
                self._sleep(cc.delay_ms / 1000.0)
            seq, version, result = self.engine.apply(bucket, op)
            if scheme is _PESV and cc.flags & wire.FLAG_RELEASE_AFTER:
                self.suprema.release(bucket, cc.private_version)

            body = spec.encode_result[op.key.table](result)
            return wire.storage_ok_reply(request_id, seq, version, body)
        finally:
            with self._active_guard:
                self._active -= 1

    def _serve_verb(self, request_id: int, opcode: int, tag: int, index: int,
                    data: bytes) -> bytes:
        with self._active_guard:
            self._active += 1
        try:
            # The body is the txn id, or the txn id and the argument.
            size = len(data) - HEAD_SIZE
            if size == 8:
                (txn,) = _TXN.unpack_from(data, HEAD_SIZE)
                arg = None
            elif size == 16:
                txn, arg = _TXN_ARG.unpack_from(data, HEAD_SIZE)
            elif size < 8:
                return wire.err_reply(request_id, ErrCode.MALFORMED, "truncated txn id")
            else:
                return wire.err_reply(request_id, ErrCode.MALFORMED,
                                      "verb body must be 8 or 16 bytes")
            if opcode in _GLOBAL_VERBS:
                if self.layout.node_ids[0] != self.node_id:  # the coordinator
                    raise RoutingError(f"global lock is not hosted on {self.node_id}")
                bucket = None
            else:
                bucket = self._owned.get((tag, index)) or self._route(tag, index)
                if arg is None and opcode in _VERSION_VERBS:
                    return wire.err_reply(request_id, ErrCode.MALFORMED, "missing version")
            return wire.ok_reply(request_id, _VERBS[opcode](self, bucket, txn, arg) or b"")
        finally:
            with self._active_guard:
                self._active -= 1

    def _occ_validate(self, bucket: BucketId, txn: int, expected: int) -> bool:
        # Version is re-read after the owner check: a competing commit bumps
        # the version before releasing its lock, so one of the two reads (or
        # the owner check) always observes it.
        if self.engine.version(bucket) != expected:
            return False
        owner = self.occ[bucket].owner()
        if owner is not None and owner != txn:
            return False
        return self.engine.version(bucket) == expected

    def _occ_unlock(self, bucket: BucketId, txn: int, bump: int | None) -> None:
        lock = self.occ[bucket]
        if bump and lock.owner() == txn:  # a refused unlock leaves the version as it is
            self.engine.bump_version(bucket)
        lock.release(txn)

    def _serve_control(self, request_id: int, opcode: int, *_header_and_body) -> bytes:
        if opcode == Op.PING:
            return wire.ok_reply(request_id, b"PONG")
        if opcode == Op.SNAPSHOT:
            if not self.quiescent():
                raise QuiesceRefused("transactions in flight")
            return wire.ok_reply(request_id, pack_snapshot(self.engine.dump_entries()))
        if opcode == Op.SHUTDOWN:
            self.stopping.set()
            return wire.ok_reply(request_id)
        raise ProtocolError(f"opcode {opcode:#x} is not a request")


# Built once, at import. The per-frame path compares schemes with these
# constants: reading a member off an Enum class is a slow attribute lookup.
_PESV, _OCC, _FGL = Scheme.PESV, Scheme.OCC, Scheme.FGL
_TXN, _TXN_ARG = struct.Struct(">Q"), struct.Struct(">QQ")  # a verb's body
_GLOBAL_VERBS = frozenset({Op.GLOCK_ACQUIRE, Op.GLOCK_RELEASE})  # served by the coordinator
_VERSION_VERBS = frozenset({Op.VER_RELEASE, Op.OCC_VALIDATE})  # refused without the argument

# Verb opcode -> its action on the node: (node, bucket, txn, argument) -> OK
# body or None. A row reaches the locks and tables through the node's
# attributes at call time, so a patch of their classes still takes effect.
_VERBS: dict[int, Callable[[Node, BucketId, int, int | None], bytes | None]] = {
    Op.GLOCK_ACQUIRE: lambda node, _bucket, txn, _arg: node.glock.acquire(txn),
    Op.GLOCK_RELEASE: lambda node, _bucket, txn, _arg: node.glock.release(txn),
    Op.FGL_LOCK: lambda node, bucket, txn, _arg: node.fgl[bucket].acquire(txn),
    Op.FGL_UNLOCK: lambda node, bucket, txn, _arg: node.fgl[bucket].release(txn),
    Op.SUP_TAKE: lambda node, bucket, txn, _arg: node.suprema.take(bucket, txn).to_bytes(8, "big"),
    Op.SUP_UNLATCH: lambda node, bucket, txn, _arg: node.suprema.latches[bucket].release(txn),
    Op.VER_RELEASE: lambda node, bucket, _txn, version: node.suprema.release(bucket, version),
    Op.OCC_LOCK: lambda node, bucket, txn, _arg: node.occ[bucket].acquire(txn),
    Op.OCC_VALIDATE: lambda node, bucket, txn, version: (
        b"\x01" if node._occ_validate(bucket, txn, version) else b"\x00"),
    Op.OCC_UNLOCK: Node._occ_unlock,
}

# Opcode byte -> the method that serves its frame; any other byte is malformed.
_SERVE: dict[int, Callable[..., bytes]] = {
    **dict.fromkeys((spec.opcode for spec in wire.OP_SPECS.values()), Node._serve_storage),
    **dict.fromkeys(_VERBS, Node._serve_verb),
    **dict.fromkeys((Op.PING, Op.SNAPSHOT, Op.SHUTDOWN, Op.OK, Op.ERR), Node._serve_control),
}
