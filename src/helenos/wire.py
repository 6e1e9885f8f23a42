"""Binary wire protocol: length-prefixed frames and payload codecs.

Every request and reply, over TCP and over the in-process loopback
transport alike, is one frame:

    frame   := length(u32 BE) payload
    payload := request_id(u64) bucket_tag(u8) bucket_index(u32) opcode(u8) rest

Storage requests carry a fixed concurrency block between the header and
the body so scheme tokens ride piggyback on every operation:

    cc_block := scheme(u8) txn_id(u64) attempt(u16) op_index(u32)
                flags(u8) delay_ms(u16) private_version(u64)

All integers are big-endian. The byte-level layout is frozen; see README.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable, Union

from .errors import ProtocolError
from .model import (
    BucketId,
    Message,
    MsgId,
    SeqPair,
    TableId,
    TableKey,
    decode_key,
)

MAX_FRAME = 16 * 1024 * 1024  # payload bytes; larger frames are rejected

# Pseudo-bucket header used by verbs that do not address a bucket.
GLOBAL_TAG = 0xFF


class Op(IntEnum):
    # storage
    READ = 0x01
    APPEND = 0x02
    REMOVE = 0x03
    WRITE_SEQ = 0x04
    INCR_SEQ = 0x05
    # concurrency control
    GLOCK_ACQUIRE = 0x10
    GLOCK_RELEASE = 0x11
    FGL_LOCK = 0x12
    FGL_UNLOCK = 0x13
    SUP_TAKE = 0x14
    SUP_UNLATCH = 0x15
    VER_RELEASE = 0x16
    OCC_LOCK = 0x17
    OCC_VALIDATE = 0x18
    OCC_UNLOCK = 0x19
    # control
    PING = 0x20
    SNAPSHOT = 0x21
    SHUTDOWN = 0x22
    # replies
    OK = 0x80
    ERR = 0x81


STORAGE_OPS = frozenset({Op.READ, Op.APPEND, Op.REMOVE, Op.WRITE_SEQ, Op.INCR_SEQ})

CC_OPS = frozenset(
    {
        Op.GLOCK_ACQUIRE,
        Op.GLOCK_RELEASE,
        Op.FGL_LOCK,
        Op.FGL_UNLOCK,
        Op.SUP_TAKE,
        Op.SUP_UNLATCH,
        Op.VER_RELEASE,
        Op.OCC_LOCK,
        Op.OCC_VALIDATE,
        Op.OCC_UNLOCK,
    }
)


class Scheme(IntEnum):
    NONE = 0
    GLOCK = 1
    FGL = 2
    OCC = 3
    PESV = 4


SCHEME_NAMES = {
    "glock": Scheme.GLOCK,
    "fgl": Scheme.FGL,
    "occ": Scheme.OCC,
    "pesv": Scheme.PESV,
}


class ErrCode(IntEnum):
    MALFORMED = 1
    ROUTING = 2
    PROTOCOL = 3
    REFUSED = 4


# cc_block flag bits
FLAG_RELEASE_AFTER = 0x01  # pessimistic versioning: last declared access
FLAG_COMMIT_APPLY = 0x02  # optimistic: buffered write applied at commit


# ---------------------------------------------------------------------------
# Storage operations


@dataclass(frozen=True, slots=True)
class Read:
    key: TableKey


@dataclass(frozen=True, slots=True)
class Append:
    key: TableKey
    item: Union[MsgId, Message]


@dataclass(frozen=True, slots=True)
class Remove:
    key: TableKey
    item: MsgId  # message lists are matched by id


@dataclass(frozen=True, slots=True)
class WriteSeq:
    key: TableKey
    pair: SeqPair


@dataclass(frozen=True, slots=True)
class IncrSeq:
    key: TableKey


StorageOp = Union[Read, Append, Remove, WriteSeq, IncrSeq]

TableEntry = Union[tuple, SeqPair]  # tuple of MsgId, tuple of Message, or SeqPair


_ZERO_PAIR = SeqPair(0, 0)  # built once: this is on every storage op's path


def default_entry(table: TableId) -> TableEntry:
    """What an absent key reads as."""
    return _ZERO_PAIR if table is TableId.SEQNO else ()


def apply_op(entry: TableEntry, op: StorageOp) -> tuple[TableEntry, object]:
    """What ``op`` does to its key's ``entry``: returns (new entry, result).

    The one definition of the storage semantics, shared by the store node,
    the optimistic scheme's private overlay and the offline checker. Pure:
    entries are immutable and an absent key is passed as its
    ``default_entry``. An op that is invalid for its table raises
    ProtocolError.
    """
    table = op.key.table
    if isinstance(op, Read):
        return entry, entry
    if isinstance(op, Append):
        if table is TableId.SEQNO:
            raise ProtocolError("append is not defined on the sequence table")
        if table is TableId.MESSAGE:
            if not isinstance(op.item, Message):
                raise ProtocolError("message table append requires a full message")
        elif isinstance(op.item, Message):
            raise ProtocolError("identifier list append got a full message")
        return (*entry, op.item), op.item
    if isinstance(op, Remove):
        # Strips every occurrence (so removes are idempotent); message
        # lists are matched by id.
        if table is TableId.SEQNO:
            raise ProtocolError("remove is not defined on the sequence table")
        if table is TableId.MESSAGE:
            return tuple(m for m in entry if m.id != op.item), op.item
        return tuple(m for m in entry if m != op.item), op.item
    if isinstance(op, WriteSeq):
        if table is not TableId.SEQNO:
            raise ProtocolError("sequence write on a non-sequence table")
        pair = op.pair
        if pair.current < 0 or pair.deleted < 0 or pair.deleted > pair.current:
            raise ProtocolError(f"invalid sequence pair {pair}")
        return pair, pair
    if isinstance(op, IncrSeq):
        if table is not TableId.SEQNO:
            raise ProtocolError("sequence increment on a non-sequence table")
        pair = SeqPair(entry.current + 1, entry.deleted)  # type: ignore[union-attr]
        return pair, pair
    raise ProtocolError(f"unknown storage op {op!r}")


def store_entry(data: dict[TableKey, TableEntry], key: TableKey, entry: TableEntry) -> None:
    """Set ``data[key]``; an entry equal to the default is dropped instead."""
    if entry == default_entry(key.table):
        data.pop(key, None)
    else:
        data[key] = entry


@dataclass(frozen=True, slots=True)
class CcBlock:
    """Concurrency-control fields piggybacked on every storage request."""

    scheme: Scheme
    txn_id: int
    attempt: int
    op_index: int
    flags: int = 0
    delay_ms: int = 0
    private_version: int = 0


# Entry kind tags used in read replies and snapshots.
ENTRY_MSGIDS = 0
ENTRY_MESSAGES = 1
ENTRY_SEQPAIR = 2


# ---------------------------------------------------------------------------
# Item / entry codecs

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def encode_msgid(m: MsgId) -> bytes:
    return m.recipient.to_bytes(8, "big") + m.seq.to_bytes(8, "big")


def decode_msgid(data: bytes, off: int = 0) -> tuple[MsgId, int]:
    if len(data) - off < 16:
        raise ProtocolError("truncated MsgId")
    r = int.from_bytes(data[off : off + 8], "big")
    s = int.from_bytes(data[off + 8 : off + 16], "big")
    return MsgId(r, s), off + 16


def encode_message(m: Message) -> bytes:
    out = encode_msgid(m.id)
    out += m.sender.to_bytes(8, "big")
    out += m.recipient.to_bytes(8, "big")
    out += _U16.pack(len(m.content))
    for word in m.content:
        out += word.to_bytes(8, "big")
    out += m.timestamp.to_bytes(8, "big")
    return out


def decode_message(data: bytes, off: int = 0) -> tuple[Message, int]:
    mid, off = decode_msgid(data, off)
    if len(data) - off < 18:
        raise ProtocolError("truncated message")
    sender = int.from_bytes(data[off : off + 8], "big")
    recipient = int.from_bytes(data[off + 8 : off + 16], "big")
    (nwords,) = _U16.unpack_from(data, off + 16)
    off += 18
    if len(data) - off < 8 * nwords + 8:
        raise ProtocolError("truncated message content")
    content = tuple(
        int.from_bytes(data[off + 8 * i : off + 8 * i + 8], "big") for i in range(nwords)
    )
    off += 8 * nwords
    ts = int.from_bytes(data[off : off + 8], "big")
    return Message(mid, sender, recipient, content, ts), off + 8


def encode_seqpair(p: SeqPair) -> bytes:
    return p.current.to_bytes(8, "big") + p.deleted.to_bytes(8, "big")


def decode_seqpair(data: bytes, off: int = 0) -> tuple[SeqPair, int]:
    if len(data) - off < 16:
        raise ProtocolError("truncated sequence pair")
    c = int.from_bytes(data[off : off + 8], "big")
    d = int.from_bytes(data[off + 8 : off + 16], "big")
    return SeqPair(c, d), off + 16


# One stored item of each entry kind, as (encode, decode); a sequence-table
# entry is a single pair.
_ITEM_CODECS: dict[int, tuple[Callable[[Any], bytes], Callable[[bytes, int], tuple[Any, int]]]] = {
    ENTRY_MSGIDS: (encode_msgid, decode_msgid),
    ENTRY_MESSAGES: (encode_message, decode_message),
    ENTRY_SEQPAIR: (encode_seqpair, decode_seqpair),
}


def entry_kind_for(table: TableId) -> int:
    if table is TableId.SEQNO:
        return ENTRY_SEQPAIR
    if table is TableId.MESSAGE:
        return ENTRY_MESSAGES
    return ENTRY_MSGIDS


def encode_entry(table: TableId, entry: TableEntry) -> bytes:
    kind = entry_kind_for(table)
    encode = _ITEM_CODECS[kind][0]
    if kind == ENTRY_SEQPAIR:
        return bytes([kind]) + encode(entry)
    return bytes([kind]) + _U32.pack(len(entry)) + b"".join(map(encode, entry))


def decode_entry(data: bytes, off: int = 0) -> tuple[TableEntry, int]:
    if len(data) - off < 1:
        raise ProtocolError("truncated entry")
    kind = data[off]
    off += 1
    if kind not in _ITEM_CODECS:
        raise ProtocolError(f"unknown entry kind {kind}")
    decode = _ITEM_CODECS[kind][1]
    if kind == ENTRY_SEQPAIR:
        return decode(data, off)
    if len(data) - off < 4:
        raise ProtocolError("truncated entry count")
    (count,) = _U32.unpack_from(data, off)
    off += 4
    items = []
    for _ in range(count):
        item, off = decode(data, off)
        items.append(item)
    return tuple(items), off


def _encode_item(table: TableId, item: Any) -> bytes:
    return _ITEM_CODECS[entry_kind_for(table)][0](item)


def _decode_item(table: TableId, data: bytes) -> Any:
    return _ITEM_CODECS[entry_kind_for(table)][1](data, 0)[0]


@dataclass(frozen=True, slots=True)
class OpSpec:
    """Everything keyed by a storage op's type: its opcode, its event-log
    kind, and the codec of the result its OK reply carries."""

    op: type
    opcode: Op
    kind: str
    encode_result: Callable[[TableId, Any], bytes]
    decode_result: Callable[[TableId, bytes], Any]


# A read returns the whole entry and a remove the id it matched; every other
# op returns one item of its table (the stored item, or the new pair).
OP_SPECS: dict[type, OpSpec] = {
    spec.op: spec
    for spec in (
        OpSpec(Read, Op.READ, "read", encode_entry, lambda _table, data: decode_entry(data)[0]),
        OpSpec(Append, Op.APPEND, "append", _encode_item, _decode_item),
        OpSpec(Remove, Op.REMOVE, "remove", lambda _table, mid: encode_msgid(mid),
               lambda _table, data: decode_msgid(data)[0]),
        OpSpec(WriteSeq, Op.WRITE_SEQ, "write_seq", _encode_item, _decode_item),
        OpSpec(IncrSeq, Op.INCR_SEQ, "incr_seq", _encode_item, _decode_item),
    )
}
OP_OF_KIND: dict[str, type] = {spec.kind: spec.op for spec in OP_SPECS.values()}


# ---------------------------------------------------------------------------
# Frame assembly

_HEADER = struct.Struct(">QBIB")  # request id, bucket tag, bucket index, opcode
_CC = struct.Struct(">BQHIBHQ")


def frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame payload of {len(payload)} bytes exceeds limit")
    return _U32.pack(len(payload)) + payload


def split_frame(data: bytes) -> bytes:
    """Strip and check the length prefix of a single whole frame."""
    if len(data) < 4:
        raise ProtocolError("truncated frame length")
    (n,) = _U32.unpack_from(data, 0)
    if n > MAX_FRAME:
        raise ProtocolError(f"frame payload of {n} bytes exceeds limit")
    if len(data) != 4 + n:
        raise ProtocolError("frame length mismatch")
    return data[4:]


def encode_header(request_id: int, bucket: BucketId | None, opcode: Op) -> bytes:
    if bucket is None:
        return _HEADER.pack(request_id, GLOBAL_TAG, 0, opcode)
    return _HEADER.pack(request_id, bucket.table, bucket.index, opcode)


def decode_header(payload: bytes) -> tuple[int, int, int, int, bytes]:
    """Returns (request_id, bucket_tag, bucket_index, opcode, rest)."""
    if len(payload) < _HEADER.size:
        raise ProtocolError("truncated frame header")
    request_id, tag, index, opcode = _HEADER.unpack_from(payload, 0)
    return request_id, tag, index, opcode, payload[_HEADER.size :]


def encode_cc(cc: CcBlock) -> bytes:
    return _CC.pack(
        cc.scheme,
        cc.txn_id,
        cc.attempt,
        cc.op_index,
        cc.flags,
        cc.delay_ms,
        cc.private_version,
    )


def decode_cc(data: bytes, off: int = 0) -> tuple[CcBlock, int]:
    if len(data) - off < _CC.size:
        raise ProtocolError("truncated concurrency block")
    scheme, txn, attempt, op_index, flags, delay, pv = _CC.unpack_from(data, off)
    try:
        scheme_e = Scheme(scheme)
    except ValueError:
        raise ProtocolError(f"unknown scheme {scheme}") from None
    return CcBlock(scheme_e, txn, attempt, op_index, flags, delay, pv), off + _CC.size


def encode_storage_body(op: StorageOp) -> bytes:
    body = op.key.encode()
    if isinstance(op, Append):
        body += encode_message(op.item) if isinstance(op.item, Message) else encode_msgid(op.item)
    elif isinstance(op, Remove):
        body += encode_msgid(op.item)
    elif isinstance(op, WriteSeq):
        body += encode_seqpair(op.pair)
    return body


def decode_storage_body(opcode: Op, table: TableId, data: bytes) -> StorageOp:
    key, off = decode_key(data)
    if key.table is not table:
        raise ProtocolError("key table does not match bucket table")
    if opcode is Op.READ:
        op: StorageOp = Read(key)
    elif opcode is Op.APPEND:
        item, off = _ITEM_CODECS[entry_kind_for(table)][1](data, off)
        op = Append(key, item)
    elif opcode is Op.REMOVE:
        mid, off = decode_msgid(data, off)
        op = Remove(key, mid)
    elif opcode is Op.WRITE_SEQ:
        pair, off = decode_seqpair(data, off)
        op = WriteSeq(key, pair)
    elif opcode is Op.INCR_SEQ:
        op = IncrSeq(key)
    else:
        raise ProtocolError(f"opcode {opcode} is not a storage op")
    if off != len(data):
        raise ProtocolError("trailing bytes after storage body")
    return op


def storage_request(request_id: int, bucket: BucketId, op: StorageOp, cc: CcBlock) -> bytes:
    payload = encode_header(request_id, bucket, OP_SPECS[type(op)].opcode) + encode_cc(cc)
    payload += encode_storage_body(op)
    return frame(payload)


def cc_request(
    request_id: int,
    opcode: Op,
    bucket: BucketId | None,
    txn_id: int,
    arg: int | None = None,
) -> bytes:
    payload = encode_header(request_id, bucket, opcode) + _U64.pack(txn_id)
    if arg is not None:
        payload += _U64.pack(arg)
    return frame(payload)


def control_request(request_id: int, opcode: Op) -> bytes:
    return frame(encode_header(request_id, None, opcode))


def ok_reply(request_id: int, body: bytes = b"") -> bytes:
    return frame(encode_header(request_id, None, Op.OK) + body)


def err_reply(request_id: int, code: ErrCode, message: str) -> bytes:
    body = bytes([code]) + message.encode("utf-8")
    return frame(encode_header(request_id, None, Op.ERR) + body)


def decode_reply(data: bytes) -> tuple[int, Op, bytes]:
    """Returns (request_id, OK or ERR, body) from a whole reply frame."""
    payload = split_frame(data)
    request_id, _tag, _index, opcode, rest = decode_header(payload)
    if opcode not in (Op.OK, Op.ERR):
        raise ProtocolError(f"unexpected reply opcode {opcode:#x}")
    return request_id, Op(opcode), rest


def decode_err(body: bytes) -> tuple[ErrCode, str]:
    if not body:
        raise ProtocolError("empty error body")
    try:
        code = ErrCode(body[0])
    except ValueError:
        raise ProtocolError(f"unknown error code {body[0]}") from None
    return code, body[1:].decode("utf-8", errors="replace")


# Storage OK replies: bucket_seq(u64) version(u64) result payload.
def storage_ok_body(bucket_seq: int, version: int, result: bytes) -> bytes:
    return _U64.pack(bucket_seq) + _U64.pack(version) + result


def decode_storage_ok(body: bytes) -> tuple[int, int, bytes]:
    if len(body) < 16:
        raise ProtocolError("truncated storage reply")
    (bucket_seq,) = _U64.unpack_from(body, 0)
    (version,) = _U64.unpack_from(body, 8)
    return bucket_seq, version, body[16:]
