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

A storage op kind is described in one place, its row in ``OP_SPECS`` (also
reachable through ``SPEC_BY_OPCODE`` and ``SPEC_BY_KIND``): its opcode and
event-log kind, whether it observes and whether it writes its entry, and
the codecs of its argument and its result. The client, the node and the
offline checker ask the row; only ``apply_op`` says what the op does to an
entry. A table's entry kind, item codec and default entry are its row in
``TABLE_ROWS``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from itertools import repeat, starmap
from typing import Any, Callable, NamedTuple, Union

from .errors import ProtocolError
from .model import (
    BucketId,
    Message,
    MsgId,
    SeqPair,
    StructsByCount,
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


class Scheme(IntEnum):
    NONE = 0
    GLOCK = 1
    FGL = 2
    OCC = 3
    PESV = 4


SCHEME_BY_CODE: dict[int, Scheme] = {scheme.value: scheme for scheme in Scheme}

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
#
# Plain slots dataclasses, hashable by value, that nothing mutates: one is
# built on each side of every storage frame, and a frozen one costs about
# twice as much to build.


@dataclass(slots=True, unsafe_hash=True)
class Read:
    key: TableKey


@dataclass(slots=True, unsafe_hash=True)
class Append:
    key: TableKey
    item: Union[MsgId, Message]


@dataclass(slots=True, unsafe_hash=True)
class Remove:
    key: TableKey
    item: MsgId  # message lists are matched by id


@dataclass(slots=True, unsafe_hash=True)
class WriteSeq:
    key: TableKey
    pair: SeqPair


@dataclass(slots=True, unsafe_hash=True)
class IncrSeq:
    key: TableKey


StorageOp = Union[Read, Append, Remove, WriteSeq, IncrSeq]

TableEntry = Union[tuple, SeqPair]  # tuple of MsgId, tuple of Message, or SeqPair


def _check_append_item(table: TableId, item: object) -> None:
    """Refuse an append whose item is not of the kind ``table`` stores."""
    if table is TableId.SEQNO:
        raise ProtocolError("append is not defined on the sequence table")
    if table is TableId.MESSAGE:
        if not isinstance(item, Message):
            raise ProtocolError("message table append requires a full message")
    elif not isinstance(item, MsgId):
        what = "a full message" if isinstance(item, Message) else repr(item)
        raise ProtocolError(f"identifier list append got {what}")


def apply_op(entry: TableEntry, op: StorageOp) -> tuple[TableEntry, object]:
    """What ``op`` does to its key's ``entry``: returns (new entry, result).

    The one definition of the storage semantics, shared by the store node,
    the optimistic scheme's private overlay and the offline checker. Pure:
    entries are immutable and an absent key is passed as its
    ``default_entry``. An op that is invalid for its table, or whose
    argument is not of the kind it carries (an id list's item and a remove's
    match are ``MsgId``, a sequence write's value a ``SeqPair``), raises
    ProtocolError.
    """
    table = op.key.table
    cls = type(op)
    if cls is Read:
        return entry, entry
    if cls is Append:
        _check_append_item(table, op.item)
        return (*entry, op.item), op.item
    if cls is Remove:
        # Strips every occurrence (so removes are idempotent); message
        # lists are matched by id.
        if table is TableId.SEQNO:
            raise ProtocolError("remove is not defined on the sequence table")
        if not isinstance(op.item, MsgId):
            raise ProtocolError(f"remove matches a MsgId, got {op.item!r}")
        if table is TableId.MESSAGE:
            return tuple(m for m in entry if m.id != op.item), op.item
        return tuple(m for m in entry if m != op.item), op.item
    if cls is WriteSeq:
        if table is not TableId.SEQNO:
            raise ProtocolError("sequence write on a non-sequence table")
        pair = op.pair
        if not isinstance(pair, SeqPair):
            raise ProtocolError(f"sequence write got {pair!r}, not a sequence pair")
        if pair.current < 0 or pair.deleted < 0 or pair.deleted > pair.current:
            raise ProtocolError(f"invalid sequence pair {pair}")
        return pair, pair
    if cls is IncrSeq:
        if table is not TableId.SEQNO:
            raise ProtocolError("sequence increment on a non-sequence table")
        pair = SeqPair(entry.current + 1, entry.deleted)  # type: ignore[union-attr]
        return pair, pair
    raise ProtocolError(f"unknown storage op {op!r}")


def store_entry(data: dict[TableKey, TableEntry], key: TableKey, entry: TableEntry) -> None:
    """Set ``data[key]``; an entry equal to the default is dropped instead."""
    if entry == TABLE_ROWS[key.table].default:
        data.pop(key, None)
    else:
        data[key] = entry


class CcBlock(NamedTuple):
    """Concurrency-control fields piggybacked on every storage request, in
    wire order. A named tuple: one is built on each side of every storage
    frame, and a tuple costs a fraction of a frozen dataclass to build."""

    scheme: Scheme
    txn_id: int
    attempt: int
    op_index: int
    flags: int = 0
    delay_ms: int = 0
    private_version: int = 0


# ---------------------------------------------------------------------------
# Item / entry codecs

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_U64_PAIR = struct.Struct(">QQ")
_tuple_new = tuple.__new__  # builds a named tuple without its Python-level __new__


def encode_msgid(m: MsgId) -> bytes:
    return m.recipient.to_bytes(8, "big") + m.seq.to_bytes(8, "big")


def decode_msgid(data: bytes, off: int = 0) -> tuple[MsgId, int]:
    if len(data) - off < 16:
        raise ProtocolError("truncated MsgId")
    return _tuple_new(MsgId, _U64_PAIR.unpack_from(data, off)), off + 16


# A message is its id, sender, recipient and word count (one head), its
# words, and its timestamp; the words' struct is built once per word count.
_MESSAGE_HEAD = struct.Struct(">QQQQH")
_WORDS = StructsByCount(">{}Q")


def encode_message(m: Message) -> bytes:
    mid = m.id
    content = m.content
    try:
        return (_MESSAGE_HEAD.pack(mid.recipient, mid.seq, m.sender, m.recipient, len(content))
                + _WORDS[len(content)].pack(*content) + _U64.pack(m.timestamp))
    except struct.error as exc:  # an int outside u64, as int.to_bytes would refuse it
        raise OverflowError(f"message field out of range: {exc}") from None


def decode_message(data: bytes, off: int = 0) -> tuple[Message, int]:
    left = len(data) - off
    if left < 34:
        raise ProtocolError("truncated MsgId" if left < 16 else "truncated message")
    r, s, sender, recipient, nwords = _MESSAGE_HEAD.unpack_from(data, off)
    end = off + 34 + 8 * nwords
    if len(data) - end < 8:
        raise ProtocolError("truncated message content")
    content = _WORDS[nwords].unpack_from(data, off + 34)
    (ts,) = _U64.unpack_from(data, end)
    mid = _tuple_new(MsgId, (r, s))
    return _tuple_new(Message, (mid, sender, recipient, content, ts)), end + 8


def encode_seqpair(p: SeqPair) -> bytes:
    return p.current.to_bytes(8, "big") + p.deleted.to_bytes(8, "big")


def decode_seqpair(data: bytes, off: int = 0) -> tuple[SeqPair, int]:
    if len(data) - off < 16:
        raise ProtocolError("truncated sequence pair")
    return _tuple_new(SeqPair, _U64_PAIR.unpack_from(data, off)), off + 16


@dataclass(frozen=True, slots=True)
class TableRow:
    """One table's entries: the entry-kind tag that read replies and snapshots
    carry, the codec of one stored item, and what an absent key reads as. A
    sequence-table entry is a single pair; every other entry is a list."""

    kind: int
    encode_item: Callable[[Any], bytes]
    decode_item: Callable[[bytes, int], tuple[Any, int]]
    default: TableEntry


_MSGIDS = TableRow(0, encode_msgid, decode_msgid, ())
_SEQPAIR = TableRow(2, encode_seqpair, decode_seqpair, SeqPair(0, 0))
TABLE_ROWS: dict[TableId, TableRow] = {
    TableId.TERM: _MSGIDS,
    TableId.INTER: _MSGIDS,
    TableId.MESSAGE: TableRow(1, encode_message, decode_message, ()),
    TableId.SEQNO: _SEQPAIR,
}
_ROW_BY_KIND = {row.kind: row for row in TABLE_ROWS.values()}


def default_entry(table: TableId) -> TableEntry:
    """What an absent key reads as."""
    return TABLE_ROWS[table].default


# An entry's kind byte, then a pair or a list's item count.
_KIND_PAIR = struct.Struct(">BQQ")
_KIND_COUNT = struct.Struct(">BI")


def encode_entry(table: TableId, entry: TableEntry) -> bytes:
    """A pair, or a list of ids, is packed without a Python call per item; a
    message list goes item by item through the message codec."""
    row = TABLE_ROWS[table]
    try:
        if row is _SEQPAIR:
            return _KIND_PAIR.pack(row.kind, *entry)
        if row is _MSGIDS:
            return _KIND_COUNT.pack(row.kind, len(entry)) + b"".join(starmap(_U64_PAIR.pack, entry))
    except struct.error as exc:  # an int outside u64, as int.to_bytes would refuse it
        raise OverflowError(f"entry field out of range: {exc}") from None
    return bytes([row.kind]) + _U32.pack(len(entry)) + b"".join(map(row.encode_item, entry))


def decode_entry(data: bytes, off: int = 0) -> tuple[TableEntry, int]:
    if len(data) - off < 1:
        raise ProtocolError("truncated entry")
    row = _ROW_BY_KIND.get(data[off])
    if row is None:
        raise ProtocolError(f"unknown entry kind {data[off]}")
    off += 1
    decode = row.decode_item
    if row is _SEQPAIR:
        return decode(data, off)
    if len(data) - off < 4:
        raise ProtocolError("truncated entry count")
    (count,) = _U32.unpack_from(data, off)
    off += 4
    if row is _MSGIDS:  # the ids by one C iterator, without a Python call per id
        end = off + 16 * count
        if len(data) < end:
            raise ProtocolError("truncated MsgId")
        if not count:
            return (), end
        pairs = _U64_PAIR.iter_unpack(data[off:end])
        return tuple(map(_tuple_new, repeat(MsgId, count), pairs)), end
    items = []
    for _ in range(count):
        item, off = decode(data, off)
        items.append(item)
    return tuple(items), off


def _encode_append(op: Append) -> bytes:
    table, item = op.key.table, op.item
    _check_append_item(table, item)  # refused before anything is sent
    return TABLE_ROWS[table].encode_item(item)


@dataclass(frozen=True, slots=True)
class OpSpec:
    """The one description of a storage op kind: its type, opcode and
    event-log kind; whether its result depends on the stored entry
    (``observes``) and whether it may change the entry (``writes``); the
    codec of the argument its request carries after the key (None for an op
    that carries none); and the codec of the result its OK reply carries.

    The argument decoder and both result codecs are looked up by the key's
    table: ``decode_arg[table](data, off)`` and ``decode_result[table](data,
    off)`` return (value, where it ends), ``encode_result[table](value)``
    returns the bytes."""

    op: type
    opcode: Op
    kind: str
    observes: bool
    writes: bool
    encode_arg: Callable[[Any], bytes] | None
    decode_arg: dict[TableId, Callable[[bytes, int], tuple[Any, int]]] | None
    encode_result: dict[TableId, Callable[[Any], bytes]]
    decode_result: dict[TableId, Callable[[bytes, int], tuple[Any, int]]]


# An append carries and returns an item of its key's table, a remove the id
# it matches; a read returns the whole entry; the sequence ops return the
# new pair, and a sequence write carries it.
_ITEM_ENCODERS = {table: row.encode_item for table, row in TABLE_ROWS.items()}
_ITEM_DECODERS = {table: row.decode_item for table, row in TABLE_ROWS.items()}
OP_SPECS: dict[type, OpSpec] = {
    spec.op: spec
    for spec in (
        OpSpec(Read, Op.READ, "read", True, False, None, None,
               {table: partial(encode_entry, table) for table in TABLE_ROWS},
               dict.fromkeys(TABLE_ROWS, decode_entry)),
        OpSpec(Append, Op.APPEND, "append", False, True,
               _encode_append, _ITEM_DECODERS, _ITEM_ENCODERS, _ITEM_DECODERS),
        OpSpec(Remove, Op.REMOVE, "remove", False, True,
               lambda op: encode_msgid(op.item), dict.fromkeys(TABLE_ROWS, decode_msgid),
               dict.fromkeys(TABLE_ROWS, encode_msgid), dict.fromkeys(TABLE_ROWS, decode_msgid)),
        OpSpec(WriteSeq, Op.WRITE_SEQ, "write_seq", False, True,
               lambda op: encode_seqpair(op.pair), dict.fromkeys(TABLE_ROWS, decode_seqpair),
               _ITEM_ENCODERS, _ITEM_DECODERS),
        OpSpec(IncrSeq, Op.INCR_SEQ, "incr_seq", True, True, None, None,
               _ITEM_ENCODERS, _ITEM_DECODERS),
    )
}
SPEC_BY_OPCODE: dict[int, OpSpec] = {spec.opcode: spec for spec in OP_SPECS.values()}
SPEC_BY_KIND: dict[str, OpSpec] = {spec.kind: spec for spec in OP_SPECS.values()}


# ---------------------------------------------------------------------------
# Frame assembly
#
# The header layout is written once, as struct fields; every per-kind struct
# below is derived from it, so that a frame's whole head is packed or
# unpacked with one call and its body is read at offsets.

_HEADER_FIELDS = "QBIB"  # request id, bucket tag, bucket index, opcode
_CC_FIELDS = "BQHIBHQ"  # scheme, txn id, attempt, op index, flags, delay, private version

_HEADER = struct.Struct(">" + _HEADER_FIELDS)
_CC = struct.Struct(">" + _CC_FIELDS)
_FRAME_HEAD = struct.Struct(">I" + _HEADER_FIELDS)  # every frame: length, header
_STORAGE_HEAD = struct.Struct(">I" + _HEADER_FIELDS + _CC_FIELDS)  # then key, argument
_VERB = struct.Struct(">I" + _HEADER_FIELDS + "Q")  # txn id
_VERB_ARG = struct.Struct(">I" + _HEADER_FIELDS + "QQ")  # txn id, argument
# A storage op's OK reply: length, header, bucket seq and version; the result
# starts at STORAGE_OK_HEAD.size.
STORAGE_OK_HEAD = struct.Struct(">I" + _HEADER_FIELDS + "QQ")

HEAD_SIZE = _FRAME_HEAD.size  # where a frame's body starts
_OK = Op.OK.value


def oversize_error(n: int) -> ProtocolError:
    """The refusal of a frame whose stated payload exceeds ``MAX_FRAME``."""
    return ProtocolError(f"frame payload of {n} bytes exceeds limit")


def frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME:
        raise oversize_error(len(payload))
    return _U32.pack(len(payload)) + payload


def split_frame(data: bytes) -> bytes:
    """Strip and check the length prefix of a single whole frame."""
    if len(data) < 4:
        raise ProtocolError("truncated frame length")
    (n,) = _U32.unpack_from(data, 0)
    if n > MAX_FRAME:
        raise oversize_error(n)
    if len(data) != 4 + n:
        raise ProtocolError("frame length mismatch")
    return data[4:]


def open_frame(data: bytes) -> tuple[int, int, int, int, int]:
    """Check a whole frame's length prefix and header with one unpack; returns
    (payload length, request_id, bucket_tag, bucket_index, opcode). The body
    starts at ``HEAD_SIZE``. Refuses what ``split_frame`` and then
    ``decode_header`` refuse, in that order and with the same texts."""
    if len(data) < HEAD_SIZE:
        split_frame(data)  # a frame too short for a header is checked for its length first
        raise ProtocolError("truncated frame header")
    head = _FRAME_HEAD.unpack_from(data)
    n = head[0]
    if n > MAX_FRAME:
        raise oversize_error(n)
    if len(data) != 4 + n:
        raise ProtocolError("frame length mismatch")
    return head


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


def decode_cc(data: bytes, off: int = 0) -> tuple[CcBlock, int]:
    if len(data) - off < _CC.size:
        raise ProtocolError("truncated concurrency block")
    scheme, txn, attempt, op_index, flags, delay, pv = _CC.unpack_from(data, off)
    scheme_e = SCHEME_BY_CODE.get(scheme)
    if scheme_e is None:
        raise ProtocolError(f"unknown scheme {scheme}")
    return (_tuple_new(CcBlock, (scheme_e, txn, attempt, op_index, flags, delay, pv)),
            off + _CC.size)


def decode_storage_body(opcode: int, table: TableId, data: bytes, off: int = 0) -> StorageOp:
    """The storage op whose key starts at ``off`` and runs to the end of ``data``."""
    key, off = decode_key(data, off)
    if key.table is not table:
        raise ProtocolError("key table does not match bucket table")
    spec = SPEC_BY_OPCODE.get(opcode)
    if spec is None:
        raise ProtocolError(f"opcode {opcode} is not a storage op")
    if spec.decode_arg is None:
        op = spec.op(key)
    else:
        arg, off = spec.decode_arg[table](data, off)
        op = spec.op(key, arg)
    if off != len(data):
        raise ProtocolError("trailing bytes after storage body")
    return op


_STORAGE_PAYLOAD = _STORAGE_HEAD.size - 4


def storage_request(request_id: int, bucket: BucketId, op: StorageOp, cc: tuple) -> bytes:
    """``cc`` is the concurrency block's seven fields in wire order, a
    ``CcBlock`` or a plain tuple. The key and argument are encoded first, so
    an op that cannot be encoded raises before any frame is built."""
    spec = OP_SPECS[type(op)]
    body = op.key.encode()
    if spec.encode_arg is not None:
        body += spec.encode_arg(op)
    n = _STORAGE_PAYLOAD + len(body)
    if n > MAX_FRAME:
        raise oversize_error(n)
    return _STORAGE_HEAD.pack(n, request_id, bucket.table, bucket.index, spec.opcode, *cc) + body


_VERB_PAYLOAD, _VERB_ARG_PAYLOAD = _VERB.size - 4, _VERB_ARG.size - 4


def cc_request(
    request_id: int,
    opcode: Op,
    bucket: BucketId | None,
    txn_id: int,
    arg: int | None = None,
) -> bytes:
    """A verb frame: txn id, then the argument unless it is None (0 is sent)."""
    tag, index = (GLOBAL_TAG, 0) if bucket is None else bucket
    if arg is None:
        return _VERB.pack(_VERB_PAYLOAD, request_id, tag, index, opcode, txn_id)
    return _VERB_ARG.pack(_VERB_ARG_PAYLOAD, request_id, tag, index, opcode, txn_id, arg)


def control_request(request_id: int, opcode: Op) -> bytes:
    return frame(encode_header(request_id, None, opcode))


def ok_reply(request_id: int, body: bytes = b"") -> bytes:
    n = _HEADER.size + len(body)
    if n > MAX_FRAME:
        raise oversize_error(n)
    return _FRAME_HEAD.pack(n, request_id, GLOBAL_TAG, 0, _OK) + body


def err_reply(request_id: int, code: ErrCode, message: str) -> bytes:
    body = bytes([code]) + message.encode("utf-8")
    return frame(encode_header(request_id, None, Op.ERR) + body)


def decode_err(body: bytes) -> tuple[ErrCode, str]:
    if not body:
        raise ProtocolError("empty error body")
    try:
        code = ErrCode(body[0])
    except ValueError:
        raise ProtocolError(f"unknown error code {body[0]}") from None
    return code, body[1:].decode("utf-8", errors="replace")


# Storage OK replies: bucket_seq(u64) version(u64) result payload.
_STORAGE_OK_PAYLOAD = STORAGE_OK_HEAD.size - 4


def storage_ok_reply(request_id: int, bucket_seq: int, version: int, result: bytes) -> bytes:
    """The whole OK reply to a storage op: the same bytes as
    ``ok_reply(request_id, storage_ok_body(bucket_seq, version, result))``."""
    n = _STORAGE_OK_PAYLOAD + len(result)
    if n > MAX_FRAME:
        raise oversize_error(n)
    return STORAGE_OK_HEAD.pack(n, request_id, GLOBAL_TAG, 0, _OK, bucket_seq, version) + result


def storage_ok_body(bucket_seq: int, version: int, result: bytes) -> bytes:
    return _U64_PAIR.pack(bucket_seq, version) + result


def decode_storage_ok(body: bytes) -> tuple[int, int, bytes]:
    if len(body) < 16:
        raise ProtocolError("truncated storage reply")
    bucket_seq, version = _U64_PAIR.unpack_from(body)
    return bucket_seq, version, body[16:]
