"""Keys, table schemas, bucket partitioning, and ring placement.

``index_keys`` is the one statement of the INTER and TERM keys that index
a message: send, import, remove and the integrity check loop over it.

Everything in this module is pure and hashable (a RingLayout's owner
memo is invisible to equality and hashing). Every stored value (a
``MsgId``, a ``SeqPair``, a ``Message``) is a named tuple, so each equals
the plain tuple of its fields. The canonical byte encodings defined here
double as the wire format and as the input to the partitioning hash, so
they are fixed bit-for-bit (see README, "Canonical encodings").
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, NamedTuple

from .errors import ConfigError, ProtocolError

UserId = int
Keyword = int
SeqNo = int

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``."""
    h = FNV64_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV64_PRIME) & _MASK64
    return h


class TableId(IntEnum):
    """The four tables; the enum value is the table's encoding tag byte."""

    TERM = 0
    INTER = 1
    MESSAGE = 2
    SEQNO = 3


# Table by tag byte: decoders look tags up here instead of calling TableId,
# whose constructor costs a Python-level call on every frame.
TABLE_BY_TAG: dict[int, TableId] = {table.value: table for table in TableId}

# Number of 8-byte key fields following the tag byte, per table.
KEY_ARITY = {
    TableId.TERM: 2,
    TableId.INTER: 2,
    TableId.MESSAGE: 1,
    TableId.SEQNO: 1,
}


class TableKey(NamedTuple):
    """A key into one of the four tables.

    ``parts`` holds the table-specific fields in schema order:
    TERM (inbox owner, keyword), INTER (sender, receiver),
    MESSAGE (recipient), SEQNO (inbox owner).
    """

    table: TableId
    parts: tuple[int, ...]

    def encode(self) -> bytes:
        try:
            return _KEY_STRUCTS[len(self.parts)].pack(self.table, *self.parts)
        except struct.error as exc:  # a field outside u64, as int.to_bytes would refuse it
            raise OverflowError(f"key field out of range: {exc}") from None


class StructsByCount(dict):
    """count -> ``struct.Struct(fmt.format(count))``, built on first use."""

    def __init__(self, fmt: str) -> None:
        super().__init__()
        self._fmt = fmt

    def __missing__(self, count: int) -> struct.Struct:
        packer = self[count] = struct.Struct(self._fmt.format(count))
        return packer


# A key's encoding, tag byte then fields, by field count.
_KEY_STRUCTS = StructsByCount(">B{}Q")

# The key constructors and decoders build their named tuples with
# tuple.__new__, which skips the Python-level __new__ a named tuple call runs.
_tuple_new = tuple.__new__
_TERM, _INTER, _MESSAGE, _SEQNO = TableId.TERM, TableId.INTER, TableId.MESSAGE, TableId.SEQNO


def term_key(user: UserId, keyword: Keyword) -> TableKey:
    return _tuple_new(TableKey, (_TERM, (user, keyword)))


def inter_key(sender: UserId, receiver: UserId) -> TableKey:
    return _tuple_new(TableKey, (_INTER, (sender, receiver)))


def message_key(recipient: UserId) -> TableKey:
    return _tuple_new(TableKey, (_MESSAGE, (recipient,)))


def seqno_key(user: UserId) -> TableKey:
    return _tuple_new(TableKey, (_SEQNO, (user,)))


def index_keys(sender: UserId, recipient: UserId, words: Iterable[Keyword]) -> list[TableKey]:
    """INTER(sender, recipient), INTER(recipient, sender), then TERM(recipient,
    w) for each distinct word w of ``words``, ascending."""
    keys = [_tuple_new(TableKey, (_INTER, (sender, recipient))),
            _tuple_new(TableKey, (_INTER, (recipient, sender)))]
    for word in sorted(set(words)):  # a comprehension is a call of its own before 3.12
        keys.append(_tuple_new(TableKey, (_TERM, (recipient, word))))
    return keys


# A key's fields after its tag byte, by tag byte.
_KEY_FIELDS_BY_TAG = {table.value: struct.Struct(f">{arity}Q")
                     for table, arity in KEY_ARITY.items()}


def decode_key(data: bytes, off: int = 0) -> tuple[TableKey, int]:
    """Decode the canonical key encoded at ``off``; returns (key, where it ends)."""
    if off >= len(data):
        raise ProtocolError("empty key encoding")
    table = TABLE_BY_TAG.get(data[off])
    if table is None:
        raise ProtocolError(f"unknown table tag {data[off]}")
    fields = _KEY_FIELDS_BY_TAG[table]
    end = off + 1 + fields.size
    if len(data) < end:
        raise ProtocolError("truncated key encoding")
    return _tuple_new(TableKey, (table, fields.unpack_from(data, off + 1))), end



class MsgId(NamedTuple):
    """Message identifier: the recipient's inbox plus a sequence number."""

    recipient: UserId
    seq: SeqNo


class SeqPair(NamedTuple):
    """Per-inbox counters: newest assigned and newest deleted sequence number."""

    current: SeqNo
    deleted: SeqNo


class Message(NamedTuple):
    """One stored message; ``content`` is the text, one keyword index per word."""

    id: MsgId
    sender: UserId
    recipient: UserId
    content: tuple[Keyword, ...]
    timestamp: int  # logical, assigned by the owning store node; 0 = unassigned


class BucketId(NamedTuple):
    """The unit of conflict: a hash range of one table's keys."""

    table: TableId
    index: int

    def encode(self) -> bytes:
        return bytes([self.table]) + self.index.to_bytes(4, "big")


# FNV64_PRIME ** k mod 2**64: hashing k zero bytes, which leave the xor as it
# is, multiplies by this.
_PRIME_POWERS = tuple(pow(FNV64_PRIME, k, 1 << 64) for k in range(9))
_PRIME_7 = _PRIME_POWERS[7]


def bucket_of(key: TableKey, buckets_per_table: int) -> BucketId:
    """Map a key to its bucket by hashing the canonical encoding.

    The same bucket as ``fnv1a_64(key.encode()) % buckets_per_table``: each
    field's leading zero bytes are hashed with one multiply, and only its
    significant bytes one at a time. A field below 256, seven zero bytes and
    one more, is hashed in one expression without a mask: multiplying and
    xoring with a byte keep the low 64 bits a function of the low 64 bits,
    and those are all that is read. A field outside u64 raises the
    OverflowError that ``key.encode()`` raises.
    """
    if buckets_per_table < 1:
        raise ConfigError(f"buckets per table must be >= 1, got {buckets_per_table}")
    table = key.table
    h = (FNV64_OFFSET ^ table) * FNV64_PRIME
    for part in key.parts:
        if 0 <= part < 256:
            h = ((h * _PRIME_7) ^ part) * FNV64_PRIME
            continue
        n = (part.bit_length() + 7) >> 3
        if n > 8 or part < 0:
            key.encode()  # raises the OverflowError of a field outside u64
        h = (h * _PRIME_POWERS[8 - n]) & _MASK64
        for byte in part.to_bytes(n, "big"):
            h = ((h ^ byte) * FNV64_PRIME) & _MASK64
    return _tuple_new(BucketId, (table, (h & _MASK64) % buckets_per_table))


def mix64(x: int) -> int:
    """64-bit avalanche finalizer (splitmix64); decorrelates FNV high bits."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def bucket_position(bucket: BucketId) -> int:
    """Ring position of a bucket: avalanche-mixed hash of its encoding.

    Raw FNV-1a of these short, structured encodings clusters in the high
    bits, which successor-on-ring placement is extremely sensitive to;
    the finalizer restores uniformity without touching the bucket_of
    contract (key -> bucket index stays plain FNV-1a mod B).
    """
    return mix64(fnv1a_64(bucket.encode()))


# Most owners a layout remembers. The bundled scenarios address at most
# 4 tables x 1024 buckets; a TCP peer can name any u32 bucket index, so
# past this many the owner is computed without being stored.
OWNER_CACHE_LIMIT = 16_384


@dataclass(frozen=True)
class RingLayout:
    """Placement of buckets onto nodes via successor-on-ring.

    ``node_ids`` preserves configuration order; index 0 hosts the global
    lock. ``points`` is the same set of nodes sorted by ring position;
    ``positions`` mirrors it for bisection. ``owners`` memoizes
    ``owner_of``, bounded by ``OWNER_CACHE_LIMIT``: a caller may read a
    bucket's owner there and ask ``owner_of`` on a miss. It takes no part in
    equality, hashing or repr.
    """

    node_ids: tuple[str, ...]
    points: tuple[tuple[int, str], ...]
    positions: tuple[int, ...]
    owners: dict[BucketId, str] = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def from_node_ids(cls, node_ids: list[str] | tuple[str, ...]) -> RingLayout:
        """Nodes at evenly spaced ring positions, in configuration order.

        Even spacing keeps every node's share of every table nonzero for
        any bucket count; layouts are a pure function of the ordered node
        list, so a run is reproducible from its config alone.
        """
        if not node_ids:
            raise ConfigError("ring layout needs at least one node")
        if len(set(node_ids)) != len(node_ids):
            raise ConfigError("duplicate node ids in layout")
        n = len(node_ids)
        points = tuple(sorted(((i * (1 << 64)) // n, node) for i, node in enumerate(node_ids)))
        return cls(tuple(node_ids), points, tuple(p for p, _ in points))

    def owner_of(self, bucket: BucketId) -> str:
        """The node whose position is the smallest strictly above the bucket's."""
        owner = self.owners.get(bucket)
        if owner is None:
            owner = self.owner_at(bucket_position(bucket))
            if len(self.owners) < OWNER_CACHE_LIMIT:
                self.owners[bucket] = owner
        return owner

    def owner_at(self, position: int) -> str:
        i = bisect_right(self.positions, position)
        if i == len(self.positions):
            i = 0
        return self.points[i][1]
