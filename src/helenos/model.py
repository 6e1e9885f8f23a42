"""Keys, table schemas, bucket partitioning, and ring placement.

Everything in this module is pure and hashable. The canonical byte
encodings defined here double as the wire format and as the input to the
partitioning hash, so they are fixed bit-for-bit (see README, "Canonical
encodings").
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

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
        out = bytes([self.table])
        for part in self.parts:
            out += part.to_bytes(8, "big")
        return out


def term_key(user: UserId, keyword: Keyword) -> TableKey:
    return TableKey(TableId.TERM, (user, keyword))


def inter_key(sender: UserId, receiver: UserId) -> TableKey:
    return TableKey(TableId.INTER, (sender, receiver))


def message_key(recipient: UserId) -> TableKey:
    return TableKey(TableId.MESSAGE, (recipient,))


def seqno_key(user: UserId) -> TableKey:
    return TableKey(TableId.SEQNO, (user,))


def decode_key(data: bytes) -> tuple[TableKey, int]:
    """Decode a canonical key prefix of ``data``; returns (key, bytes consumed)."""
    if not data:
        raise ProtocolError("empty key encoding")
    try:
        table = TableId(data[0])
    except ValueError:
        raise ProtocolError(f"unknown table tag {data[0]}") from None
    arity = KEY_ARITY[table]
    need = 1 + 8 * arity
    if len(data) < need:
        raise ProtocolError("truncated key encoding")
    parts = tuple(
        int.from_bytes(data[1 + 8 * i : 9 + 8 * i], "big") for i in range(arity)
    )
    return TableKey(table, parts), need


class MsgId(NamedTuple):
    """Message identifier: the recipient's inbox plus a sequence number."""

    recipient: UserId
    seq: SeqNo


class SeqPair(NamedTuple):
    """Per-inbox counters: newest assigned and newest deleted sequence number."""

    current: SeqNo
    deleted: SeqNo


@dataclass(frozen=True, slots=True)
class Message:
    """One stored message; ``content`` is the text, one keyword index per word."""

    id: MsgId
    sender: UserId
    recipient: UserId
    content: tuple[Keyword, ...]
    timestamp: int  # logical, assigned by the owning store node; 0 = unassigned

    def keywords(self) -> tuple[Keyword, ...]:
        """Distinct content words, ascending; the message's index terms."""
        return tuple(sorted(set(self.content)))


class BucketId(NamedTuple):
    """The unit of conflict: a hash range of one table's keys."""

    table: TableId
    index: int

    def encode(self) -> bytes:
        return bytes([self.table]) + self.index.to_bytes(4, "big")


def bucket_of(key: TableKey, buckets_per_table: int) -> BucketId:
    """Map a key to its bucket by hashing the canonical encoding."""
    if buckets_per_table < 1:
        raise ConfigError(f"buckets per table must be >= 1, got {buckets_per_table}")
    return BucketId(key.table, fnv1a_64(key.encode()) % buckets_per_table)


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


@dataclass(frozen=True)
class RingLayout:
    """Placement of buckets onto nodes via successor-on-ring.

    ``node_ids`` preserves configuration order; index 0 hosts the global
    lock. ``points`` is the same set of nodes sorted by ring position;
    ``positions`` mirrors it for bisection.
    """

    node_ids: tuple[str, ...]
    points: tuple[tuple[int, str], ...]
    positions: tuple[int, ...]

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
        return self.owner_at(bucket_position(bucket))

    def owner_at(self, position: int) -> str:
        i = bisect_right(self.positions, position)
        if i == len(self.positions):
            i = 0
        return self.points[i][1]

    @property
    def coordinator(self) -> str:
        """Node hosting the global lock (first node in configuration order)."""
        return self.node_ids[0]
