"""Keys, encodings, hashing, and ring placement."""

from __future__ import annotations

import random
from functools import reduce
from typing import Iterator

import pytest
from hypothesis import given, strategies as st

from helenos.errors import ConfigError
from helenos.model import (
    BucketId,
    RingLayout,
    TableId,
    TableKey,
    bucket_of,
    bucket_position,
    decode_key,
    fnv1a_64,
    inter_key,
    message_key,
    mix64,
    seqno_key,
    term_key,
)


def all_buckets(buckets_per_table: int) -> Iterator[BucketId]:
    for table in TableId:
        for index in range(buckets_per_table):
            yield BucketId(table, index)


def fnv1a_64_oracle(data: bytes) -> int:
    # Independent formulation: fold instead of a loop, constants written
    # in decimal.
    return reduce(
        lambda h, b: ((h ^ b) * 1099511628211) % (2**64),
        data,
        14695981039346656037,
    )


class TestFnv:
    # Published FNV-1a 64-bit reference vectors.
    VECTORS = {
        b"": 0xCBF29CE484222325,
        b"a": 0xAF63DC4C8601EC8C,
        b"foobar": 0x85944171F73967E8,
    }

    @pytest.mark.parametrize("data,expected", sorted(VECTORS.items()))
    def test_reference_vectors(self, data, expected):
        assert fnv1a_64(data) == expected

    def test_against_independent_oracle(self):
        rng = random.Random(1)
        for _ in range(200):
            data = rng.randbytes(rng.randint(0, 40))
            assert fnv1a_64(data) == fnv1a_64_oracle(data)


class TestCanonicalEncoding:
    def test_seqno_zero_case(self):
        assert seqno_key(0).encode() == bytes([3] + [0] * 8)

    def test_injective_on_swapped_fields(self):
        assert term_key(1, 2).encode() != term_key(2, 1).encode()
        assert inter_key(1, 2).encode() != inter_key(2, 1).encode()

    def test_tables_disjoint(self):
        # Same field values, different tables: encodings must differ.
        assert message_key(5).encode() != seqno_key(5).encode()
        assert term_key(5, 6).encode() != inter_key(5, 6).encode()

    def test_round_trip_random_keys(self):
        rng = random.Random(7)
        for _ in range(1000):
            table = rng.choice(list(TableId))
            arity = 2 if table in (TableId.TERM, TableId.INTER) else 1
            key = TableKey(table, tuple(rng.randrange(2**64) for _ in range(arity)))
            decoded, consumed = decode_key(key.encode())
            assert decoded == key
            assert consumed == len(key.encode())

    @given(
        st.sampled_from(list(TableId)),
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=2, max_size=2),
    )
    def test_round_trip_property(self, table, parts):
        arity = 2 if table in (TableId.TERM, TableId.INTER) else 1
        key = TableKey(table, tuple(parts[:arity]))
        assert decode_key(key.encode())[0] == key


class TestBucketOf:
    def test_modulus_one(self):
        for key in (term_key(1, 2), inter_key(3, 4), message_key(5), seqno_key(6)):
            assert bucket_of(key, 1) == BucketId(key.table, 0)

    def test_deterministic(self):
        key = term_key(11, 22)
        assert bucket_of(key, 1024) == bucket_of(key, 1024)

    def test_matches_hash_oracle(self):
        key = seqno_key(7)
        expected = fnv1a_64_oracle(bytes([3]) + (7).to_bytes(8, "big")) % 1024
        assert bucket_of(key, 1024) == BucketId(TableId.SEQNO, expected)

    def test_zero_buckets_rejected(self):
        with pytest.raises(ConfigError):
            bucket_of(seqno_key(1), 0)

    def test_table_preserved(self):
        for key in (term_key(1, 2), inter_key(3, 4), message_key(5), seqno_key(6)):
            assert bucket_of(key, 64).table is key.table


def owner_oracle(bucket: BucketId, layout: RingLayout) -> str:
    """Linear scan: smallest position strictly greater, wrapping to lowest."""
    pos = bucket_position(bucket)
    candidates = [(p, n) for p, n in layout.points if p > pos]
    if candidates:
        return min(candidates)[1]
    return min(layout.points)[1]


class TestRing:
    def test_singleton_ring(self):
        layout = RingLayout.from_node_ids(["only"])
        for bucket in all_buckets(4):
            assert layout.owner_of(bucket) == "only"

    def test_strictly_greater_rule(self):
        # A position exactly equal to a node's own must go to the next node
        # clockwise, never to that node.
        layout = RingLayout.from_node_ids(["node0", "node1", "node2"])
        for i, (pos, _node) in enumerate(layout.points):
            successor = layout.points[(i + 1) % len(layout.points)][1]
            assert layout.owner_at(pos) == successor

    def test_wraps_past_highest_position(self):
        layout = RingLayout.from_node_ids(["node0", "node1", "node2"])
        highest = layout.points[-1][0]
        lowest_node = layout.points[0][1]
        assert layout.owner_at(highest) == lowest_node
        assert layout.owner_at(2**64 - 1) == lowest_node

    def test_two_nodes_against_scan_oracle(self):
        layout = RingLayout.from_node_ids(["alpha", "beta"])
        for bucket in all_buckets(4):
            assert layout.owner_of(bucket) == owner_oracle(bucket, layout)

    def test_many_layouts_against_scan_oracle(self):
        rng = random.Random(5)
        for trial in range(50):
            n = rng.randint(1, 9)
            layout = RingLayout.from_node_ids([f"n{trial}-{i}" for i in range(n)])
            for bucket in all_buckets(8):
                assert layout.owner_of(bucket) == owner_oracle(bucket, layout)

    def test_empty_layout_rejected(self):
        with pytest.raises(ConfigError):
            RingLayout.from_node_ids([])

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ConfigError):
            RingLayout.from_node_ids(["a", "a"])

    def test_bucket_position_is_mixed_hash(self):
        bucket = BucketId(TableId.SEQNO, 7)
        assert bucket_position(bucket) == mix64(fnv1a_64(bucket.encode()))

    def test_coverage_smoke(self):
        # With B >= 64*N buckets per table, every node must own at least one
        # bucket of every table in at least 99% of layouts; even node
        # spacing plus mixed bucket hashing achieves that for every tried
        # (node count, bucket count) pair.
        trials = ok = 0
        for nodes, buckets in [(2, 128), (3, 192), (4, 256), (8, 512), (16, 1024)]:
            for salt in range(5):
                trials += 1
                layout = RingLayout.from_node_ids(
                    [f"host-{salt}-{i}" for i in range(nodes)]
                )
                owned: set[tuple[str, TableId]] = set()
                for bucket in all_buckets(buckets):
                    owned.add((layout.owner_of(bucket), bucket.table))
                if len(owned) == nodes * len(TableId):
                    ok += 1
        assert ok >= 0.99 * trials
