"""Keys, encodings, hashing, and ring placement."""

from __future__ import annotations

import random
import sys
import threading
from functools import reduce
from typing import Iterator

import pytest
from hypothesis import given, strategies as st

from helenos import model
from helenos.errors import ConfigError, ProtocolError
from helenos.model import (
    OWNER_CACHE_LIMIT,
    BucketId,
    Message,
    MsgId,
    RingLayout,
    TableId,
    TableKey,
    bucket_of,
    bucket_position,
    decode_key,
    fnv1a_64,
    index_keys,
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

    def test_decode_at_an_offset(self):
        for key in (term_key(1, 2**64 - 1), seqno_key(5)):
            data = b"xx" + key.encode() + b"yy"
            assert decode_key(data, 2) == (key, 2 + len(key.encode()))
        with pytest.raises(ProtocolError, match="^empty key encoding$"):
            decode_key(seqno_key(5).encode(), 9)
        with pytest.raises(ProtocolError, match="^truncated key encoding$"):
            decode_key(b"x" + seqno_key(5).encode()[:-1], 1)


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

    # A field of any byte width, the edges of u64 included: bucket_of skips
    # each field's leading zero bytes, and fnv1a_64 of the encoding stays
    # the reference.
    FIELDS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 1, 255, 256, 2**64 - 1]),
                       st.integers(0, 64).map(lambda bits: (1 << bits) - 1))

    @given(st.sampled_from(list(TableId)), st.lists(FIELDS, min_size=2, max_size=2),
           st.integers(1, 4096))
    def test_equals_the_hash_of_the_encoding(self, table, parts, buckets):
        key = TableKey(table, tuple(parts[:model.KEY_ARITY[table]]))
        assert bucket_of(key, buckets) == BucketId(table, fnv1a_64(key.encode()) % buckets)

    @pytest.mark.parametrize("field", [-1, 2**64, 2**70], ids=["negative", "2^64", "2^70"])
    def test_field_outside_u64_raises_as_encode_does(self, field):
        for key in (term_key(field, 1), term_key(1, field), seqno_key(field)):
            with pytest.raises(OverflowError) as encoded:
                key.encode()
            with pytest.raises(OverflowError, match=f"^{encoded.value}$"):
                bucket_of(key, 8)

    def test_table_preserved(self):
        for key in (term_key(1, 2), inter_key(3, 4), message_key(5), seqno_key(6)):
            assert bucket_of(key, 64).table is key.table


class TestKeyEncodingPins:
    """The struct codec of a key is the tag byte, then each field as u64."""

    @given(st.sampled_from(list(TableId)),
           st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2))
    def test_encode_is_the_tag_then_each_field(self, table, fields):
        parts = tuple(fields[:model.KEY_ARITY[table]])
        expected = bytes([table]) + b"".join(p.to_bytes(8, "big") for p in parts)
        assert TableKey(table, parts).encode() == expected

    @pytest.mark.parametrize("field", [2**64, 2**70, -1], ids=["2^64", "2^70", "negative"])
    def test_field_outside_u64_raises_overflow(self, field):
        for key in (term_key(field, 1), inter_key(1, field), message_key(field), seqno_key(field)):
            with pytest.raises(OverflowError):
                key.encode()


def owner_oracle(bucket: BucketId, layout: RingLayout) -> str:
    """Linear scan: smallest position strictly greater, wrapping to lowest."""
    pos = bucket_position(bucket)
    candidates = [(p, n) for p, n in layout.points if p > pos]
    if candidates:
        return min(candidates)[1]
    return min(layout.points)[1]


class TestMessage:
    MSG = Message(MsgId(2, 7), 1, 2, (5, 3, 5), 9)

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            self.MSG.timestamp = 10

    def test_hashes_as_the_tuple_of_its_fields(self):
        assert hash(self.MSG) == hash(tuple(self.MSG))
        assert self.MSG == Message(MsgId(2, 7), 1, 2, (5, 3, 5), 9)
        assert self.MSG != self.MSG._replace(timestamp=10)

    def test_repr_is_pinned(self):
        assert repr(self.MSG) == ("Message(id=MsgId(recipient=2, seq=7), sender=1, "
                                  "recipient=2, content=(5, 3, 5), timestamp=9)")

    def test_index_keys_are_inter_both_ways_then_distinct_words_ascending(self):
        m = self.MSG
        keys = index_keys(m.sender, m.recipient, m.content)
        assert keys == [inter_key(1, 2), inter_key(2, 1), term_key(2, 3), term_key(2, 5)]
        assert all(type(key) is TableKey for key in keys)


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


class TestOwnerCache:
    @pytest.mark.parametrize("nodes", [1, 2, 3, 4, 5])
    def test_cold_and_warm_agree_with_scan_oracle(self, nodes):
        layout = RingLayout.from_node_ids([f"node{i}" for i in range(nodes)])
        for _pass in ("cold", "warm"):
            for bucket in all_buckets(256):
                assert layout.owner_of(bucket) == owner_oracle(bucket, layout)

    def test_warm_layout_equals_fresh_one(self):
        warm = RingLayout.from_node_ids(["node0", "node1", "node2"])
        for bucket in all_buckets(64):
            warm.owner_of(bucket)
        fresh = RingLayout.from_node_ids(["node0", "node1", "node2"])
        assert warm == fresh
        assert hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh)

    def test_each_bucket_positioned_once(self, monkeypatch):
        calls: list[BucketId] = []
        real = model.bucket_position

        def counting(bucket: BucketId) -> int:
            calls.append(bucket)
            return real(bucket)

        monkeypatch.setattr(model, "bucket_position", counting)
        layout = RingLayout.from_node_ids(["node0", "node1", "node2", "node3"])
        buckets = list(all_buckets(16))
        for _ in range(3):
            for bucket in buckets:
                layout.owner_of(bucket)
        assert sorted(calls) == sorted(buckets)

    def test_bounded_under_arbitrary_indices(self):
        # A TCP peer can name any u32 bucket index; the cache stops at its
        # limit and later buckets are routed uncached.
        layout = RingLayout.from_node_ids(["node0", "node1", "node2"])
        rng = random.Random(3)
        indices = rng.sample(range(2**32), OWNER_CACHE_LIMIT + 200)
        for index in indices[:OWNER_CACHE_LIMIT]:
            layout.owner_of(BucketId(TableId.TERM, index))
        assert len(layout.owners) == OWNER_CACHE_LIMIT
        for index in indices[OWNER_CACHE_LIMIT:]:
            bucket = BucketId(TableId.MESSAGE, index)
            assert layout.owner_of(bucket) == owner_oracle(bucket, layout)
            assert layout.owner_of(bucket) == owner_oracle(bucket, layout)
        assert len(layout.owners) == OWNER_CACHE_LIMIT

    def test_concurrent_fill_routes_correctly(self):
        # Client and node threads share one layout; more threads than cores,
        # with frequent switches, fill the cache at once.
        layout = RingLayout.from_node_ids(["node0", "node1", "node2", "node3"])
        buckets = list(all_buckets(64))
        expected = {bucket: owner_oracle(bucket, layout) for bucket in buckets}
        wrong: list[BucketId] = []

        def worker(seed: int) -> None:
            order = buckets[:]
            random.Random(seed).shuffle(order)
            for _ in range(5):
                wrong.extend(b for b in order if layout.owner_of(b) != expected[b])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert layout.owners == expected
