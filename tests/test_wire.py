"""Frame and payload codecs."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from conftest import decode_reply

from helenos import wire
from helenos.errors import ProtocolError
from helenos.model import (
    BucketId,
    Message,
    MsgId,
    RingLayout,
    SeqPair,
    TableId,
    inter_key,
    message_key,
    seqno_key,
    term_key,
)
from helenos.store import Node
from helenos.wire import (
    Append,
    CcBlock,
    ErrCode,
    IncrSeq,
    Op,
    Read,
    Remove,
    Scheme,
    WriteSeq,
)


def msgids(draw_seed: int, n: int) -> list[MsgId]:
    rng = random.Random(draw_seed)
    return [MsgId(rng.randrange(2**32), rng.randrange(1, 2**32)) for _ in range(n)]


class TestItemCodecs:
    def test_msgid_round_trip(self):
        for mid in msgids(3, 20):
            assert wire.decode_msgid(wire.encode_msgid(mid))[0] == mid

    def test_message_round_trip(self):
        msg = Message(MsgId(9, 4), 2, 9, (5, 5, 1), 77)
        decoded, consumed = wire.decode_message(wire.encode_message(msg))
        assert decoded == msg
        assert type(decoded) is Message and type(decoded.id) is MsgId
        assert consumed == len(wire.encode_message(msg))

    def test_empty_content_message(self):
        msg = Message(MsgId(1, 1), 0, 1, (), 3)
        assert wire.decode_message(wire.encode_message(msg))[0] == msg

    def test_seqpair_round_trip(self):
        pair = SeqPair(10, 3)
        assert wire.decode_seqpair(wire.encode_seqpair(pair))[0] == pair

    @given(st.integers(0, 2**20), st.integers(0, 2**20))
    def test_entry_seqpair_property(self, current, deleted):
        entry = SeqPair(current, deleted)
        enc = wire.encode_entry(TableId.SEQNO, entry)
        assert wire.decode_entry(enc)[0] == entry

    def test_entry_lists(self):
        ids = tuple(msgids(4, 5))
        enc = wire.encode_entry(TableId.INTER, ids)
        assert wire.decode_entry(enc)[0] == ids
        msgs = (Message(MsgId(2, 1), 1, 2, (0, 3), 5),)
        enc = wire.encode_entry(TableId.MESSAGE, msgs)
        assert wire.decode_entry(enc)[0] == msgs

    def test_default_entries(self):
        assert wire.default_entry(TableId.SEQNO) == SeqPair(0, 0)
        assert wire.default_entry(TableId.TERM) == ()


class TestFrames:
    def test_storage_request_round_trip(self):
        cc = CcBlock(Scheme.FGL, txn_id=42, attempt=1, op_index=3, flags=1,
                     delay_ms=5, private_version=9)
        op = Append(term_key(1, 2), MsgId(1, 7))
        data = wire.storage_request(77, BucketId(TableId.TERM, 4), op, cc)
        payload = wire.split_frame(data)
        request_id, tag, index, opcode, rest = wire.decode_header(payload)
        assert (request_id, tag, index, Op(opcode)) == (77, 0, 4, Op.APPEND)
        decoded_cc, off = wire.decode_cc(rest)
        assert decoded_cc == cc
        assert wire.decode_storage_body(Op.APPEND, TableId.TERM, rest[off:]) == op

    @pytest.mark.parametrize("op", [
        Read(seqno_key(8)),
        Append(message_key(3), Message(MsgId(3, 1), 1, 3, (2,), 0)),
        Remove(term_key(2, 9), MsgId(2, 4)),
        WriteSeq(seqno_key(1), SeqPair(4, 2)),
        IncrSeq(seqno_key(2)),
    ])
    def test_each_storage_op_round_trips(self, op):
        cc = CcBlock(Scheme.NONE, 1, 1, 1)
        data = wire.storage_request(1, BucketId(op.key.table, 0), op, cc)
        payload = wire.split_frame(data)
        *_, opcode, rest = wire.decode_header(payload)
        _, off = wire.decode_cc(rest)
        assert wire.decode_storage_body(Op(opcode), op.key.table, rest[off:]) == op

    def test_reply_round_trip(self):
        reply = wire.ok_reply(5, b"hello")
        request_id, opcode, body = decode_reply(reply)
        assert (request_id, opcode, body) == (5, Op.OK, b"hello")

    def test_error_reply(self):
        reply = wire.err_reply(9, ErrCode.ROUTING, "not mine")
        request_id, opcode, body = decode_reply(reply)
        assert (request_id, opcode) == (9, Op.ERR)
        assert wire.decode_err(body) == (ErrCode.ROUTING, "not mine")

    def test_length_prefix_must_match(self):
        good = wire.ok_reply(1)
        with pytest.raises(ProtocolError):
            wire.split_frame(good[:-1])
        with pytest.raises(ProtocolError):
            wire.split_frame(good + b"x")

    def test_oversized_frame_rejected(self):
        huge = (wire.MAX_FRAME + 1).to_bytes(4, "big") + b""
        with pytest.raises(ProtocolError):
            wire.split_frame(huge)
        with pytest.raises(ProtocolError):
            wire.frame(b"x" * (wire.MAX_FRAME + 1))

    def test_mismatched_key_table_rejected(self):
        with pytest.raises(ProtocolError):
            wire.decode_storage_body(Op.READ, TableId.TERM, seqno_key(1).encode())

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            wire.decode_storage_body(Op.READ, TableId.SEQNO, seqno_key(1).encode() + b"!")


# Every frame kind's bytes, recorded from the codec that encoded the header,
# the cc block, the key and the argument each on its own: the wire is frozen.
GOLDEN_CC = CcBlock(Scheme.PESV, txn_id=0x0102030405060708, attempt=0x0A0B,
                    op_index=0x0C0D0E0F, flags=wire.FLAG_RELEASE_AFTER, delay_ms=0x1112,
                    private_version=0x131415161718191A)
GOLDEN_RID = 0x2122232425262728
GOLDEN_BUCKET = BucketId(TableId.INTER, 0x41424344)
GOLDEN_TXN = 0x5152535455565758
_STORAGE_HEAD = "0401020304050607080a0b0c0d0e0f011112131415161718191a"  # the cc block

GOLDEN_STORAGE = {
    "read": (BucketId(TableId.TERM, 0x31323334), Read(term_key(5, 2**64 - 1)),
             "000000392122232425262728003132333401" + _STORAGE_HEAD
             + "000000000000000005ffffffffffffffff"),
    "append msgid": (BucketId(TableId.INTER, 7), Append(inter_key(3, 4), MsgId(4, 0x99)),
                     "000000492122232425262728010000000702" + _STORAGE_HEAD
                     + "0100000000000000030000000000000004"
                       "00000000000000040000000000000099"),
    "append message": (BucketId(TableId.MESSAGE, 1),
                       Append(message_key(9), Message(MsgId(9, 2), 3, 9, (1, 256, 2**63), 0)),
                       "000000732122232425262728020000000102" + _STORAGE_HEAD
                       + "020000000000000009"
                         "0000000000000009000000000000000200000000000000030000000000000009"
                         "0003000000000000000100000000000001008000000000000000"
                         "0000000000000000"),
    "remove": (BucketId(TableId.TERM, 2), Remove(term_key(6, 0), MsgId(6, 1)),
               "000000492122232425262728000000000203" + _STORAGE_HEAD
               + "0000000000000000060000000000000000"
                 "00000000000000060000000000000001"),
    "write seq": (BucketId(TableId.SEQNO, 3), WriteSeq(seqno_key(12), SeqPair(40, 17)),
                  "000000412122232425262728030000000304" + _STORAGE_HEAD
                  + "03000000000000000c00000000000000280000000000000011"),
    "incr seq": (BucketId(TableId.SEQNO, 0), IncrSeq(seqno_key(0)),
                 "000000312122232425262728030000000005" + _STORAGE_HEAD
                 + "030000000000000000"),
}

GOLDEN_OTHER = {
    "verb": (lambda: wire.cc_request(GOLDEN_RID, Op.FGL_LOCK, GOLDEN_BUCKET, GOLDEN_TXN),
             "0000001621222324252627280141424344125152535455565758"),
    "verb with argument 0": (
        lambda: wire.cc_request(GOLDEN_RID, Op.OCC_UNLOCK, GOLDEN_BUCKET, GOLDEN_TXN, 0),
        "0000001e21222324252627280141424344195152535455565758" "0000000000000000"),
    "verb with a large argument": (
        lambda: wire.cc_request(GOLDEN_RID, Op.VER_RELEASE, GOLDEN_BUCKET, GOLDEN_TXN, 2**64 - 2),
        "0000001e21222324252627280141424344165152535455565758" "fffffffffffffffe"),
    "glock verb": (lambda: wire.cc_request(GOLDEN_RID, Op.GLOCK_ACQUIRE, None, GOLDEN_TXN),
                   "000000162122232425262728ff00000000105152535455565758"),
    "control": (lambda: wire.control_request(GOLDEN_RID, Op.SNAPSHOT),
                "0000000e2122232425262728ff0000000021"),
    "empty ok": (lambda: wire.ok_reply(GOLDEN_RID), "0000000e2122232425262728ff0000000080"),
    "ok with a body": (lambda: wire.ok_reply(GOLDEN_RID, b"PONG"),
                       "000000122122232425262728ff0000000080504f4e47"),
    "storage ok": (
        lambda: wire.ok_reply(GOLDEN_RID, wire.storage_ok_body(
            0x61, 0x62, b"\x02" + bytes(15) + b"\x01")),
        "0000002f2122232425262728ff0000000080" "0000000000000061" "0000000000000062"
        "0200000000000000000000000000000001"),
    "err": (lambda: wire.err_reply(GOLDEN_RID, ErrCode.ROUTING,
                                   "bucket TERM:3 is not owned by node1"),
            "000000322122232425262728ff0000000081" "02"
            "6275636b6574205445524d3a33206973206e6f74206f776e6564206279206e6f646531"),
}


class TestGoldenFrames:
    @pytest.mark.parametrize("bucket, op, golden", GOLDEN_STORAGE.values(), ids=GOLDEN_STORAGE)
    def test_storage_request(self, bucket, op, golden):
        assert wire.storage_request(GOLDEN_RID, bucket, op, GOLDEN_CC).hex() == golden
        # A plain tuple of the cc fields in wire order encodes the same.
        assert wire.storage_request(GOLDEN_RID, bucket, op, tuple(GOLDEN_CC)).hex() == golden

    @pytest.mark.parametrize("build, golden", GOLDEN_OTHER.values(), ids=GOLDEN_OTHER)
    def test_other_frames(self, build, golden):
        assert build().hex() == golden

    def test_node_storage_ok_reply(self):
        node = Node("node0", RingLayout.from_node_ids(["node0"]))
        key = seqno_key(12)
        request = wire.storage_request(GOLDEN_RID, BucketId(TableId.SEQNO, 0),
                                       WriteSeq(key, SeqPair(40, 17)),
                                       CcBlock(Scheme.NONE, 1, 1, 1))
        assert node.handle_frame(request).hex() == (
            "0000002e2122232425262728ff0000000080" "0000000000000001" "0000000000000000"
            "0000000000000028" "0000000000000011")


@pytest.mark.parametrize("opcode", [Op.PING, Op.READ, Op.FGL_LOCK, 0x7F])
def test_reply_with_a_request_opcode_rejected(opcode):
    reply = wire.frame(wire.encode_header(6, None, opcode))
    with pytest.raises(ProtocolError, match=f"unexpected reply opcode {opcode:#x}"):
        decode_reply(reply)


def spread_message(words: int, seed: int) -> Message:
    """A message whose words use every bit of a u64."""
    content = tuple((seed * 0x9E3779B97F4A7C15 + i * 0xBF58476D1CE4E5B9) % 2**64
                    for i in range(words))
    return Message(MsgId(seed, seed + 1), seed + 2, seed, content, seed + 3)


def spread_ids(n: int) -> tuple[MsgId, ...]:
    """Ids whose fields use every byte of a u64."""
    return tuple(MsgId((i * 0x9E3779B97F4A7C15 + 7) % 2**64, (i * 0xBF58476D1CE4E5B9 + 2**63) % 2**64)
                 for i in range(n))


class TestEntryCodecPins:
    # Recorded from the codec that encoded a pair and each id with
    # int.to_bytes, one Python call per item.
    GOLDEN = {
        "sequence pair": (TableId.SEQNO, SeqPair(0xF1F2F3F4F5F6F7F8, 0x0102030405060708),
                          "02f1f2f3f4f5f6f7f80102030405060708"),
        "no ids": (TableId.TERM, spread_ids(0), "0000000000"),
        "one id": (TableId.TERM, spread_ids(1), "000000000100000000000000078000000000000000"),
    }
    GOLDEN_300_IDS_SHA256 = "23aa4924d37fa7d882c72961e1dcdc75e43a3b522e9432121d0692772b909693"

    @pytest.mark.parametrize("table, entry, golden", GOLDEN.values(), ids=GOLDEN)
    def test_golden_bytes(self, table, entry, golden):
        data = wire.encode_entry(table, entry)
        assert data.hex() == golden
        assert wire.decode_entry(data) == (entry, len(data))

    def test_golden_bytes_300_ids(self):
        ids = spread_ids(300)
        data = wire.encode_entry(TableId.INTER, ids)
        assert len(data) == 1 + 4 + 16 * 300
        assert hashlib.sha256(data).hexdigest() == self.GOLDEN_300_IDS_SHA256
        assert wire.decode_entry(b"xx" + data + b"yy", 2) == (ids, 2 + len(data))

    @pytest.mark.parametrize("field", [2**64, 2**70, -1], ids=["2^64", "2^70", "negative"])
    def test_key_field_outside_u64_raises_before_a_frame_is_built(self, field):
        cc = CcBlock(Scheme.NONE, 1, 1, 1)
        for key in (term_key(field, 1), inter_key(1, field), message_key(field), seqno_key(field)):
            with pytest.raises(OverflowError):
                wire.storage_request(1, BucketId(key.table, 0), Read(key), cc)


class TestMessageCodec:
    # id (r, s), sender, recipient, word count (u16), words, timestamp; recorded
    # from the int.to_bytes codec this struct codec replaced.
    GOLDEN = {
        0: "0000000000000005000000000000000600000000000000070000000000000005"
           "00000000000000000008",
        8: "0000000000000005000000000000000600000000000000070000000000000005"
           "00081715609f7c746c69d66da80c9959522295c5ef79b63e37db551e36e6d323"
           "1d9414767e53f008034dd3cec5c10cece90693270d2e29d1cebf527f549b46b6"
           "b4780000000000000008",
    }
    GOLDEN_300_SHA256 = "709a3b0c4faeb05d763335d2641b9e869e6126991e0e1f59be66c7e603ad370d"

    @pytest.mark.parametrize("words", [0, 8])
    def test_golden_bytes(self, words):
        msg = spread_message(words, 5)
        data = wire.encode_message(msg)
        assert data.hex() == self.GOLDEN[words]
        assert wire.decode_message(data) == (msg, len(data))

    def test_golden_bytes_300_words(self):
        msg = spread_message(300, 5)
        data = wire.encode_message(msg)
        assert len(data) == 34 + 8 * 300 + 8
        assert hashlib.sha256(data).hexdigest() == self.GOLDEN_300_SHA256
        assert wire.decode_message(b"xx" + data + b"yy", 2) == (msg, 2 + len(data))

    @pytest.mark.parametrize("cut, text", [
        (0, "truncated MsgId"), (15, "truncated MsgId"),
        (16, "truncated message"), (33, "truncated message"),
        (34, "truncated message content"), (34 + 8 * 3 + 7, "truncated message content"),
    ])
    def test_truncation_texts(self, cut, text):
        data = wire.encode_message(spread_message(3, 9))
        with pytest.raises(ProtocolError, match=f"^{text}$"):
            wire.decode_message(data[:cut])

    @pytest.mark.parametrize("word", [2**64, 2**70, -1], ids=["2^64", "2^70", "negative"])
    def test_word_outside_u64_raises_before_any_frame(self, word):
        msg = Message(MsgId(3, 1), 1, 3, (4, word), 0)
        with pytest.raises(OverflowError):
            wire.encode_message(msg)
        cc = CcBlock(Scheme.NONE, 1, 1, 1)
        with pytest.raises(OverflowError):
            wire.storage_request(1, BucketId(TableId.MESSAGE, 0),
                                 Append(message_key(3), msg), cc)
