"""Frame and payload codecs."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from helenos import wire
from helenos.errors import ProtocolError
from helenos.model import BucketId, Message, MsgId, SeqPair, TableId, message_key, seqno_key, term_key
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
        request_id, opcode, body = wire.decode_reply(reply)
        assert (request_id, opcode, body) == (5, Op.OK, b"hello")

    def test_error_reply(self):
        reply = wire.err_reply(9, ErrCode.ROUTING, "not mine")
        request_id, opcode, body = wire.decode_reply(reply)
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


@pytest.mark.parametrize("opcode", [Op.PING, Op.READ, Op.FGL_LOCK, 0x7F])
def test_reply_with_a_request_opcode_rejected(opcode):
    reply = wire.frame(wire.encode_header(6, None, opcode))
    with pytest.raises(ProtocolError, match=f"unexpected reply opcode {opcode:#x}"):
        wire.decode_reply(reply)


def spread_message(words: int, seed: int) -> Message:
    """A message whose words use every bit of a u64."""
    content = tuple((seed * 0x9E3779B97F4A7C15 + i * 0xBF58476D1CE4E5B9) % 2**64
                    for i in range(words))
    return Message(MsgId(seed, seed + 1), seed + 2, seed, content, seed + 3)


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


ENTRIES = [
    (TableId.SEQNO, SeqPair(7, 3)),
    (TableId.TERM, ()),
    (TableId.INTER, tuple(msgids(5, 4))),
    (TableId.MESSAGE, ()),
    (TableId.MESSAGE, (spread_message(0, 1), spread_message(1, 2), spread_message(300, 3))),
]


@pytest.mark.parametrize("table, entry", ENTRIES,
                         ids=["seqpair", "empty ids", "ids", "no messages", "messages"])
def test_entry_end_is_where_decode_entry_ends(table, entry):
    data = b"ab" + wire.encode_entry(table, entry) + b"cd"
    assert wire.entry_end(data, 2) == wire.decode_entry(data, 2)[1] == len(data) - 2


@pytest.mark.parametrize("table, entry", ENTRIES,
                         ids=["seqpair", "empty ids", "ids", "no messages", "messages"])
def test_entry_end_refuses_what_decode_entry_refuses(table, entry):
    data = wire.encode_entry(table, entry)
    for cut in range(len(data)):
        with pytest.raises(ProtocolError) as decoded:
            wire.decode_entry(data[:cut])
        with pytest.raises(ProtocolError) as walked:
            wire.entry_end(data[:cut])
        assert str(walked.value) == str(decoded.value), cut
    with pytest.raises(ProtocolError, match="^unknown entry kind 9$"):
        wire.entry_end(b"\x09" + data[1:])
