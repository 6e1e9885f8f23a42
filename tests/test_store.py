"""Storage engine semantics, the frame handler, and snapshots."""

from __future__ import annotations

import hashlib
import struct
import sys
import threading
import time

import pytest

from conftest import decode_reply, encode_cc

from helenos import store, wire
from helenos.errors import ProtocolError
from helenos.model import (
    BucketId,
    Message,
    MsgId,
    RingLayout,
    SeqPair,
    TableId,
    bucket_of,
    inter_key,
    message_key,
    seqno_key,
    term_key,
)
from helenos.store import (
    Node,
    StorageEngine,
    merge_snapshots,
    pack_snapshot,
    unpack_snapshot,
    walk_snapshot,
)
from helenos.transport import LoopbackCluster
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
    apply_op,
    default_entry,
    store_entry,
)

B = 8
NONE_CC = CcBlock(Scheme.NONE, txn_id=1, attempt=1, op_index=1)


def one_node() -> Node:
    layout = RingLayout.from_node_ids(["node0"])
    return Node("node0", layout)


def storage(node: Node, op, request_id=1, cc=NONE_CC, bucket=None):
    bucket = bucket or bucket_of(op.key, B)
    reply = node.handle_frame(wire.storage_request(request_id, bucket, op, cc))
    request_id_r, opcode, body = decode_reply(reply)
    assert request_id_r == request_id
    return opcode, body


def apply_ok(node: Node, op, cc=NONE_CC):
    opcode, body = storage(node, op, cc=cc)
    assert opcode is Op.OK, wire.decode_err(body)
    _seq, _version, payload = wire.decode_storage_ok(body)
    return payload


class TestEngineSemantics:
    def test_absent_seqno_reads_zero_pair(self):
        node = one_node()
        payload = apply_ok(node, Read(seqno_key(5)))
        assert wire.decode_entry(payload)[0] == SeqPair(0, 0)

    def test_absent_list_reads_empty(self):
        node = one_node()
        payload = apply_ok(node, Read(inter_key(1, 2)))
        assert wire.decode_entry(payload)[0] == ()

    def test_append_then_read(self):
        node = one_node()
        mid = MsgId(2, 1)
        apply_ok(node, Append(inter_key(1, 2), mid))
        payload = apply_ok(node, Read(inter_key(1, 2)))
        assert wire.decode_entry(payload)[0] == (mid,)

    def test_increment_trace(self):
        node = one_node()
        apply_ok(node, WriteSeq(seqno_key(9), SeqPair(7, 2)))
        payload = apply_ok(node, IncrSeq(seqno_key(9)))
        assert wire.decode_seqpair(payload)[0] == SeqPair(8, 2)

    def test_remove_is_idempotent(self):
        node = one_node()
        mid = MsgId(2, 1)
        key = inter_key(1, 2)
        apply_ok(node, Append(key, mid))
        apply_ok(node, Append(key, MsgId(2, 2)))
        apply_ok(node, Remove(key, mid))
        once = apply_ok(node, Read(key))
        apply_ok(node, Remove(key, mid))
        twice = apply_ok(node, Read(key))
        assert once == twice
        assert wire.decode_entry(once)[0] == (MsgId(2, 2),)

    def test_remove_strips_all_occurrences(self):
        node = one_node()
        key = inter_key(1, 2)
        mid = MsgId(2, 1)
        for _ in range(3):
            apply_ok(node, Append(key, mid))
        apply_ok(node, Remove(key, mid))
        assert wire.decode_entry(apply_ok(node, Read(key)))[0] == ()

    def test_message_remove_matches_by_id(self):
        node = one_node()
        key = message_key(2)
        msg = Message(MsgId(2, 1), 1, 2, (3,), 0)
        apply_ok(node, Append(key, msg))
        apply_ok(node, Remove(key, MsgId(2, 1)))
        assert wire.decode_entry(apply_ok(node, Read(key)))[0] == ()

    def test_timestamps_assigned_monotonically(self):
        node = one_node()
        stored = []
        for seq in (1, 2):
            payload = apply_ok(node, Append(message_key(2), Message(MsgId(2, seq), 1, 2, (0,), 0)))
            stored.append(wire.decode_message(payload)[0])
        assert stored[0].timestamp == 1
        assert stored[1].timestamp == 2

    def test_explicit_timestamp_kept(self):
        node = one_node()
        payload = apply_ok(node, Append(message_key(2), Message(MsgId(2, 1), 1, 2, (0,), 55)))
        assert wire.decode_message(payload)[0].timestamp == 55

    def test_type_mismatch_is_protocol_error(self):
        from helenos.model import term_key

        engine = StorageEngine()
        with pytest.raises(ProtocolError):
            engine.apply(BucketId(TableId.SEQNO, 0), Append(seqno_key(1), MsgId(1, 1)))
        with pytest.raises(ProtocolError):
            engine.apply(BucketId(TableId.TERM, 0), IncrSeq(term_key(1, 2)))
        with pytest.raises(ProtocolError):
            engine.apply(
                BucketId(TableId.MESSAGE, 0),
                Append(message_key(1), MsgId(1, 1)),  # message table needs full messages
            )


TERM, INTER, MSGS, SEQ = term_key(2, 5), inter_key(1, 2), message_key(2), seqno_key(2)
ID1, ID2 = MsgId(2, 1), MsgId(2, 2)
MSG1, MSG2 = Message(ID1, 1, 2, (5,), 7), Message(ID2, 1, 2, (6,), 8)
ZERO = SeqPair(0, 0)

# (entry, op, (new entry, result)), written out by hand; None: ProtocolError.
APPLY_CASES = {
    "read absent list": ((), Read(TERM), ((), ())),
    "read ids": ((ID1,), Read(INTER), ((ID1,), (ID1,))),
    "read messages": ((MSG1,), Read(MSGS), ((MSG1,), (MSG1,))),
    "read absent pair": (ZERO, Read(SEQ), (ZERO, ZERO)),
    "append id": ((ID1,), Append(TERM, ID2), ((ID1, ID2), ID2)),
    "append id to empty": ((), Append(INTER, ID1), ((ID1,), ID1)),
    "append duplicate id": ((ID1,), Append(INTER, ID1), ((ID1, ID1), ID1)),
    "append message": ((MSG1,), Append(MSGS, MSG2), ((MSG1, MSG2), MSG2)),
    "remove message by id": ((MSG1, MSG2), Remove(MSGS, ID1), ((MSG2,), ID1)),
    "remove every occurrence": ((ID1, ID2, ID1), Remove(INTER, ID1), ((ID2,), ID1)),
    "remove is idempotent": ((ID2,), Remove(INTER, ID1), ((ID2,), ID1)),
    "remove from absent": ((), Remove(TERM, ID1), ((), ID1)),
    "remove last id": ((ID1,), Remove(TERM, ID1), ((), ID1)),
    "remove last message": ((MSG1,), Remove(MSGS, ID1), ((), ID1)),
    "write pair": (ZERO, WriteSeq(SEQ, SeqPair(4, 2)), (SeqPair(4, 2), SeqPair(4, 2))),
    "write equal pair": (SeqPair(4, 2), WriteSeq(SEQ, SeqPair(4, 4)), (SeqPair(4, 4),) * 2),
    "write zero pair": (SeqPair(4, 2), WriteSeq(SEQ, ZERO), (ZERO, ZERO)),
    "increment absent": (ZERO, IncrSeq(SEQ), (SeqPair(1, 0), SeqPair(1, 0))),
    "increment": (SeqPair(7, 2), IncrSeq(SEQ), (SeqPair(8, 2), SeqPair(8, 2))),
    "append on seqno": (ZERO, Append(SEQ, ID1), None),
    "remove on seqno": (ZERO, Remove(SEQ, ID1), None),
    "write on term": ((), WriteSeq(TERM, SeqPair(1, 0)), None),
    "write on message": ((), WriteSeq(MSGS, SeqPair(1, 0)), None),
    "increment on inter": ((), IncrSeq(INTER), None),
    "increment on message": ((), IncrSeq(MSGS), None),
    "id on message": ((), Append(MSGS, ID1), None),
    "message on term": ((), Append(TERM, MSG1), None),
    "message on inter": ((), Append(INTER, MSG1), None),
    "deleted above current": (ZERO, WriteSeq(SEQ, SeqPair(1, 2)), None),
    "negative current": (ZERO, WriteSeq(SEQ, SeqPair(-1, 0)), None),
    "negative deleted": (ZERO, WriteSeq(SEQ, SeqPair(0, -1)), None),
    # A recorded value replayed by the checker may be any JSON value.
    "object on term": ((), Append(TERM, {"foo": 1}), None),
    "list on inter": ((), Append(INTER, ({"foo": 1},)), None),
    "object removed from term": ((ID1,), Remove(TERM, {"foo": 1}), None),
    "object removed from message": ((MSG1,), Remove(MSGS, {"foo": 1}), None),
    "integer written as a pair": (ZERO, WriteSeq(SEQ, 7), None),
    "object written as a pair": (ZERO, WriteSeq(SEQ, {"foo": 1}), None),
}


@pytest.mark.parametrize("entry, op, expected", APPLY_CASES.values(), ids=APPLY_CASES)
def test_apply_op_table(entry, op, expected):
    if expected is None:
        with pytest.raises(ProtocolError):
            apply_op(entry, op)
        return
    assert apply_op(entry, op) == expected
    # Entries equal to the default (empty lists, 0/0 pairs) are not stored.
    data: dict = {}
    store_entry(data, op.key, expected[0])
    assert (op.key in data) == (expected[0] != default_entry(op.key.table))


# Two distinct entries of each table, and one valid op of each kind on each
# table that has it.
TWO_ENTRIES = {
    TERM: ((), (ID1, ID2)),
    INTER: ((ID2,), (ID1, ID2)),
    MSGS: ((MSG1,), (MSG1, MSG2)),
    SEQ: (ZERO, SeqPair(7, 2)),
}
ROW_OPS = [Read(key) for key in TWO_ENTRIES] + [
    Append(TERM, ID2), Append(INTER, ID1), Append(MSGS, MSG2),
    Remove(TERM, ID1), Remove(INTER, ID1), Remove(MSGS, ID1),
    WriteSeq(SEQ, SeqPair(4, 2)), IncrSeq(SEQ),
]


def test_every_op_row_is_checked():
    assert {type(op) for op in ROW_OPS} == set(wire.OP_SPECS)


@pytest.mark.parametrize("op", ROW_OPS, ids=lambda op: f"{type(op).__name__}-{op.key.table.name}")
def test_op_row_flags_match_apply_op(op):
    """What the op table says an op observes and writes is what apply_op does."""
    spec = wire.OP_SPECS[type(op)]
    entries = TWO_ENTRIES[op.key]
    (new_a, result_a), (new_b, result_b) = (apply_op(entry, op) for entry in entries)
    if spec.writes:
        assert (new_a, new_b) != entries
    else:  # the entry is returned as it is
        assert new_a is entries[0] and new_b is entries[1]
    # An op that does not observe its entry returns the same for both entries.
    assert (result_a != result_b) is spec.observes


class TestServe:
    def test_reply_echoes_request_id(self):
        node = one_node()
        for request_id in (1, 77, 2**40):
            opcode, _ = storage(node, Read(seqno_key(1)), request_id=request_id)
            assert opcode is Op.OK

    def test_truncated_frame_is_malformed(self):
        node = one_node()
        whole = wire.storage_request(5, bucket_of(seqno_key(1), B), Read(seqno_key(1)), NONE_CC)
        reply = node.handle_frame(whole[: len(whole) // 2])
        _, opcode, body = decode_reply(reply)
        assert opcode is Op.ERR
        assert wire.decode_err(body)[0] is ErrCode.MALFORMED

    def test_unknown_opcode_rejected(self):
        node = one_node()
        payload = wire.encode_header(3, None, Op.PING)
        payload = payload[:-1] + bytes([0x7F])  # overwrite opcode
        _, opcode, body = decode_reply(node.handle_frame(wire.frame(payload)))
        assert opcode is Op.ERR
        assert wire.decode_err(body)[0] is ErrCode.MALFORMED

    def test_routing_error_for_foreign_bucket(self):
        cluster = LoopbackCluster(["node0", "node1"])
        # Find a bucket owned by node1 and send it to node0.
        foreign = next(
            BucketId(TableId.SEQNO, i)
            for i in range(64)
            if cluster.layout.owner_of(BucketId(TableId.SEQNO, i)) == "node1"
        )
        key = next(
            seqno_key(u) for u in range(256) if bucket_of(seqno_key(u), 64) == foreign
        )
        frame_bytes = wire.storage_request(8, foreign, Read(key), NONE_CC)
        _, opcode, body = decode_reply(cluster.nodes["node0"].handle_frame(frame_bytes))
        assert opcode is Op.ERR
        assert wire.decode_err(body)[0] is ErrCode.ROUTING

    def test_ping(self):
        node = one_node()
        reply = node.handle_frame(wire.control_request(2, Op.PING))
        _, opcode, body = decode_reply(reply)
        assert (opcode, body) == (Op.OK, b"PONG")

    def test_delay_lower_bound(self):
        node = one_node()
        cc = CcBlock(Scheme.NONE, 1, 1, 1, delay_ms=30)
        start = time.monotonic()
        storage(node, Read(seqno_key(1)), cc=cc)
        assert time.monotonic() - start >= 0.030

    def test_per_bucket_ops_linearize(self):
        # Concurrent increments on one bucket must neither lose updates nor
        # reuse apply positions.
        node = one_node()
        key = seqno_key(3)
        bucket = bucket_of(key, B)
        seqs: list[int] = []
        lock = threading.Lock()

        def worker() -> None:
            for _ in range(25):
                opcode, body = storage(node, IncrSeq(key), bucket=bucket)
                assert opcode is Op.OK
                seq, _version, _payload = wire.decode_storage_ok(body)
                with lock:
                    seqs.append(seq)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seqs)) == 100
        payload = apply_ok(node, Read(key))
        assert wire.decode_entry(payload)[0] == SeqPair(100, 0)

    def test_distinct_buckets_do_not_block_each_other(self):
        # Each injected delay waits for the other one at a barrier: delays
        # served one after the other would break it and fail both requests.
        asked: list[float] = []
        barrier = threading.Barrier(2, timeout=5.0)

        def sleep(seconds: float) -> None:
            asked.append(seconds)
            barrier.wait()

        node = Node("node0", RingLayout.from_node_ids(["node0"]), sleep=sleep)
        cc = CcBlock(Scheme.NONE, 1, 1, 1, delay_ms=50)
        keys = [seqno_key(1), inter_key(1, 2)]
        assert bucket_of(keys[0], B) != bucket_of(keys[1], B)
        opcodes: list[Op] = []

        def read(key) -> None:
            opcodes.append(storage(node, Read(key), cc=cc)[0])

        threads = [threading.Thread(target=read, args=(key,)) for key in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert not any(t.is_alive() for t in threads)
        assert opcodes == [Op.OK, Op.OK]
        assert asked == [0.05, 0.05]


def _raw_frame(tag: int, opcode: int, rest: bytes, request_id: int = 4) -> bytes:
    return wire.frame(struct.pack(">QBIB", request_id, tag, 0, opcode) + rest)


_KEY = seqno_key(1)
_CC_BYTES = encode_cc(NONE_CC)


# Frames whose header or body names an unknown table, scheme or opcode, with
# the error code and message the node answers each with.
@pytest.mark.parametrize("frame_bytes,code,message", [
    pytest.param(_raw_frame(9, Op.READ, _CC_BYTES + _KEY.encode()),
                 ErrCode.PROTOCOL, "unknown table tag 9", id="storage-header-tag"),
    pytest.param(_raw_frame(9, Op.FGL_LOCK, (1).to_bytes(8, "big")),
                 ErrCode.PROTOCOL, "unknown table tag 9", id="cc-header-tag"),
    pytest.param(_raw_frame(TableId.SEQNO, Op.READ, bytes([0x55]) + _CC_BYTES[1:] + _KEY.encode()),
                 ErrCode.MALFORMED, "unknown scheme 85", id="cc-block-scheme"),
    pytest.param(_raw_frame(TableId.SEQNO, Op.READ, _CC_BYTES + bytes([9]) + _KEY.encode()[1:]),
                 ErrCode.MALFORMED, "unknown table tag 9", id="body-key-tag"),
    pytest.param(_raw_frame(TableId.SEQNO, 0x7F, b""),
                 ErrCode.MALFORMED, "unknown opcode 0x7f", id="opcode"),
])
def test_unknown_codes_get_pinned_errors(frame_bytes, code, message):
    _, opcode, body = decode_reply(one_node().handle_frame(frame_bytes))
    assert opcode is Op.ERR
    assert wire.decode_err(body) == (code, message)


# Every verb and control opcode, with the exact reply a node gives it. Each
# case sends its setup frames to a fresh node first; the replies to those are
# not checked here. Bucket verbs name the bucket of ``_KEY`` and transaction 7
# unless the case says otherwise.
RID = 4
_BUCKET = bucket_of(_KEY, B)
_LIST, _ID = inter_key(1, 2), MsgId(2, 1)
_TWO_NODES = RingLayout.from_node_ids(["node0", "node1"])  # node0 hosts the global lock


def _u64(n: int) -> bytes:
    return n.to_bytes(8, "big")


def _verb(opcode: Op, txn: int = 7, arg: int | None = None) -> bytes:
    bucket = None if opcode in (Op.GLOCK_ACQUIRE, Op.GLOCK_RELEASE) else _BUCKET
    return wire.cc_request(RID, opcode, bucket, txn, arg)


def _op(op, cc: CcBlock = NONE_CC) -> bytes:
    return wire.storage_request(RID, bucket_of(op.key, B), op, cc)


def _ok(body: bytes = b"") -> bytes:
    return wire.ok_reply(RID, body)


def _stored(result: bytes, seq: int = 1, version: int = 0) -> bytes:
    return _ok(_u64(seq) + _u64(version) + result)


def _err(code: ErrCode, message: str) -> bytes:
    return wire.err_reply(RID, code, message)


_LOCK_7 = [_verb(Op.FGL_LOCK)]
_OCC_7 = [_verb(Op.OCC_LOCK)]
_TAKEN_7 = [_verb(Op.SUP_TAKE), _verb(Op.SUP_UNLATCH)]
_OCC_WRITE = CcBlock(Scheme.OCC, 7, 1, 1, flags=wire.FLAG_COMMIT_APPLY)
_ZERO_PAIR_ENTRY = b"\x02" + _u64(0) + _u64(0)  # a read's reply: entry kind, then the pair


def _case(setup: list[bytes], frame_bytes: bytes, reply: bytes, node=one_node,
          ends_quiescent: bool = False):
    return node, setup, frame_bytes, reply, ends_quiescent


def _node1() -> Node:  # not the coordinator
    return Node("node1", _TWO_NODES)


_NODE0_BUCKET = next(BucketId(TableId.SEQNO, i) for i in range(64)
                     if _TWO_NODES.owner_of(BucketId(TableId.SEQNO, i)) == "node0")


_TERM_1 = BucketId(TableId.TERM, 1)

# name: (node factory, setup frames, request frame, exact reply, whether the
# node must be quiescent afterwards, every lock free)
REPLY_CASES = {
    "read": _case([], _op(Read(_KEY)), _stored(_ZERO_PAIR_ENTRY)),
    "append": _case([], _op(Append(_LIST, _ID)), _stored(_u64(2) + _u64(1))),
    "remove": _case([_op(Append(_LIST, _ID))], _op(Remove(_LIST, _ID)),
                    _stored(_u64(2) + _u64(1), seq=2)),
    "write seq": _case([], _op(WriteSeq(_KEY, SeqPair(4, 2))), _stored(_u64(4) + _u64(2))),
    "incr seq": _case([], _op(IncrSeq(_KEY)), _stored(_u64(1) + _u64(0))),
    "glock acquire": _case([], _verb(Op.GLOCK_ACQUIRE), _ok()),
    "glock release": _case([_verb(Op.GLOCK_ACQUIRE)], _verb(Op.GLOCK_RELEASE), _ok()),
    "fgl lock": _case([], _verb(Op.FGL_LOCK), _ok()),
    "fgl unlock": _case(_LOCK_7, _verb(Op.FGL_UNLOCK), _ok()),
    "fgl read while locked": _case(_LOCK_7, _op(Read(_KEY), CcBlock(Scheme.FGL, 7, 1, 1)),
                                   _stored(_ZERO_PAIR_ENTRY)),
    "sup take": _case([], _verb(Op.SUP_TAKE), _ok(_u64(1))),
    "sup take second version": _case(_TAKEN_7, _verb(Op.SUP_TAKE, txn=8), _ok(_u64(2))),
    "sup unlatch": _case([_verb(Op.SUP_TAKE)], _verb(Op.SUP_UNLATCH), _ok()),
    "ver release": _case(_TAKEN_7, _verb(Op.VER_RELEASE, arg=1), _ok()),
    "pesv read releasing": _case(_TAKEN_7, _op(Read(_KEY), CcBlock(
        Scheme.PESV, 7, 1, 1, flags=wire.FLAG_RELEASE_AFTER, private_version=1)),
        _stored(_ZERO_PAIR_ENTRY)),
    "occ lock": _case([], _verb(Op.OCC_LOCK), _ok()),
    "occ validate current": _case(_OCC_7, _verb(Op.OCC_VALIDATE, arg=0), _ok(b"\x01")),
    "occ validate stale": _case(_OCC_7, _verb(Op.OCC_VALIDATE, arg=3), _ok(b"\x00")),
    "occ validate unlocked": _case([], _verb(Op.OCC_VALIDATE, arg=0), _ok(b"\x01")),
    "occ validate locked by other": _case(_OCC_7, _verb(Op.OCC_VALIDATE, txn=9, arg=0),
                                          _ok(b"\x00")),
    "occ unlock": _case(_OCC_7, _verb(Op.OCC_UNLOCK), _ok()),
    "occ unlock bumps version": _case([*_OCC_7, _verb(Op.OCC_UNLOCK, arg=1)], _op(Read(_KEY)),
                                      _stored(_ZERO_PAIR_ENTRY, version=1)),
    "occ unlock by non-owner keeps the version": _case(
        [*_OCC_7, _verb(Op.OCC_UNLOCK, txn=9, arg=1)], _op(Read(_KEY)), _stored(_ZERO_PAIR_ENTRY)),
    "occ commit apply": _case(_OCC_7, _op(WriteSeq(_KEY, SeqPair(4, 2)), _OCC_WRITE),
                              _stored(_u64(4) + _u64(2))),
    "ping": _case([], wire.control_request(RID, Op.PING), _ok(b"PONG")),
    "snapshot": _case([], wire.control_request(RID, Op.SNAPSHOT), _ok(b"HELSNAP1" + _u64(0))),
    "shutdown": _case([], wire.control_request(RID, Op.SHUTDOWN), _ok()),
    "truncated txn id": _case(
        [], wire.frame(wire.encode_header(RID, _BUCKET, Op.FGL_LOCK) + bytes(4)),
        _err(ErrCode.MALFORMED, "truncated txn id")),
    "ver release without version": _case(_TAKEN_7, _verb(Op.VER_RELEASE),
                                         _err(ErrCode.MALFORMED, "missing version")),
    "occ validate without version": _case(_OCC_7, _verb(Op.OCC_VALIDATE),
                                          _err(ErrCode.MALFORMED, "missing version")),
    "fgl unlock by non-owner": _case(_LOCK_7, _verb(Op.FGL_UNLOCK, txn=9),
                                     _err(ErrCode.PROTOCOL, "lock not held by 9")),
    "fgl unlock unheld": _case([], _verb(Op.FGL_UNLOCK, txn=9),
                               _err(ErrCode.PROTOCOL, "lock not held by 9")),
    "occ unlock by non-owner": _case(_OCC_7, _verb(Op.OCC_UNLOCK, txn=9),
                                     _err(ErrCode.PROTOCOL, "lock not held by 9")),
    "sup unlatch by non-owner": _case([_verb(Op.SUP_TAKE)], _verb(Op.SUP_UNLATCH, txn=9),
                                      _err(ErrCode.PROTOCOL, "lock not held by 9")),
    "glock release by non-owner": _case([_verb(Op.GLOCK_ACQUIRE)], _verb(Op.GLOCK_RELEASE, txn=9),
                                        _err(ErrCode.PROTOCOL, "lock not held by 9")),
    # A version ticket that is not waiting is refused: its turn would never come.
    "ver release twice": _case(
        [*_TAKEN_7, _verb(Op.VER_RELEASE, arg=1)], _verb(Op.VER_RELEASE, arg=1),
        _err(ErrCode.PROTOCOL, "ticket 1 is not waiting: released 1, taken 1")),
    "ver release of a version never taken": _case(
        _TAKEN_7, _verb(Op.VER_RELEASE, arg=2),
        _err(ErrCode.PROTOCOL, "ticket 2 is not waiting: released 0, taken 1")),
    "pesv read with a released version": _case(
        [*_TAKEN_7, _verb(Op.VER_RELEASE, arg=1)],
        _op(Read(_KEY), CcBlock(Scheme.PESV, 7, 1, 1, private_version=1)),
        _err(ErrCode.PROTOCOL, "ticket 1 is not waiting: released 1, taken 1")),
    "pesv read with version 0": _case(
        _TAKEN_7, _op(Read(_KEY), CcBlock(Scheme.PESV, 7, 1, 1, private_version=0)),
        _err(ErrCode.PROTOCOL, "ticket 0 is not waiting: released 0, taken 1")),
    "fgl read without lock": _case([], _op(Read(_KEY), CcBlock(Scheme.FGL, 7, 1, 1)),
                                   _err(ErrCode.PROTOCOL,
                                        "bucket lock not held by the accessing transaction")),
    "occ write before commit": _case(
        _OCC_7, _op(WriteSeq(_KEY, SeqPair(4, 2)), CcBlock(Scheme.OCC, 7, 1, 1)),
        _err(ErrCode.PROTOCOL, "optimistic writes must be applied at commit")),
    "occ commit apply without lock": _case([], _op(WriteSeq(_KEY, SeqPair(4, 2)), _OCC_WRITE),
                                           _err(ErrCode.PROTOCOL,
                                                "commit apply without holding the commit lock")),
    "snapshot while locked": _case(_LOCK_7, wire.control_request(RID, Op.SNAPSHOT),
                                   _err(ErrCode.REFUSED, "transactions in flight")),
    "ok as request": _case([], wire.control_request(RID, Op.OK),
                           _err(ErrCode.PROTOCOL, "opcode 0x80 is not a request")),
    "err as request": _case([], wire.control_request(RID, Op.ERR),
                            _err(ErrCode.PROTOCOL, "opcode 0x81 is not a request")),
    "glock acquire off the coordinator": _case(
        [], _verb(Op.GLOCK_ACQUIRE), _err(ErrCode.ROUTING, "global lock is not hosted on node1"),
        node=lambda: Node("node1", _TWO_NODES)),
    # Which check answers first: the bucket before a verb's argument, a verb's
    # length before its routing, and a storage op's bucket before its cc block.
    "ver release with unknown tag and no version": _case(
        [], _raw_frame(9, Op.VER_RELEASE, _u64(7)), _err(ErrCode.PROTOCOL, "unknown table tag 9")),
    "truncated glock acquire off the coordinator": _case(
        [], wire.frame(wire.encode_header(RID, None, Op.GLOCK_ACQUIRE) + bytes(4)),
        _err(ErrCode.MALFORMED, "truncated txn id"), node=_node1),
    "read of a foreign bucket with a truncated cc block": _case(
        [], wire.frame(wire.encode_header(RID, _NODE0_BUCKET, Op.READ) + _CC_BYTES[:2]),
        _err(ErrCode.ROUTING, f"bucket SEQNO:{_NODE0_BUCKET.index} is not owned by node1"),
        node=_node1),
    # A verb body is exactly a txn id, or a txn id and an argument.
    "occ validate with a 12-byte body": _case(
        [], wire.frame(wire.encode_header(RID, _BUCKET, Op.OCC_VALIDATE) + bytes(12)),
        _err(ErrCode.MALFORMED, "verb body must be 8 or 16 bytes")),
    "fgl lock with bytes after its argument": _case(
        [], wire.frame(wire.cc_request(RID, Op.FGL_LOCK, _TERM_1, 7, 5)[4:] + b"junk"),
        _err(ErrCode.MALFORMED, "verb body must be 8 or 16 bytes"), ends_quiescent=True),
    "fgl lock with an 11-byte body": _case(
        [], wire.frame(wire.encode_header(RID, _TERM_1, Op.FGL_LOCK) + _u64(7) + bytes(3)),
        _err(ErrCode.MALFORMED, "verb body must be 8 or 16 bytes"), ends_quiescent=True),
    # Frame-level refusals. A frame whose header cannot be read is answered
    # with request id 0.
    "truncated frame length": _case(
        [], b"\x00\x00\x00", wire.err_reply(0, ErrCode.MALFORMED, "truncated frame length")),
    "frame length mismatch": _case(
        [], _op(Read(_KEY))[:-1], wire.err_reply(0, ErrCode.MALFORMED, "frame length mismatch")),
    "payload over the limit": _case(
        [], (wire.MAX_FRAME + 1).to_bytes(4, "big") + _op(Read(_KEY))[4:],
        wire.err_reply(0, ErrCode.MALFORMED,
                       f"frame payload of {wire.MAX_FRAME + 1} bytes exceeds limit")),
    "truncated frame header": _case(
        [], wire.frame(wire.encode_header(RID, _BUCKET, Op.READ)[:-1]),
        wire.err_reply(0, ErrCode.MALFORMED, "truncated frame header")),
    "truncated concurrency block": _case(
        [], wire.frame(wire.encode_header(RID, _BUCKET, Op.READ) + _CC_BYTES[:-1]),
        _err(ErrCode.MALFORMED, "truncated concurrency block")),
    "trailing bytes after the storage body": _case(
        [], wire.frame(wire.encode_header(RID, _BUCKET, Op.READ) + _CC_BYTES + _KEY.encode()
                       + b"!"),
        _err(ErrCode.MALFORMED, "trailing bytes after storage body")),
    "key table that does not match the bucket table": _case(
        [], wire.frame(wire.encode_header(RID, _BUCKET, Op.READ) + _CC_BYTES
                       + term_key(1, 2).encode()),
        _err(ErrCode.MALFORMED, "key table does not match bucket table")),
}


@pytest.mark.parametrize("make_node, setup, frame_bytes, reply, ends_quiescent",
                         REPLY_CASES.values(), ids=REPLY_CASES)
def test_node_reply_table(make_node, setup, frame_bytes, reply, ends_quiescent):
    # Served on a daemon thread under a deadline, so that a frame the node
    # waits on forever fails its case instead of hanging the suite.
    node = make_node()
    replies = []

    def serve() -> None:
        for earlier in setup:
            node.handle_frame(earlier)
        replies.append(node.handle_frame(frame_bytes))

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    server.join(5.0)
    assert not server.is_alive(), "the node is still waiting on the frame"
    assert replies == [reply]
    if ends_quiescent:
        assert node.quiescent()


def test_every_opcode_byte_gets_a_well_formed_reply():
    # A byte the node serves gets its server's reply; any other byte gets
    # MALFORMED. An empty body is malformed for every storage op and verb.
    replies = {}
    for byte in range(256):
        request_id, opcode, body = decode_reply(
            one_node().handle_frame(_raw_frame(TableId.SEQNO, byte, b"")))
        assert request_id == RID
        replies[byte] = "OK" if opcode is Op.OK else wire.decode_err(body)[0].name
    expected = dict.fromkeys(range(256), "MALFORMED")
    expected.update(dict.fromkeys((0x20, 0x21, 0x22), "OK"))
    expected.update(dict.fromkeys((0x80, 0x81), "PROTOCOL"))
    assert replies == expected


def _served(node: Node, frame_bytes: bytes) -> tuple[Op, object]:
    """(OK, body) or (ERR, (code, message)) of the node's reply."""
    _, opcode, body = decode_reply(node.handle_frame(frame_bytes))
    return opcode, wire.decode_err(body) if opcode is Op.ERR else body


class TestHeaderRoutes:
    """A node routes each header once and then looks it up; a refused header
    is never stored, so it is refused again."""

    def test_refused_headers_are_not_stored(self):
        node = _node1()
        for _ in range(2):
            assert _served(node, wire.cc_request(RID, Op.FGL_LOCK, _NODE0_BUCKET, 7)) == (
                Op.ERR, (ErrCode.ROUTING,
                         f"bucket SEQNO:{_NODE0_BUCKET.index} is not owned by node1"))
            assert _served(node, _raw_frame(9, Op.FGL_LOCK, _u64(7))) == (
                Op.ERR, (ErrCode.PROTOCOL, "unknown table tag 9"))
        assert node._owned == {}
        owned = next(BucketId(TableId.SEQNO, i) for i in range(64)
                     if _TWO_NODES.owner_of(BucketId(TableId.SEQNO, i)) == "node1")
        assert _served(node, wire.cc_request(RID, Op.FGL_LOCK, owned, 7)) == (Op.OK, b"")
        assert node._owned == {(TableId.SEQNO, owned.index): owned}

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(store, "OWNER_CACHE_LIMIT", 3)
        node = one_node()
        buckets = [BucketId(TableId.TERM, i) for i in range(6)]
        for bucket in buckets:
            assert _served(node, wire.cc_request(RID, Op.FGL_LOCK, bucket, 7)) == (Op.OK, b"")
        assert list(node._owned.values()) == buckets[:3]
        for bucket in buckets:  # past the limit a header is routed each time
            assert _served(node, wire.cc_request(RID, Op.FGL_UNLOCK, bucket, 7)) == (Op.OK, b"")


# A held lock, version or latch, as (frames that take it, frames that let it go).
HOLD_CASES = {
    "fgl": ([_verb(Op.FGL_LOCK)], [_verb(Op.FGL_UNLOCK)]),
    "occ": ([_verb(Op.OCC_LOCK)], [_verb(Op.OCC_UNLOCK)]),
    "glock": ([_verb(Op.GLOCK_ACQUIRE)], [_verb(Op.GLOCK_RELEASE)]),
    "sup-latched": ([_verb(Op.SUP_TAKE)], [_verb(Op.SUP_UNLATCH), _verb(Op.VER_RELEASE, arg=1)]),
    "sup-version": (_TAKEN_7, [_verb(Op.VER_RELEASE, arg=1)]),
}

# (take frame, release frame) per FIFO lock verb.
LOCK_VERBS = {
    "fgl": (Op.FGL_LOCK, Op.FGL_UNLOCK),
    "occ": (Op.OCC_LOCK, Op.OCC_UNLOCK),
    "glock": (Op.GLOCK_ACQUIRE, Op.GLOCK_RELEASE),
}


@pytest.mark.parametrize("lock, unlock", LOCK_VERBS.values(), ids=LOCK_VERBS)
def test_lock_granted_in_arrival_order(lock, unlock):
    node = one_node()
    assert node.handle_frame(_verb(lock, txn=1)) == _ok()
    granted: list[int] = []

    def waiter(txn: int) -> None:
        assert node.handle_frame(_verb(lock, txn=txn)) == _ok()
        granted.append(txn)
        assert node.handle_frame(_verb(unlock, txn=txn)) == _ok()

    threads = []
    for txn in (2, 3, 4, 5):
        threads.append(threading.Thread(target=waiter, args=(txn,)))
        threads[-1].start()
        time.sleep(0.030)  # each waiter queues before the next one arrives
    assert granted == []
    assert node.handle_frame(_verb(unlock, txn=1)) == _ok()
    for t in threads:
        t.join(5.0)
    assert granted == [2, 3, 4, 5]
    assert node.quiescent()


@pytest.mark.parametrize("lock, unlock", LOCK_VERBS.values(), ids=LOCK_VERBS)
def test_racing_first_use_admits_one_holder(lock, unlock):
    # Six threads race to create each bucket's lock on first use and then
    # update a counter under it; a second lock for one bucket would let two
    # holders in and lose updates.
    node = one_node()
    buckets = [BucketId(TableId.SEQNO, i) for i in range(8)]
    counts = dict.fromkeys(buckets, 0)

    def worker(txn: int) -> None:
        for bucket in buckets:
            for _ in range(20):
                node.handle_frame(wire.cc_request(1, lock, bucket, txn))
                seen = counts[bucket]
                time.sleep(0)
                counts[bucket] = seen + 1
                node.handle_frame(wire.cc_request(2, unlock, bucket, txn))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(txn,), daemon=True)
                   for txn in range(1, 7)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30.0
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert counts == dict.fromkeys(buckets, 6 * 20)
    assert node.quiescent()


class TestSnapshot:
    def test_fresh_node_snapshot_is_empty(self):
        node = one_node()
        reply = node.handle_frame(wire.control_request(1, Op.SNAPSHOT))
        _, opcode, body = decode_reply(reply)
        assert opcode is Op.OK
        assert unpack_snapshot(body) == []

    @pytest.mark.parametrize("hold, release", HOLD_CASES.values(), ids=HOLD_CASES)
    def test_snapshot_refused_while_lock_held(self, hold, release):
        node = one_node()
        snapshot = wire.control_request(RID, Op.SNAPSHOT)
        refused = _err(ErrCode.REFUSED, "transactions in flight")
        for frame_bytes in hold:
            assert decode_reply(node.handle_frame(frame_bytes))[1] is Op.OK
        for frame_bytes in release:
            assert node.handle_frame(snapshot) == refused
            assert node.handle_frame(frame_bytes) == _ok()
        assert node.handle_frame(snapshot) == _ok(b"HELSNAP1" + _u64(0))

    def test_snapshot_refused_while_an_op_is_in_flight(self):
        # No lock is held: only the node's count of frames in service shows the read.
        sleeping = threading.Event()

        def sleep(seconds: float) -> None:
            sleeping.set()
            time.sleep(seconds)

        node = Node("node0", RingLayout.from_node_ids(["node0"]), sleep=sleep)
        delayed = CcBlock(Scheme.NONE, 1, 1, 1, delay_ms=300)
        reader = threading.Thread(target=node.handle_frame, args=(_op(Read(_KEY), delayed),))
        reader.start()
        assert sleeping.wait(5.0)
        snapshot = wire.control_request(RID, Op.SNAPSHOT)
        assert node.handle_frame(snapshot) == _err(ErrCode.REFUSED, "transactions in flight")
        reader.join(5.0)
        assert not reader.is_alive()
        assert node.handle_frame(snapshot) == _ok(b"HELSNAP1" + _u64(0))

    def test_snapshot_sorted_and_stable(self):
        node = one_node()
        apply_ok(node, WriteSeq(seqno_key(3), SeqPair(2, 1)))
        apply_ok(node, Append(inter_key(1, 2), MsgId(2, 1)))
        apply_ok(node, Append(message_key(2), Message(MsgId(2, 1), 1, 2, (0,), 0)))
        a = node.engine.dump_entries()
        b = node.engine.dump_entries()
        assert a == b
        assert [k for k, _ in a] == sorted(k for k, _ in a)

    def test_defaults_are_dropped_from_state(self):
        node = one_node()
        key = inter_key(1, 2)
        apply_ok(node, Append(key, MsgId(2, 1)))
        apply_ok(node, Remove(key, MsgId(2, 1)))
        apply_ok(node, WriteSeq(seqno_key(1), SeqPair(4, 2)))
        apply_ok(node, WriteSeq(seqno_key(1), SeqPair(0, 0)))
        assert node.engine.dump_entries() == []

    def test_merge_snapshots_round_trip(self):
        node_a, node_b = one_node(), one_node()
        apply_ok(node_a, WriteSeq(seqno_key(1), SeqPair(1, 0)))
        apply_ok(node_b, WriteSeq(seqno_key(2), SeqPair(2, 0)))
        merged = merge_snapshots([
            pack_snapshot(node_a.engine.dump_entries()),
            pack_snapshot(node_b.engine.dump_entries()),
        ])
        entries = unpack_snapshot(merged)
        assert len(entries) == 2
        assert [k for k, _ in entries] == sorted(k for k, _ in entries)


class _SliceCounter(bytes):
    """A dump that adds up the length of every slice taken of it."""

    sliced = 0

    def __getitem__(self, index):
        part = super().__getitem__(index)
        if isinstance(index, slice):
            type(self).sliced += len(part)
        return part


def _words_message(words: int, seed: int) -> Message:
    content = tuple((seed * 0x9E3779B97F4A7C15 + i * 0xBF58476D1CE4E5B9) % 2**64
                    for i in range(words))
    return Message(MsgId(seed, seed + 1), seed + 2, seed, content, seed + 3)


def _node_dump(node: int) -> bytes:
    """Three kinds of entry per user; message lists hold 0-, 1- and 300-word messages."""
    entries = []
    for user in range(node, 40, 3):
        messages = tuple(_words_message(n, user) for n in (0, 1, 300)[: user % 4])
        entries.append((message_key(user).encode(),
                        wire.encode_entry(TableId.MESSAGE, messages)))
        entries.append((seqno_key(user).encode(),
                        wire.encode_entry(TableId.SEQNO, SeqPair(user, user // 2))))
        entries.append((term_key(user, 3).encode(),
                        wire.encode_entry(TableId.TERM, tuple(MsgId(user, s)
                                                              for s in range(user % 3)))))
    entries.sort()
    return pack_snapshot(entries)


class TestSnapshotCodec:
    def test_unpack_walks_the_dump_once(self):
        entries = sorted(
            (term_key(user, kw).encode(),
             wire.encode_entry(TableId.TERM, tuple(MsgId(user, s) for s in range(kw % 3))))
            for user in range(50) for kw in range(40)
        )
        dump = pack_snapshot(entries)
        _SliceCounter.sliced = 0
        assert unpack_snapshot(_SliceCounter(dump)) == entries
        assert len(entries) == 2000
        # Slicing the tail of the dump for every entry is quadratic.
        assert _SliceCounter.sliced <= 2 * len(dump)

    @pytest.mark.parametrize("dump, text", [
        (b"HELSNAP2" + _u64(0), "bad snapshot header"),
        (b"HELSNAP1" + _u64(1) + seqno_key(1).encode() + b"\x07", "unknown entry kind 7"),
        (b"HELSNAP1" + _u64(1) + term_key(1, 2).encode() + b"\x00\x00\x00",
         "truncated entry count"),
        (b"HELSNAP1" + _u64(1) + term_key(1, 2).encode()
         + wire.encode_entry(TableId.TERM, (MsgId(1, 1), MsgId(1, 2)))[:-1], "truncated MsgId"),
        (b"HELSNAP1" + _u64(1) + message_key(1).encode()
         + wire.encode_entry(TableId.MESSAGE, (_words_message(3, 1),))[:-9],
         "truncated message content"),
        (b"HELSNAP1" + _u64(1) + seqno_key(1).encode()
         + wire.encode_entry(TableId.SEQNO, SeqPair(1, 0))[:-1], "truncated sequence pair"),
        (b"HELSNAP1" + _u64(1) + seqno_key(1).encode()[:-1], "truncated key encoding"),
        (b"HELSNAP1" + _u64(2) + seqno_key(1).encode()
         + wire.encode_entry(TableId.SEQNO, SeqPair(1, 0)), "empty key encoding"),
        (b"HELSNAP1" + _u64(0) + b"\x00", "trailing bytes in snapshot"),
    ], ids=["magic", "entry kind", "count", "item", "message content", "pair", "key",
            "missing entry", "trailing"])
    def test_malformed_dump_refused(self, dump, text):
        with pytest.raises(ProtocolError, match=f"^{text}$"):
            unpack_snapshot(dump)

    @pytest.mark.parametrize("key, table, entry, text", [
        (seqno_key(1), TableId.TERM, (MsgId(1, 1),), "entry kind 0 does not match table SEQNO"),
        (term_key(1, 2), TableId.SEQNO, SeqPair(1, 0), "entry kind 2 does not match table TERM"),
        (inter_key(1, 2), TableId.MESSAGE, (_words_message(1, 1),),
         "entry kind 1 does not match table INTER"),
        (message_key(1), TableId.INTER, (MsgId(1, 1),), "entry kind 0 does not match table MESSAGE"),
    ], ids=["ids-under-seqno", "pair-under-term", "messages-under-inter", "ids-under-message"])
    def test_entry_of_another_table_refused(self, key, table, entry, text):
        dump = pack_snapshot([(key.encode(), wire.encode_entry(table, entry))])
        with pytest.raises(ProtocolError, match=f"^{text}$"):
            unpack_snapshot(dump)
        with pytest.raises(ProtocolError, match=f"^{text}$"):
            merge_snapshots([pack_snapshot([]), dump])

    # sha256 of the merge of three ``_node_dump``s, recorded from the unpack
    # that decoded every entry to find its length.
    MERGED_SHA256 = "32874fc1bc7ce9a92c21c576b10a16bbc4f230a06d62d8c7c42abeef888985fb"

    def test_walk_yields_stored_messages(self):
        messages = [m for _, _, key, entry in walk_snapshot(_node_dump(1))
                    if key.table is TableId.MESSAGE for m in entry]
        assert len(messages) == 19
        assert all(type(m) is Message for m in messages)

    def test_merge_of_message_lists_is_pinned(self):
        merged = merge_snapshots([_node_dump(node) for node in range(3)])
        assert len(merged) == 29800
        assert hashlib.sha256(merged).hexdigest() == self.MERGED_SHA256
        assert [k for k, _ in unpack_snapshot(merged)] == sorted(
            k for node in range(3) for k, _ in unpack_snapshot(_node_dump(node)))
