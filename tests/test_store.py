"""Storage engine semantics, the frame handler, and snapshots."""

from __future__ import annotations

import threading
import time

import pytest

from helenos import wire
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
from helenos.store import Node, StorageEngine, merge_snapshots, pack_snapshot, unpack_snapshot
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
    request_id_r, opcode, body = wire.decode_reply(reply)
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
        _, opcode, body = wire.decode_reply(reply)
        assert opcode is Op.ERR
        assert wire.decode_err(body)[0] is ErrCode.MALFORMED

    def test_unknown_opcode_rejected(self):
        node = one_node()
        payload = wire.encode_header(3, None, Op.PING)
        payload = payload[:-1] + bytes([0x7F])  # overwrite opcode
        _, opcode, body = wire.decode_reply(node.handle_frame(wire.frame(payload)))
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
        _, opcode, body = wire.decode_reply(cluster.nodes["node0"].handle_frame(frame_bytes))
        assert opcode is Op.ERR
        assert wire.decode_err(body)[0] is ErrCode.ROUTING

    def test_ping(self):
        node = one_node()
        reply = node.handle_frame(wire.control_request(2, Op.PING))
        _, opcode, body = wire.decode_reply(reply)
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
        node = one_node()
        cc = CcBlock(Scheme.NONE, 1, 1, 1, delay_ms=50)
        keys = [seqno_key(1), inter_key(1, 2)]
        assert bucket_of(keys[0], B) != bucket_of(keys[1], B)
        start = time.monotonic()
        threads = [
            threading.Thread(target=storage, args=(node, Read(k)), kwargs={"cc": cc})
            for k in keys
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.monotonic() - start
        assert 0.050 <= elapsed < 0.095, f"delays serialized: {elapsed:.3f}s"


class TestSnapshot:
    def test_fresh_node_snapshot_is_empty(self):
        node = one_node()
        reply = node.handle_frame(wire.control_request(1, Op.SNAPSHOT))
        _, opcode, body = wire.decode_reply(reply)
        assert opcode is Op.OK
        assert unpack_snapshot(body) == []

    def test_snapshot_refused_while_lock_held(self):
        node = one_node()
        bucket = BucketId(TableId.SEQNO, 0)
        node.handle_frame(wire.cc_request(1, Op.FGL_LOCK, bucket, txn_id=7))
        _, opcode, body = wire.decode_reply(node.handle_frame(wire.control_request(2, Op.SNAPSHOT)))
        assert opcode is Op.ERR
        assert wire.decode_err(body)[0] is ErrCode.REFUSED
        node.handle_frame(wire.cc_request(3, Op.FGL_UNLOCK, bucket, txn_id=7))
        _, opcode, _ = wire.decode_reply(node.handle_frame(wire.control_request(4, Op.SNAPSHOT)))
        assert opcode is Op.OK

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
