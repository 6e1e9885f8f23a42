"""Metric aggregation against a hand-computed fixture, and the log codec."""

from __future__ import annotations

import dataclasses
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from helenos.config import load_scenario
from helenos.driver import run_in_process
from helenos.errors import VerificationError
from helenos.metrics import (
    REPORT_COLUMNS,
    TXN_KINDS,
    BucketOp,
    ClientEnd,
    ClientStart,
    Commit,
    EventSink,
    RetryStart,
    TxnStart,
    aggregate,
    read_event_log,
    write_event_log,
)
from helenos.model import (
    BucketId,
    Message,
    MsgId,
    SeqPair,
    TableId,
    inter_key,
    message_key,
    seqno_key,
    term_key,
)
from helenos.wire import SPEC_BY_KIND, Scheme

S = 1_000_000_000  # ns per second
BUCKET = BucketId(TableId.SEQNO, 3)


def fixture_events() -> list:
    """Two clients, three transactions, one of them retried twice."""
    ev = [
        ClientStart(0 * S, 0),
        ClientStart(1 * S, 1),
        TxnStart(0 * S, 101, 0, "send_msg"),
        Commit(2 * S, 101, 0, 1),
        TxnStart(3 * S, 102, 0, "get_messages"),
        RetryStart(4 * S, 102, 0, 2),
        RetryStart(5 * S, 102, 0, 3),
        Commit(6 * S, 102, 0, 3),
        TxnStart(int(1.5 * S), 201, 1, "send_msg"),
        Commit(int(2.5 * S), 201, 1, 1),
        ClientEnd(9 * S, 1),
        ClientEnd(10 * S, 0),
    ]
    for i in range(5):
        ev.append(BucketOp((7 + i) * S // 4, 101, 0, 1, BUCKET, i + 1,
                           "read", seqno_key(1), SeqPair(0, 0), i + 1))
    return ev


class TestAggregateFixture:
    # Every expected value below is computed by elementary arithmetic from
    # the fixture definition, independently of the aggregation code:
    #   commits: txns 101, 102, 201                    -> 3
    #   attempts: 1 + 3 + 1                            -> 5
    #   flow times: 2s, 3s, 1s                         -> total 6s, mean 2s
    #   per kind: send_msg (2+1)/2 = 1.5s, get_messages 3s
    #   startup: 2s (never retried) + (4-3)s + 1s      -> 4s
    #   retry execution: (6-4)s                        -> 2s
    #   parallel: max end 10s - min start 0s           -> 10s
    #   throughput: 3 / 10s                            -> 0.3/s
    #   abort ratio: 2/5; retry rate: 5/3
    #   ratio: 6s / (2 clients * 10s)                  -> 0.3

    def test_counts_exact(self):
        r = aggregate(fixture_events())
        assert r.commits == 3
        assert r.attempts == 5
        assert r.aborted_attempts == 2
        assert r.total_bucket_ops == 5
        assert r.clients == 2
        assert r.abort_ratio == 2 / 5
        assert r.retry_rate == 5 / 3

    def test_times_within_accumulation_error(self):
        r = aggregate(fixture_events())
        us = 1e-6
        assert abs(r.mean_flow_time_s - 2.0) < us
        assert abs(r.total_txn_time_s - 6.0) < us
        assert abs(r.total_retry_time_s - 2.0) < us
        assert abs(r.total_startup_time_s - 4.0) < us
        assert abs(r.parallel_time_s - 10.0) < us
        assert abs(r.throughput - 0.3) < us
        assert abs(r.txn_exec_ratio - 0.3) < us
        assert abs(r.flow_time_by_kind["send_msg"] - 1.5) < us
        assert abs(r.flow_time_by_kind["get_messages"] - 3.0) < us

    def test_invariants_hold(self):
        r = aggregate(fixture_events())
        r.check_invariants()
        assert r.retry_rate >= 1.0
        assert 0.0 <= r.abort_ratio < 1.0
        assert 0.0 <= r.txn_exec_ratio <= 1.0
        assert r.abort_ratio == 0 or r.retry_rate > 1.0

    @pytest.mark.parametrize("change", [
        {"retry_rate": 0.5},
        {"abort_ratio": 1.0},
        {"txn_exec_ratio": 1.5},
        {"parallel_time_s": 1e9},
        {"commits_by_kind": {"send_msg": 1}},
    ], ids=["retry_rate", "abort_ratio", "exec_ratio", "parallel_time", "per_kind"])
    def test_inconsistent_report_raises(self, change):
        # A raised error, not an assert, so that it also holds under python -O.
        report = dataclasses.replace(aggregate(fixture_events()), **change)
        with pytest.raises(VerificationError):
            report.check_invariants()

    def test_pure_function_of_stream(self):
        assert aggregate(fixture_events()) == aggregate(fixture_events())

    def test_single_txn_arithmetic(self):
        events = [
            ClientStart(0, 0),
            TxnStart(0, 1, 0, "probe"),
            Commit(2 * S, 1, 0, 1),
            ClientEnd(2 * S, 0),
        ]
        r = aggregate(events)
        assert r.throughput == 0.5
        assert r.mean_flow_time_s == 2.0
        assert r.txn_exec_ratio == 1.0

    def test_attempts_come_from_the_commit_row(self):
        # No retry_start row: the commit row alone says attempt 2 committed,
        # the attempt whose ops the checker keeps.
        events = [
            ClientStart(0, 0),
            TxnStart(0, 1, 0, "probe"),
            Commit(2 * S, 1, 0, 2),
            ClientEnd(2 * S, 0),
        ]
        r = aggregate(events)
        assert r.attempts == 2
        assert r.aborted_attempts == 1

    def test_abort_ratio_zero_iff_retry_rate_one(self):
        r = aggregate(fixture_events())
        assert (r.abort_ratio == 0.0) == (r.retry_rate == 1.0)

    def test_per_kind_commit_counts_sum_to_total(self):
        r = aggregate(fixture_events())
        assert r.commits_by_kind == {"send_msg": 2, "get_messages": 1}
        assert sum(r.commits_by_kind.values()) == r.commits

    def test_incomplete_stream_refused(self):
        events = fixture_events()[:-6]  # drop an end plus bucket ops
        with pytest.raises(VerificationError):
            aggregate([e for e in events if not isinstance(e, ClientEnd)])

    def test_uncommitted_txn_refused(self):
        events = [
            ClientStart(0, 0),
            TxnStart(0, 1, 0, "probe"),
            ClientEnd(S, 0),
        ]
        with pytest.raises(VerificationError):
            aggregate(events)


class TestEventLogCodec:
    def events_with_values(self) -> list:
        """Every event type, and every value shape the ``op`` column encodes."""
        msg = Message(MsgId(2, 1), 1, 2, (4, 5), 7)
        bare = Message(MsgId(3, 9), 4, 3, (), 0)
        return [
            ClientStart(5, 0),
            TxnStart(6, 1, 0, "send_msg"),
            BucketOp(7, 1, 0, 1, BucketId(TableId.MESSAGE, 2), 1,
                     "append", term_key(2, 4), msg, 11),
            BucketOp(8, 1, 0, 1, BUCKET, 2, "incr_seq", seqno_key(2), SeqPair(1, 0), 12),
            BucketOp(9, 1, 0, 1, BucketId(TableId.INTER, 0), 3,
                     "read", seqno_key(2), (MsgId(2, 1), MsgId(2, 2)), 13),
            BucketOp(9, 1, 0, 1, BucketId(TableId.TERM, 5), 4,
                     "remove", term_key(2, 4), MsgId(2, 1), 14),
            BucketOp(9, 1, 0, 1, BucketId(TableId.TERM, 6), 5,
                     "read", term_key(3, 8), (), 1),
            BucketOp(9, 1, 0, 1, BucketId(TableId.MESSAGE, 1), 6,
                     "read", message_key(3), (msg, bare), 2),
            BucketOp(9, 1, 0, 1, BUCKET, 7, "write_seq", seqno_key(2), SeqPair(4, 2), 15),
            # Any other value is written as plain JSON.
            BucketOp(9, 1, 0, 1, BUCKET, 8, "read", inter_key(1, 2), 17, 16),
            RetryStart(10, 1, 0, 2),
            Commit(11, 1, 0, 2),
            ClientEnd(12, 0),
        ]

    # The event-log columns are frozen: these bytes must never change.
    GOLDEN = (
        '5\tclient_start\t-\t0\t-\t-\t-\n'
        '6\ttxn_start\t1\t0\t1\t-\tsend_msg\n'
        '7\tbucket_op\t1\t0\t1\tMESSAGE:2\t{"kind":"append","i":1,"key":"TERM:2,4",'
        '"value":{"m":[[2,1],1,2,[4,5],7]},"seq":11}\n'
        '8\tbucket_op\t1\t0\t1\tSEQNO:3\t{"kind":"incr_seq","i":2,"key":"SEQNO:2",'
        '"value":{"s":[1,0]},"seq":12}\n'
        '9\tbucket_op\t1\t0\t1\tINTER:0\t{"kind":"read","i":3,"key":"SEQNO:2",'
        '"value":{"l":[{"i":[2,1]},{"i":[2,2]}]},"seq":13}\n'
        '9\tbucket_op\t1\t0\t1\tTERM:5\t{"kind":"remove","i":4,"key":"TERM:2,4",'
        '"value":{"i":[2,1]},"seq":14}\n'
        '9\tbucket_op\t1\t0\t1\tTERM:6\t{"kind":"read","i":5,"key":"TERM:3,8",'
        '"value":{"l":[]},"seq":1}\n'
        '9\tbucket_op\t1\t0\t1\tMESSAGE:1\t{"kind":"read","i":6,"key":"MESSAGE:3",'
        '"value":{"l":[{"m":[[2,1],1,2,[4,5],7]},{"m":[[3,9],4,3,[],0]}]},"seq":2}\n'
        '9\tbucket_op\t1\t0\t1\tSEQNO:3\t{"kind":"write_seq","i":7,"key":"SEQNO:2",'
        '"value":{"s":[4,2]},"seq":15}\n'
        '9\tbucket_op\t1\t0\t1\tSEQNO:3\t{"kind":"read","i":8,"key":"INTER:1,2",'
        '"value":17,"seq":16}\n'
        '10\tretry_start\t1\t0\t2\t-\t-\n'
        '11\tcommit\t1\t0\t2\t-\t-\n'
        '12\tclient_end\t-\t0\t-\t-\t-\n'
    )

    def test_golden_bytes(self):
        buf = io.StringIO()
        write_event_log(self.events_with_values(), buf)
        assert buf.getvalue() == self.GOLDEN
        assert read_event_log(io.StringIO(self.GOLDEN)) == self.events_with_values()

    @pytest.mark.parametrize("scheme", [Scheme.GLOCK, Scheme.OCC], ids=["glock", "occ"])
    def test_seeded_run_round_trips(self, scheme):
        cfg = dataclasses.replace(load_scenario("standard"), scheme=scheme, nodes=2, clients=4,
                      tasks_per_client=6, op_delay_ms=0, seed=31)
        events = run_in_process(cfg).events
        first = io.StringIO()
        write_event_log(events, first)
        decoded = read_event_log(io.StringIO(first.getvalue()))
        assert decoded == events
        second = io.StringIO()
        write_event_log(decoded, second)
        assert second.getvalue() == first.getvalue()

    def test_round_trip(self):
        events = self.events_with_values()
        buf = io.StringIO()
        write_event_log(events, buf)
        assert read_event_log(buf.getvalue().splitlines()) == events

    def test_seven_tab_separated_columns(self):
        buf = io.StringIO()
        write_event_log(self.events_with_values(), buf)
        for line in buf.getvalue().splitlines():
            assert len(line.split("\t")) == 7

    def test_unknown_record_refused(self):
        @dataclasses.dataclass
        class Stranger:
            time_ns: int
            client_id: int

        with pytest.raises(KeyError):
            write_event_log([Stranger(1, 0)], io.StringIO())

    def test_sink_preserves_order(self):
        sink = EventSink()
        sink.client_start(1, 0)
        sink.txn_start(2, 9, 0, "probe")
        sink.commit(3, 9, 0, 1)
        sink.client_end(4, 0)
        kinds = [type(e).__name__ for e in sink.events()]
        assert kinds == ["ClientStart", "TxnStart", "Commit", "ClientEnd"]


class TestReportColumns:
    def test_header_is_frozen(self):
        assert ",".join(REPORT_COLUMNS) == (
            "scenario,scheme,seed,clients,nodes,buckets,tasks_per_client,op_delay_ms,"
            "commits,attempts,aborted_attempts,abort_ratio,retry_rate,"
            "throughput_tps,mean_flow_time_s,total_txn_time_s,total_retry_time_s,"
            "total_startup_time_s,total_bucket_ops,total_time_s,parallel_time_s,"
            "txn_exec_ratio,mft_get_association_s,mft_get_by_keyword_s,"
            "mft_get_conversation_s,mft_get_messages_s,mft_index_messages_s,"
            "mft_reset_cutoff_s,mft_send_msg_s,mft_remove_messages_s,"
            "mft_import_messages_s,snapshot_sha256"
        )

    def test_every_recorded_kind_has_a_column(self):
        # At this seed and size all nine transaction kinds occur.
        cfg = dataclasses.replace(load_scenario("standard"), scheme=Scheme.GLOCK, seed=7,
                                  clients=4, tasks_per_client=60)
        events = run_in_process(cfg).events
        assert {ev.kind for ev in events if isinstance(ev, TxnStart)} == set(TXN_KINDS)


class TestEventRecords:
    def test_equal_fields_of_another_kind_are_not_equal(self):
        assert Commit(1, 2, 3, 4) != RetryStart(1, 2, 3, 4)
        assert ClientStart(1, 2) != ClientEnd(1, 2)
        assert Commit(1, 2, 3, 4) == Commit(1, 2, 3, 4)


# One good row of each kind; each refused case below edits one of them.
GOOD_BUCKET_OP = ('7\tbucket_op\t1\t0\t1\tTERM:5\t{"kind":"remove","i":4,"key":"TERM:2,4",'
                  '"value":{"i":[2,1]},"seq":14}')
GOOD_COMMIT = "11\tcommit\t1\t0\t2\t-\t-"


def _edit(row: str, old: str, new: str) -> str:
    assert old in row
    return row.replace(old, new, 1)


REFUSED_ROWS = {
    "unknown op kind": (_edit(GOOD_BUCKET_OP, '"remove"', '"apend"'), "unknown op kind 'apend'"),
    "bucket names no table": (_edit(GOOD_BUCKET_OP, "TERM:5", "TRM:5"), "bad bucket 'TRM:5'"),
    "key names no table": (_edit(GOOD_BUCKET_OP, '"TERM:2,4"', '"TRM:2,4"'),
                           "bad key 'TRM:2,4'"),
    "key with too few fields": (_edit(GOOD_BUCKET_OP, '"TERM:2,4"', '"TERM:2"'),
                                "bad key 'TERM:2'"),
    "key field not canonical": (_edit(GOOD_BUCKET_OP, '"TERM:2,4"', '"TERM:02,4"'),
                                "bad integer '02'"),
    "spaces in the op column": (_edit(GOOD_BUCKET_OP, '"i":4,', '"i": 4,'),
                                "op column is not what --record writes"),
    "op fields reordered": (_edit(GOOD_BUCKET_OP, '"i":4,"key":"TERM:2,4"',
                                  '"key":"TERM:2,4","i":4'),
                            "op column is not what --record writes"),
    "op index not canonical": (_edit(GOOD_BUCKET_OP, '"i":4,', '"i":04,'),
                               "bad integer '04'"),
    "value not canonical": (_edit(GOOD_BUCKET_OP, '{"i":[2,1]}', '{"i":[2, 1]}'),
                            "bad value"),
    "value not json": (_edit(GOOD_BUCKET_OP, '{"i":[2,1]}', '{"i":[2,1]'), "Expecting"),
    "value of the wrong shape": (_edit(GOOD_BUCKET_OP, '{"i":[2,1]}', '{"i":[2,1,0]}'),
                                 "argument"),
    "txn id does not parse": (_edit(GOOD_BUCKET_OP, "bucket_op\t1\t", "bucket_op\tx\t"),
                              "invalid literal"),
    "attempt does not parse": (_edit(GOOD_COMMIT, "\t2\t", "\t-\t"), "invalid literal"),
    "time does not parse": (_edit(GOOD_COMMIT, "11", "1.5"), "invalid literal"),
    "unknown row kind": (_edit(GOOD_COMMIT, "commit", "comit"), "unknown kind 'comit'"),
    # The time column is a canonical integer, and a placeholder column reads
    # "-", as the writer writes them.
    "time with a sign": ("+5\tclient_start\t-\t0\t-\t-\t-", "bad integer '+5'"),
    "time with a space": (" 7\tclient_end\tXX\t0\tjunk\tjunk\tjunk", "bad integer ' 7'"),
    "time with an underscore": ("1_0\tcommit\t3\t0\t1\tbogus\tbogus", "bad integer '1_0'"),
    "client_start attempt": ("5\tclient_start\t-\t0\t1\t-\t-",
                             "placeholder column reads '1', not '-'"),
    "client_end txn id": ("7\tclient_end\tXX\t0\t-\t-\t-",
                          "placeholder column reads 'XX', not '-'"),
    "client_end op": ("7\tclient_end\t-\t0\t-\t-\tjunk",
                      "placeholder column reads 'junk', not '-'"),
    "commit bucket": (_edit(GOOD_COMMIT, "\t-\t-", "\tbogus\t-"),
                      "placeholder column reads 'bogus', not '-'"),
    "commit op": (_edit(GOOD_COMMIT, "\t-\t-", "\t-\tbogus"),
                  "placeholder column reads 'bogus', not '-'"),
    "retry_start bucket": ("9\tretry_start\t1\t0\t2\tTERM:5\t-",
                           "placeholder column reads 'TERM:5', not '-'"),
    "txn_start bucket": ("3\ttxn_start\t1\t0\t1\tTERM:5\tsend_msg",
                         "placeholder column reads 'TERM:5', not '-'"),
    "txn_start attempt": ("3\ttxn_start\t1\t0\t2\t-\tsend_msg",
                          "txn_start attempt reads '2', not '1'"),
}


class TestEventLogReader:
    def test_good_rows_read(self):
        assert read_event_log([GOOD_BUCKET_OP, GOOD_COMMIT]) == [
            BucketOp(7, 1, 0, 1, BucketId(TableId.TERM, 5), 4, "remove", term_key(2, 4),
                     MsgId(2, 1), 14),
            Commit(11, 1, 0, 2),
        ]

    @pytest.mark.parametrize("row, text", REFUSED_ROWS.values(), ids=REFUSED_ROWS)
    def test_unreadable_row_refused_with_its_line(self, row, text):
        lines = [GOOD_COMMIT + "\n", "\n", row + "\n", GOOD_BUCKET_OP + "\n"]
        with pytest.raises(VerificationError, match="^event log line 3: ") as exc:
            read_event_log(lines)
        assert text in str(exc.value)

    def test_equal_value_texts_share_one_value(self):
        a, b = read_event_log([GOOD_BUCKET_OP, _edit(GOOD_BUCKET_OP, '"seq":14', '"seq":15')])
        assert a.value is b.value

    def test_list_values_are_not_shared(self):
        # The writer emits no list; one it is given is written as JSON, and each
        # row reading it back gets its own list.
        ops = [BucketOp(1, 1, 0, 1, BUCKET, i, "read", seqno_key(1), [1, 2], i)
               for i in (1, 2)]
        buf = io.StringIO()
        write_event_log(ops, buf)
        a, b = read_event_log(io.StringIO(buf.getvalue()))
        assert a == ops[0] and b == ops[1]
        assert a.value is not b.value


def _tagged(value: object) -> object:
    """The JSON structure README gives for a recorded value."""
    if isinstance(value, Message):
        return {"m": [[value.id.recipient, value.id.seq], value.sender, value.recipient,
                      list(value.content), value.timestamp]}
    if isinstance(value, MsgId):
        return {"i": list(value)}
    if isinstance(value, SeqPair):
        return {"s": list(value)}
    if isinstance(value, tuple):
        return {"l": [_tagged(v) for v in value]}
    return value


U64 = st.integers(0, 2**64 - 1)
SMALL = st.integers(0, 2**31)
MSGIDS = st.builds(MsgId, U64, U64)
MESSAGES = st.builds(Message, MSGIDS, U64, U64, st.lists(U64, max_size=12).map(tuple), U64)
VALUES = st.recursive(
    st.none() | st.integers(-2**70, 2**70) | MSGIDS | st.builds(SeqPair, U64, U64) | MESSAGES,
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)
KEYS = st.one_of(
    st.builds(term_key, U64, U64), st.builds(inter_key, U64, U64),
    st.builds(message_key, U64), st.builds(seqno_key, U64),
)
BUCKETS = st.builds(BucketId, st.sampled_from(list(TableId)), st.integers(0, 2**32 - 1))
EVENTS = st.one_of(
    st.builds(ClientStart, U64, SMALL),
    st.builds(ClientEnd, U64, SMALL),
    st.builds(TxnStart, U64, SMALL, SMALL, st.sampled_from(["send_msg", "get_messages", "t"])),
    st.builds(RetryStart, U64, SMALL, SMALL, SMALL),
    st.builds(Commit, U64, SMALL, SMALL, SMALL),
    st.builds(BucketOp, U64, SMALL, SMALL, SMALL, BUCKETS, SMALL,
              st.sampled_from(sorted(SPEC_BY_KIND)), KEYS, VALUES, SMALL),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(EVENTS, max_size=25))
def test_random_event_streams_round_trip(events):
    buf = io.StringIO()
    write_event_log(events, buf)
    text = buf.getvalue()
    assert read_event_log(io.StringIO(text)) == events
    rows = text.splitlines()
    assert len(rows) == len(events)
    for ev, row in zip(events, rows):
        if isinstance(ev, BucketOp):
            desc = {"kind": ev.kind, "i": ev.op_index,
                    "key": f"{ev.key.table.name}:" + ",".join(map(str, ev.key.parts)),
                    "value": _tagged(ev.value), "seq": ev.bucket_seq}
            assert row.split("\t")[6] == json.dumps(desc, separators=(",", ":"))
