"""Metric aggregation against a hand-computed fixture, and the log codec."""

from __future__ import annotations

import dataclasses
import io

import pytest

from helenos.errors import VerificationError
from helenos.metrics import (
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
from helenos.model import BucketId, Message, MsgId, SeqPair, TableId, seqno_key, term_key

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
        msg = Message(MsgId(2, 1), 1, 2, (4, 5), 7)
        return [
            ClientStart(5, 0),
            TxnStart(6, 1, 0, "send_msg"),
            BucketOp(7, 1, 0, 1, BucketId(TableId.MESSAGE, 2), 1,
                     "append", term_key(2, 4), msg, 11),
            BucketOp(8, 1, 0, 1, BUCKET, 2, "incr_seq", seqno_key(2), SeqPair(1, 0), 12),
            BucketOp(9, 1, 0, 1, BucketId(TableId.INTER, 0), 3,
                     "read", seqno_key(2), (MsgId(2, 1), MsgId(2, 2)), 13),
            RetryStart(10, 1, 0, 2),
            Commit(11, 1, 0, 2),
            ClientEnd(12, 0),
        ]

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

    def test_sink_preserves_order(self):
        sink = EventSink()
        sink.client_start(1, 0)
        sink.txn_start(2, 9, 0, "probe")
        sink.commit(3, 9, 0, 1)
        sink.client_end(4, 0)
        kinds = [type(e).__name__ for e in sink.events()]
        assert kinds == ["ClientStart", "TxnStart", "Commit", "ClientEnd"]
