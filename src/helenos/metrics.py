"""Event collection and the benchmark's metric suite.

Clients emit timestamped events into a shared sink during a run; after
quiescence ``aggregate`` turns the stream into a report. The event log
serializes to newline-delimited, tab-separated records with the fixed
column order (time-ns, kind, txn-id, client-id, attempt, bucket, op); the
``op`` column carries a compact JSON descriptor (storage op kind, program
order index, key, observed value, and server apply position) so that a
recorded run can be re-checked offline.

Bucket-operation counts include every executed operation, retried
attempts included; only the correctness checker filters down to committed
attempts.
"""

from __future__ import annotations

import io
import json
import threading
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import VerificationError
from .model import BucketId, Message, MsgId, SeqPair, TableId, TableKey

NS = 1_000_000_000


@dataclass(frozen=True, slots=True)
class ClientStart:
    time_ns: int
    client_id: int


@dataclass(frozen=True, slots=True)
class ClientEnd:
    time_ns: int
    client_id: int


@dataclass(frozen=True, slots=True)
class TxnStart:
    time_ns: int
    txn_id: int
    client_id: int
    kind: str


@dataclass(frozen=True, slots=True)
class RetryStart:
    time_ns: int
    txn_id: int
    client_id: int
    attempt: int


@dataclass(frozen=True, slots=True)
class Commit:
    time_ns: int
    txn_id: int
    client_id: int
    attempt: int


@dataclass(frozen=True, slots=True)
class BucketOp:
    time_ns: int
    txn_id: int
    client_id: int
    attempt: int
    bucket: BucketId
    op_index: int
    kind: str  # read / append / remove / write_seq / incr_seq
    key: TableKey
    value: object
    bucket_seq: int


Event = Union[ClientStart, ClientEnd, TxnStart, RetryStart, Commit, BucketOp]


class EventSink:
    """Order-preserving event collector; append is safe from any thread."""

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._lock = threading.Lock()

    def _emit(self, event: Event) -> None:
        with self._lock:
            self._events.append(event)

    def client_start(self, time_ns: int, client_id: int) -> None:
        self._emit(ClientStart(time_ns, client_id))

    def client_end(self, time_ns: int, client_id: int) -> None:
        self._emit(ClientEnd(time_ns, client_id))

    def txn_start(self, time_ns: int, txn_id: int, client_id: int, kind: str) -> None:
        self._emit(TxnStart(time_ns, txn_id, client_id, kind))

    def retry_start(self, time_ns: int, txn_id: int, client_id: int, attempt: int) -> None:
        self._emit(RetryStart(time_ns, txn_id, client_id, attempt))

    def commit(self, time_ns: int, txn_id: int, client_id: int, attempt: int) -> None:
        self._emit(Commit(time_ns, txn_id, client_id, attempt))

    def bucket_op(self, time_ns: int, txn_id: int, client_id: int, attempt: int,
                  bucket: BucketId, op_index: int, kind: str, key: TableKey,
                  value: object, bucket_seq: int) -> None:
        self._emit(BucketOp(time_ns, txn_id, client_id, attempt, bucket,
                            op_index, kind, key, value, bucket_seq))

    def events(self) -> list[Event]:
        with self._lock:
            return list(self._events)


# ---------------------------------------------------------------------------
# Aggregation


@dataclass
class MetricsReport:
    """The full metric suite for one run."""

    commits: int
    attempts: int
    aborted_attempts: int
    throughput: float  # committed transactions per parallel-execution second
    mean_flow_time_s: float
    flow_time_by_kind: dict[str, float]
    commits_by_kind: dict[str, int]
    abort_ratio: float
    retry_rate: float
    total_txn_time_s: float
    total_retry_time_s: float
    total_startup_time_s: float
    total_bucket_ops: int
    total_time_s: float
    parallel_time_s: float
    txn_exec_ratio: float
    clients: int

    def check_invariants(self) -> None:
        """Raise VerificationError if the metrics contradict each other."""
        if not (
            (self.retry_rate >= 1.0 or not self.commits)
            and (0.0 <= self.abort_ratio < 1.0 or self.attempts == 0)
            and 0.0 <= self.txn_exec_ratio <= 1.0
            and self.parallel_time_s <= self.total_time_s + 1e-9
            and sum(self.commits_by_kind.values()) == self.commits
        ):
            raise VerificationError(f"inconsistent metrics: {self}")


def aggregate(events: Iterable[Event], total_time_s: float | None = None) -> MetricsReport:
    """Compute the metric suite from a complete event stream."""
    client_starts: dict[int, int] = {}
    client_ends: dict[int, int] = {}
    txn_start: dict[int, TxnStart] = {}
    first_retry: dict[int, int] = {}
    commit_at: dict[int, int] = {}
    attempts_of: dict[int, int] = {}
    bucket_ops = 0

    for ev in events:
        if isinstance(ev, ClientStart):
            client_starts[ev.client_id] = ev.time_ns
        elif isinstance(ev, ClientEnd):
            client_ends[ev.client_id] = ev.time_ns
        elif isinstance(ev, TxnStart):
            if ev.txn_id in txn_start:
                raise VerificationError(f"duplicate start for txn {ev.txn_id}")
            txn_start[ev.txn_id] = ev
            attempts_of[ev.txn_id] = 1
        elif isinstance(ev, RetryStart):
            first_retry.setdefault(ev.txn_id, ev.time_ns)
            attempts_of[ev.txn_id] = max(attempts_of.get(ev.txn_id, 1), ev.attempt)
        elif isinstance(ev, Commit):
            commit_at[ev.txn_id] = ev.time_ns
        elif isinstance(ev, BucketOp):
            bucket_ops += 1

    if set(client_starts) != set(client_ends):
        raise VerificationError("incomplete stream: client start/end mismatch")
    missing = set(txn_start) - set(commit_at)
    if missing:
        raise VerificationError(f"incomplete stream: {len(missing)} transactions never committed")
    orphaned = set(commit_at) - set(txn_start)
    if orphaned:
        raise VerificationError(f"incomplete stream: {len(orphaned)} commits without a start")

    commits = len(commit_at)
    attempts = sum(attempts_of.get(t, 1) for t in commit_at)
    aborted = attempts - commits

    flow_ns: dict[str, list[int]] = {}
    total_flow = 0
    total_retry = 0
    total_startup = 0
    for txn_id, commit_ns in commit_at.items():
        start = txn_start[txn_id]
        flow = commit_ns - start.time_ns
        total_flow += flow
        flow_ns.setdefault(start.kind, []).append(flow)
        if txn_id in first_retry:
            total_startup += first_retry[txn_id] - start.time_ns
            total_retry += commit_ns - first_retry[txn_id]
        else:
            total_startup += flow

    if client_starts:
        parallel_ns = max(client_ends.values()) - min(client_starts.values())
    else:
        parallel_ns = 0
    parallel_s = parallel_ns / NS
    if total_time_s is None:
        total_time_s = parallel_s
    clients = len(client_starts)

    ratio = 0.0
    if clients and parallel_ns:
        ratio = min(1.0, (total_flow / NS) / (clients * parallel_s))

    return MetricsReport(
        commits=commits,
        attempts=attempts,
        aborted_attempts=aborted,
        throughput=commits / parallel_s if parallel_ns else 0.0,
        mean_flow_time_s=(total_flow / commits / NS) if commits else 0.0,
        flow_time_by_kind={
            kind: sum(v) / len(v) / NS for kind, v in sorted(flow_ns.items())
        },
        commits_by_kind={kind: len(v) for kind, v in sorted(flow_ns.items())},
        abort_ratio=aborted / attempts if attempts else 0.0,
        retry_rate=attempts / commits if commits else 0.0,
        total_txn_time_s=total_flow / NS,
        total_retry_time_s=total_retry / NS,
        total_startup_time_s=total_startup / NS,
        total_bucket_ops=bucket_ops,
        total_time_s=total_time_s,
        parallel_time_s=parallel_s,
        txn_exec_ratio=ratio,
        clients=clients,
    )


# ---------------------------------------------------------------------------
# Event log serialization (TSV)


def _json_value(value: object) -> object:
    if isinstance(value, Message):
        return {"m": [list(value.id), value.sender, value.recipient,
                      list(value.content), value.timestamp]}
    if isinstance(value, SeqPair):
        return {"s": list(value)}
    if isinstance(value, MsgId):
        return {"i": list(value)}
    if isinstance(value, tuple):
        return {"l": [_json_value(v) for v in value]}
    return value


def _value_from_json(obj: object) -> object:
    if isinstance(obj, dict):
        if "m" in obj:
            mid, sender, recipient, content, ts = obj["m"]
            return Message(MsgId(*mid), sender, recipient, tuple(content), ts)
        if "s" in obj:
            return SeqPair(*obj["s"])
        if "i" in obj:
            return MsgId(*obj["i"])
        if "l" in obj:
            return tuple(_value_from_json(v) for v in obj["l"])
    return obj


def _key_to_str(key: TableKey) -> str:
    return f"{key.table.name}:" + ",".join(str(p) for p in key.parts)


def _key_from_str(text: str) -> TableKey:
    table_name, _, parts = text.partition(":")
    return TableKey(TableId[table_name], tuple(int(p) for p in parts.split(",")))


def write_event_log(events: Iterable[Event], out: io.TextIOBase) -> None:
    for ev in events:
        if isinstance(ev, ClientStart):
            row = [ev.time_ns, "client_start", "-", ev.client_id, "-", "-", "-"]
        elif isinstance(ev, ClientEnd):
            row = [ev.time_ns, "client_end", "-", ev.client_id, "-", "-", "-"]
        elif isinstance(ev, TxnStart):
            row = [ev.time_ns, "txn_start", ev.txn_id, ev.client_id, 1, "-", ev.kind]
        elif isinstance(ev, RetryStart):
            row = [ev.time_ns, "retry_start", ev.txn_id, ev.client_id, ev.attempt, "-", "-"]
        elif isinstance(ev, Commit):
            row = [ev.time_ns, "commit", ev.txn_id, ev.client_id, ev.attempt, "-", "-"]
        else:
            op = {
                "kind": ev.kind,
                "i": ev.op_index,
                "key": _key_to_str(ev.key),
                "value": _json_value(ev.value),
                "seq": ev.bucket_seq,
            }
            row = [
                ev.time_ns, "bucket_op", ev.txn_id, ev.client_id, ev.attempt,
                f"{ev.bucket.table.name}:{ev.bucket.index}",
                json.dumps(op, separators=(",", ":")),
            ]
        out.write("\t".join(str(c) for c in row) + "\n")


def read_event_log(lines: Iterable[str]) -> list[Event]:
    events: list[Event] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 7:
            raise VerificationError(f"event log line {lineno}: expected 7 columns")
        time_ns, kind, txn, client, attempt, bucket, op = cols
        t = int(time_ns)
        if kind == "client_start":
            events.append(ClientStart(t, int(client)))
        elif kind == "client_end":
            events.append(ClientEnd(t, int(client)))
        elif kind == "txn_start":
            events.append(TxnStart(t, int(txn), int(client), op))
        elif kind == "retry_start":
            events.append(RetryStart(t, int(txn), int(client), int(attempt)))
        elif kind == "commit":
            events.append(Commit(t, int(txn), int(client), int(attempt)))
        elif kind == "bucket_op":
            table_name, _, index = bucket.partition(":")
            desc = json.loads(op)
            events.append(
                BucketOp(
                    t, int(txn), int(client), int(attempt),
                    BucketId(TableId[table_name], int(index)),
                    desc["i"], desc["kind"], _key_from_str(desc["key"]),
                    _value_from_json(desc["value"]), desc["seq"],
                )
            )
        else:
            raise VerificationError(f"event log line {lineno}: unknown kind {kind!r}")
    return events


# ---------------------------------------------------------------------------
# Report CSV

TXN_KINDS = [
    "get_association", "get_by_keyword", "get_conversation", "get_messages",
    "index_messages", "reset_cutoff", "send_msg", "remove_messages",
    "import_messages",
]

REPORT_COLUMNS = [
    "scenario", "scheme", "seed", "clients", "nodes", "buckets",
    "tasks_per_client", "op_delay_ms",
    "commits", "attempts", "aborted_attempts", "abort_ratio", "retry_rate",
    "throughput_tps", "mean_flow_time_s",
    "total_txn_time_s", "total_retry_time_s", "total_startup_time_s",
    "total_bucket_ops", "total_time_s", "parallel_time_s", "txn_exec_ratio",
    *[f"mft_{kind}_s" for kind in TXN_KINDS],
    "snapshot_sha256",
]


def report_row(meta: dict[str, object], report: MetricsReport) -> dict[str, object]:
    row = dict(meta)
    row.update(
        commits=report.commits,
        attempts=report.attempts,
        aborted_attempts=report.aborted_attempts,
        abort_ratio=report.abort_ratio,
        retry_rate=report.retry_rate,
        throughput_tps=report.throughput,
        mean_flow_time_s=report.mean_flow_time_s,
        total_txn_time_s=report.total_txn_time_s,
        total_retry_time_s=report.total_retry_time_s,
        total_startup_time_s=report.total_startup_time_s,
        total_bucket_ops=report.total_bucket_ops,
        total_time_s=report.total_time_s,
        parallel_time_s=report.parallel_time_s,
        txn_exec_ratio=report.txn_exec_ratio,
    )
    for kind in TXN_KINDS:
        if kind in report.flow_time_by_kind:
            row[f"mft_{kind}_s"] = report.flow_time_by_kind[kind]
    return row


def write_report_csv(rows: list[dict[str, object]], out: io.TextIOBase,
                     extra_columns: list[str] | None = None) -> None:
    columns = (extra_columns or []) + REPORT_COLUMNS
    out.write(",".join(columns) + "\n")
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col, "")
            cells.append(f"{v:.6f}" if isinstance(v, float) else str(v))
        out.write(",".join(cells) + "\n")
