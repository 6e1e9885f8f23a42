"""Event collection and the benchmark's metric suite.

Clients emit timestamped events into a shared sink during a run; after
quiescence ``aggregate`` turns the stream into a report. The event log
serializes to newline-delimited, tab-separated records with the fixed
column order (time-ns, kind, txn-id, client-id, attempt, bucket, op); the
``op`` column carries a compact JSON descriptor (storage op kind, program
order index, key, observed value, and server apply position) so that a
recorded run can be re-checked offline. The reader accepts exactly the rows
the writer writes and names the first line it cannot read.

Bucket-operation counts include every executed operation, retried
attempts included; only the correctness checker filters down to committed
attempts.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .config import ScenarioConfig
from .errors import VerificationError
from .model import KEY_ARITY, BucketId, Message, MsgId, SeqPair, TableId, TableKey
from .wire import SPEC_BY_KIND

NS = 1_000_000_000

# The event records are plain slots dataclasses: one is built per storage op
# and per log row, and a frozen one costs several times as much to build.
# Their generated ``__eq__`` compares the class too, so a Commit never equals
# a RetryStart with the same fields.


@dataclass(slots=True)
class ClientStart:
    time_ns: int
    client_id: int


@dataclass(slots=True)
class ClientEnd:
    time_ns: int
    client_id: int


@dataclass(slots=True)
class TxnStart:
    time_ns: int
    txn_id: int
    client_id: int
    kind: str


@dataclass(slots=True)
class RetryStart:
    time_ns: int
    txn_id: int
    client_id: int
    attempt: int


@dataclass(slots=True)
class Commit:
    time_ns: int
    txn_id: int
    client_id: int
    attempt: int


@dataclass(slots=True)
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

    # Each method builds its event, then appends it under the lock.

    def client_start(self, time_ns: int, client_id: int) -> None:
        event = ClientStart(time_ns, client_id)
        with self._lock:
            self._events.append(event)

    def client_end(self, time_ns: int, client_id: int) -> None:
        event = ClientEnd(time_ns, client_id)
        with self._lock:
            self._events.append(event)

    def txn_start(self, time_ns: int, txn_id: int, client_id: int, kind: str) -> None:
        event = TxnStart(time_ns, txn_id, client_id, kind)
        with self._lock:
            self._events.append(event)

    def retry_start(self, time_ns: int, txn_id: int, client_id: int, attempt: int) -> None:
        event = RetryStart(time_ns, txn_id, client_id, attempt)
        with self._lock:
            self._events.append(event)

    def commit(self, time_ns: int, txn_id: int, client_id: int, attempt: int) -> None:
        event = Commit(time_ns, txn_id, client_id, attempt)
        with self._lock:
            self._events.append(event)

    def bucket_op(self, time_ns: int, txn_id: int, client_id: int, attempt: int,
                  bucket: BucketId, op_index: int, kind: str, key: TableKey,
                  value: object, bucket_seq: int) -> None:
        event = BucketOp(time_ns, txn_id, client_id, attempt, bucket, op_index, kind, key,
                         value, bucket_seq)
        with self._lock:
            self._events.append(event)

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
    commit_of: dict[int, Commit] = {}
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
        elif isinstance(ev, RetryStart):
            first_retry.setdefault(ev.txn_id, ev.time_ns)
        elif isinstance(ev, Commit):
            commit_of[ev.txn_id] = ev
        elif isinstance(ev, BucketOp):
            bucket_ops += 1

    if set(client_starts) != set(client_ends):
        raise VerificationError("incomplete stream: client start/end mismatch")
    missing = set(txn_start) - set(commit_of)
    if missing:
        raise VerificationError(f"incomplete stream: {len(missing)} transactions never committed")
    orphaned = set(commit_of) - set(txn_start)
    if orphaned:
        raise VerificationError(f"incomplete stream: {len(orphaned)} commits without a start")

    commits = len(commit_of)
    # The committed attempt's number, from the commit row the checker reads.
    attempts = sum(commit.attempt for commit in commit_of.values())
    aborted = attempts - commits

    flow_ns: dict[str, list[int]] = {}
    total_flow = 0
    total_retry = 0
    total_startup = 0
    for txn_id, commit in commit_of.items():
        start = txn_start[txn_id]
        flow = commit.time_ns - start.time_ns
        total_flow += flow
        flow_ns.setdefault(start.kind, []).append(flow)
        if txn_id in first_retry:
            total_startup += first_retry[txn_id] - start.time_ns
            total_retry += commit.time_ns - first_retry[txn_id]
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


# One compact encoder and decoder for every row: ``json.dumps`` with
# ``separators`` builds a new encoder per call.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode
_decode_json = json.JSONDecoder().decode

# The kind column's text by record class, and the class by text.
_ROW_KINDS: dict[type, str] = {
    BucketOp: "bucket_op", TxnStart: "txn_start", Commit: "commit",
    RetryStart: "retry_start", ClientStart: "client_start", ClientEnd: "client_end",
}
_ROW_CLASSES = {kind: cls for cls, kind in _ROW_KINDS.items()}

# Table names by tag: ``TableId.name`` is a property that costs a call.
_TABLE_NAMES = tuple(table.name for table in TableId)
_TABLE_BY_NAME = {table.name: table for table in TableId}

# The op column of a bucket_op row as ``write_event_log`` formats it. The
# pattern only splits the column; each integer, key and value it captures is
# then checked to be exactly what the writer writes for what it parses to.
_OP_COLUMN = re.compile(
    r'\{"kind":"([^"\\]*)","i":([-0-9]+),"key":"([^"\\]*)",'
    r'"value":(.*),"seq":([-0-9]+)\}'
)


def _value_json(value: object) -> str:
    """Compact JSON of a recorded value: tagged lists for the model's types,
    whose integer fields are written with ``%d``, so that a field the reader
    parsed as a list (``str([1])`` is the JSON ``[1]``) cannot round-trip."""
    cls = type(value)
    if cls is tuple:
        return '{"l":[' + ",".join(map(_value_json, value)) + "]}"
    if cls is MsgId:
        return '{"i":[%d,%d]}' % value
    if cls is SeqPair:
        return '{"s":[%d,%d]}' % value
    if cls is Message:
        (r, s), sender, recipient, content, ts = value
        head = '{"m":[[%d,%d],%d,%d,[' + ",".join(["%d"] * len(content))
        return (head + '],%d]}') % (r, s, sender, recipient, *content, ts)
    return _encode_json(value)


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


def _value_from_str(text: str) -> object:
    value = _value_from_json(_decode_json(text))
    if _value_json(value) != text:
        raise ValueError(f"bad value {text!r}")
    return value


def _key_to_str(key: TableKey) -> str:
    return f"{_TABLE_NAMES[key.table]}:" + ",".join(map(str, key.parts))


def _int_from_str(text: str) -> int:
    value = int(text)
    if str(value) != text:
        raise ValueError(f"bad integer {text!r}")
    return value


def _key_from_str(text: str) -> TableKey:
    table_name, _, parts = text.partition(":")
    table = _TABLE_BY_NAME.get(table_name)
    if table is not None:
        key = TableKey(table, tuple(map(_int_from_str, parts.split(","))))
        if len(key.parts) == KEY_ARITY[table]:
            return key
    raise ValueError(f"bad key {text!r}")


def _bucket_from_str(text: str) -> BucketId:
    table_name, _, index = text.partition(":")
    table = _TABLE_BY_NAME.get(table_name)
    if table is not None:
        return BucketId(table, _int_from_str(index))
    raise ValueError(f"bad bucket {text!r}")


class _ParseOnce(dict):
    """``parsed[text]`` parses each distinct text once, and rows with the same
    text share the result. A result that is not hashable, and so may be
    mutable (a JSON list value, which the writer never emits), is parsed
    again for each row instead of being shared."""

    __slots__ = ("parse",)

    def __init__(self, parse: Callable[[str], object]) -> None:
        super().__init__()
        self.parse = parse

    def __missing__(self, text: str) -> object:
        result = self.parse(text)
        try:
            hash(result)
        except TypeError:
            return result
        self[text] = result
        return result


def write_event_log(events: Iterable[Event], out: io.TextIOBase) -> None:
    # A run touches few distinct buckets, keys and op kinds: format each once.
    buckets: dict[BucketId, str] = {}
    keys: dict[TableKey, str] = {}
    kinds: dict[str, str] = {}
    write = out.write
    for ev in events:
        cls = type(ev)
        row = _ROW_KINDS[cls]  # a record of any other class raises
        if cls is BucketOp:
            bucket = buckets.get(ev.bucket)
            if bucket is None:
                bucket = buckets[ev.bucket] = f"{_TABLE_NAMES[ev.bucket.table]}:{ev.bucket.index}"
            key = keys.get(ev.key)
            if key is None:
                key = keys[ev.key] = f'"{_key_to_str(ev.key)}"'  # nothing to escape
            kind = kinds.get(ev.kind)
            if kind is None:
                kind = kinds[ev.kind] = _encode_json(ev.kind)
            # The same bytes as json.dumps of {kind, i, key, value, seq}, in that
            # order, with compact separators: the event-log columns are frozen.
            write(
                f"{ev.time_ns}\t{row}\t{ev.txn_id}\t{ev.client_id}\t{ev.attempt}\t{bucket}"
                f'\t{{"kind":{kind},"i":{ev.op_index},"key":{key},'
                f'"value":{_value_json(ev.value)},"seq":{ev.bucket_seq}}}\n'
            )
        elif cls is TxnStart:
            write(f"{ev.time_ns}\t{row}\t{ev.txn_id}\t{ev.client_id}\t1\t-\t{ev.kind}\n")
        elif cls is Commit or cls is RetryStart:
            write(f"{ev.time_ns}\t{row}\t{ev.txn_id}\t{ev.client_id}\t{ev.attempt}\t-\t-\n")
        else:  # a client row
            write(f"{ev.time_ns}\t{row}\t-\t{ev.client_id}\t-\t-\t-\n")


def _placeholders(*columns: str) -> None:
    """Refuse a row whose placeholder columns do not read ``-``, as written."""
    for text in columns:
        if text != "-":
            raise ValueError(f"placeholder column reads {text!r}, not '-'")


def read_event_log(lines: Iterable[str]) -> list[Event]:
    """Parse the rows ``write_event_log`` writes, and nothing else: a row it
    cannot read raises VerificationError naming its line.

    Each distinct integer, bucket, key and value text is parsed once, and
    rows with the same text share its result: every value the writer emits
    is immutable. The time column, distinct on every row, is parsed
    directly; a placeholder column must read ``-``, and a ``txn_start``
    row's attempt ``1``, as the writer writes them.
    """
    ints = _ParseOnce(_int_from_str)
    buckets = _ParseOnce(_bucket_from_str)
    keys = _ParseOnce(_key_from_str)
    values = _ParseOnce(_value_from_str)
    events: list[Event] = []
    append = events.append
    match_op = _OP_COLUMN.fullmatch
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 7:
            raise VerificationError(f"event log line {lineno}: expected 7 columns")
        time_ns, kind, txn, client, attempt, bucket, op = cols
        try:
            time_ns = _int_from_str(time_ns)
            cls = _ROW_CLASSES.get(kind)
            if cls is BucketOp:
                m = match_op(op)
                if m is None:
                    raise ValueError("op column is not what --record writes")
                op_kind, op_index, key, value, seq = m.groups()
                spec = SPEC_BY_KIND.get(op_kind)
                if spec is None:
                    raise ValueError(f"unknown op kind {op_kind!r}")
                append(BucketOp(time_ns, ints[txn], ints[client], ints[attempt],
                                buckets[bucket], ints[op_index], spec.kind, keys[key],
                                values[value], ints[seq]))
            elif cls is TxnStart:
                if attempt != "1":
                    raise ValueError(f"txn_start attempt reads {attempt!r}, not '1'")
                _placeholders(bucket)
                append(TxnStart(time_ns, ints[txn], ints[client], op))
            elif cls is Commit or cls is RetryStart:
                _placeholders(bucket, op)
                append(cls(time_ns, ints[txn], ints[client], ints[attempt]))
            elif cls is None:
                raise ValueError(f"unknown kind {kind!r}")
            else:  # a client row
                _placeholders(txn, attempt, bucket, op)
                append(cls(time_ns, ints[client]))
        except (ValueError, TypeError) as exc:  # a column that does not parse
            raise VerificationError(f"event log line {lineno}: {exc}") from None
    return events


# ---------------------------------------------------------------------------
# Report CSV: its frozen columns are listed here once. The run's identity comes
# from ScenarioConfig fields, the metrics from MetricsReport fields (renamed by
# ``_COLUMN_OF``), then one mean flow time per transaction kind and the hash of
# the final snapshot.

TXN_KINDS = [
    "get_association", "get_by_keyword", "get_conversation", "get_messages",
    "index_messages", "reset_cutoff", "send_msg", "remove_messages",
    "import_messages",
]

_IDENTITY_FIELDS = ("name", "scheme", "seed", "clients", "nodes", "buckets",
                    "tasks_per_client", "op_delay_ms")
_METRIC_FIELDS = (
    "commits", "attempts", "aborted_attempts", "abort_ratio", "retry_rate",
    "throughput", "mean_flow_time_s",
    "total_txn_time_s", "total_retry_time_s", "total_startup_time_s",
    "total_bucket_ops", "total_time_s", "parallel_time_s", "txn_exec_ratio",
)
_COLUMN_OF = {"name": "scenario", "throughput": "throughput_tps"}
# The columns a mean row averages.
METRIC_COLUMNS = [_COLUMN_OF.get(f, f) for f in _METRIC_FIELDS] + [
    f"mft_{kind}_s" for kind in TXN_KINDS]
REPORT_COLUMNS = [_COLUMN_OF.get(f, f) for f in _IDENTITY_FIELDS] + METRIC_COLUMNS + [
    "snapshot_sha256"]


def report_row(cfg: ScenarioConfig, report: MetricsReport, snapshot: bytes) -> dict[str, object]:
    """One run's report row, keyed by column; a transaction kind that never
    committed leaves its ``mft_`` column out."""
    row: dict[str, object] = {_COLUMN_OF.get(f, f): getattr(cfg, f) for f in _IDENTITY_FIELDS}
    row["scheme"] = cfg.scheme.name.lower()
    row.update((_COLUMN_OF.get(f, f), getattr(report, f)) for f in _METRIC_FIELDS)
    row.update((f"mft_{kind}_s", flow) for kind, flow in report.flow_time_by_kind.items()
               if kind in TXN_KINDS)
    row["snapshot_sha256"] = hashlib.sha256(snapshot).hexdigest()
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
