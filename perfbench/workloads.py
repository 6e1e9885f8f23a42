"""Workloads and one checked run of one scheme.

Every run goes through the program's public entry points: the bundled
scenario is loaded with ``config.load_scenario``, the cluster is a
``transport.LoopbackCluster``, the clients run in ``driver.run_scenario``,
and the checks are the ones ``helenos verify --graph-mode`` makes.
"""

from __future__ import annotations

import gc
import hashlib
import io
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from helenos.config import ScenarioConfig, load_scenario
from helenos.driver import run_scenario
from helenos.metrics import ClientEnd, Commit, TxnStart, read_event_log, write_event_log
from helenos.store import Node
from helenos.transport import LoopbackCluster
from helenos.verify import (
    build_history,
    check_integrity,
    conflict_graph_serializable,
    state_from_snapshot,
)
from helenos.wire import SCHEME_NAMES

from tracing import TracedTransport, Tracer, durations, summarize, write_spans

SCHEMES = ("glock", "fgl", "occ", "pesv")
# A cluster set-up takes about 1 ms; a measured scheme run times this many
# and keeps the median, so that setup_s is steady.
SETUP_REPEATS = 25


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mix: str  # bundled scenario whose task mix is used
    nodes: int
    buckets: int
    op_delay_ms: int
    clients: int  # closed loop: one task in flight per client
    tasks_per_client: int  # per scheme run; a measured run repeats passes of these
    min_passes: int  # passes that give every scheme >= 1000 commits, for flow p99

    def scenario(self, scheme: str, seed: int, tasks_per_client: int) -> ScenarioConfig:
        return replace(
            load_scenario(self.mix), nodes=self.nodes, buckets=self.buckets,
            op_delay_ms=self.op_delay_ms, clients=self.clients, tasks_per_client=tasks_per_client,
            scheme=SCHEME_NAMES[scheme], seed=seed,
        )


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "loopback-d0",
            "standard read-heavy mix, 4 in-process nodes, 256 buckets, no delay, 1 closed-loop"
            " client: harness per-op CPU path and a long history for the graph checker",
            mix="standard", nodes=4, buckets=256, op_delay_ms=0,
            clients=1, tasks_per_client=800, min_passes=2,
        ),
        Workload(
            "hot-writes-d1",
            "small-w write mix (88% send/clear), 4 in-process nodes, 4 buckets, 1 ms op delay,"
            " 2 closed-loop clients: scheme waits, OCC aborts and backoff dominate",
            mix="small-w", nodes=4, buckets=4, op_delay_ms=1,
            clients=2, tasks_per_client=150, min_passes=3,
        ),
    )
}


def start_cluster(cfg: ScenarioConfig, tracer: Tracer | None) -> LoopbackCluster:
    """In-process nodes; a traced run times the nodes' injected-delay sleep."""
    cluster = LoopbackCluster(cfg.node_ids())
    if tracer is not None:
        sleep = tracer.wrap("store.delay", time.sleep)
        cluster.nodes = {nid: Node(nid, cluster.layout, sleep=sleep) for nid in cfg.node_ids()}
    return cluster


# ---------------------------------------------------------------------------
# One scheme run


@dataclass
class SchemeRun:
    scheme: str
    seed: int
    setup_s: float
    commits: int = 0
    attempts: int = 0
    tps: float = 0.0
    mean_flow_s: float = 0.0
    flows_ns: list[int] = field(default_factory=list)
    check_s: float = 0.0
    stages_s: dict[str, float] = field(default_factory=dict)
    txns_checked: int = 0
    committed_ops: int = 0
    snapshot_sha256: str = ""
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None  # per-layer raw numbers of a traced run

    @property
    def ok(self) -> bool:
        return not self.problems


def run_scheme(wl: Workload, scheme: str, seed: int, tasks_per_client: int,
               tracer: Tracer | None = None, span_path: Path | None = None) -> SchemeRun:
    """Set up a fresh cluster, run one scheme on it, and check the result.

    A raised error or a failed check is recorded in ``problems``; it is
    never retried.
    """
    gc.collect()
    repeats = 1 if tracer is not None else SETUP_REPEATS
    setups = []
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            cfg = wl.scenario(scheme, seed, tasks_per_client)
            cluster = start_cluster(cfg, tracer)
            setups.append(time.perf_counter() - start)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return SchemeRun(scheme, seed, 0.0, problems=[f"set-up failed: {exc!r}"])
    run = SchemeRun(scheme, seed, statistics.median(setups))

    transports: list[TracedTransport] = []

    def transport_for(_client: int):
        if tracer is None:
            return cluster
        traced = TracedTransport(cluster, tracer)
        transports.append(traced)
        return traced

    if tracer is not None:
        tracer.reset()
    try:
        artifacts = run_scenario(cfg, transport_for, cluster.layout, cluster)
        returned_ns = time.monotonic_ns()
        _check(run, artifacts, returned_ns)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        run.problems.append(f"run raised {exc!r}")
        return run
    if tracer is not None:
        spans = tracer.spans()
        run.trace = _trace_record(spans, transports, tracer.stage_ns)
        if span_path is not None:
            write_spans(spans, span_path)
    return run


def _trace_record(spans, transports: list[TracedTransport], stage_ns) -> dict:
    return {
        "summary": summarize(spans),
        "rtt_ns": durations(spans, "transport.request"),
        "storage_frames": sum(t.storage_frames for t in transports),
        "cc_frames": sum(t.cc_frames for t in transports),
        "request_bytes": sum(t.request_bytes for t in transports),
        "reply_bytes": sum(t.reply_bytes for t in transports),
        "stage_ns": dict(stage_ns),
    }


def _check(run: SchemeRun, artifacts, returned_ns: int) -> None:
    """Time what ``helenos run --record`` then ``helenos verify --graph-mode``
    adds after the clients finish, and gate the run on every verdict."""
    report = artifacts.report
    last_client_end = max(ev.time_ns for ev in artifacts.events if isinstance(ev, ClientEnd))
    stages = {"post_run": (returned_ns - last_client_end) / 1e9}
    t0 = time.perf_counter()
    log = io.StringIO()
    write_event_log(artifacts.events, log)
    log.seek(0)
    events = read_event_log(log)
    t1 = time.perf_counter()
    history = build_history(events)
    t2 = time.perf_counter()
    verdict = conflict_graph_serializable(history)
    t3 = time.perf_counter()
    integrity = check_integrity(state_from_snapshot(artifacts.snapshot))
    t4 = time.perf_counter()
    stages.update(event_log=t1 - t0, history=t2 - t1, graph=t3 - t2, integrity=t4 - t3)
    run.stages_s = stages
    run.check_s = sum(stages.values())

    try:
        report.check_invariants()
    except AssertionError as exc:
        run.problems.append(f"metric invariants: {exc}")
    if events != artifacts.events:
        run.problems.append("event log round trip changed the events")
    if not verdict.ok:
        run.problems.append(f"not serializable: {verdict.detail}")
    if not integrity.ok:
        run.problems.append(f"integrity: {integrity.violations[:3]}")
    if len(history.effects) != report.commits:
        run.problems.append(f"{len(history.effects)} txns in history, {report.commits} commits")

    starts = {ev.txn_id: ev.time_ns for ev in events if isinstance(ev, TxnStart)}
    run.flows_ns = [ev.time_ns - starts[ev.txn_id] for ev in events if isinstance(ev, Commit)]
    run.commits = report.commits
    run.attempts = report.attempts
    run.tps = report.throughput
    run.mean_flow_s = report.mean_flow_time_s
    run.txns_checked = len(history.effects)
    run.committed_ops = sum(len(effect.ops) for effect in history.effects)
    run.snapshot_sha256 = hashlib.sha256(artifacts.snapshot).hexdigest()
