"""Acceptance suite: one test per criterion, each printing a verdict line.

Criterion runtimes are asserted against their stated budgets. The suite
accumulates every metrics report it produces so the arithmetic-invariant
criterion can sweep them all at the end.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time
from dataclasses import replace

import pytest

from conftest import committed_attempts, make_cluster, make_ctx
from test_workload import Rig
from test_verify import write_skew_history
from trace_suite import DERIVED_TRACES

from helenos.cc import run_atomic
from helenos.config import ScenarioConfig, load_scenario
from helenos.driver import run_in_process, run_scenario
from helenos.metrics import EventSink, MetricsReport, aggregate
from helenos.model import RingLayout, SeqPair, bucket_of, seqno_key
from helenos.store import Node
from helenos.transport import TcpNodeServer, TcpTransport
from helenos.verify import (
    brute_force_serializable,
    check_integrity,
    conflict_graph_serializable,
    state_from_snapshot,
)
from helenos.wire import Scheme

ALL = [Scheme.GLOCK, Scheme.FGL, Scheme.OCC, Scheme.PESV]
ABORT_FREE = [Scheme.GLOCK, Scheme.FGL, Scheme.PESV]

_REPORTS: list[MetricsReport] = []


def _track(artifacts):
    _REPORTS.append(artifacts.report)
    return artifacts


@contextlib.contextmanager
def criterion(number: int, description: str, budget_s: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    wall = time.monotonic() - started
    print(f"ACCEPTANCE {number:02d} PASS ({wall:.1f}s): {description}")
    assert wall < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def desk(**kw) -> ScenarioConfig:
    cfg = load_scenario("standard")
    return replace(cfg, **kw)


def test_c01_transaction_trace_suite():
    with criterion(1, "derived transaction traces pass under every scheme", 10):
        for scheme in ALL:
            for name, trace in DERIVED_TRACES:
                trace(Rig(scheme))


@pytest.mark.slow
def test_c02_zero_abort_guarantee():
    with criterion(2, "10k mixed tasks abort-free under glock/fgl/pesv", 900):
        for scheme in ABORT_FREE:
            cfg = desk(scheme=scheme, tasks_per_client=313)  # 32 x 313 = 10016
            started = time.monotonic()
            artifacts = _track(run_in_process(cfg))
            wall = time.monotonic() - started
            report = artifacts.report
            assert report.commits >= 10_016
            assert report.abort_ratio == 0.0, f"{scheme.name} aborted"
            assert report.retry_rate == 1.0, f"{scheme.name} retried"
            assert wall < 300, f"{scheme.name} took {wall:.0f}s, budget 300s"
            verdict = conflict_graph_serializable(artifacts.history)
            assert verdict.ok, f"{scheme.name}: {verdict.detail}"


def test_c03_occ_forced_conflict():
    with criterion(3, "optimistic counter correct under forced conflict", 120):
        per_client = 100
        for clients in (2, 4, 8):
            cluster = make_cluster(2)
            bucket = bucket_of(seqno_key(1), 8)
            barrier = threading.Barrier(clients)
            sink = EventSink()

            def worker(client_id: int) -> None:
                ctx = make_ctx(cluster, Scheme.OCC, buckets=8, delay_ms=1,
                               client_id=client_id, seed=client_id)
                ctx.sink = sink
                barrier.wait()
                for _ in range(per_client):
                    run_atomic(ctx, "incr", {bucket: 1}, lambda tx: tx.incr_seq(seqno_key(1)))

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            ctx = make_ctx(cluster, Scheme.OCC, buckets=8, client_id=99)
            final = run_atomic(ctx, "probe", {bucket: 1},
                               lambda tx: tx.read(seqno_key(1)))
            assert final == SeqPair(per_client * clients, 0), f"lost update at N={clients}"
            attempts = committed_attempts(sink)
            retry_rate = sum(attempts) / len(attempts)
            assert retry_rate > 1.0, f"no contention observed at N={clients}"


def test_c04_serializability_oracle():
    with criterion(4, "50 seeded small runs per scheme admit a serial witness", 300):
        for scheme in ALL:
            for seed in range(50):
                cfg = ScenarioConfig(
                    name="oracle", nodes=2, buckets=2, clients=3, tasks_per_client=1,
                    user_population=4, keyword_domain=8, op_delay_ms=0,
                    multicast_recipients=(1, 2), import_batch=(1, 3),
                    scheme=scheme, seed=seed,
                )
                artifacts = _track(run_in_process(cfg))
                assert len(artifacts.history.effects) <= 10
                state = state_from_snapshot(artifacts.snapshot)
                verdict = brute_force_serializable(artifacts.history, state)
                assert verdict.ok, f"{scheme.name} seed {seed}: {verdict.detail}"
                graph = conflict_graph_serializable(artifacts.history)
                assert graph.ok, f"{scheme.name} seed {seed}: {graph.detail}"
        history, final = write_skew_history()
        assert not brute_force_serializable(history, final).ok


@pytest.mark.slow
def test_c05_integrity_across_scenarios():
    scenarios = ["standard", "small-r", "small-rw", "small-w",
                 "large-r", "large-rw", "large-w"]
    with criterion(5, "integrity holds for every scheme on all seven mixes", 600):
        for scheme in ALL:
            for name in scenarios:
                cfg = replace(load_scenario(name), scheme=scheme)
                artifacts = _track(run_in_process(cfg))
                verdict = check_integrity(state_from_snapshot(artifacts.snapshot))
                assert verdict.ok, (
                    f"{scheme.name} on {name}: {verdict.violations[:3]}"
                )
                graph = conflict_graph_serializable(artifacts.history)
                assert graph.ok, f"{scheme.name} on {name}: {graph.detail}"


def _median_throughputs(cfg_base: ScenarioConfig, field: str, values, reps=5):
    out = {}
    for value in values:
        tputs = []
        for rep in range(reps):
            cfg = replace(cfg_base, **{field: value}, seed=cfg_base.seed + rep)
            tputs.append(_track(run_in_process(cfg)).report.throughput)
        med = statistics.median(tputs)
        mad = statistics.median(abs(t - med) for t in tputs)
        out[value] = (med, mad)
    return out


@pytest.mark.slow
def test_c06_delay_trend():
    with criterion(6, "lock-scheme throughput strictly falls as delay grows", 600):
        delays = [0, 1, 3, 5, 10]
        stats = _median_throughputs(desk(scheme=Scheme.FGL), "op_delay_ms", delays)
        for lo, hi in zip(delays, delays[1:]):
            med_lo, mad_lo = stats[lo]
            med_hi, mad_hi = stats[hi]
            drop = med_lo - med_hi
            noise = max(mad_lo, mad_hi)
            assert drop > noise, (
                f"delay {lo}->{hi}: drop {drop:.1f} within noise {noise:.1f}"
            )


@pytest.mark.slow
def test_c07_bucket_trend():
    with criterion(7, "throughput grows with bucket count; 512 vs 1 at least 2x", 600):
        buckets = [1, 8, 64, 512]
        for scheme in (Scheme.FGL, Scheme.OCC):
            stats = _median_throughputs(desk(scheme=scheme), "buckets", buckets)
            medians = [stats[b][0] for b in buckets]
            assert medians == sorted(medians), f"{scheme.name}: {medians}"
            if scheme is Scheme.FGL:
                assert medians[-1] >= 2.0 * medians[0], f"fgl ratio {medians}"


def test_c08_glock_serial_ceiling():
    with criterion(8, "serial baseline cannot beat its own critical path", 180):
        delay_ms = 3
        cfg = desk(scheme=Scheme.GLOCK, op_delay_ms=delay_ms)
        artifacts = _track(run_in_process(cfg))
        k = artifacts.mean_ops_per_txn()
        assert k > 0
        ceiling = 1000.0 / (delay_ms * k)
        assert artifacts.report.throughput <= ceiling * 1.05, (
            f"throughput {artifacts.report.throughput:.1f}/s beats "
            f"ceiling {ceiling:.1f}/s at k={k:.2f}"
        )


def test_c09_metrics_arithmetic():
    from test_metrics import fixture_events

    with criterion(9, "report matches the hand oracle; invariants hold everywhere", 60):
        r = aggregate(fixture_events())
        assert (r.commits, r.attempts, r.aborted_attempts) == (3, 5, 2)
        assert r.total_bucket_ops == 5
        assert r.abort_ratio == 2 / 5
        assert r.retry_rate == 5 / 3
        us = 1e-6
        assert abs(r.mean_flow_time_s - 2.0) < us
        assert abs(r.total_txn_time_s - 6.0) < us
        assert abs(r.total_retry_time_s - 2.0) < us
        assert abs(r.total_startup_time_s - 4.0) < us
        assert abs(r.throughput - 0.3) < us
        assert abs(r.txn_exec_ratio - 0.3) < us

        assert len(_REPORTS) > 100, "earlier criteria did not accumulate runs"
        for report in _REPORTS:
            report.check_invariants()
            assert report.retry_rate >= 1.0
            assert 0.0 <= report.txn_exec_ratio <= 1.0


def test_c10_determinism_across_transports():
    with criterion(10, "equal seeds give byte-identical snapshots on both transports", 300):
        cfg = desk(scheme=Scheme.GLOCK, clients=8, tasks_per_client=2,
                   buckets=64, op_delay_ms=0, user_population=32, seed=77)

        loop_a = run_in_process(cfg)
        loop_b = run_in_process(cfg)
        assert loop_a.snapshot == loop_b.snapshot
        assert loop_a.report.commits == loop_b.report.commits

        def tcp_run():
            node_ids = cfg.node_ids()
            layout = RingLayout.from_node_ids(node_ids)
            servers = []
            endpoints = {}
            for nid in node_ids:
                srv = TcpNodeServer(Node(nid, layout), "127.0.0.1", 0)
                srv.start()
                servers.append(srv)
                endpoints[nid] = ("127.0.0.1", srv.port)
            transports = []

            def tf(_i):
                t = TcpTransport(endpoints)
                transports.append(t)
                return t

            try:
                return run_scenario(cfg, tf, layout)
            finally:
                for t in transports:
                    t.close()
                for srv in servers:
                    srv.stop()

        tcp_a = tcp_run()
        tcp_b = tcp_run()
        assert tcp_a.snapshot == tcp_b.snapshot
        assert tcp_a.report.commits == tcp_b.report.commits
        assert tcp_a.snapshot == loop_a.snapshot, "transports disagree on final state"
        assert tcp_a.report.commits == loop_a.report.commits
