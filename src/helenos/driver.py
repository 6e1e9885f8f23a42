"""Closed-loop client driver: spawns clients, collects events, snapshots.

Clients run on threads, one per client, sharing nothing but the transport
endpoints and the event sink. The serial-baseline scheme is the one
exception: its clients are interleaved round-robin on a single thread at
task granularity, which keeps the global lock's arrival order (and hence
the final state) reproducible from the seed alone.

A run leaves ``RunArtifacts``: its report, its events and the merged final
snapshot, which ``verify.check_run`` checks.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .cc import TxnContext
from .config import ScenarioConfig
from .errors import HelenosError
from .metrics import EventSink, MetricsReport, aggregate
from .model import RingLayout
from .store import merge_snapshots
from .transport import LoopbackCluster, Transport, unwrap_reply
from .wire import Op, Scheme, control_request
from .workload import ClientRuntime, pick_task

_BACKOFF_SALT = 0x5EED_B0FF


@dataclass
class RunArtifacts:
    report: MetricsReport
    events: list
    snapshot: bytes


def repetition_seeds(cfg: ScenarioConfig, n: int) -> list[int]:
    """The seeds of ``n`` repetitions of ``cfg``, the first being its own.

    Client c draws from ``seed ^ c``, so seeds that agree above the bits the
    client ids use hand the same task streams to different clients. The
    seeds are therefore spaced by the smallest power of two that is at least
    ``cfg.clients``: each repetition's clients draw from their own block of
    seeds, and the repetitions are distinct workloads.
    """
    step = 1 << (cfg.clients - 1).bit_length()
    return [cfg.seed + rep * step for rep in range(n)]


def _make_runtime(cfg: ScenarioConfig, layout: RingLayout, transport: Transport,
                  client_id: int, sink: EventSink):
    ctx = TxnContext(
        transport=transport,
        layout=layout,
        scheme=cfg.scheme,
        buckets_per_table=cfg.buckets,
        delay_ms=cfg.op_delay_ms,
        client_id=client_id,
        backoff_rng=random.Random((cfg.seed ^ client_id) + _BACKOFF_SALT),
        sink=sink,
    )
    return ClientRuntime(ctx=ctx, cfg=cfg, rng=random.Random(cfg.seed ^ client_id))


def run_clients(
    cfg: ScenarioConfig,
    layout: RingLayout,
    transport_for: Callable[[int], Transport],
    sink: EventSink,
) -> None:
    """Execute clients x tasks-per-client tasks."""
    runtimes = [_make_runtime(cfg, layout, transport_for(i), i, sink) for i in range(cfg.clients)]
    groups = [runtimes] if cfg.scheme is Scheme.GLOCK else [[r] for r in runtimes]
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(groups))

    def drive(group: list) -> None:
        """Run the group's clients round-robin at task granularity."""
        barrier.wait()
        for runtime in group:
            sink.client_start(runtime.ctx.clock(), runtime.ctx.client_id)
        try:
            for _ in range(cfg.tasks_per_client):
                for runtime in group:
                    runtime.run_task(pick_task(cfg, runtime.rng))
        except BaseException as exc:  # run_clients raises it once every thread ended
            errors.append(exc)
        finally:
            for runtime in group:
                sink.client_end(runtime.ctx.clock(), runtime.ctx.client_id)

    threads = [
        threading.Thread(target=drive, args=(group,), daemon=True, name=f"client{i}")
        for i, group in enumerate(groups)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise HelenosError(f"client failed: {errors[0]!r}") from errors[0]


def cluster_snapshot(transport: Transport, layout: RingLayout) -> bytes:
    """Merged, deterministic dump of every node's table state."""
    dumps = []
    for i, node_id in enumerate(layout.node_ids):
        req = control_request(i + 1, Op.SNAPSHOT)
        dumps.append(unwrap_reply(i + 1, transport.request(node_id, req)))
    return merge_snapshots(dumps)


def run_scenario(
    cfg: ScenarioConfig,
    transport_for: Callable[[int], Transport],
    layout: RingLayout,
    snapshot_transport: Transport | None = None,
) -> RunArtifacts:
    """One full run: clients, aggregation, and final snapshot."""
    started = time.monotonic_ns()
    sink = EventSink()
    run_clients(cfg, layout, transport_for, sink)
    events = sink.events()
    total_s = (time.monotonic_ns() - started) / 1e9
    report = aggregate(events, total_time_s=total_s)
    report.check_invariants()
    snap_transport = snapshot_transport if snapshot_transport is not None else transport_for(0)
    snapshot = cluster_snapshot(snap_transport, layout)
    return RunArtifacts(report, events, snapshot)


def run_in_process(cfg: ScenarioConfig) -> RunArtifacts:
    """Convenience: run a scenario against a fresh loopback cluster."""
    cluster = LoopbackCluster(cfg.node_ids())
    return run_scenario(cfg, lambda _i: cluster, cluster.layout)
