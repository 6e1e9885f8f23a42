"""The benchmark's traced run patches program attributes by name.

``perfbench/tracing.py`` wraps functions and methods at the names the
program looks them up by; a rename under ``src/`` would break
``perfbench/run.py --trace 1`` without failing any other test, and a
name left defined but off the path that waits would leave
``<scheme>.store.wait_ms_per_commit`` reading zero. Likewise
``perfbench/layers.py`` and ``workloads.py`` import program names and
build a ``Message`` by position.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from helenos import cc, driver, metrics, store, workload
from helenos.config import load_scenario
from helenos.verify import build_history
from helenos.wire import Scheme

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_patch_targets_resolve(tracing):
    before = (store.wire, store.Node.handle_frame, store.StorageEngine.apply, cc.decode_entry,
              workload.run_atomic, driver.run_clients, metrics.EventSink.txn_start)
    patches = tracing.Patches()
    try:
        # Each patch reads the attribute it replaces, so a missing name
        # raises AttributeError here.
        tracing.install_node_side(tracing.Tracer(), patches)
        tracing.install_client_side(tracing.Tracer(), patches)
    finally:
        patches.undo()
    assert (store.wire, store.Node.handle_frame, store.StorageEngine.apply, cc.decode_entry,
            workload.run_atomic, driver.run_clients, metrics.EventSink.txn_start) == before


def _commits(artifacts) -> int:
    return artifacts.report.commits


def _write_commits(artifacts) -> int:
    # An optimistic transaction takes commit locks only on the buckets it writes.
    return sum(any(op.kind != "read" for op in effect.ops)
               for effect in build_history(artifacts.events).effects)


# Wait spans each scheme's node-side calls must record, and the fewest
# transactions of a run that pass through each of them at least once.
WAIT_SPANS = {
    Scheme.GLOCK: (["store.wait.FifoLock.acquire"], _commits),
    Scheme.FGL: (["store.wait.FifoLock.acquire"], _commits),
    Scheme.OCC: (["store.wait.FifoLock.acquire"], _write_commits),
    Scheme.PESV: (["store.wait.FifoLock.acquire", "store.wait.SupremumTable.take",
                   "store.wait.SupremumTable.await_turn", "store.wait.SupremumTable.release"],
                  _commits),
}


@pytest.mark.parametrize("scheme", WAIT_SPANS, ids=lambda s: s.name.lower())
def test_traced_run_records_wait_spans(tracing, scheme):
    cfg = replace(load_scenario("small-w"), nodes=4, buckets=4, op_delay_ms=0, clients=2,
                  tasks_per_client=5, scheme=scheme, seed=3)
    tracer, patches = tracing.Tracer(), tracing.Patches()
    try:
        tracing.install_node_side(tracer, patches)
        tracing.install_client_side(tracer, patches)
        artifacts = driver.run_in_process(cfg)
    finally:
        patches.undo()
    summary = tracing.summarize(tracer.spans())
    names, floor = WAIT_SPANS[scheme]
    txns = floor(artifacts)
    assert txns > 0
    for name in names:
        calls = summary.get(name, [0])[0]
        assert calls >= txns, f"{calls} {name} spans for {txns} {scheme.name} transactions"


# perfbench's modules import each other by plain name from their own directory.
PERFBENCH_MODULES = ("layers", "workloads", "tracing")


@pytest.fixture
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in PERFBENCH_MODULES:
        sys.modules.pop(name, None)


def test_inbox_read_probe_runs(perfbench_on_path):
    layers = importlib.import_module("layers")  # imports workloads and tracing
    assert layers.inbox_read_ms(100) > 0
