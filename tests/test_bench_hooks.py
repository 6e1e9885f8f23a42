"""The benchmark's traced run patches program attributes by name.

``perfbench/tracing.py`` wraps functions and methods at the names the
program looks them up by; a rename under ``src/`` would break
``perfbench/run.py --trace 1`` without failing any other test.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from helenos import cc, driver, metrics, store, workload

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_run_patch_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
