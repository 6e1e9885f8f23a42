"""Mutant table: each verdict catches the fault it claims to.

Each row breaks one name in the program for the test's duration, runs two
small shapes on three seeds each, and names the check that must refuse
every run: the run itself raising, or ``check_run``'s serializability
verdict, and its integrity verdict where the fault reaches the snapshot.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from helenos import cc, metrics, store
from helenos.config import load_scenario
from helenos.driver import run_in_process
from helenos.errors import HelenosError
from helenos.model import TableId
from helenos.verify import check_run
from helenos.wire import FLAG_RELEASE_AFTER, Op, Scheme

SHAPES = {
    "standard": replace(load_scenario("standard"), op_delay_ms=1),
    # The hot-writes shape: small-w's send/clear mix on four buckets.
    "hot-writes": replace(load_scenario("small-w"), nodes=4, buckets=4, op_delay_ms=1,
                          clients=2, tasks_per_client=30),
}
RUNS = [(shape, seed) for shape in SHAPES for seed in (1, 2, 3)]


@pytest.fixture(params=RUNS, ids=[f"{shape}-{seed}" for shape, seed in RUNS])
def run(request):
    """Runs the shape of this parameter under a scheme, on its seed."""
    shape, seed = request.param
    return lambda scheme: run_in_process(replace(SHAPES[shape], scheme=scheme, seed=seed))


def test_occ_validation_that_always_passes(monkeypatch, run):
    monkeypatch.setattr(store.Node, "_occ_validate", lambda _node, _bucket, _txn, _version: True)
    artifacts = run(Scheme.OCC)
    verdict, _integrity = check_run(artifacts.events, artifacts.snapshot)
    assert not verdict.ok


def test_store_drops_every_13th_term_write(monkeypatch, run):
    # The node reaches store_entry through its module's wire binding; the
    # checker's own binding keeps the real one, so its replay is honest.
    store_entry, term_writes = store.wire.store_entry, itertools.count(1)

    def lossy_store_entry(data, key, entry):
        if key.table is TableId.TERM and next(term_writes) % 13 == 0:
            return  # acknowledged, never stored
        store_entry(data, key, entry)

    monkeypatch.setattr(store.wire, "store_entry", lossy_store_entry)
    artifacts = run(Scheme.FGL)
    verdict, integrity = check_run(artifacts.events, artifacts.snapshot)
    assert not verdict.ok
    assert verdict.detail.startswith("witness replay: ")
    assert not integrity.ok  # a stored message is missing from a TERM index


def test_recorder_drops_every_13th_write_row(monkeypatch, run):
    bucket_op, writes = metrics.EventSink.bucket_op, itertools.count(1)

    def lossy_bucket_op(sink, time_ns, txn_id, client_id, attempt, bucket, op_index, kind,
                        *rest):
        if kind != "read" and next(writes) % 13 == 0:
            return  # applied by the node, never recorded
        bucket_op(sink, time_ns, txn_id, client_id, attempt, bucket, op_index, kind, *rest)

    monkeypatch.setattr(metrics.EventSink, "bucket_op", lossy_bucket_op)
    artifacts = run(Scheme.FGL)
    verdict, _integrity = check_run(artifacts.events, artifacts.snapshot)
    assert not verdict.ok
    assert verdict.detail.startswith("witness replay: ")


def fgl_unlock_after_first_access(handle, bucket, op):
    first = handle.remaining[bucket] == handle.plan[bucket]
    result = handle._send_storage(bucket, op, handle._next_op_index())[0]
    if first:  # the real handle gives the lock back after the last access
        handle._give_back(Op.FGL_UNLOCK, bucket)
    return result


def test_fgl_lock_given_back_after_the_first_access(monkeypatch, run):
    monkeypatch.setattr(cc.FglHandle, "_perform", fgl_unlock_after_first_access)
    with pytest.raises(HelenosError, match="bucket lock not held by the accessing transaction"):
        run(Scheme.FGL)


def pesv_release_after_first_access(handle, bucket, op):
    first = handle.remaining[bucket] == handle.plan[bucket]
    last = handle.remaining[bucket] == 1
    # The real handle sets the flag on the last access.
    flags = FLAG_RELEASE_AFTER if first else 0
    result = handle._send_storage(bucket, op, handle._next_op_index(), flags,
                                  handle.held[Op.VER_RELEASE, bucket])[0]
    if last:
        del handle.held[Op.VER_RELEASE, bucket]
    return result


def test_pesv_version_released_after_the_first_access(monkeypatch, run):
    monkeypatch.setattr(cc.PesvHandle, "_perform", pesv_release_after_first_access)
    with pytest.raises(HelenosError, match="is not waiting"):
        run(Scheme.PESV)
