"""Fast self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches the code, that each workload prints
every end-to-end metric with its unit and, traced, every per-layer
metric, that the correctness gate fails runs whose output is wrong or
whose client raises, and that the command fails without the sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import LAYER_METRICS  # noqa: E402
from run import end_to_end_specs, gate  # noqa: E402
from tracing import Patches  # noqa: E402
from workloads import SCHEMES, WORKLOADS, run_scheme  # noqa: E402

TINY_TASKS = "4"


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tasks", TINY_TASKS],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def check_spec(spec: dict) -> None:
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why, w["name"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == end_to_end_specs(SCHEMES)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS


def check_output(workload: str, trace: int, expected: list[dict]) -> None:
    code, stdout = run_bench(workload, trace)
    result = json.loads(stdout.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0, (workload, trace, result)
    assert result["attempted"] >= len(SCHEMES)
    printed = {name: m["unit"] for name, m in result["metrics"].items()
               if isinstance(m["value"], (int, float))}
    assert printed == {m["name"]: m["unit"] for m in expected}, (workload, trace, printed)


def check_gate() -> None:
    """A wrong output and a raised client error each fail the run."""
    from helenos import store, transport
    from helenos.model import TableId
    from helenos.wire import Append, Read

    wl = WORKLOADS["loopback-d0"]
    patches = Patches()
    apply = store.StorageEngine.apply

    def lose_messages(engine, bucket, op):  # acknowledges messages it never stores
        if isinstance(op, Append) and op.key.table is TableId.MESSAGE:
            seq, version, _ = apply(engine, bucket, Read(op.key))
            return seq, version, op.item
        return apply(engine, bucket, op)

    patches.set(store.StorageEngine, "apply", lose_messages)
    try:
        lossy = run_scheme(wl, "fgl", 7, 20)
    finally:
        patches.undo()
    assert not lossy.ok, "gate passed a run that lost its messages"

    def refuse(_cluster, _node_id, _frame):
        raise ConnectionError("injected transport failure")

    patches.set(transport.LoopbackCluster, "request", refuse)
    try:
        with contextlib.redirect_stderr(io.StringIO()):  # the expected tracebacks
            broken = run_scheme(wl, "pesv", 7, 2)
    finally:
        patches.undo()
    assert not broken.ok and "injected" in broken.problems[0], broken.problems

    good = run_scheme(wl, "glock", 7, 2)
    notes: list[str] = []
    assert gate([good, lossy, broken], notes) == 2 and len(notes) >= 2, notes


def check_bare_directory() -> None:
    """Without src/ the command must fail and print no result."""
    bare = ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, stdout = run_bench("loopback-d0", 0, cwd=bare)
    assert code != 0 and '"correct"' not in stdout, (code, stdout)
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    for workload in WORKLOADS:
        check_output(workload, 0, spec["end_to_end"])
        check_output(workload, 1, spec["per_layer"])
        print(f"ok {workload}", flush=True)
    check_gate()
    print("ok correctness gate", flush=True)
    check_bare_directory()
    print("ok bare directory", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
