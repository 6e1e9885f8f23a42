"""The helenos benchmark: one workload, every scheme, checked and timed.

    python3 perfbench/run.py --workload loopback-d0 --seed 1 --seconds 55 --trace 0

With ``--trace 0`` it runs passes over the four schemes (each scheme on a
fresh cluster, with a fixed task count) for about ``--seconds``, and at
least the workload's minimum passes, and prints the end-to-end metrics.
With ``--trace 1`` it runs one untraced and one traced pass and prints
the per-layer metrics. Every scheme run is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every run passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_specs(schemes) -> list[tuple[str, str]]:
    specs = []
    for s in schemes:
        specs += [(f"{s}.tps", "1/s"), (f"{s}.flow_mean_ms", "ms"), (f"{s}.flow_p99_ms", "ms")]
    return specs + [("occ.retry_rate", "attempts/commit"), ("check_s", "s"), ("setup_s", "s")]


def percentile_ms(samples_ns: list[int], pct: int) -> float:
    return statistics.quantiles(samples_ns, n=100, method="inclusive")[pct - 1] / 1e6


def pass_seed(seed: int, index: int) -> int:
    """Workload seed of one pass. Seeds 2k and 2k+1 give two clients the same
    two task streams (client c draws from seed ^ c), hence the stride of 2."""
    return seed * 1000 + 2 * index


def gate(runs, notes: list[str]) -> int:
    """Count failed runs; glock's snapshot must not depend on the repeat."""
    glock = [r for r in runs if r.scheme == "glock" and r.ok]
    for seed in {r.seed for r in glock}:
        shas = {r.snapshot_sha256 for r in glock if r.seed == seed}
        if len(shas) > 1:
            for r in glock:
                if r.seed == seed:
                    r.problems.append(f"glock snapshots of seed {seed} differ: {sorted(shas)}")
    for r in runs:
        for problem in r.problems:
            notes.append(f"FAILED {r.scheme}: {problem}")
    return sum(not r.ok for r in runs)


def measured(wl, seed: int, seconds: float, tasks: int, lines: list[str]):
    from workloads import SCHEMES, run_scheme

    passes, elapsed = [], 0.0
    start = time.perf_counter()
    # Start another pass while one of average length would end at most half
    # a pass after ``seconds``, so that runs last ``seconds`` on average
    # whatever a pass costs.
    while len(passes) < wl.min_passes or elapsed + elapsed / len(passes) / 2 <= seconds:
        seed_i = pass_seed(seed, len(passes))
        passes.append({s: run_scheme(wl, s, seed_i, tasks) for s in SCHEMES})
        elapsed = time.perf_counter() - start
    runs = [r for p in passes for r in p.values()]
    failed = gate(runs, lines)

    values: dict[str, float | None] = {}
    for s in SCHEMES:
        ok = [p[s] for p in passes if p[s].ok]
        flows = [ns for r in ok for ns in r.flows_ns]
        values[f"{s}.tps"] = statistics.median(r.tps for r in ok) if ok else None
        values[f"{s}.flow_mean_ms"] = (statistics.median(r.mean_flow_s for r in ok) * 1e3
                                       if ok else None)
        values[f"{s}.flow_p99_ms"] = percentile_ms(flows, 99) if len(flows) > 1 else None
        lines.append(f"{s}: {len(ok)} runs, {len(flows)} commits, "
                     f"{len(flows) // 100} samples beyond p99")
    occ = [p["occ"] for p in passes if p["occ"].ok]
    values["occ.retry_rate"] = (sum(r.attempts for r in occ) / sum(r.commits for r in occ)
                                if occ else None)
    for name in ("check_s", "setup_s"):
        # Each scheme's median over passes, summed over schemes: one slow
        # check in any scheme would otherwise make its whole pass an outlier.
        per_scheme = [[getattr(p[s], name) for p in passes if p[s].ok] for s in SCHEMES]
        values[name] = (sum(statistics.median(v) for v in per_scheme)
                        if all(per_scheme) else None)
    lines.append(f"{len(passes)} passes in {time.perf_counter() - start:.1f} s; tps and "
                 "flow_mean_ms are medians over passes, check_s and setup_s sum each scheme's "
                 "median over passes, flow_p99_ms pools the passes")
    return values, len(runs), failed


def traced(work_dir, wl, seed: int, tasks: int, lines: list[str]):
    from layers import INBOX_SIZES, exact_counters, inbox_read_ms, layer_metrics
    from tracing import Patches, Tracer, install_client_side, install_node_side
    from workloads import SCHEMES, run_scheme

    seed = pass_seed(seed, 0)  # the inputs of the first measured pass
    untraced = {s: run_scheme(wl, s, seed, tasks) for s in SCHEMES}
    tracer, patches = Tracer(), Patches()
    install_node_side(tracer, patches)
    install_client_side(tracer, patches)
    try:
        spans = {s: work_dir / f"spans-{s}.tsv" for s in SCHEMES}
        traced_runs = {s: run_scheme(wl, s, seed, tasks, tracer, spans[s])
                       for s in SCHEMES}
        glock_again = run_scheme(wl, "glock", seed, tasks, tracer)
    finally:
        patches.undo()
    runs = [*untraced.values(), *traced_runs.values(), glock_again]
    if traced_runs["glock"].ok and glock_again.ok:
        first, second = exact_counters(traced_runs["glock"]), exact_counters(glock_again)
        if first != second:
            glock_again.problems.append(f"glock counters differ between repeats: {first} != {second}")
        lines.append("glock exact counters (commits, storage frames, cc frames, request bytes, "
                     f"reply bytes, applies): {first}")
    failed = gate(runs, lines)
    lines.append(f"span dumps: {', '.join(str(p.relative_to(ROOT)) for p in spans.values())}")

    probe = {n: inbox_read_ms(n) for n in INBOX_SIZES}
    if failed:
        return {}, len(runs), failed
    return layer_metrics(traced_runs, untraced, probe), len(runs), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tasks", type=int, help="tasks per client (default: the workload's)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "helenos" / "__init__.py").is_file():
        print(f"perfbench: no helenos sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not __debug__:
        print("perfbench: the correctness gate needs assertions; run without -O", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from layers import LAYER_METRICS
    from workloads import SCHEMES, WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = ROOT / ".bench_build" / "perfbench" / wl.name
    work_dir.mkdir(parents=True, exist_ok=True)
    tasks = args.tasks or wl.tasks_per_client

    lines = [f"workload {wl.name}: {wl.why}",
             f"seed {args.seed}, {wl.clients} closed-loop clients x {tasks} tasks per scheme run"]
    if args.trace:
        values, attempted, failed = traced(work_dir, wl, args.seed, tasks, lines)
        specs = LAYER_METRICS
    else:
        values, attempted, failed = measured(wl, args.seed, args.seconds, tasks, lines)
        specs = end_to_end_specs(SCHEMES)
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in specs}
    for name, m in metrics.items():
        lines.append(f"{name:40s} {m['value']!s:>24} {m['unit']}")
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
