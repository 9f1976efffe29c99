"""graphmem benchmark: one seeded workload, timed end to end, or per layer
with ``--trace 1``.

    python3 perfbench/run.py --workload rollout-search --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it starts ``graphmem`` from ``src/`` and
works in ``.perfbench/`` there.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md for the workloads, the
metrics and the layer each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

import gen
import tracing
import workloads

WORKLOADS = ("rollout-search", "rollout-deep", "search-http", "train-prep")
# Each workload's throughput and latency, under the name its README row uses.
THROUGHPUT_NAME = {
    "rollout-search": "episodes_per_s", "rollout-deep": "episodes_per_s",
    "search-http": "search_rps", "train-prep": "prep_segments_per_s",
}
LATENCY_NAME = {
    "rollout-search": "turn_gap_ms (per retrieve cycle)",
    "rollout-deep": "turn_gap_ms (per retrieve cycle)",
    "search-http": "search_ms", "train-prep": "prune_ms (per invocation)",
}
PER_LAYER_UNITS = {
    ".s": "s", ".mb": "MB", "_pct": "%", "bytes_total": "bytes", "chars_total": "chars",
}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ms" if "ms" in name.rsplit(".", 1)[-1] else "count"


E2E_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_ms_p50": "ms",
             "latency_ms_p90": "ms", "peak_rss_mb": "MB"}


def end_to_end(result: workloads.PassResult) -> dict[str, float]:
    return {
        "setup_s": statistics.median(result.setup_s) if result.setup_s else 0.0,
        "throughput_per_s": result.throughput(),
        "latency_ms_p50": result.latency(50),
        "latency_ms_p90": result.latency(90),
        "peak_rss_mb": statistics.median(result.rss_mb) if result.rss_mb else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "graphmem" / "cli.py").is_file():
        print(f"error: {root} holds no graphmem sources (src/graphmem); run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    nproc = len(os.sched_getaffinity(0))
    base = root / ".perfbench"
    work = base / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        passes = run_workload(args.workload, root, work, args.seed, args.seconds,
                              bool(args.trace), nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    plain = passes[0]
    errors = [e for p in passes for e in p.errors]
    metrics = end_to_end(plain)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{plain.rounds} rounds, {nproc} cpus")
    for kind, ops in plain.ops.items():
        print(f"  ops {kind}: attempted {ops.attempted}, failed {ops.failed}")
    for name, value in metrics.items():
        alias = {"throughput_per_s": THROUGHPUT_NAME[args.workload]}.get(name, "")
        if name.startswith("latency_ms"):
            alias = f"{LATENCY_NAME[args.workload]} {name[-3:]}, n={plain.samples()}"
        print(f"  {name} = {value:.6g} {E2E_UNITS[name]}" + (f"  [{alias}]" if alias else ""))
    for error in errors[:20]:
        print(f"  CHECK FAILED: {error}")
    if len(errors) > 20:
        print(f"  ... {len(errors) - 20} more check failures")

    report = {
        "e2e": metrics,
        "errors": errors,
        "ops": {k: vars(v) for k, v in plain.ops.items()},
        "rounds": {
            "setup_s": plain.setup_s,
            "throughput_per_s": plain.round_throughput,
            "latency_ms_p50": [tracing.percentile(r, 50) for r in plain.round_latencies_ms],
            "latency_ms_p90": [tracing.percentile(r, 90) for r in plain.round_latencies_ms],
            "latencies_ms": plain.round_latencies_ms,
        },
    }
    if args.trace:
        traced = passes[1]
        layer = tracing.summarize(traced.span_dumps, traced.rounds)
        layer["runtime.policy.connections"] = traced.connections_per_episode
        if args.workload == "search-http":
            layer["server.overhead_ms_p50"] = max(
                0.0, traced.latency(50) - layer["server.search.ms_p50"])
        else:
            layer["server.overhead_ms_p50"] = 0.0
        layer["trace.overhead_pct"] = (
            (plain.throughput() / traced.throughput() - 1) * 100 if traced.throughput() else 0.0)
        for name, value in layer.items():
            print(f"  {name} = {value:.6g} {_unit(name)}")
        out_metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layer.items()}
        report["per_layer"] = layer
        traces = base / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{args.workload}-{args.seed}.json").write_text(
            json.dumps(traced.span_dumps), encoding="utf-8")
    else:
        out_metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                       for name, value in metrics.items()}
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")

    ops = list(plain.ops.values()) + (list(passes[1].ops.values()) if args.trace else [])
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(o.attempted for o in ops),
        "failed": sum(o.failed for o in ops),
        "metrics": out_metrics,
    }))
    return 0


def run_workload(name: str, root: Path, work: Path, seed: int, seconds: float, trace: bool,
                 nproc: int) -> list[workloads.PassResult]:
    if name == "rollout-search":
        return workloads.rollout(root, work, seed, seconds, trace, gen.ROLLOUT_SEARCH)
    if name == "rollout-deep":
        return workloads.rollout(root, work, seed, seconds, trace, gen.ROLLOUT_DEEP)
    if name == "search-http":
        return workloads.search_http(root, work, seed, seconds, trace, nproc)
    return workloads.train_prep(root, work, seed, seconds, trace)


if __name__ == "__main__":
    sys.exit(main())
