"""The ghostgraph benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all`` of them) from the root of a checkout, each
in fresh interpreters, and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
a traced run.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import import_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("classify", "age_queries", "cli_cold")
SETUP_SAMPLES = 3
# One OpenBLAS thread for the workers and the CLI processes they start.  With
# the default of two on a 2-vCPU shared host, the float32 products of the
# level-7 maximal scan spun both vCPUs for no gain in wall time, and classify
# pass times spread three times wider from run to run than with one thread.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")
# one workload's run must end within 180 s: workers still running after
# this many seconds are stopped
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solve_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
}

# per-layer metrics: (name, unit); <function>.<calls|self_s|total_s> come
# from the tracer's per-function stats
PER_LAYER = [
    ("graphs.canonical_code.calls", "count"),
    ("graphs.canonical_code.self_s", "s"),
    ("graphs.enumerate_base_graphs.total_s", "s"),
    ("graphs.separating_edges.self_s", "s"),
    ("graphs.contract_edges.self_s", "s"),
    ("graphs.spanning_tree.self_s", "s"),
    ("graphs.fundamental_circuits.self_s", "s"),
    ("cochains.circuit_sum.calls", "count"),
    ("cochains.circuit_sum.self_s", "s"),
    ("cochains.cut_basis.self_s", "s"),
    ("cochains.boundary.calls", "count"),
    ("cochains.boundary.self_s", "s"),
    ("decorated.genus_labeling.calls", "count"),
    ("decorated.genus_labeling.self_s", "s"),
    ("decorated.gamma0.self_s", "s"),
    ("decorated.contract_decorated.self_s", "s"),
    ("decorated.gamma_p.self_s", "s"),
    ("ghosts.minimal_age_report.calls", "count"),
    ("ghosts.minimal_age_report.self_s", "s"),
    ("ghosts.minimal_age_report.total_s", "s"),
    ("ghosts.GhostGroup.elements.calls", "count"),
    ("ghosts.GhostGroup.elements.self_s", "s"),
    ("ghosts.GhostGroup.elements.yielded", "count"),
    ("ghosts.ghost_group.self_s", "s"),
    ("ghosts.reduced_core.self_s", "s"),
    ("ghosts.vine_witness.self_s", "s"),
    ("ghosts.alpha_beta.self_s", "s"),
    ("classify.scan_graph.calls", "count"),
    ("classify.scan_graph.self_s", "s"),
    ("classify.scan_graph.decorations", "count"),
    ("classify.scan_graph.junior", "count"),
    ("classify.scan_graph.junior_ratio", "ratio"),
    ("classify.decoration_code.calls", "count"),
    ("classify.decoration_code.self_s", "s"),
    ("classify.classes_per_code_call", "ratio"),
    ("cli.build_report.total_s", "s"),
    ("graphs.self_s", "s"),
    ("cochains.self_s", "s"),
    ("decorated.self_s", "s"),
    ("ghosts.self_s", "s"),
    ("classify.self_s", "s"),
    ("cli.self_s", "s"),
    ("import.numpy_s", "s"),
    ("import.click_s", "s"),
    ("import.ghostgraph_s", "s"),
    ("import.total_s", "s"),
    ("cli.process.other_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
]
LAYERS = ("graphs", "cochains", "decorated", "ghosts", "classify", "cli")


class BenchError(RuntimeError):
    pass


def spawn_worker(workload, seed, seconds, mode, deadline: float, importtime=False):
    """Start a worker in a fresh interpreter; returns (its JSON result,
    stderr, seconds from spawn until its set-up was done)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
    ]
    spawned = time.monotonic()
    # its own session, so that a timeout also stops the CLI processes it started
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=WORKER_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {mode} worker timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{stderr[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, stderr, result["ready"] - spawned


def percentile(values, p: int) -> float:
    """The p-th percentile, interpolated between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    setups = [
        spawn_worker(workload, seed, seconds, "setup", deadline)[2]
        for _ in range(SETUP_SAMPLES)
    ]
    result, _, setup = spawn_worker(workload, seed, seconds, "measure", deadline)
    setups.append(setup)
    lat_ms = [s * 1000 for s in result["latencies_s"]]
    if not lat_ms:
        raise BenchError(f"every request failed: {result['errors'][:3]}")
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "solve_s": statistics.median(result["passes_s"]),
        "query_p50_ms": statistics.median(lat_ms),
        "query_p90_ms": percentile(lat_ms, 90),
        "queries_per_s": len(lat_ms) / sum(result["passes_s"]),
    }
    samples = {
        "setup_s": len(setups),
        "peak_rss_mb": 1,
        "solve_s": len(result["passes_s"]),
        "query_p50_ms": len(lat_ms),
        "query_p90_ms": len(lat_ms),
        "queries_per_s": len(lat_ms),
    }
    return result, metrics, samples


def stat(summary, name: str, field: int) -> float:
    return summary["stats"].get(name, [0, 0.0, 0.0])[field]


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    result, stderr, setup = spawn_worker(
        workload, seed, seconds, "trace", deadline, importtime=True
    )
    metrics = {}
    for name, unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("calls", "total_s", "self_s") and base not in LAYERS:
            metrics[name] = stat(result, base, ("calls", "total_s", "self_s").index(field))
    counts = result["counts"]
    for name in ("ghosts.GhostGroup.elements.yielded", "classify.scan_graph.decorations",
                 "classify.scan_graph.junior"):
        metrics[name] = counts.get(name, 0)
    decorations = counts.get("classify.scan_graph.decorations", 0)
    metrics["classify.scan_graph.junior_ratio"] = (
        counts.get("classify.scan_graph.junior", 0) / decorations if decorations else 0.0
    )
    code_calls = stat(result, "classify.decoration_code", 0)
    metrics["classify.classes_per_code_call"] = (
        counts.get("classify.classify_junior.classes", 0) / code_calls if code_calls else 0.0
    )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            v[2] for k, v in result["stats"].items() if k.split(".")[0] == layer
        )
    if result["processes"]:  # cli_cold: median over the traced CLI processes
        for key in ("numpy_s", "click_s", "ghostgraph_s", "total_s"):
            metrics[f"import.{key}"] = statistics.median(
                p["imports"][key] for p in result["processes"]
            )
        metrics["cli.process.other_s"] = statistics.median(
            p["other_s"] for p in result["processes"]
        )
    else:  # the traced worker itself
        imports = import_times(stderr)
        for key, value in imports.items():
            metrics[f"import.{key}"] = value
        metrics["cli.process.other_s"] = setup - imports["total_s"]
    metrics["trace.wall_s"] = result["wall_s"]
    metrics["trace.untraced_wall_s"] = result["untraced_wall_s"]
    metrics["trace.overhead_s"] = result["wall_s"] - result["untraced_wall_s"]
    metrics["trace.unattributed_s"] = stat(result, "op", 2)
    metrics["trace.spans"] = result["spans"]
    missing = [name for name, _ in PER_LAYER if name not in metrics]
    if missing:
        raise BenchError(f"per-layer metrics not computed: {missing}")
    metrics = {name: metrics[name] for name, _ in PER_LAYER}
    samples = {name: 1 for name, _ in PER_LAYER}
    return result, metrics, samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        result, metrics, samples = per_layer(workload, seed, seconds, deadline)
        units = dict(PER_LAYER)
    else:
        result, metrics, samples = end_to_end(workload, seed, seconds, deadline)
        units = END_TO_END
    attempted, failed = result["attempted"], result["failed"]
    print(f"# workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print(f"# provenance {json.dumps(result['provenance'], sort_keys=True)}")
    print(f"# requests per pass {result['requests_per_pass']}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]} (n={samples[name]})")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for error in result["errors"]:
        print(f"# error: {error}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ghostgraph" / "__init__.py").is_file() or not (
        ROOT / "snapshots"
    ).is_dir():
        print(f"error: {ROOT} holds no ghostgraph source tree (src/, snapshots/)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(outcomes))
    else:
        print(json.dumps(outcomes[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
