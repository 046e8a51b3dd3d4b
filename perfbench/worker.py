"""One benchmark process: set up a workload, then measure or trace it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

Modes: ``setup`` stops once imports are done and inputs exist; ``measure``
runs passes over the inputs, with tracing off, until the next pass would
end after S seconds of requests; ``trace`` runs a warm-up pass, one traced
pass and one untraced pass.  Answers are checked after each pass, outside the timed
requests.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing
from workloads import BENCH_DIR, ROOT, WORKLOADS, CliCold

OUT_DIR = ROOT / ".perfbench"


def import_times(stderr: str) -> dict:
    """Import costs in seconds from ``python -X importtime`` output: numpy
    and click cumulative, ghostgraph's own modules, and all imports."""
    numpy_us = click_us = ghost_us = total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us = int(fields[0]), int(fields[1])
        name = fields[2].strip()
        total_us += self_us
        if name == "numpy":
            numpy_us += cumulative_us
        elif name == "click":
            click_us += cumulative_us
        elif name == "ghostgraph" or name.startswith("ghostgraph."):
            ghost_us += self_us
    return {
        "numpy_s": numpy_us / 1e6,
        "click_s": click_us / 1e6,
        "ghostgraph_s": ghost_us / 1e6,
        "total_s": total_us / 1e6,
    }


def provenance() -> dict:
    """Where the numbers came from.  Imports numpy, so call it only after
    the timed phase."""

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "openblas": None,
        "openblas_threads": None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(),
    }
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    try:
        maps = Path("/proc/self/maps").read_text().split()
        lib = next(p for p in maps if "openblas" in p and ".so" in p)
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                info["openblas_threads"] = fn()
                break
    except (OSError, StopIteration):
        pass
    return info


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Checker:
    """Checks answers once per distinct (request, answer) pair."""

    def __init__(self, workload):
        self.workload = workload
        self.verdicts: dict[tuple, str | None] = {}
        self.errors: list[str] = []

    def verdict(self, index: int, request, answer, error: str | None) -> bool:
        if error is None:
            fp = self.workload.fingerprint(request, answer)
            key = (index, hashlib.sha256(fp.encode()).digest())
            if key not in self.verdicts:
                self.verdicts[key] = self.workload.check(request, answer)
            error = self.verdicts[key]
        if error is not None and len(self.errors) < 20:
            self.errors.append(f"request {index}: {error}")
        return error is None


def run_pass(workload, call=None):
    """Answer every request once; returns [(index, answer, error, seconds)]."""
    results = []
    for i, request in enumerate(workload.requests):
        start = time.perf_counter()
        try:
            answer = call(i, workload.run, request) if call else workload.run(request)
            error = None
        except Exception as exc:  # a failed request is counted, not fatal
            answer, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append((i, answer, error, seconds))
    return results


def check_pass(checker, workload, results):
    """Returns (latencies of checked-good requests, failed count)."""
    good, failed = [], 0
    for i, answer, error, seconds in results:
        if checker.verdict(i, workload.requests[i], answer, error):
            good.append(seconds)
        else:
            failed += 1
    return good, failed


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def measure(workload, seconds: float) -> dict:
    checker = Checker(workload)
    latencies, passes = [], []
    attempted = failed = 0
    rss = None
    while True:
        results = run_pass(workload)
        if rss is None:
            rss = peak_rss_mb()
        good, bad = check_pass(checker, workload, results)
        latencies += good
        attempted += len(results)
        failed += bad
        passes.append(sum(r[3] for r in results))
        del results  # answers must not stay alive during the next pass
        if sum(passes) + statistics.median(passes) > seconds:
            break
    return {
        "latencies_s": latencies,
        "passes_s": passes,
        "attempted": attempted,
        "failed": failed,
        "errors": checker.errors,
        "peak_rss_mb": rss,
    }


def cold_guard(tracer):
    """Wrap a classify request so the trace proves every call scanned from
    scratch: one base-graph enumeration per call, one scan per base graph."""
    counts, stats = tracer.counts, tracer.stats

    def call(i, fn, request):
        graphs0 = counts["graphs.enumerate_base_graphs.graphs"]
        enum0 = stats["graphs.enumerate_base_graphs"][0]
        scans0 = stats["classify.scan_graph"][0]
        answer = tracer.request(i, fn, request)
        graphs = counts["graphs.enumerate_base_graphs.graphs"] - graphs0
        scans = stats["classify.scan_graph"][0] - scans0
        enumerations = stats["graphs.enumerate_base_graphs"][0] - enum0
        if enumerations != len(request) or scans != graphs:
            raise RuntimeError(
                f"request {i} not cold: {enumerations} enumerations for "
                f"{len(request)} calls, {scans} scans of {graphs} graphs"
            )
        return answer

    return call


def trace_in_process(workload, name: str):
    tracer = tracing.Tracer()
    tracer.install()
    call = cold_guard(tracer) if name.startswith("classify") else tracer.request
    origin = time.perf_counter()
    try:
        results = run_pass(workload, call)
    finally:
        tracer.uninstall()
    with gzip.open(OUT_DIR / f"spans-{name}.jsonl.gz", "wt") as out:
        tracing.write_spans(out, tracer.spans, origin)
    summary = tracer.summary()
    summary["spans"] = len(tracer.spans)
    return results, summary, []


def trace_cli(workload: CliCold, name: str, workdir: Path):
    """Each CLI process runs under the tracer and ``-X importtime``; its
    trace file is read after the pass, outside the timed calls."""
    workload.launcher = [sys.executable, "-X", "importtime", str(BENCH_DIR / "cli_shim.py")]
    walls = {}

    def call(i, fn, request):
        workload.env["PERFBENCH_TRACE_OUT"] = str(workdir / f"trace{i}.json")
        start = time.perf_counter()
        answer = fn(request)
        walls[i] = time.perf_counter() - start
        return answer

    try:
        results = run_pass(workload, call)
    finally:
        workload.launcher = CliCold.LAUNCHER
        del workload.env["PERFBENCH_TRACE_OUT"]
    summary = {"stats": {}, "counts": {}, "spans": 0}
    processes = []
    with gzip.open(OUT_DIR / f"spans-{name}.jsonl.gz", "wt") as out:
        for i, answer, error, _ in results:
            if error is not None:
                continue
            record = json.loads((workdir / f"trace{i}.json").read_text())
            tracing.merge(summary, record)
            tracing.write_spans(
                out, record["spans"], record["origin"], op=i, id_offset=summary["spans"]
            )
            summary["spans"] += len(record["spans"])
            imports = import_times(answer[2])
            other = walls[i] - imports["total_s"] - record["command_s"]
            processes.append({"imports": imports, "other_s": other})
    return results, summary, processes


def trace(workload, name: str, workdir: Path) -> dict:
    """A warm-up pass, the traced pass, then an untraced pass to compare
    the traced one with; every answer is checked."""
    checker = Checker(workload)

    def checked(results) -> float:
        """Check a pass, count its failures, return its request time."""
        nonlocal attempted, failed
        attempted += len(results)
        failed += check_pass(checker, workload, results)[1]
        return sum(r[3] for r in results)

    attempted = failed = 0
    checked(run_pass(workload))
    if isinstance(workload, CliCold):
        results, summary, processes = trace_cli(workload, name, workdir)
    else:
        results, summary, processes = trace_in_process(workload, name)
    summary["wall_s"] = checked(results)
    del results  # answers must not stay alive during the next pass
    summary["untraced_wall_s"] = checked(run_pass(workload))
    summary.update(
        processes=processes, attempted=attempted, failed=failed, errors=checker.errors
    )
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        cls = WORKLOADS[args.workload]
        if cls is CliCold:
            workload = cls(args.seed, workdir)
        else:
            workload = cls(args.seed)
        ready = time.monotonic()
        if args.mode == "setup":
            result = {}
        elif args.mode == "measure":
            result = measure(workload, args.seconds)
        else:
            result = trace(workload, args.workload, workdir)
        result["ready"] = ready
        result["requests_per_pass"] = len(workload.requests)
        if args.mode != "setup":
            result["provenance"] = provenance()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
