"""Benchmark for the straus engine: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload stats-range --seed 1 --seconds 30 --trace 0

The library is imported from ./src, never from an installed copy.  The last
line of stdout is the result, {"correct", "attempted", "failed", "metrics"};
the line before it records the machine and the sample counts.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run makes
untraced and traced passes over the same inputs and reports per-layer
metrics and the tracing overhead.  See README.md beside this file for every
metric's definition.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from math import ceil, floor, inf
from pathlib import Path
from time import perf_counter

from calibrate import Calibration
from layers import layer_metrics, trace_library, trace_pmap
from workloads import ClaimSweeps, PrimeQueries, StatsRange, reset_caches

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {w.name: w for w in (StatsRange, ClaimSweeps, PrimeQueries)}
SETUP_REPEATS = 15  # fresh interpreters per run, spread between the passes
SETUP_CODE = (
    "import straus; straus.load_rules('theorem5'); straus.load_rules('conjecture3-table')"
)
FAILED_LATENCY_MS = 1e9  # reported when a percentile falls on a failed operation


def import_straus():
    """Import straus from ROOT/src; exit 1 if the checkout has no source."""
    src = ROOT / "src"
    if not (src / "straus" / "__init__.py").is_file():
        sys.exit(f"perfbench: no straus source under {src}")
    sys.path.insert(0, str(src))
    straus = importlib.import_module("straus")
    if Path(straus.__file__).resolve().parent != (src / "straus").resolve():
        sys.exit(f"perfbench: imported straus from {straus.__file__}, not {src}")
    importlib.import_module("straus.cli")
    return straus


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; an infinite (failed) neighbour makes
    the result infinite."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo, hi = floor(pos), ceil(pos)
    if lo == hi:
        return v[lo]
    if v[hi] == inf:
        return inf
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def measure_setup(repeats: int) -> list[float]:
    """Wall times for fresh interpreters to import straus and load both
    bundled rule tables (checksum and sample-prime validation)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (a pmap
    worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def run_pass(straus, workload, workers, tracer=None):
    reset_caches(straus)
    if tracer is None:
        return workload.run_pass(workers)
    with tracer:
        return workload.run_pass(workers, tracer)


def timed_run(straus, workload, seconds: float):
    """Untraced passes at workers=1 until the next one would overrun
    `seconds`, under machine-speed calibration.  Set-up is measured in small
    batches after each pass, with the calibration timer stopped, so that its
    median samples the same stretch of machine time as the passes."""
    passes, setup = [], []
    calibration = Calibration()
    batch = None
    start = perf_counter()
    while True:
        with calibration:
            passes.append(run_pass(straus, workload, 1))
        if batch is None:  # spread SETUP_REPEATS over the passes that fit
            batch = ceil(SETUP_REPEATS / max(1, int(seconds / (perf_counter() - start))))
        setup += measure_setup(batch)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    repeats = {}
    for p in passes:
        for op, ms in p.latencies_ms.items():
            repeats.setdefault(op, []).append(ms)
    latencies = [statistics.median(v) for v in repeats.values()]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    scale = calibration.scale()

    def latency(q):
        value = percentile(latencies, q)
        return FAILED_LATENCY_MS if value == inf else value * scale

    p50 = latency(0.50)
    metrics = {
        "primes_per_s": (workload.primes_per_op * 1e3 / p50, "1/s"),
        "query_p50_ms": (p50, "ms"),
        "query_p75_ms": (latency(0.75), "ms"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setup) * scale, "s"),
    }
    samples = {
        "pass_seconds": [p.seconds for p in passes],
        "latency_samples": len(latencies),
        "setup_samples": len(setup),
        "machine_scale": scale,
        "calibration_samples": len(calibration.samples),
    }
    return passes, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, samples


def traced_run(straus, workload):
    """Untraced and traced passes in the order U T T U at workers=1, so that
    a linear drift in machine speed cancels out of the overhead; then, for
    pmap users, a workers=2 reference pass.  Wrappers run inside forked
    workers would count into the workers' copies of the tracer, which are
    lost, so traced passes never fork."""
    load_s = []
    for _ in range(3):
        straus.construct.load_rules.cache_clear()
        start = perf_counter()
        straus.load_rules("theorem5")
        straus.load_rules("conjecture3-table")
        load_s.append(perf_counter() - start)
    tracers = [trace_pmap(straus), trace_library(straus),
               trace_library(straus), trace_pmap(straus)]
    passes = [run_pass(straus, workload, 1, t) for t in tracers]
    untraced = (passes[0], passes[3])
    ref = {
        "untraced_s": statistics.mean(p.seconds for p in untraced),
        "traced_s": statistics.mean(p.seconds for p in passes[1:3]),
        "pmap_w1_s": statistics.mean(t.counts["pmap_ok_s"] for t in (tracers[0], tracers[3])),
        "pmap_w2_s": 0.0,
        "load_rules_s": statistics.median(load_s),
    }
    if workload.uses_pmap:
        pmap2 = trace_pmap(straus)
        passes.append(run_pass(straus, workload, 2, pmap2))
        ref["pmap_w2_s"] = pmap2.counts["pmap_ok_s"]
    ref["peak_rss_mb"] = peak_rss_mb()
    metrics = layer_metrics(tracers[1], passes[1], ref)
    return passes, metrics, {"pass_seconds": [p.seconds for p in passes]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    straus = import_straus()
    workload = WORKLOADS[args.workload](straus, args.seed)
    if args.trace:
        passes, metrics, samples = traced_run(straus, workload)
    else:
        passes, metrics, samples = timed_run(straus, workload, args.seconds)
    bad = [msg for p in passes for msg in p.bad]
    for msg in bad:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        **samples,
        **getattr(workload, "info", {}),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not bad,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
