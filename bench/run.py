"""Benchmark of cddohs: the paper's study grid, HS at full protocol, and
single library calls.

    python3 bench/run.py --workload study --seed 1 --seconds 12 --trace 0

Run from the repository root. With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer ones; the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}. Progress
goes to standard error. The exit code is non-zero, with no result printed,
when the benchmark cannot run.

A run repeats one pass of the workload, made from --seed, in fresh worker
processes (worker.py): the workload's number of passes, and more while fewer
than --seconds have been timed. The first pass checks every output; the
others must reproduce its outputs exactly. Every time is scaled to the
host's reference speed with the calibration kernel timed beside it
(calibrate.py), and set-up is timed between passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Kernel, scaled
from tracing import per_layer_metrics
from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up is timed this many times before each pass and after the last
SETUP_REPEATS = 3
SETUP_CODE = (
    "import cddohs\n"
    "from cddohs.benchmarks import FUNCTION_IDS, make_function\n"
    "problems = [make_function(f) for f in FUNCTION_IDS]\n"
    "assert len(problems) == 19\n"
)
# p95 needs at least this many timed calls beyond it
TAIL_CALLS = 10
# every process this run starts must end within this many seconds of its start
RUN_LIMIT_S = 170


class BenchmarkError(Exception):
    pass


def run_child(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run cmd with src/ on PYTHONPATH; kill it at the run's deadline.

    cddohs and the benchmark are single-threaded. numpy's BLAS would start a
    thread per core at import, which made set-up times spread twice as wide.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        return subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"a child process ran past the {RUN_LIMIT_S} s limit") from None


def measure_setup(times: list[float], kernel: Kernel, deadline: float):
    """Append the seconds, scaled by the lesser kernel time beside each,
    that fresh interpreters take to import cddohs and build the 19 registry
    problems."""
    for _ in range(SETUP_REPEATS):
        before = kernel.seconds()
        t = time.perf_counter()
        proc = run_child([sys.executable, "-c", SETUP_CODE], deadline)
        seconds = time.perf_counter() - t
        times.append(scaled(seconds, min(before, kernel.seconds())))
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed:\n{proc.stderr}")


def run_pass(workload: str, seed: int, deadline: float, trace: int, check: bool,
             eval_bench: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    cmd += ["--check"] * check + ["--eval-bench"] * eval_bench
    proc = run_child(cmd, deadline)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"pass {workload} seed={seed} trace={trace}: wall {report['wall_s']:.3f} s,"
          f" {report['n_problems']} problems", file=sys.stderr)
    return report


def repeat_problems(passes: list[dict]) -> list[str]:
    """Passes on one seed must give the same outputs and evaluation counts."""
    first = passes[0]
    return [f"pass {i} gave other outputs than pass 0" for i, p in enumerate(passes)
            if (p["digest"], p["evals"], p["failed"]) != (first["digest"], first["evals"],
                                                           first["failed"])]


def per_call(passes: list[dict]) -> list[float]:
    """Each call's median seconds over the passes."""
    return [statistics.median(c) for c in zip(*(p["run_s"] for p in passes))]


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list]:
    spec = WORKLOADS[workload]
    kernel = Kernel()
    setup_s: list[float] = []
    passes: list[dict] = []
    while len(passes) < spec.passes or sum(p["wall_s"] for p in passes) < seconds:
        measure_setup(setup_s, kernel, deadline)
        passes.append(run_pass(workload, seed, deadline, trace=0, check=not passes))
    measure_setup(setup_s, kernel, deadline)
    calls = per_call(passes)
    if sum(c > p95(calls) for c in calls) < TAIL_CALLS:
        raise BenchmarkError(f"{len(calls)} calls leave too few beyond p95")
    wall = statistics.median(p["scaled_wall_s"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": wall,
        "evals_per_s": sum(filter(None, passes[0]["evals"])) / wall,
        "run_ms_p50": 1e3 * statistics.median(calls),
        "run_ms_p95": 1e3 * p95(calls),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes


def traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list]:
    """Pairs of an untraced and a traced pass on one seed, in alternating
    order, until --seconds are timed."""
    plain, spanned = [], []
    while not spanned or sum(p["wall_s"] for p in plain + spanned) < seconds:
        for trace in (0, 1) if len(plain) % 2 == 0 else (1, 0):
            report = run_pass(workload, seed, deadline, trace, check=not plain + spanned,
                              eval_bench=trace and not spanned)
            (spanned if trace else plain).append(report)
    totals: dict = {}
    for p in spanned:
        for name, t in p["spans"].items():
            acc = totals.setdefault(name, dict.fromkeys(t, 0))
            for key, value in t.items():
                acc[key] += value
    metrics = per_layer_metrics(
        totals,
        pop=WORKLOADS[workload].pop,
        scale=statistics.mean(p["scale"] for p in spanned),
        kernel_in_cells_s=sum(p["kernel_in_cells_s"] for p in spanned),
        eval_us=spanned[0]["eval_us"],
        artifact_mb=statistics.median(p["artifact_mb"] for p in spanned),
        overhead_s=statistics.median(p["scaled_wall_s"] for p in spanned)
        - statistics.median(p["scaled_wall_s"] for p in plain),
    )
    return metrics, plain + spanned


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cddohs" / "__init__.py").is_file():
        print(f"error: no cddohs sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    measure = traced if args.trace else end_to_end
    try:
        metrics, passes = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    assert list(metrics) == list(units), "metric names drifted from workloads.py"
    problems = repeat_problems(passes)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems and all(p["n_problems"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
