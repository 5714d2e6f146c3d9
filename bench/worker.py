"""One pass of a benchmark workload, in a fresh process.

    python3 bench/worker.py --workload study --seed 1 --trace 0 --check

Runs the pass, timing it and each optimiser call in it, with the calibration
kernel timed before each call and after the last, then prints one JSON
object: raw and scaled wall time, scaled seconds and evaluations per call,
peak memory, operations attempted and failed, a digest of the outputs and,
traced, span totals. With --check it also checks every output and lists the
problems found. cddohs must be importable (run.py puts src/ on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
from calibrate import Kernel, scaled
from tracing import Tracer
from workloads import FUNCS, WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
MAX_PROBLEMS = 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class CallTimer:
    """Times optimiser calls, with the calibration kernel before each."""

    def __init__(self):
        self.kernel = Kernel().seconds
        self.kernel_s: list[float] = []
        self.call_s: list[float] = []

    def call(self, fn, *args, **kwargs):
        self.kernel_s.append(self.kernel())
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.call_s.append(time.perf_counter() - t)

    def timing(self, wall: float) -> dict:
        """Raw and scaled times of a pass that took ``wall`` seconds; each
        call is scaled by the lesser kernel time beside it, the rest of the
        pass by the median kernel time."""
        self.kernel_s.append(self.kernel())
        calls = [scaled(c, min(k0, k1))
                 for c, k0, k1 in zip(self.call_s, self.kernel_s, self.kernel_s[1:])]
        own = wall - sum(self.kernel_s[:-1])
        rest = scaled(own - sum(self.call_s), statistics.median(self.kernel_s))
        return {"wall_s": wall, "scaled_wall_s": sum(calls) + rest,
                "scale": (sum(calls) + rest) / own, "run_s": calls}


def capture_runs(harness, timer: CallTimer, sink: list) -> dict:
    """Time every optimiser run the harness makes and record (algo, func,
    RunResult); returns the ALGORITHMS entries it replaced."""
    originals = dict(harness.ALGORITHMS)

    def capturing(algo, fn):
        def run(problem, config, run_index=0):
            result = timer.call(fn, problem, config, run_index=run_index)
            sink.append((algo, problem.id, result))
            return result
        return run

    for algo, fn in originals.items():
        harness.ALGORITHMS[algo] = capturing(algo, fn)
    return originals


def grid_pass(spec, seed: int, out_dir: Path, tracer) -> dict:
    from cddohs import harness
    from cddohs.core import RunConfig

    config = RunConfig(pop_size=spec.pop, max_iters=spec.iters, n_runs=spec.runs,
                       base_seed=seed)
    plan = harness.ExperimentPlan(algorithms=list(spec.algos), functions=list(FUNCS),
                                  config=config, output_dir=out_dir)
    runs: list = []
    timer = CallTimer()
    if tracer:
        tracer.install()
    # outside the tracer's wrappers, so run spans leave out the kernel
    originals = capture_runs(harness, timer, runs)
    t0 = time.perf_counter()
    try:
        result = harness.run_experiment(plan)
    except Exception as e:  # the grid delivers nothing: every run failed
        print(f"worker: {spec.name} pass failed: {e!r}", file=sys.stderr)
        result = None
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    harness.ALGORITHMS.update(originals)
    if tracer:
        tracer.restore()
    report = {**timer.timing(wall), "peak_rss_mb": rss,
              "kernel_in_cells_s": sum(timer.kernel_s[:-1])}
    if result is None:
        return {**report, "artifact_mb": 0.0, "digest": "", "failed": spec.ops_per_pass,
                "run_s": [], "evals": [], "check": lambda: []}

    def check() -> list[str]:
        problems = []
        finals: dict = {}
        for i, (algo, func, res) in enumerate(runs):
            finals.setdefault((algo, func), []).append(res.best_fitness)
            problems += checks.check_run(f"{algo}/{func} run {i}", func, res.best_fitness,
                                         res.trace, spec.iters)
            if algo == "hs" and res.evals != spec.pop + spec.iters:
                problems.append(f"hs/{func}: {res.evals} evals, expected hms + T ="
                                f" {spec.pop + spec.iters}")
        problems += checks.check_grid(out_dir, spec.algos, FUNCS, spec.runs, spec.iters, finals)
        if len(spec.algos) > 1:
            problems += checks.check_pvalues(out_dir, spec.algos, FUNCS, finals)
        # Replay one cell per algorithm alone; a different function for each.
        for k, algo in enumerate(sorted(spec.algos)):
            func = FUNCS[(seed + 7 * k) % len(FUNCS)]
            replay = [r.best_fitness for r in harness.run_cell(algo, func, config)]
            if replay != finals[(algo, func)]:
                problems.append(f"{algo}/{func}: replaying the cell alone gives other finals")
        return problems

    return {
        **report,
        "artifact_mb": sum(Path(p).stat().st_size for p in result["paths"]) / 1e6,
        "digest": digest(result["paths"]),
        "failed": 0,
        "evals": [res.evals for _, _, res in runs],
        "check": check,
    }


def single_pass(spec, seed: int, tracer) -> dict:
    from cddohs import benchmarks, cddo, hybrid
    from cddohs.core import RunConfig

    if tracer:
        tracer.install()
    problems_by_func = {f: benchmarks.make_function(f) for f in FUNCS}
    calls = [(f, algo) for _ in range(spec.runs) for f in FUNCS for algo in spec.algos]
    results = []
    timer = CallTimer()
    t0 = time.perf_counter()
    for j, (func, algo) in enumerate(calls):
        run_fn = cddo.cddo_run if algo == "cddo" else hybrid.cddo_hs_run
        config = RunConfig(pop_size=spec.pop, max_iters=spec.iters, n_runs=1,
                           base_seed=seed * 1000 + j)
        try:
            results.append(timer.call(run_fn, problems_by_func[func], config))
        except Exception as e:
            print(f"worker: {algo}/{func} call {j} failed: {e!r}", file=sys.stderr)
            results.append(None)
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    if tracer:
        tracer.restore()

    def check() -> list[str]:
        problems = []
        for j, ((func, algo), res) in enumerate(zip(calls, results)):
            if res is not None:
                problems += checks.check_single_run(
                    f"{algo}/{func} call {j}", func, algo, res, benchmarks.make_function(func),
                    spec.pop, spec.iters, benchmarks.evaluate_at)
        return problems

    finals = np.array([res.best_fitness if res else np.nan for res in results])
    return {
        **timer.timing(wall),
        "peak_rss_mb": rss,
        "kernel_in_cells_s": 0.0,
        "artifact_mb": 0.0,
        "digest": hashlib.sha256(finals.tobytes()).hexdigest(),
        "failed": results.count(None),
        "evals": [res.evals if res else None for res in results],
        "check": check,
    }


def eval_microbench(seed: int, points: int = 32, sweeps: int = 20, repeats: int = 5) -> dict:
    """Median microseconds per evaluate_at call of each function, timed alone
    at fixed uniform random points in its box and scaled by the kernel."""
    from cddohs import benchmarks

    kernel = Kernel()
    rng = np.random.default_rng(seed)
    out = {}
    for func in FUNCS:
        problem = benchmarks.make_function(func)
        xs = rng.uniform(problem.lower, problem.upper, size=(points, problem.dim))
        noise = np.random.default_rng(seed) if problem.stochastic else None
        samples = []
        for _ in range(repeats):
            kernel_s = kernel.seconds()
            t = time.perf_counter()
            for _ in range(sweeps):
                for x in xs:
                    benchmarks.evaluate_at(func, x, noise)
            samples.append(scaled(time.perf_counter() - t, kernel_s) / (points * sweeps))
        out[func] = 1e6 * float(np.median(samples))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true", help="check every output")
    ap.add_argument("--eval-bench", action="store_true",
                    help="also time each objective alone")
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    if spec.grid:
        out_dir = OUT / spec.name / "artifacts"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        report = grid_pass(spec, args.seed, out_dir, tracer)
    else:
        report = single_pass(spec, args.seed, tracer)

    check = report.pop("check")
    problems = check() if args.check else []
    report.update(attempted=spec.ops_per_pass, problems=problems[:MAX_PROBLEMS],
                  n_problems=len(problems))
    if tracer:
        report["spans"] = tracer.totals()
        (OUT / spec.name).mkdir(parents=True, exist_ok=True)
        np.savez(OUT / spec.name / "spans.npz", **tracer.arrays())
    if args.eval_bench:
        report["eval_us"] = eval_microbench(args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
