#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, with medians, quartiles and wins.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W --seed S --pairs N

First compiles ``src/`` and ``bench/`` of both checkouts (``compileall``), so
that neither side pays for compiling in its ``setup_s`` or ``peak_rss_mb``,
even under PYTHONDONTWRITEBYTECODE. Then runs ``bench/run.py --trace 0``
(end-to-end metrics, tracing off) in the two checkouts, N times each: pair k
runs the parent first when k is odd and the change first when k is even. Each
run's last line of standard output is printed as it arrives, tagged with its
pair and side. At the end, for every end-to-end metric of the change's
``BENCHMARK.json``: each side's median and quartiles, the number of pairs the
change won (ties count for neither side), the metric's bound and its verdict
(:func:`verdict`). A claimed gain needs at least nine tenths of the pairs, and
medians further apart than the parent's quartile spread. The run length is the
``run_seconds`` of the change's ``BENCHMARK.json``, the same for both sides.
Standard library only; the exit status is 1 if any run failed or read
``correct`` false or ``failed`` above 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one ``bench/run.py --trace 0`` run, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def compile_checkout(checkout: Path) -> None:
    """Write the bytecode of ``src/`` and ``bench/`` in ``checkout``."""
    cmd = [sys.executable, "-m", "compileall", "-q", "src", "bench"]
    if subprocess.run(cmd, cwd=checkout).returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} failed")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float, lower: bool) -> str:
    """``worse`` when the change's median is worse than the parent's by more
    than ``bound`` (a fraction of the parent's median); ``unresolved`` when the
    parent's quartile spread is wider than that and not every change run beats
    every parent run; ``ok`` otherwise. ``lower`` is true when lower is better."""
    q1, p_median, q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    allowed = bound * abs(p_median)
    if (c_median - p_median if lower else p_median - c_median) > allowed:
        return "worse"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if q3 - q1 > allowed and not beats_all:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent, "change": args.change}
    for side in SIDES:
        compile_checkout(checkouts[side])
        print(f"compiled src/ and bench/ of the {side}, {checkouts[side]}", flush=True)
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for k in range(1, args.pairs + 1):
        for side in SIDES if k % 2 else SIDES[::-1]:
            result = run_once(checkouts[side], args.workload, args.seed, spec["run_seconds"])
            results[side].append(result)
            print(f"pair {k} {side} {json.dumps(result)}", flush=True)

    ok = all(r["correct"] and r["failed"] == 0 for side in SIDES for r in results[side])
    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs; every run correct and "
          f"none failed: {ok}")
    print(f"{'metric':<12} {'side':<7} {'q1':>12} {'median':>12} {'q3':>12}  "
          f"{'change won':<10}  bound  verdict")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        won = f"{wins} of {args.pairs}"
        judged = (f"{won:<10}  {metric['bound']:>5.0%}  "
                  f"{verdict(values['parent'], values['change'], metric['bound'], lower)}")
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            tail = judged if side == "change" else ""
            print(f"{name:<12} {side:<7} {q1:>12.6g} {med:>12.6g} {q3:>12.6g}  {tail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
