"""Output checks for the benchmark's workloads.

Every check compares the program's output with a computation made here
(published global minima, scipy's Mann-Whitney U test, statistics recomputed
from the written traces) or with a property the method must have. None
compares with a saved copy of earlier output. Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Published global minima of F1-F19 (Yao, Liu & Lin 1999; Jamil & Yang 2013),
# written here rather than read from cddohs.benchmarks.SPECS.
LITERATURE_MIN = {
    **{f"F{i}": 0.0 for i in range(1, 14)},
    "F8": -418.9829 * 30,
    "F14": 0.998004,
    "F15": 3.0749e-4,
    "F16": -1.0316285,
    "F17": 0.397887,
    "F18": 3.0,
    "F19": -3.86278,
}

# A final value may undercut the published minimum by this share of its size
# (at least 1e-5): the published values are rounded, F14's and F19's upward.
MIN_REL_TOL = 1e-5

# Artifacts print values as "%.6e", which is within half a unit in the
# seventh significant digit of the full-precision value.
FMT_REL_TOL = 1e-6

# The harness enumerates the rank-sum distribution exactly up to this many
# label assignments and uses the normal approximation above it.
EXACT_ENUMERATION_LIMIT = 20_000


def as_printed(x: float) -> float:
    """x as the artifacts print it."""
    return float(f"{x:.6e}")


def check_run(label: str, func: str, best: float, trace, iters: int) -> list[str]:
    """A run's final value and its convergence trace."""
    problems = []
    trace = np.asarray(trace, dtype=float)
    if not math.isfinite(best):
        return [f"{label}: final value {best!r} is not finite"]
    fmin = LITERATURE_MIN[func]
    if best < fmin - MIN_REL_TOL * max(1.0, abs(fmin)):
        problems.append(f"{label}: final value {best!r} is below the global minimum {fmin}")
    if trace.shape != (iters,):
        problems.append(f"{label}: trace has shape {trace.shape}, expected ({iters},)")
    elif np.any(np.diff(trace) > 0):
        problems.append(f"{label}: convergence trace rises")
    elif trace[-1] != best:
        problems.append(f"{label}: trace ends at {trace[-1]!r}, not the final value {best!r}")
    return problems


def check_single_run(label: str, func: str, algo: str, result, problem, pop: int,
                     iters: int, evaluate_at) -> list[str]:
    """One library call: trace, position in the box, re-evaluation, budget."""
    problems = check_run(label, func, result.best_fitness, result.trace, iters)
    pos = np.asarray(result.best_position, dtype=float)
    if pos.shape != (problem.dim,) or np.any(pos < problem.lower) or np.any(pos > problem.upper):
        problems.append(f"{label}: best_position lies outside the box")
    elif not problem.stochastic and evaluate_at(func, pos) != result.best_fitness:
        problems.append(f"{label}: objective at best_position is {evaluate_at(func, pos)!r},"
                        f" not {result.best_fitness!r}")
    # Every agent is evaluated at start; each agent step and each hybrid
    # refresh evaluates at most once.
    low = pop + (iters if algo == "cddo-hs" else 0)
    high = pop * (1 + iters) + (iters if algo == "cddo-hs" else 0)
    if not low <= result.evals <= high:
        problems.append(f"{label}: {result.evals} evals outside [{low}, {high}]")
    return problems


def _read_rows(path: Path) -> tuple[list[dict], list[dict]]:
    """The rows of the CSV and JSON versions of one artifact, as strings."""
    with open(path.with_suffix(".csv"), newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = [{k: str(v) for k, v in row.items()}
                 for row in json.loads(path.with_suffix(".json").read_text())]
    return csv_rows, json_rows


def read_convergence(out_dir: Path, algo: str, func: str, n_runs: int, iters: int) -> np.ndarray:
    """The (n_runs, iters) traces of one cell; raises ValueError if the CSV
    and JSON copies differ or a row is missing or out of place."""
    csv_rows, json_rows = _read_rows(Path(out_dir) / f"convergence_{algo}_{func}.csv")
    if csv_rows != json_rows:
        raise ValueError(f"convergence {algo}/{func}: CSV and JSON differ")
    expected = [(str(r), str(t)) for r in range(n_runs) for t in range(iters)]
    if [(row["run"], row["iter"]) for row in csv_rows] != expected:
        raise ValueError(f"convergence {algo}/{func}: rows are not runs x iterations in order")
    return np.array([float(row["gbest"]) for row in csv_rows]).reshape(n_runs, iters)


def check_grid(out_dir: Path, algos, funcs, n_runs: int, iters: int, finals: dict) -> list[str]:
    """summary.* and convergence_* of one run_experiment call.

    ``finals`` maps (algo, func) to the full-precision final values of the
    cell's runs, in run order, as the optimisers returned them.
    """
    out_dir = Path(out_dir)
    problems = []
    csv_rows, json_rows = _read_rows(out_dir / "summary.csv")
    if csv_rows != json_rows:
        problems.append("summary.csv and summary.json differ")
    cells = [(row["algo"], row["func"]) for row in csv_rows]
    expected = {(a, f) for a in algos for f in funcs}
    if len(cells) != len(expected) or set(cells) != expected:
        return problems + [f"summary.csv lists cells {sorted(cells)}, expected {sorted(expected)}"]
    for row in csv_rows:
        cell = (row["algo"], row["func"])
        label = "/".join(cell)
        try:
            traces = read_convergence(out_dir, *cell, n_runs, iters)
        except ValueError as e:
            problems.append(str(e))
            continue
        for r, (trace, best) in enumerate(zip(traces, finals[cell])):
            problems += check_run(f"{label} run {r} (written)", cell[1], as_printed(best),
                                  trace, iters)
        problems += _check_summary_row(label, row, traces[:, -1], n_runs)
    return problems


def _check_summary_row(label: str, row: dict, finals: np.ndarray, n_runs: int) -> list[str]:
    """A summary row against avg/std/best/worst of the written trace ends."""
    problems = []
    if int(row["n_runs"]) != n_runs:
        problems.append(f"{label}: n_runs {row['n_runs']}, expected {n_runs}")
    scale = float(np.max(np.abs(finals)))
    std = float(np.std(finals, ddof=1)) if finals.size > 1 else 0.0
    for name, value, tol in [
        ("best", float(np.min(finals)), 0.0),
        ("worst", float(np.max(finals)), 0.0),
        ("avg", float(np.mean(finals)), 2 * FMT_REL_TOL * scale),
        ("std", std, 2 * FMT_REL_TOL * scale),
    ]:
        if not abs(float(row[name]) - value) <= tol:
            problems.append(f"{label}: summary {name} {row[name]} but the traces give {value!r}")
    return problems


def oracle_pvalue(a, b) -> float:
    """scipy's two-sided Mann-Whitney U p-value, by the harness's method."""
    from scipy.stats import mannwhitneyu

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    pooled = np.concatenate([a, b])
    if np.all(pooled == pooled[0]):
        return 1.0
    if math.comb(a.size + b.size, a.size) > EXACT_ENUMERATION_LIMIT:
        method = "asymptotic"
    elif np.unique(pooled).size == pooled.size:
        method = "exact"
    else:
        raise ValueError("scipy has no exact rank-sum test with ties; use >= 9 runs per cell")
    return float(mannwhitneyu(a, b, alternative="two-sided", method=method,
                              use_continuity=True).pvalue)


def check_pvalues(out_dir: Path, algos, funcs, finals: dict) -> list[str]:
    """pvalues.* against scipy on the full-precision per-run final values."""
    problems = []
    csv_rows, json_rows = _read_rows(Path(out_dir) / "pvalues.csv")
    if csv_rows != json_rows:
        problems.append("pvalues.csv and pvalues.json differ")
    algos = sorted(algos)
    pairs = [(f, a, b) for f in funcs for i, a in enumerate(algos) for b in algos[i + 1:]]
    rows = {(row["func"], row["algo_a"], row["algo_b"]): row["p_value"] for row in csv_rows}
    if len(csv_rows) != len(pairs) or set(rows) != set(pairs):
        return problems + [f"pvalues.csv lists {sorted(rows)}, expected {sorted(pairs)}"]
    for f, a, b in pairs:
        ref = oracle_pvalue(finals[(a, f)], finals[(b, f)])
        got = float(rows[(f, a, b)])
        if not abs(got - ref) <= FMT_REL_TOL * ref:
            problems.append(f"p-value {f} {a}/{b}: written {got!r}, scipy gives {ref!r}")
    return problems
