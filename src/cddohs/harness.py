"""Experiment runner: (algorithm x function x seeds) grids with CSV/JSON output."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import reference
from .benchmarks import FUNCTION_IDS, make_function
from .cddo import cddo_run
from .core import RunConfig, RunResult
from .hs import hs_run
from .hybrid import cddo_hs_run
from .stats import summarize, wilcoxon_rank_sum

ALGORITHMS = {
    "cddo": cddo_run,
    "hs": hs_run,
    "cddo-hs": cddo_hs_run,
}

SUMMARY_HEADER = ["algo", "func", "avg", "std", "best", "worst", "n_runs", "seed"]
CONVERGENCE_HEADER = ["run", "iter", "gbest"]
PVALUES_HEADER = ["func", "algo_a", "algo_b", "p_value"]


@dataclass
class ExperimentPlan:
    algorithms: list[str]
    functions: list[str]
    config: RunConfig = field(default_factory=RunConfig)
    output_dir: Path = Path("results")
    formats: tuple[str, ...] = ("csv", "json")

    def validate(self):
        if not self.algorithms or not self.functions:
            raise ValueError("need at least one algorithm and one function")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}; choose from {sorted(ALGORITHMS)}")
        for f in self.functions:
            if f not in FUNCTION_IDS:
                raise ValueError(f"unknown function {f!r}; expected F1..F19")
        for fmt in self.formats:
            if fmt not in ("csv", "json"):
                raise ValueError(f"unknown format {fmt!r}")
        for kind, ids in (("algorithm", self.algorithms), ("function", self.functions)):
            dups = sorted({i for i in ids if ids.count(i) > 1})
            if dups:
                raise ValueError(f"duplicate {kind} {', '.join(dups)}")


def cell_seed(base_seed: int, algo: str, func: str) -> int:
    """Stable per-cell seed so any (algo, func) cell can be replayed alone."""
    digest = hashlib.sha256(f"{algo}:{func}".encode()).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "little")) & (2 ** 63 - 1)


def run_cell(algo: str, func: str, config: RunConfig) -> list[RunResult]:
    """n_runs independent seeded runs of one (algorithm, function) cell."""
    problem = make_function(func)
    cfg = dataclasses.replace(config, base_seed=cell_seed(config.base_seed, algo, func))
    run_fn = ALGORITHMS[algo]
    return [run_fn(problem, cfg, run_index=r) for r in range(cfg.n_runs)]


def _fmt(value: float) -> str:
    return f"{value:.6e}"


def _write(path: Path, header: list[str], rows):
    """Write one table atomically: CSV lines, or a JSON list of dicts, by suffix."""
    if path.suffix == ".csv":
        text = "\n".join([",".join(map(str, row)) for row in [header, *rows]]) + "\n"
    else:
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def run_experiment(plan: ExperimentPlan) -> dict:
    """Execute the grid and write summary/convergence/p-value artifacts.

    Returns {"paths": [...]}, every file written, CSV before JSON.
    """
    plan.validate()
    out = Path(plan.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    cells: dict[tuple[str, str], list[RunResult]] = {}
    for algo in sorted(plan.algorithms):
        for func in sorted(plan.functions, key=lambda f: int(f[1:])):
            cells[(algo, func)] = run_cell(algo, func, plan.config)

    summary_rows = []
    for (algo, func), results in cells.items():
        fits = [r.best_fitness for r in results]
        s = summarize(fits)
        seed = cell_seed(plan.config.base_seed, algo, func)
        summary_rows.append(
            [algo, func, _fmt(s.avg), _fmt(s.std), _fmt(min(fits)), _fmt(max(fits)),
             s.n, seed]
        )

    pvalue_rows = []
    algos = sorted(plan.algorithms)
    for func in sorted(plan.functions, key=lambda f: int(f[1:])):
        for i in range(len(algos)):
            for j in range(i + 1, len(algos)):
                a, b = algos[i], algos[j]
                p = wilcoxon_rank_sum(
                    [r.best_fitness for r in cells[(a, func)]],
                    [r.best_fitness for r in cells[(b, func)]],
                )
                pvalue_rows.append([func, a, b, _fmt(p)])

    # CSV before JSON; convergence rows are built one cell at a time
    paths: list[Path] = []
    for fmt in [f for f in ("csv", "json") if f in plan.formats]:
        tables = {"summary": (SUMMARY_HEADER, summary_rows),
                  "pvalues": (PVALUES_HEADER, pvalue_rows)}
        for (algo, func), results in cells.items():
            rows = ([r, t, _fmt(g)] for r, res in enumerate(results)
                    for t, g in enumerate(res.trace.tolist()))
            tables[f"convergence_{algo}_{func}"] = (CONVERGENCE_HEADER, rows)
        for name, (header, rows) in tables.items():
            paths.append(out / f"{name}.{fmt}")
            _write(paths[-1], header, rows)
    return {"paths": [str(p) for p in paths]}


def load_summary(path) -> dict:
    """Read a summary.csv or summary.json, by suffix, into {(algo, func): {column: value}}."""
    with open(path, newline="") as fh:
        rows = json.load(fh) if Path(path).suffix == ".json" else csv.DictReader(fh)
        try:
            summary = {(row["algo"], row["func"]): row for row in rows}
        except TypeError:  # JSON that is not a list of row objects
            raise ValueError(f"{path}: not a list of summary rows") from None
        except KeyError as e:
            raise ValueError(f"{path}: no {e.args[0]!r} column") from None
    if not summary:  # a header-only CSV, [] or {}: nothing to compare
        raise ValueError(f"{path}: no summary rows")
    return summary


def compare_to_reference(summary: dict) -> dict:
    """Compare measured averages against the published classical-suite table.

    Per function: measured/published averages, whether the measured winner of
    each pair (hybrid vs cddo, hybrid vs hs) agrees with the published winner,
    and the log10 gap between measured and published hybrid averages. Missing
    cells are reported as gaps, not failures.
    """
    table = reference.TABLE2
    rows = []
    wins_vs_hs = wins_vs_cddo = 0
    for func in sorted(table, key=lambda f: int(f[1:])):
        row = {"func": func}
        measured = {a: summary.get((a, func)) for a in ("cddo-hs", "cddo", "hs")}
        for algo, cell in measured.items():
            row[f"measured_{algo}"] = float(cell["avg"]) if cell else None
            row[f"ref_{algo}"] = table[func][algo][0]
        if measured["cddo-hs"] and measured["hs"]:
            m = row["measured_cddo-hs"] < row["measured_hs"]
            p = table[func]["cddo-hs"][0] < table[func]["hs"][0]
            row["agree_vs_hs"] = m == p
            wins_vs_hs += m
        if measured["cddo-hs"] and measured["cddo"]:
            m = row["measured_cddo-hs"] < row["measured_cddo"]
            p = table[func]["cddo-hs"][0] < table[func]["cddo"][0]
            row["agree_vs_cddo"] = m == p
            wins_vs_cddo += m
        if measured["cddo-hs"]:
            mv, pv = row["measured_cddo-hs"], row["ref_cddo-hs"]
            if mv == pv:
                row["log10_gap"] = 0.0
            elif mv == 0.0 or pv == 0.0:
                row["log10_gap"] = None  # one side exactly zero: gap undefined
            else:
                row["log10_gap"] = float(np.log10(abs(mv)) - np.log10(abs(pv)))
        rows.append(row)
    return {"rows": rows, "wins_vs_hs": wins_vs_hs, "wins_vs_cddo": wins_vs_cddo}
