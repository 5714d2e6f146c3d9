"""Experiment runner: (algorithm x function x seeds) grids with CSV/JSON output."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import math
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

FORMATS = ("csv", "json")  # artifact formats, written in this order
SUMMARY_HEADER = ["algo", "func", "avg", "std", "best", "worst", "n_runs", "seed"]
CONVERGENCE_HEADER = ["run", "iter", "gbest"]
PVALUES_HEADER = ["func", "algo_a", "algo_b", "p_value"]


@dataclass
class ExperimentPlan:
    algorithms: list[str]
    functions: list[str]
    config: RunConfig = field(default_factory=RunConfig)
    output_dir: Path = Path("results")
    formats: tuple[str, ...] = FORMATS

    def validate(self):
        for kind, ids, known in (("algorithm", self.algorithms, ALGORITHMS),
                                 ("function", self.functions, FUNCTION_IDS),
                                 ("format", self.formats, FORMATS)):
            if not ids:
                raise ValueError(f"need at least one {kind}")
            for i in ids:
                if i not in known:
                    raise ValueError(f"unknown {kind} {i!r}; choose from {', '.join(known)}")
            dups = sorted({i for i in ids if ids.count(i) > 1})
            if dups:
                raise ValueError(f"duplicate {kind} {', '.join(dups)}")
        if len(self.algorithms) > 1 and self.config.n_runs < 2:
            # each p-value compares two samples of n_runs final fitnesses
            raise ValueError("comparing algorithms needs at least 2 runs per cell, "
                             f"got {self.config.n_runs}")


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

    algos = sorted(plan.algorithms)
    funcs = [f for f in FUNCTION_IDS if f in plan.functions]
    cells = {(a, f): run_cell(a, f, plan.config) for a in algos for f in funcs}
    finals = {cell: [r.best_fitness for r in results] for cell, results in cells.items()}
    summary_rows = []
    for (algo, func), fits in finals.items():
        s = summarize(fits)
        summary_rows.append([algo, func, _fmt(s.avg), _fmt(s.std), _fmt(min(fits)),
                             _fmt(max(fits)), s.n, cells[algo, func][0].seed])
    pvalue_rows = [[f, a, b, _fmt(wilcoxon_rank_sum(finals[a, f], finals[b, f]))]
                   for f in funcs for a, b in itertools.combinations(algos, 2)]

    # CSV before JSON; convergence rows are built one cell at a time
    paths: list[Path] = []
    for fmt in [f for f in FORMATS if f in plan.formats]:
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


def _rows(path, *columns: str) -> list[dict]:
    """The rows of a CSV or JSON table (by suffix) as dicts that hold all of ``columns``."""
    with open(path, newline="") as fh:
        rows = json.load(fh) if Path(path).suffix == ".json" else list(csv.DictReader(fh))
    if not rows:  # a header-only CSV, [] or {}: nothing to read
        raise ValueError(f"{path}: no summary rows")
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError(f"{path}: not a list of summary rows")
    for n, row in enumerate(rows, 1):
        if None in row:  # csv.DictReader's key for the cells beyond the header
            raise ValueError(f"{path}: row {n} has more cells than the header")
        missing = [c for c in columns if c not in row]
        if missing:
            raise ValueError(f"{path}: no {missing[0]!r} column")
    return rows


def _number(path, cell: str, value) -> float:
    """One table cell as a float other than NaN; the error names the file and the cell."""
    try:
        number = float(value)
    except (TypeError, ValueError):  # TypeError: None, the missing cell of a short row
        raise ValueError(f"{path}: {cell}: not a number: {value!r}") from None
    if math.isnan(number):
        raise ValueError(f"{path}: {cell}: NaN")
    return number


def load_summary(path) -> dict:
    """Read a summary.csv or summary.json, by suffix, into {(algo, func): avg}."""
    summary = {}
    for row in _rows(path, "algo", "func", "avg"):
        algo, func = row["algo"], row["func"]
        if (algo, func) in summary:
            raise ValueError(f"{path}: {algo}/{func}: repeated row")
        summary[algo, func] = _number(path, f"{algo}/{func} avg", row["avg"])
    return summary


def load_averages(path) -> dict:
    """Read a CSV or JSON table with a 'func' column and one column of averages
    per algorithm into {func: {algo: avg}}, the input of ``rank_algorithms``."""
    averages = {}
    for row in _rows(path, "func"):
        func = row.pop("func")
        if not row:
            raise ValueError(f"{path}: no algorithm columns")
        if func in averages:
            raise ValueError(f"{path}: {func}: repeated row")
        averages[func] = {algo: _number(path, f"{func}/{algo}", v) for algo, v in row.items()}
    return averages


def compare_to_reference(summary: dict) -> dict:
    """Compare measured averages, {(algo, func): avg} as ``load_summary`` returns
    them, against the published classical-suite table.

    Per function: measured/published averages, whether the measured winner of
    each pair (hybrid vs hs, hybrid vs cddo) agrees with the published winner,
    and the log10 gap between measured and published hybrid averages. Missing
    cells are reported as gaps, not failures.
    """
    rows = []
    wins = {"hs": 0, "cddo": 0}
    for func in FUNCTION_IDS:
        row = {"func": func}
        for algo in ("cddo-hs", "cddo", "hs"):
            row[f"measured_{algo}"] = summary.get((algo, func))
            row[f"ref_{algo}"] = reference.TABLE2[func][algo][0]
        mv, pv = row["measured_cddo-hs"], row["ref_cddo-hs"]
        if mv is not None:
            for base in wins:
                if row[f"measured_{base}"] is not None:
                    won = mv < row[f"measured_{base}"]
                    row[f"agree_vs_{base}"] = won == (pv < row[f"ref_{base}"])
                    wins[base] += won
            if mv == pv:
                row["log10_gap"] = 0.0
            elif mv == 0.0 or pv == 0.0:
                row["log10_gap"] = None  # one side exactly zero: gap undefined
            else:
                row["log10_gap"] = float(np.log10(abs(mv)) - np.log10(abs(pv)))
        rows.append(row)
    return {"rows": rows, "wins_vs_hs": wins["hs"], "wins_vs_cddo": wins["cddo"]}
