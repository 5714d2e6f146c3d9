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
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import reference
from .benchmarks import FUNCTION_IDS, make_function
from .cddo import cddo_run
from .core import RunConfig, RunResult
from .hs import hs_run
from .hybrid import cddo_hs_run
from .stats import summarize, table_algorithms, wilcoxon_rank_sum

ALGORITHMS = {
    "cddo": cddo_run,
    "hs": hs_run,
    "cddo-hs": cddo_hs_run,
}

SUMMARY_HEADER = ["algo", "func", "avg", "std", "best", "worst", "n_runs", "seed"]
CONVERGENCE_HEADER = ["run", "iter", "gbest"]
PVALUES_HEADER = ["func", "algo_a", "algo_b", "p_value"]


@dataclass(frozen=True)
class ExperimentPlan:
    algorithms: tuple[str, ...]
    functions: tuple[str, ...]
    config: RunConfig = field(default_factory=RunConfig)
    output_dir: Path = Path("results")

    def __post_init__(self):
        for kind, name, known in (("algorithm", "algorithms", ALGORITHMS),
                                  ("function", "functions", FUNCTION_IDS)):
            ids = getattr(self, name)
            if isinstance(ids, str):
                # a string is a sequence of one-letter ids
                raise ValueError(f"{name} needs a list of {kind} ids, not the string {ids!r}")
            if not ids:
                raise ValueError(f"need at least one {kind}")
            for i in ids:
                if i not in known:
                    raise ValueError(f"unknown {kind} {i!r}; choose from {', '.join(known)}")
            dups = sorted({i for i in ids if ids.count(i) > 1})
            if dups:
                raise ValueError(f"duplicate {kind} {', '.join(dups)}")
            object.__setattr__(self, name, tuple(ids))  # what was checked cannot change
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


_fmt = "{:.6e}".format  # a fitness or p-value cell


def _cells(column) -> tuple:
    """A table column as artifact text, by its values' type: (CSV cells, JSON values). A str is
    itself, JSON-encoded; an int is its str() in both; a float is its ``_fmt`` text as a JSON
    string, once per stretch of equal bits (a gbest repeats until it moves; 0.0 is not -0.0)."""
    if isinstance(column[0], str):
        return column, list(map(encode_basestring_ascii, column))
    if not isinstance(column[0], float):  # np.float64 is a float
        text = list(map(str, column))
        return text, text
    floats = np.asarray(column, dtype=np.float64)
    bits = floats.view(np.int64)
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    counts = np.diff(starts, append=len(bits)).tolist()
    texts = list(map(_fmt, floats[starts].tolist()))  # each stretch's text, repeated
    return tuple(list(itertools.chain.from_iterable(map(itertools.repeat, cells, counts)))
                 for cells in (texts, map(encode_basestring_ascii, texts)))


_CHUNK = 2048  # rows of text the writer holds at a time


def _chunks(parts):
    """The text of the rows that zip(*parts) spells, each row the join of its parts, in
    pieces of ``_CHUNK`` rows."""
    rows = zip(*parts)
    while chunk := "".join(itertools.chain.from_iterable(itertools.islice(rows, _CHUNK))):
        yield chunk


def _write(out: Path, name: str, header: list[str], columns) -> list[Path]:
    """Write one table, its columns in header order as ``_cells`` pairs, atomically as
    out/name.csv and then out/name.json; the two paths. Each file is streamed ``_CHUNK`` rows
    at a time to a .tmp file, removed if the write fails, that then replaces it. The JSON is
    byte for byte json.dumps of the rows as dicts (indent=2, sort_keys=True), each row the
    keys' text, built once per table, and the cells: json.dumps encodes in pure Python,
    token by token, when indented."""
    tables = {"csv": [",".join(header) + "\n"], "json": ["[]\n"]}  # a table without rows
    if columns:
        text, values = zip(*columns)
        repeat, chain = itertools.repeat, itertools.chain
        # CSV row i: a[i] ',' b[i] ... '\n'
        csv_parts = [*chain.from_iterable((repeat(","), cells) for cells in text)][1:]
        # JSON row i: ',\n  {\n    "a": ' a[i] ',\n    "b": ' b[i] ... '\n  }'; the first
        # row's comma is the list's '['
        cols = sorted(zip(header, values), key=lambda col: col[0])
        keys = [f"{sep}{encode_basestring_ascii(key)}: "
                for sep, (key, _) in zip([",\n  {\n    ", *[",\n    "] * (len(cols) - 1)], cols)]
        json_parts = [part for key, (_, cells) in zip(keys, cols) for part in (repeat(key), cells)]
        json_parts[0] = chain([f"[{keys[0][1:]}"], json_parts[0])
        tables = {"csv": chain(tables["csv"], _chunks([*csv_parts, repeat("\n")])),
                  "json": chain(_chunks([*json_parts, repeat("\n  }")]), ["\n]\n"])}
    paths = []
    for fmt, pieces in tables.items():
        paths.append(out / f"{name}.{fmt}")
        tmp = out / f"{name}.{fmt}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.writelines(pieces)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        os.replace(tmp, paths[-1])
    return paths


def run_experiment(plan: ExperimentPlan) -> dict:
    """Execute the grid and write summary/convergence/p-value artifacts.

    Returns {"paths": [...]}, every file written, CSV before JSON.
    """
    out = Path(plan.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    algos = sorted(plan.algorithms)
    funcs = [f for f in FUNCTION_IDS if f in plan.functions]
    cells = {(a, f): run_cell(a, f, plan.config) for a in algos for f in funcs}
    finals = {cell: [r.best_fitness for r in results] for cell, results in cells.items()}
    summary_rows = []
    for (algo, func), fits in finals.items():
        s = summarize(fits)
        summary_rows.append([algo, func, s.avg, s.std, min(fits), max(fits), s.n,
                             cells[algo, func][0].seed])
    pvalue_rows = [[f, a, b, wilcoxon_rank_sum(finals[a, f], finals[b, f])]
                   for f in funcs for a, b in itertools.combinations(algos, 2)]

    written = [_write(out, "summary", SUMMARY_HEADER, [*map(_cells, zip(*summary_rows))]),
               _write(out, "pvalues", PVALUES_HEADER, [*map(_cells, zip(*pvalue_rows))])]
    # the run and iter columns: every cell holds n_runs traces of max_iters entries; each run
    # and iter value is converted once, and every table repeats those str objects
    n_runs, n_iters = plan.config.n_runs, plan.config.max_iters
    runs, iters = _cells([*range(n_runs)]), _cells([*range(n_iters)])
    index = [tuple([cell for cell in cells for _ in range(n_iters)] for cells in runs),
             tuple(cells * n_runs for cells in iters)]
    for (algo, func), results in cells.items():  # one cell's columns at a time
        gbest = _cells(np.concatenate([res.trace for res in results]))
        written.append(_write(out, f"convergence_{algo}_{func}", CONVERGENCE_HEADER, [*index, gbest]))
    return {"paths": [str(p) for per_format in zip(*written) for p in per_format]}


def _no_repeat(what: str, names) -> None:
    """Raise on a name that repeats: csv.DictReader and dict keep only its last value."""
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"repeated {what} {name!r}")
        seen.add(name)


def _json_object(pairs: list) -> dict:
    _no_repeat("key", (key for key, _ in pairs))
    return dict(pairs)


def _rows(path, *columns: str) -> list[dict]:
    """The rows of a CSV or JSON table (by suffix), UTF-8 with or without a BOM, as dicts
    that hold all of ``columns`` and whose 'algo' and 'func' cells are non-empty strings.
    A CSV header that repeats a name, or a JSON object that repeats a key, raises."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            if Path(path).suffix == ".json":
                rows = json.load(fh, object_pairs_hook=_json_object)
            else:
                reader = csv.DictReader(fh)
                rows = list(reader)
                _no_repeat("column", reader.fieldnames or ())
    except (ValueError, csv.Error) as e:  # ValueError: JSONDecodeError, UnicodeDecodeError too
        raise ValueError(f"{path}: {e}") from None
    return _checked(path, rows, *columns)


def _checked(path, rows, *columns: str) -> list[dict]:
    if not rows:  # a header-only CSV, [] or {}: nothing to read
        raise ValueError(f"{path}: no rows")
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ValueError(f"{path}: not a list of rows")
    for n, row in enumerate(rows, 1):
        if None in row:  # csv.DictReader's key for the cells beyond the header
            raise ValueError(f"{path}: row {n} has more cells than the header")
        nested = [c for c, v in row.items() if isinstance(v, (list, dict))]
        if nested:  # a JSON list or object: not a number, nor an id to key on
            raise ValueError(f"{path}: row {n}: {nested[0]!r}: not a number or a string")
        missing = [c for c in columns if c not in row]
        if missing:
            raise ValueError(f"{path}: no {missing[0]!r} column")
        for c in ("algo", "func"):  # the ids a table is keyed on
            if c in row and not (isinstance(row[c], str) and row[c]):
                raise ValueError(f"{path}: row {n}: {c!r}: not a non-empty string: {row[c]!r}")
    return rows


def _number(path, cell: str, value) -> float:
    """One table cell as a float other than NaN; the error names the file and the cell."""
    try:
        number = float(value)
    except (TypeError, ValueError):  # TypeError: None, the missing cell of a short row
        number = None
    if number is None or isinstance(value, bool):  # float() takes a JSON true or false as 1 or 0
        raise ValueError(f"{path}: {cell}: not a number: {value!r}")
    if math.isnan(number):
        raise ValueError(f"{path}: {cell}: NaN")
    return number


def load_summary(path) -> dict:
    """Read a summary.csv or summary.json, by suffix, into {(algo, func): avg}."""
    return _summary(path, _rows(path, "algo", "func", "avg"))


def _summary(path, rows: list[dict]) -> dict:
    summary = {}
    for row in rows:
        algo, func = row["algo"], row["func"]
        if (algo, func) in summary:
            raise ValueError(f"{path}: {algo}/{func}: repeated row")
        summary[algo, func] = _number(path, f"{algo}/{func} avg", row["avg"])
    return summary


def load_averages(path) -> dict:
    """Read a CSV or JSON table into {func: {algo: avg}}, the input of ``rank_algorithms``.
    Its columns decide its shape: with an 'algo' column it is ``run``'s summary, read by
    ``load_summary``; otherwise a 'func' column and one column of averages per algorithm.
    Either way, a function without an algorithm's average is an error naming both."""
    rows, averages = _rows(path, "func"), {}
    if "algo" in rows[0]:
        for (algo, func), avg in _summary(path, _checked(path, rows, "algo", "func", "avg")).items():
            averages.setdefault(func, {})[algo] = avg
    else:
        for n, row in enumerate(rows, 1):
            func = row.pop("func")
            if func in averages:
                raise ValueError(f"{path}: {func}: repeated row")
            if "" in row:
                raise ValueError(f"{path}: row {n}: an algorithm column has no name")
            averages[func] = {algo: _number(path, f"{func}/{algo}", v) for algo, v in row.items()}
    try:
        algos = table_algorithms(averages)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    if not algos:
        raise ValueError(f"{path}: no algorithm columns")
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
                row["log10_gap"] = math.log10(abs(mv)) - math.log10(abs(pv))
        rows.append(row)
    return {"rows": rows, "wins_vs_hs": wins["hs"], "wins_vs_cddo": wins["cddo"]}
