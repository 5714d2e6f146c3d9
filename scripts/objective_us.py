#!/usr/bin/env python3
"""Per-call time of benchmark objectives in two checkouts, timed in one process.

    python3 scripts/objective_us.py --parent DIR --change DIR --func F13 --rows 1,4,20,40

Loads ``cddohs.benchmarks`` from ``DIR/src`` of both checkouts into this process,
each as a package of its own name, so that both sides run under one interpreter,
one numpy and one CPU state. For every function in ``--func`` and every row
count in ``--rows`` it draws seeded points in the function's box: a row count of
1 is one point, shape (d,), the hybrid refresh's call, and n > 1 is n rows, shape
(n, d). It first checks that both sides' values are equal bit for bit on those
inputs and on a batch of ``CHECK_ROWS`` rows; then it times ``--number`` calls per
side, ``--rounds`` times, the two sides alternating which goes first, and prints
each side's least time per call in µs. Standard library and numpy only; the
exit status is 1 if any value differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import timeit
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
CHECK_ROWS = 2000


def load_benchmarks(checkout: Path, name: str):
    """``cddohs.benchmarks`` of ``checkout/src``, imported as package ``name``."""
    package = checkout / "src" / "cddohs"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return sys.modules[f"{name}.benchmarks"]


def inputs(spec, rows: int, seed: int) -> np.ndarray:
    """``rows`` seeded points in the box of ``spec``: (d,) for 1, (rows, d) otherwise."""
    u = np.random.default_rng(seed).random((rows, spec.dim))
    x = spec.lower + (spec.upper - spec.lower) * u
    return x[0] if rows == 1 else x


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def least_us(objectives: dict, x: np.ndarray, rounds: int, number: int) -> dict:
    """Each side's least µs per call over ``rounds`` timings of ``number`` calls."""
    best = {side: float("inf") for side in objectives}
    for r in range(rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            f = objectives[side]
            seconds = timeit.timeit(lambda: f(x), number=number)
            best[side] = min(best[side], seconds / number * 1e6)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--func", default="F12,F13", help="comma-separated ids (default F12,F13)")
    ap.add_argument("--rows", default="1,4,20,40", help="comma-separated row counts; 1 is one point")
    ap.add_argument("--rounds", type=int, default=12, help="timings per side and layout (default 12)")
    ap.add_argument("--number", type=int, default=400, help="calls per timing (default 400)")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.number < 1:
        ap.error("--rounds and --number must be at least 1")
    rows = [int(n) for n in args.rows.split(",")]
    if min(rows) < 1:
        ap.error("--rows must be at least 1")
    modules = {side: load_benchmarks(getattr(args, side), f"cddohs_{side}") for side in SIDES}
    status = 0
    for fid in args.func.split(","):
        specs = {side: modules[side].make_function(fid) for side in SIDES}
        objectives = {side: specs[side].objective for side in SIDES}
        check = inputs(specs["change"], CHECK_ROWS, 0)
        if not same_bits(*(objectives[side](check) for side in SIDES)):
            print(f"{fid}: the values of {CHECK_ROWS} rows differ", file=sys.stderr)
            status = 1
            continue
        for n in rows:
            x = inputs(specs["change"], n, n)
            if not same_bits(*(objectives[side](x) for side in SIDES)):
                print(f"{fid} rows={n}: the values differ", file=sys.stderr)
                status = 1
                continue
            us = least_us(objectives, x, args.rounds, args.number)
            change = (us["change"] / us["parent"] - 1.0) * 100.0
            print(f"{fid} rows={n} parent {us['parent']:.2f} us change {us['change']:.2f} us "
                  f"({change:+.1f}%)", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
