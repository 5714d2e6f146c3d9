"""Command-line front end for the benchmark harness."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import reference
from .benchmarks import FUNCTION_IDS, SPECS
from .core import RunConfig
from .harness import (ALGORITHMS, FORMATS, ExperimentPlan, compare_to_reference, load_averages,
                      load_summary, run_experiment)
from .stats import rank_algorithms


def _parse_funcs(spec: str) -> list[str]:
    if spec in ("all", "classical"):
        return list(FUNCTION_IDS)
    return [f.strip() for f in spec.split(",") if f.strip()]


def _parse_algos(spec: str) -> list[str]:
    if spec == "all":
        return sorted(ALGORITHMS)
    return [a.strip() for a in spec.split(",") if a.strip()]


def cmd_run(args) -> int:
    try:
        plan = ExperimentPlan(
            algorithms=_parse_algos(args.algo),
            functions=_parse_funcs(args.func),
            config=RunConfig(pop_size=args.pop, max_iters=args.iters,
                             n_runs=args.runs, base_seed=args.seed),
            output_dir=Path(args.out),
            formats=FORMATS if args.format == "both" else (args.format,),
        )
        plan.validate()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    result = run_experiment(plan)
    for p in result["paths"]:
        print(p)
    return 0


def cmd_compare(args) -> int:
    report = compare_to_reference(load_summary(args.summary))
    cols = ["func", "measured_cddo-hs", "ref_cddo-hs", "agree_vs_cddo",
            "agree_vs_hs", "log10_gap"]
    print("\t".join(cols))
    for row in report["rows"]:
        print("\t".join(str(row.get(c, "-")) for c in cols))
    print(f"wins vs hs: {report['wins_vs_hs']}  wins vs cddo: {report['wins_vs_cddo']}")
    return 0


def cmd_rank(args) -> int:
    results = reference.TABLE6 if args.reference else load_averages(args.input)
    table = rank_algorithms(results)
    for algo in sorted(table.scores, key=table.scores.get):
        print(f"{algo}\t{table.scores[algo]:.3f}")
    return 0


def cmd_list(_args) -> int:
    print("id\tfamily\tdim\tlower\tupper\tf_min\tstochastic")
    for fid in FUNCTION_IDS:
        s = SPECS[fid]
        print(f"{s.id}\t{s.family}\t{s.dim}\t{s.lower:g}\t{s.upper:g}\t{s.f_min}\t{s.stochastic}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cddohs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an (algorithm x function) grid")
    p_run.add_argument("--algo", default="all",
                       help="cddo | hs | cddo-hs | all | comma-separated list")
    p_run.add_argument("--func", default="classical",
                       help="F1..F19 | classical | all | comma-separated list")
    p_run.add_argument("--pop", type=int, default=RunConfig.pop_size)
    p_run.add_argument("--iters", type=int, default=RunConfig.max_iters)
    p_run.add_argument("--runs", type=int, default=RunConfig.n_runs)
    p_run.add_argument("--seed", type=int, default=RunConfig.base_seed)
    p_run.add_argument("--out", default=ExperimentPlan.output_dir)
    p_run.add_argument("--format", choices=[*FORMATS, "both"], default="both")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare a summary.csv or .json to the published table")
    p_cmp.add_argument("--summary", required=True, help="summary.csv or summary.json from run")
    p_cmp.set_defaults(fn=cmd_compare)

    p_rank = sub.add_parser("rank", help="rank algorithms from per-function averages")
    source = p_rank.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="CSV or JSON with a 'func' column plus one column per algorithm")
    source.add_argument("--reference", choices=["table6"], help="use embedded data")
    p_rank.set_defaults(fn=cmd_rank)

    p_list = sub.add_parser("list", help="print the benchmark function registry")
    p_list.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
