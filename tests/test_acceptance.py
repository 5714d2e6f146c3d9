"""Acceptance suite: one test per top-level quality criterion.

Each test prints a single PASS/FAIL line (bypassing pytest capture) so the
run log shows the verdict for every criterion at a glance.  The statistical
criteria share one full 3-algorithm x 19-function x 30-run grid, produced
once per session with a fixed base seed.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from cddohs.benchmarks import SPECS, evaluate_at
from cddohs.cddo import cddo_run
from cddohs.core import RunConfig
from cddohs.harness import ExperimentPlan, run_experiment
from cddohs.hybrid import cddo_hs_run
from cddohs.benchmarks import make_function
from cddohs.reference import TABLE6, TABLE8_SCORES
from cddohs.stats import rank_algorithms, wilcoxon_rank_sum

from test_stats import exact_rank_sum_p

BASE_SEED = 2023  # fixed for the whole acceptance grid

CERTIFIED = [
    "F1", "F2", "F3", "F4", "F5", "F6",
    "F9", "F10", "F11", "F12", "F13",
    "F16", "F17", "F18", "F19",
]


@pytest.fixture
def report(capsys):
    """Print one PASS/FAIL line per criterion outside pytest's capture."""

    def _report(criterion: int, label: str, ok: bool, detail: str = ""):
        verdict = "PASS" if ok else "FAIL"
        line = f"[ACCEPTANCE {criterion}] {verdict}: {label}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="session")
def grid(tmp_path_factory):
    """Full grid with the committed base seed; parsed summary and p-values."""
    out = tmp_path_factory.mktemp("acceptance_grid")
    plan = ExperimentPlan(
        algorithms=["cddo", "hs", "cddo-hs"],
        functions=[f"F{i}" for i in range(1, 20)],
        config=RunConfig(pop_size=40, max_iters=500, n_runs=30, base_seed=BASE_SEED),
        output_dir=out,
    )
    t0 = time.monotonic()
    run_experiment(plan)
    elapsed = time.monotonic() - t0

    summary = {}
    with open(out / "summary.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            summary[(row["algo"], row["func"])] = {
                "avg": float(row["avg"]), "std": float(row["std"]),
            }
    pvalues = {}
    with open(out / "pvalues.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["func"], row["algo_a"], row["algo_b"])
            pvalues[key] = float(row["p_value"])
    return {"summary": summary, "pvalues": pvalues, "elapsed": elapsed}


def test_criterion_1_optimum_certification(report):
    t0 = time.monotonic()
    ok, detail = True, ""
    for fid in CERTIFIED:
        s = SPECS[fid]
        got = evaluate_at(fid, np.asarray(s.minimizer, dtype=float))
        if got != pytest.approx(s.f_min, rel=1e-3, abs=1e-6):
            ok, detail = False, f"{fid}: f(minimizer)={got} vs f_min={s.f_min}"
            break
    elapsed = time.monotonic() - t0
    if ok and elapsed >= 1.0:
        ok, detail = False, f"took {elapsed:.2f}s, budget 1s"
    report(1, "optimum certification on deterministic functions", ok, detail)


def test_criterion_2_hybrid_quality_bands(grid, report):
    s = grid["summary"]
    checks = [
        ("F1", s[("cddo-hs", "F1")]["avg"] <= 1e-6),
        ("F11", s[("cddo-hs", "F11")]["avg"] <= 1e-12),
        ("F16", abs(s[("cddo-hs", "F16")]["avg"] - (-1.0316)) <= 1e-3),
        ("F10", s[("cddo-hs", "F10")]["avg"] <= 1e-8),
    ]
    failed = [name for name, passed in checks if not passed]
    detail = "; ".join(
        f"{n}={s[('cddo-hs', n)]['avg']:.3e}" for n, _ in checks
    )
    report(2, "hybrid quality bands on F1/F10/F11/F16", not failed, detail)


def test_criterion_3_baseline_separation(grid, report):
    s, p = grid["summary"], grid["pvalues"]
    funcs = [f"F{i}" for i in range(1, 20)]
    wins = [f for f in funcs if s[("cddo-hs", f)]["avg"] < s[("hs", f)]["avg"]]
    significant = [
        f for f in wins
        if p.get((f, "cddo-hs", "hs"), p.get((f, "hs", "cddo-hs"), 1.0)) < 0.05
    ]
    ok = len(wins) >= 12 and len(significant) >= 10
    detail = (
        f"wins {len(wins)}/19, significant {len(significant)}, "
        f"grid {grid['elapsed']:.0f}s"
    )
    if grid["elapsed"] >= 15 * 60:
        ok, detail = False, detail + " — over the 15 min budget"
    report(3, "hybrid beats HS across the classical suite", ok, detail)


def test_criterion_4_hs_sanity_band(grid, report):
    avg = grid["summary"][("hs", "F1")]["avg"]
    report(4, "HS on F1 lands in the weak-baseline band", 1e1 <= avg <= 1e4,
            f"mean {avg:.3e}")


def test_criterion_5_wilcoxon_oracle_equivalence(report):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        na, nb = rng.integers(2, 9), rng.integers(2, 9)
        a = rng.integers(0, 10, size=na).tolist()
        b = rng.integers(0, 10, size=nb).tolist()
        worst = max(worst, abs(wilcoxon_rank_sum(a, b) - exact_rank_sum_p(a, b)))
    fixed = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    elapsed = time.monotonic() - t0
    ok = worst <= 0.05 and fixed == pytest.approx(0.1, abs=0.05) and elapsed < 10
    report(5, "Wilcoxon p-values match the exact enumeration oracle", ok,
            f"max |Δp| {worst:.4f}, fixed case p {fixed:.4f}, {elapsed:.1f}s")


def test_criterion_6_ranking_reproduction(report):
    table = rank_algorithms(TABLE6)
    diffs = {a: abs(table.scores[a] - TABLE8_SCORES[a]) for a in TABLE8_SCORES}
    best = min(table.scores, key=table.scores.get)
    worst = max(table.scores, key=table.scores.get)
    ok = best == "CDDO-HS" and worst == "BOA" and max(diffs.values()) <= 0.3
    report(6, "ranking table reproduces the published scores", ok,
            f"best {best}, worst {worst}, "
            f"max score diff {max(diffs.values()):.2f}")


def test_criterion_7_determinism(tmp_path, report):
    t0 = time.monotonic()
    prob = make_function("F5")
    cfg = RunConfig(pop_size=20, max_iters=100, n_runs=1, base_seed=99)
    ok = True
    for runner in (cddo_run, cddo_hs_run):
        r1, r2 = runner(prob, cfg), runner(prob, cfg)
        ok = ok and np.array_equal(r1.trace, r2.trace)
        ok = ok and np.array_equal(r1.best_position, r2.best_position)

    plan_kwargs = dict(
        algorithms=["cddo-hs"], functions=["F16"],
        config=RunConfig(pop_size=10, max_iters=25, n_runs=2, base_seed=7),
    )
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        run_experiment(ExperimentPlan(output_dir=out, **plan_kwargs))
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = ok and outs[0] == outs[1]
    elapsed = time.monotonic() - t0
    if elapsed >= 120:
        ok = False
    report(7, "repeated runs and artifacts are bit-identical", ok,
            f"{elapsed:.1f}s")
