"""Tests of the benchmark itself: its checks reject bad output, and the
metric names it prints are those BENCHMARK.json declares.

    python3 -m pytest bench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import END_TO_END, FUNCS, PER_LAYER, WORKLOADS  # noqa: E402

from cddohs import harness  # noqa: E402
from cddohs.core import RunConfig  # noqa: E402

ALGOS = ("cddo", "hs")
GRID_FUNCS = ("F1", "F16")
CONFIG = RunConfig(pop_size=8, max_iters=5, n_runs=9, base_seed=3)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_per_layer_metrics_cover_every_name():
    metrics = per_layer_metrics({}, pop=40, scale=1.0, kernel_in_cells_s=0.0,
                                eval_us=dict.fromkeys(FUNCS, 1.0), artifact_mb=0.0,
                                overhead_s=0.0)
    assert list(metrics) == list(PER_LAYER)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)], accepted=bool)
    outer()
    totals = tracer.totals()
    assert totals["inner"]["count"] == 3 and totals["outer"]["accepted"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"])


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """A small run_experiment output and its full-precision per-run finals."""
    out = tmp_path_factory.mktemp("grid")
    harness.run_experiment(harness.ExperimentPlan(
        algorithms=list(ALGOS), functions=list(GRID_FUNCS), config=CONFIG, output_dir=out))
    finals = {(a, f): [r.best_fitness for r in harness.run_cell(a, f, CONFIG)]
              for a in ALGOS for f in GRID_FUNCS}
    return out, finals


def copy_grid(grid, tmp_path) -> Path:
    out, _ = grid
    for p in out.iterdir():
        (tmp_path / p.name).write_bytes(p.read_bytes())
    return tmp_path


def grid_problems(out, finals):
    return (checks.check_grid(out, ALGOS, GRID_FUNCS, CONFIG.n_runs, CONFIG.max_iters, finals)
            + checks.check_pvalues(out, ALGOS, GRID_FUNCS, finals))


def test_untouched_grid_passes(grid):
    assert grid_problems(*grid) == []


def test_corrupted_summary_csv_is_rejected(grid, tmp_path):
    out = copy_grid(grid, tmp_path)
    path = out / "summary.csv"
    lines = path.read_text().splitlines()
    row = lines[1].split(",")
    row[2] = f"{float(row[2]) * 1.01:.6e}"  # avg
    path.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
    problems = grid_problems(out, grid[1])
    assert "summary.csv and summary.json differ" in problems
    assert any("summary avg" in p for p in problems)


def test_wrong_pvalue_is_rejected(grid, tmp_path):
    out = copy_grid(grid, tmp_path)
    for name in ("pvalues.csv", "pvalues.json"):
        path = out / name
        text = path.read_text()
        p = next(r["p_value"] for r in json.loads((out / "pvalues.json").read_text()))
        path.write_text(text.replace(p, f"{float(p) * 0.9:.6e}", 1))
    problems = checks.check_pvalues(out, ALGOS, GRID_FUNCS, grid[1])
    assert len(problems) == 1 and "scipy gives" in problems[0]


def test_rising_trace_is_rejected(grid, tmp_path):
    assert checks.check_run("r", "F1", 2.0, [3.0, 2.0, 2.5, 2.0], 4) == ["r: convergence trace rises"]
    out = copy_grid(grid, tmp_path)
    rows = json.loads((out / "convergence_cddo_F1.json").read_text())
    rows[1]["gbest"] = f"{float(rows[0]['gbest']) * 2 + 1:.6e}"
    (out / "convergence_cddo_F1.json").write_text(json.dumps(rows))
    lines = ["run,iter,gbest"] + [f"{r['run']},{r['iter']},{r['gbest']}" for r in rows]
    (out / "convergence_cddo_F1.csv").write_text("\n".join(lines) + "\n")
    problems = grid_problems(out, grid[1])
    assert "cddo/F1 run 0 (written): convergence trace rises" in problems


def test_final_below_the_published_minimum_is_rejected():
    trace = [1.0] * 3
    assert checks.check_run("r", "F14", 0.9980038, [0.9980038] * 3, 3) == []
    assert checks.check_run("r", "F14", 0.99, [0.99] * 3, 3) != []
    assert checks.check_run("r", "F1", float("nan"), trace, 3) != []


def test_single_run_checks_position_and_budget():
    from cddohs import benchmarks, cddo

    problem = benchmarks.make_function("F16")
    result = cddo.cddo_run(problem, RunConfig(pop_size=6, max_iters=4, base_seed=1))

    def check(res):
        return checks.check_single_run("c", "F16", "cddo", res, problem, 6, 4,
                                       benchmarks.evaluate_at)

    assert check(result) == []
    assert check(dataclasses.replace(result, best_position=np.array([9.0, 0.0]))) != []
    assert check(dataclasses.replace(result, evals=6 * 5 + 1)) != []
