import csv
import inspect
import json
from pathlib import Path

import pytest

from cddohs.cli import main
from cddohs.core import RunConfig
from cddohs.harness import (
    ALGORITHMS, ExperimentPlan, cell_seed, compare_to_reference, load_summary,
    run_cell, run_experiment,
)

TINY = RunConfig(pop_size=8, max_iters=20, n_runs=3, base_seed=7)


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    plan = ExperimentPlan(algorithms=["cddo", "hs", "cddo-hs"], functions=["F1", "F16"],
                          config=TINY, output_dir=out)
    result = run_experiment(plan)
    return out, result


class TestPlanValidation:
    def test_unknown_algorithm(self):
        plan = ExperimentPlan(algorithms=["nope"], functions=["F1"], config=TINY)
        with pytest.raises(ValueError, match="unknown algorithm"):
            plan.validate()

    def test_unknown_function(self):
        plan = ExperimentPlan(algorithms=["hs"], functions=["F99"], config=TINY)
        with pytest.raises(ValueError, match="unknown function"):
            plan.validate()

    def test_empty_lists(self):
        with pytest.raises(ValueError):
            ExperimentPlan(algorithms=[], functions=["F1"], config=TINY).validate()

    def test_duplicate_algorithm(self):
        plan = ExperimentPlan(algorithms=["cddo", "cddo"], functions=["F16"], config=TINY)
        with pytest.raises(ValueError, match="duplicate algorithm cddo"):
            plan.validate()

    def test_duplicate_function(self):
        plan = ExperimentPlan(algorithms=["hs"], functions=["F16", "F1", "F16"], config=TINY)
        with pytest.raises(ValueError, match="duplicate function F16"):
            plan.validate()


class TestSeeding:
    def test_cell_seeds_differ_across_cells(self):
        seeds = {cell_seed(7, a, f) for a in ("cddo", "hs") for f in ("F1", "F2")}
        assert len(seeds) == 4

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_entry_point_signature(self, algo):
        # run_cell (and any caller of the library) calls run_fn(problem, config, run_index=r)
        params = inspect.signature(ALGORITHMS[algo]).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            ("problem", inspect.Parameter.empty), ("config", inspect.Parameter.empty),
            ("run_index", 0)]

    def test_cell_replay_is_independent(self):
        a = run_cell("hs", "F1", TINY)
        b = run_cell("hs", "F1", TINY)
        assert [r.best_fitness for r in a] == [r.best_fitness for r in b]
        assert [r.seed for r in a] == [cell_seed(7, "hs", "F1") + r for r in range(3)]


class TestArtifacts:
    def test_expected_files(self, tiny_outputs):
        out, _ = tiny_outputs
        for name in ["summary.csv", "summary.json", "pvalues.csv", "pvalues.json"]:
            assert (out / name).exists()
        for algo in ("cddo", "hs", "cddo-hs"):
            for func in ("F1", "F16"):
                assert (out / f"convergence_{algo}_{func}.csv").exists()
                assert (out / f"convergence_{algo}_{func}.json").exists()

    def test_summary_header_and_format(self, tiny_outputs):
        out, _ = tiny_outputs
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "algo,func,avg,std,best,worst,n_runs,seed"
        assert len(lines) == 1 + 6  # 3 algos x 2 funcs
        row = lines[1].split(",")
        float(row[2])  # scientific-notation fields parse as floats
        assert "e" in row[2]

    def test_pvalues_rows(self, tiny_outputs):
        out, _ = tiny_outputs
        with open(out / "pvalues.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3  # per function, C(3,2) algorithm pairs
        for r in rows:
            assert 0.0 < float(r["p_value"]) <= 1.0

    def test_convergence_columns(self, tiny_outputs):
        out, _ = tiny_outputs
        with open(out / "convergence_hs_F1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == TINY.n_runs * TINY.max_iters
        assert set(rows[0]) == {"run", "iter", "gbest"}

    @pytest.mark.parametrize("table", ["summary", "pvalues", "convergence_cddo-hs_F16"])
    def test_csv_json_content_parity(self, tiny_outputs, table):
        out, _ = tiny_outputs
        with open(out / f"{table}.csv", newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = json.loads((out / f"{table}.json").read_text())
        assert len(csv_rows) == len(json_rows) > 0
        for c, j in zip(csv_rows, json_rows):
            # JSON keeps integer columns as numbers; every field prints the same
            assert c == {k: str(v) for k, v in j.items()}

    def test_rerun_is_byte_identical(self, tiny_outputs, tmp_path):
        out, _ = tiny_outputs
        plan = ExperimentPlan(algorithms=["cddo", "hs", "cddo-hs"], functions=["F1", "F16"],
                              config=TINY, output_dir=tmp_path)
        run_experiment(plan)
        for table in ("summary", "pvalues", "convergence_cddo-hs_F16"):
            for suffix in (".csv", ".json"):
                name = table + suffix
                assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

    def test_csv_paths_precede_json_paths(self, tiny_outputs):
        _, result = tiny_outputs
        suffixes = [Path(p).suffix for p in result["paths"]]
        assert suffixes == [".csv"] * 8 + [".json"] * 8


class TestCompare:
    def test_empty_summary_gives_empty_wins(self):
        report = compare_to_reference({})
        assert report["wins_vs_hs"] == 0
        assert all(r["measured_cddo-hs"] is None for r in report["rows"])

    def test_measured_rows(self, tiny_outputs):
        out, _ = tiny_outputs
        report = compare_to_reference(load_summary(out / "summary.csv"))
        by_func = {r["func"]: r for r in report["rows"]}
        assert "agree_vs_hs" in by_func["F1"]
        assert by_func["F2"]["measured_cddo-hs"] is None  # missing cell is a gap
        assert report["wins_vs_hs"] <= 19


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("F1\tunimodal\t10")
        assert len(out.splitlines()) == 20

    def test_rank_reference(self, capsys):
        assert main(["rank", "--reference", "table6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("CDDO-HS")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_run_and_compare_roundtrip(self, tmp_path, capsys, fmt):
        rc = main(["run", "--algo", "hs,cddo-hs", "--func", "F16", "--pop", "8",
                   "--iters", "15", "--runs", "3", "--seed", "1",
                   "--out", str(tmp_path), "--format", fmt])
        assert rc == 0
        assert (tmp_path / f"summary.{fmt}").exists()
        assert len(list(tmp_path.iterdir())) == 4  # summary, pvalues, two convergence
        rc = main(["compare", "--summary", str(tmp_path / f"summary.{fmt}")])
        assert rc == 0
        assert "wins vs hs" in capsys.readouterr().out

    @pytest.mark.parametrize("payload", ['{"algo": "hs"}', "[1, 2]", "3"])
    def test_compare_rejects_json_without_rows(self, tmp_path, capsys, payload):
        (tmp_path / "summary.json").write_text(payload)
        assert main(["compare", "--summary", str(tmp_path / "summary.json")]) == 1
        assert "not a list of summary rows" in capsys.readouterr().err

    @pytest.mark.parametrize("name,payload", [("summary.csv", "algo,func\n"),
                                              ("summary.json", "{}"), ("summary.json", "[]")])
    def test_compare_rejects_summary_without_rows(self, tmp_path, capsys, name, payload):
        (tmp_path / name).write_text(payload)
        assert main(["compare", "--summary", str(tmp_path / name)]) == 1
        assert "no summary rows" in capsys.readouterr().err

    def test_compare_names_missing_column(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        path.write_text("func,avg\nF1,1.0\n")
        assert main(["compare", "--summary", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: no 'algo' column\n"

    def test_rank_rejects_nan(self, tmp_path, capsys):
        path = tmp_path / "avgs.csv"
        path.write_text("func,a,b\nF1,nan,1\nF2,2,1\n")
        assert main(["rank", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert "NaN" in captured.err and captured.out == ""

    def test_unknown_algo_exit_code(self, tmp_path, capsys):
        rc = main(["run", "--algo", "simulated-annealing", "--func", "F1",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_duplicate_algo_exit_code(self, tmp_path, capsys):
        rc = main(["run", "--algo", "cddo,cddo", "--func", "F16", "--out", str(tmp_path)])
        assert rc == 2
        assert "duplicate algorithm cddo" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unwritable_output_dir(self, capsys):
        rc = main(["run", "--algo", "hs", "--func", "F16", "--pop", "5",
                   "--iters", "2", "--runs", "2", "--out", "/proc/nope"])
        assert rc != 0
