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

    def test_single_run_comparison(self):
        # a p-value needs two runs per sample; one algorithm needs no p-value
        one_run = RunConfig(pop_size=8, max_iters=20, n_runs=1)
        plan = ExperimentPlan(algorithms=["cddo", "hs"], functions=["F1"], config=one_run)
        with pytest.raises(ValueError, match="at least 2 runs per cell, got 1"):
            plan.validate()
        ExperimentPlan(algorithms=["hs"], functions=["F1"], config=one_run).validate()

    def test_empty_formats(self):
        # no format would run the whole grid and write nothing
        plan = ExperimentPlan(algorithms=["hs"], functions=["F1"], config=TINY, formats=())
        with pytest.raises(ValueError, match="need at least one format"):
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

    def test_report_pin(self, tmp_path):
        # F1: published hybrid average, both baselines beaten as published;
        # F2: no hybrid cell; F3: no hs cell; F10: measured zeros (a zero
        # average is a measured cell, not a gap); F11: both pairs disagree.
        path = tmp_path / "summary.csv"
        path.write_text(
            "algo,func,avg,std,best,worst,n_runs,seed\n"
            "cddo-hs,F1,5.087e-33,0.0,0.0,0.0,3,1\n"
            "cddo,F1,1.0e-60,0.0,0.0,0.0,3,2\n"
            "hs,F1,1.0e+00,0.0,0.0,0.0,3,3\n"
            "cddo,F2,1.0e+00,0.0,0.0,0.0,3,4\n"
            "hs,F2,2.0e+00,0.0,0.0,0.0,3,5\n"
            "cddo-hs,F3,1.0e-28,0.0,0.0,0.0,3,6\n"
            "cddo,F3,1.0e-50,0.0,0.0,0.0,3,7\n"
            "cddo-hs,F10,0.0e+00,0.0,0.0,0.0,3,8\n"
            "cddo,F10,0.0e+00,0.0,0.0,0.0,3,9\n"
            "hs,F10,1.0e+00,0.0,0.0,0.0,3,10\n"
            "cddo-hs,F11,1.0e-03,0.0,0.0,0.0,3,11\n"
            "cddo,F11,1.0e-04,0.0,0.0,0.0,3,12\n"
            "hs,F11,1.0e-05,0.0,0.0,0.0,3,13\n")
        report = compare_to_reference(load_summary(path))
        measured = {
            "F1": {"func": "F1", "measured_cddo-hs": 5.087e-33, "ref_cddo-hs": 5.087e-33,
                   "measured_cddo": 1e-60, "ref_cddo": 1.328e-57, "measured_hs": 1.0,
                   "ref_hs": 285.0, "agree_vs_hs": True, "agree_vs_cddo": True,
                   "log10_gap": 0.0},
            "F2": {"func": "F2", "measured_cddo-hs": None, "ref_cddo-hs": 4.921e-17,
                   "measured_cddo": 1.0, "ref_cddo": 2.453e-32, "measured_hs": 2.0,
                   "ref_hs": 3.005},
            "F3": {"func": "F3", "measured_cddo-hs": 1e-28, "ref_cddo-hs": 1.249e-29,
                   "measured_cddo": 1e-50, "ref_cddo": 2.736e-39, "measured_hs": None,
                   "ref_hs": 17540.0, "agree_vs_cddo": True,
                   "log10_gap": 0.9034375616258643},
            "F10": {"func": "F10", "measured_cddo-hs": 0.0, "ref_cddo-hs": 6.809e-15,
                    "measured_cddo": 0.0, "ref_cddo": 7.875e-15, "measured_hs": 1.0,
                    "ref_hs": 5.095, "agree_vs_hs": True, "agree_vs_cddo": False,
                    "log10_gap": None},
            "F11": {"func": "F11", "measured_cddo-hs": 0.001, "ref_cddo-hs": 0.0,
                    "measured_cddo": 0.0001, "ref_cddo": 0.5688, "measured_hs": 1e-05,
                    "ref_hs": 3.513, "agree_vs_hs": False, "agree_vs_cddo": False,
                    "log10_gap": None},
        }
        assert [r["func"] for r in report["rows"]] == [f"F{i}" for i in range(1, 20)]
        for row in report["rows"]:
            if row["func"] in measured:
                assert row == measured[row["func"]]
            else:  # no cell at all: only the published averages
                assert {k: v for k, v in row.items() if not k.startswith("ref_")} == {
                    "func": row["func"], "measured_cddo-hs": None, "measured_cddo": None,
                    "measured_hs": None}
        assert (report["wins_vs_hs"], report["wins_vs_cddo"]) == (2, 0)


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

    @pytest.mark.parametrize("args", [["--runs", "1"], ["--runs", "0"], ["--pop", "0"],
                                      ["--iters", "0"]])
    def test_run_rejects_arguments_before_the_grid(self, tmp_path, capsys, args):
        # exit 2 like every other argument error, with nothing run or written
        out = tmp_path / "out"
        rc = main(["run", "--algo", "cddo,hs", "--func", "F1", "--iters", "5",
                   "--out", str(out), *args])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

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

    @pytest.mark.parametrize("command,name,text", [
        pytest.param("rank", "avgs.csv", "func,a,b\nF1,1\n", id="short-row"),
        pytest.param("rank", "avgs.csv", "func,a,b\nF1,1,2,3\n", id="long-row"),
        pytest.param("compare", "summary.csv", "algo,func,avg\nhs,F1\n", id="no-avg-value"),
        pytest.param("compare", "summary.csv", "algo,func,std\nhs,F1,1.0\n", id="no-avg-column"),
        pytest.param("rank", "avgs.csv", "a,b\n1,2\n", id="no-func-column"),
        pytest.param("rank", "avgs.csv", "func,a,b\nF1,,1\n", id="empty-cell"),
        pytest.param("compare", "summary.csv", "algo,func,avg\nhs,F1,abc\n", id="non-numeric-cell"),
        pytest.param("rank", "avgs.csv", "func,a,b\nF1,nan,1\n", id="nan-cell"),
        pytest.param("rank", "avgs.csv", "func,a,b\nF1,1,2\nF1,2,1\n", id="repeated-func"),
        pytest.param("compare", "summary.csv", "algo,func,avg\nhs,F1,1\nhs,F1,2\n",
                     id="repeated-cell"),
        pytest.param("rank", "avgs.csv", "func\nF1\nF2\n", id="no-algorithm-column"),
    ])
    def test_malformed_table_names_the_file(self, tmp_path, capsys, command, name, text):
        path = tmp_path / name
        path.write_text(text)
        flag = "--summary" if command == "compare" else "--input"
        assert main([command, flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("reference", ["table6", "bogus"])
    def test_rank_takes_one_source(self, tmp_path, capsys, reference):
        path = tmp_path / "avgs.csv"
        path.write_text("func,a,b\nF1,1,2\n")
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--reference", reference, "--input", str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

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
