import csv
import inspect
import json
import re
import shlex
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest

from cddohs import harness
from cddohs.cli import build_parser, main
from cddohs.core import RunConfig
from cddohs.harness import (
    ALGORITHMS, ExperimentPlan, _cells, _fmt, _write, cell_seed, compare_to_reference,
    load_averages, load_summary, run_cell, run_experiment,
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
        with pytest.raises(ValueError, match="unknown algorithm"):
            ExperimentPlan(algorithms=["nope"], functions=["F1"], config=TINY)

    def test_unknown_function(self):
        with pytest.raises(ValueError, match="unknown function"):
            ExperimentPlan(algorithms=["hs"], functions=["F99"], config=TINY)

    def test_empty_lists(self):
        with pytest.raises(ValueError):
            ExperimentPlan(algorithms=[], functions=["F1"], config=TINY)

    def test_duplicate_algorithm(self):
        with pytest.raises(ValueError, match="duplicate algorithm cddo"):
            ExperimentPlan(algorithms=["cddo", "cddo"], functions=["F16"], config=TINY)

    def test_duplicate_function(self):
        with pytest.raises(ValueError, match="duplicate function F16"):
            ExperimentPlan(algorithms=["hs"], functions=["F16", "F1", "F16"], config=TINY)

    def test_single_run_comparison(self):
        # a p-value needs two runs per sample; one algorithm needs no p-value
        one_run = RunConfig(pop_size=8, max_iters=20, n_runs=1)
        with pytest.raises(ValueError, match="at least 2 runs per cell, got 1"):
            ExperimentPlan(algorithms=["cddo", "hs"], functions=["F1"], config=one_run)
        ExperimentPlan(algorithms=["hs"], functions=["F1"], config=one_run)


@pytest.mark.parametrize("field", ["algorithms", "functions"])
def test_plan_rejects_a_string(field):
    # one id as a bare string would be checked letter by letter
    ids = {"algorithms": ["hs"], "functions": ["F16"]}
    ids[field] = ids[field][0]
    with pytest.raises(ValueError, match=f"^{field} needs a list of .* ids, not the string"):
        ExperimentPlan(**ids, config=TINY)


def test_plan_keeps_the_ids_it_checked():
    # the plan is checked once, when it is built: neither the caller's list nor
    # the plan's own ids can change what runs
    algos = ["cddo", "hs"]
    plan = ExperimentPlan(algorithms=algos, functions=["F1"], config=TINY)
    algos.append("hs")
    assert plan.algorithms == ("cddo", "hs")
    with pytest.raises(AttributeError):
        plan.algorithms.append("hs")


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

    def test_numpy_base_seed_writes_the_same_bytes(self, tmp_path):
        # a numpy base seed overflowed in cell_seed or reached json as np.int64
        config = dict(pop_size=5, max_iters=3, n_runs=2)
        for name, seed in (("int", 5), ("numpy", np.int64(5))):
            run_experiment(ExperimentPlan(algorithms=list(ALGORITHMS), functions=["F1", "F16"],
                                          config=RunConfig(base_seed=seed, **config),
                                          output_dir=tmp_path / name))
        names = sorted(p.name for p in (tmp_path / "int").iterdir())
        assert len(names) == 16
        assert sorted(p.name for p in (tmp_path / "numpy").iterdir()) == names
        for name in names:
            assert ((tmp_path / "numpy" / name).read_bytes()
                    == (tmp_path / "int" / name).read_bytes()), name

    def test_csv_paths_precede_json_paths(self, tiny_outputs):
        _, result = tiny_outputs
        suffixes = [Path(p).suffix for p in result["paths"]]
        assert suffixes == [".csv"] * 8 + [".json"] * 8


def _as_text(rows):
    """The rows as the artifacts show them: a float is its _fmt text, in the CSV and as a
    JSON string."""
    return [[_fmt(v) if isinstance(v, float) else v for v in row] for row in rows]


# a header out of sorted order (and with a "%"), str cells that JSON escapes, int
# cells and float cells: the kinds of column run_experiment writes
WRITER_HEADER = ["run", "note", "share%", "iter", "gbest"]
WRITER_ROWS = [[0, 'say "hi"', "1.000000e+00", 12, 1.0],
               [1, "back\\slash", "2.500000e-01", 3, -0.0],
               [10, "naïve ∑", "-3.500000e-07", 0, 2.5e-310]]


@pytest.mark.parametrize("rows", [WRITER_ROWS, []], ids=["rows", "empty"])
def test_writer_matches_json_dumps(tmp_path, rows):
    # as run_experiment passes its rows: an empty table has no columns
    paths = _write(tmp_path, "t", WRITER_HEADER, [*map(_cells, zip(*rows))])
    assert paths == [tmp_path / "t.csv", tmp_path / "t.json"]
    shown = _as_text(rows)
    csv_text = "\n".join([",".join(map(str, row)) for row in [WRITER_HEADER, *shown]]) + "\n"
    json_text = json.dumps([dict(zip(WRITER_HEADER, row)) for row in shown],
                           indent=2, sort_keys=True) + "\n"
    assert paths[0].read_text() == csv_text
    assert paths[1].read_text() == json_text
    if not rows:
        assert (csv_text, json_text) == ("run,note,share%,iter,gbest\n", "[]\n")


# one column, a key that JSON escapes (a quote and a non-ASCII character), a str
# column whose cells repeat, and a float column whose values repeat
@pytest.mark.parametrize("header, rows", [
    (["gbest"], [["1.000000e+00"], ["5.000000e-01"]]),
    (['say "hi"', "naïve ∑", "iter"], [[1, "a", 0], [2, "b", 1]]),
    (["run", "gbest"], [[0, "2.000000e+00"], [0, "2.000000e+00"], [1, "2.000000e+00"]]),
    (["run", "gbest"], [[0, 2.0], [0, 2.0], [1, 0.0], [1, -0.0], [2, 2.0]]),
], ids=["one-column", "escaped-key", "repeated-cells", "float-column"])
def test_writer_tables_match_json_dumps(tmp_path, header, rows):
    paths = _write(tmp_path, "t", header, [*map(_cells, zip(*rows))])
    shown = _as_text(rows)
    csv_text = "\n".join([",".join(map(str, row)) for row in [header, *shown]]) + "\n"
    json_text = json.dumps([dict(zip(header, row)) for row in shown],
                           indent=2, sort_keys=True) + "\n"
    assert [path.read_text() for path in paths] == [csv_text, json_text]


ULP = np.nextafter(1.0, 2.0)


@pytest.mark.parametrize("trace", [
    [2.5] * 5, [3.0], [0.0, -0.0], [np.inf, -np.inf], [5e-324, 5e-324, 1e-310],
    [1.0, ULP], [4.0, 4.0, -0.0, 0.0, 0.0, 1.0, ULP, ULP, 1.0],
], ids=["constant", "one-element", "signed-zeros", "infinities", "subnormal", "one-ulp",
        "stretches"])
def test_trace_formatter_formats_every_value(trace):
    # _cells of a float column: a trace is a float64 array, a summary or p-value column a
    # tuple of Python floats; a stretch is equal bits: 0.0 and -0.0 compare equal but print apart
    text = list(map(_fmt, trace))
    for column in (np.array(trace), tuple(map(float, trace))):
        assert _cells(column) == (text, list(map(encode_basestring_ascii, text)))


def test_grid_converts_each_column_once(tmp_path, monkeypatch):
    calls = []

    def recording(column):
        calls.append(column)
        return _cells(column)

    monkeypatch.setattr(harness, "_cells", recording)
    run_experiment(ExperimentPlan(algorithms=["cddo", "hs"], functions=["F1", "F16"],
                                  config=TINY, output_dir=tmp_path))
    # each summary and p-value column once, the run and iter columns once per grid, and
    # then each of the 4 cells' gbest
    runs, iters = range(TINY.n_runs), range(TINY.max_iters)
    tables = len(harness.SUMMARY_HEADER) + len(harness.PVALUES_HEADER)
    assert len(calls) == tables + 2 + 4
    assert calls[tables:tables + 2] == [[r for r in runs for _ in iters], [*iters] * len(runs)]
    assert all(len(c) == len(runs) * len(iters) and isinstance(c[0], float)
               for c in calls[tables + 2:])


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
                   "--iters", "15", "--runs", "3", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        # summary, pvalues and two convergence tables, each as CSV and JSON
        assert len(list(tmp_path.iterdir())) == 8
        rc = main(["compare", "--summary", str(tmp_path / f"summary.{fmt}")])
        assert rc == 0
        assert "wins vs hs" in capsys.readouterr().out

    def test_rank_reads_the_summary_that_run_writes(self, tmp_path, capsys):
        assert main(["run", "--algo", "all", "--func", "F1,F16", "--pop", "8", "--iters", "20",
                     "--runs", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        printed = []
        for fmt in ("csv", "json"):
            assert main(["rank", "--input", str(tmp_path / f"summary.{fmt}")]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert sorted(line.split("\t")[0] for line in printed[0].splitlines()) == sorted(ALGORITHMS)

    def test_rank_takes_a_long_or_a_wide_table(self, tmp_path):
        # the columns decide the shape: an 'algo' column makes one row per (algo, func)
        wide, long = tmp_path / "wide.csv", tmp_path / "long.json"
        wide.write_text("func,a,b\nF1,1,2\nF2,4,3\n")
        long.write_text(json.dumps([{"algo": a, "func": f, "avg": v, "std": 0} for f, a, v in
                                    [("F1", "a", 1), ("F1", "b", 2), ("F2", "a", 4), ("F2", "b", 3)]]))
        assert load_averages(wide) == load_averages(long) == {
            "F1": {"a": 1.0, "b": 2.0}, "F2": {"a": 4.0, "b": 3.0}}

    @pytest.mark.parametrize("name, text, missing", [
        ("summary.csv", "algo,func,avg\nhs,F1,1\ncddo,F1,2\nhs,F2,3\n", "F2: no 'cddo' average"),
        ("avgs.json", '[{"func": "F1", "a": 1, "b": 2}, {"func": "F2", "a": 3}]',
         "F2: no 'b' average"),
    ], ids=["long", "wide"])
    def test_rank_names_the_missing_cell(self, tmp_path, capsys, name, text, missing):
        path = tmp_path / name
        path.write_text(text)
        assert main(["rank", "--input", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {missing}\n"

    @pytest.mark.parametrize("args, message", [
        (["--runs", "1"], "at least 2 runs per cell"),
        (["--runs", "0"], "n_runs must be"),
        (["--pop", "0"], "pop_size must be"),
        (["--iters", "0"], "max_iters must be"),
        (["--algo", "simulated-annealing"], "unknown algorithm"),
        (["--algo", "cddo,cddo"], "duplicate algorithm cddo"),
    ], ids=[f"args{i}" for i in range(6)])
    def test_run_rejects_arguments_before_the_grid(self, tmp_path, capsys, args, message):
        # exit 2 like every other argument error, with nothing run or written
        out = tmp_path / "out"
        rc = main(["run", "--algo", "cddo,hs", "--func", "F1", "--iters", "5",
                   "--out", str(out), *args])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("payload", ['{"algo": "hs"}', "[1, 2]", "3"])
    def test_compare_rejects_json_without_rows(self, tmp_path, capsys, payload):
        # compare and rank read their tables with one reader, so one message fits both
        path = tmp_path / "summary.json"
        path.write_text(payload)
        for command, flag in (("compare", "--summary"), ("rank", "--input")):
            assert main([command, flag, str(path)]) == 1
            assert capsys.readouterr().err == f"error: {path}: not a list of rows\n"

    @pytest.mark.parametrize("name,payload", [("summary.csv", "algo,func\n"),
                                              ("summary.json", "{}"), ("summary.json", "[]")])
    def test_compare_rejects_summary_without_rows(self, tmp_path, capsys, name, payload):
        path = tmp_path / name
        path.write_text(payload)
        for command, flag in (("compare", "--summary"), ("rank", "--input")):
            assert main([command, flag, str(path)]) == 1
            assert capsys.readouterr().err == f"error: {path}: no rows\n"

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
        pytest.param("rank", "summary.csv", "algo,func,avg\nhs,F1,1\nhs,F1,2\n",
                     id="rank-repeated-cell"),
        pytest.param("rank", "summary.csv", "algo,func,std\nhs,F1,1\n", id="rank-no-avg-column"),
        pytest.param("rank", "avgs.csv", "func\nF1\nF2\n", id="no-algorithm-column"),
        pytest.param("rank", "avgs.json", '[{"func": "F1", "a": true, "b": 2}]', id="json-true-cell"),
        pytest.param("compare", "summary.json", '[{"algo": "hs", "func": "F1", "avg": false}]',
                     id="json-false-avg"),
        pytest.param("rank", "avgs.json", '[{"func": [1], "a": 1, "b": 2}]', id="json-list-id"),
        pytest.param("compare", "summary.json", '[{"algo": {}, "func": "F1", "avg": 1}]',
                     id="json-object-id"),
    ])
    def test_malformed_table_names_the_file(self, tmp_path, capsys, command, name, text):
        path = tmp_path / name
        path.write_text(text)
        flag = "--summary" if command == "compare" else "--input"
        assert main([command, flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_readme_commands_parse(self):
        # every cddohs command in README.md's sh blocks, its continued lines joined,
        # parses (argparse exits 2 on an unknown flag) without running anything
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        commands = []
        for line in "".join(blocks).replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            for start in range(len(words)):
                if words[start] == "cddohs":
                    commands.append(words[start + 1:])
                elif words[start:start + 3] == ["python", "-m", "cddohs.cli"]:
                    commands.append(words[start + 3:])
        assert {args[0] for args in commands} == {"run", "compare", "rank", "list"}
        for args in commands:
            build_parser().parse_args(args)

    @pytest.mark.parametrize("reference", ["table6", "bogus"])
    def test_rank_takes_one_source(self, tmp_path, capsys, reference):
        path = tmp_path / "avgs.csv"
        path.write_text("func,a,b\nF1,1,2\n")
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--reference", reference, "--input", str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_run_takes_a_negative_seed(self, tmp_path, capsys):
        # each cell replaces the base seed with a non-negative cell seed
        rc = main(["run", "--algo", "hs", "--func", "F16", "--pop", "5", "--iters", "2",
                   "--runs", "2", "--seed", "-3", "--out", str(tmp_path)])
        assert rc == 0
        rows = list(csv.DictReader((tmp_path / "summary.csv").read_text().splitlines()))
        assert [int(row["seed"]) for row in rows] == [cell_seed(-3, "hs", "F16")]

    def test_unwritable_output_dir(self, capsys):
        rc = main(["run", "--algo", "hs", "--func", "F16", "--pop", "5",
                   "--iters", "2", "--runs", "2", "--out", "/proc/nope"])
        assert rc != 0
