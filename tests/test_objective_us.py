"""``scripts/objective_us.py`` on two copies of ``src/``, with tiny repeats: it
prints one timing line per function and row count, and exits 1 when the two
sides' values differ."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "objective_us.py"


def _checkout(path: Path) -> Path:
    shutil.copytree(ROOT / "src" / "cddohs", path / "src" / "cddohs",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return path


def _run(parent: Path, change: Path):
    cmd = [sys.executable, str(SCRIPT), "--parent", str(parent), "--change", str(change),
           "--func", "F12,F13", "--rows", "1,4", "--rounds", "1", "--number", "2"]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_times_both_sides_of_equal_objectives(tmp_path):
    proc = _run(_checkout(tmp_path / "a"), _checkout(tmp_path / "b"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" parent ")[0] for line in lines] == \
        ["F12 rows=1", "F12 rows=4", "F13 rows=1", "F13 rows=4"]
    assert all(re.fullmatch(r"F1[23] rows=[14] parent \d+\.\d\d us change \d+\.\d\d us "
                            r"\([+-]\d+\.\d%, won [01] of 1\)", line) for line in lines), lines


def test_exits_1_when_values_differ(tmp_path):
    change = _checkout(tmp_path / "b")
    benchmarks = change / "src" / "cddohs" / "benchmarks.py"
    benchmarks.write_text(benchmarks.read_text() + (
        "\nimport dataclasses\n"
        "SPECS['F13'] = dataclasses.replace(\n"
        "    SPECS['F13'], objective=lambda x, f=SPECS['F13'].objective: f(x) * (1.0 + 2.0 ** -52))\n"))
    proc = _run(_checkout(tmp_path / "a"), change)
    assert proc.returncode == 1
    assert "F13" in proc.stderr and "differ" in proc.stderr
    assert [line.split(" parent ")[0] for line in proc.stdout.splitlines()] == \
        ["F12 rows=1", "F12 rows=4"]
