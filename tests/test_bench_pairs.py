"""The verdict ``scripts/bench_pairs.py`` prints per end-to-end metric, on
hand-made runs: ``worse`` past the bound, ``unresolved`` when the parent's own
spread is wider than the bound, ``ok`` otherwise."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

TIGHT = [1.0] * 5
WIDE = [0.6, 0.8, 1.0, 1.2, 1.4]  # quartiles 0.8 and 1.2: a spread of 40% of the median


@pytest.mark.parametrize("parent, change, lower, expected", [
    (TIGHT, [1.2] * 5, True, "worse"),       # wall_s 20% slower
    (TIGHT, [1.1] * 5, True, "ok"),          # within the bound
    (TIGHT, [0.5] * 5, True, "ok"),
    (WIDE, [1.0] * 5, True, "unresolved"),
    (WIDE, [1.3] * 5, True, "worse"),
    (WIDE, [0.5] * 5, True, "ok"),           # every change run beats every parent run
    (WIDE, [0.7] * 5, True, "unresolved"),   # beats the median, not every parent run
    # evals_per_s: higher is better
    (TIGHT, [0.8] * 5, False, "worse"),
    (TIGHT, [1.2] * 5, False, "ok"),
    (TIGHT, [0.9] * 5, False, "ok"),
    (WIDE, [1.0] * 5, False, "unresolved"),
    (WIDE, [1.5] * 5, False, "ok"),
    (WIDE, [0.8] * 5, False, "worse"),
])
def test_verdict(parent, change, lower, expected):
    assert bench_pairs.verdict(parent, change, 0.15, lower) == expected
