"""The benchmark's tracer finds every hook it wraps by name.

``bench/tracing.py`` replaces module attributes of cddohs with timed wrappers.
A rename or a call that binds a function at import time silently leaves a
span empty, so this runs a small grid under the tracer and checks that every
span records calls, that ``hs.improvise`` records every call that HS and the
hybrid's refresh make, and that the accept counts it reads off the wrapped
calls equal the run counters.
"""

import sys
from pathlib import Path

from cddohs import harness, hs
from cddohs.core import RunConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import TARGETS, Tracer  # noqa: E402

SPANS = {name for _, _, name in TARGETS} | {"hs.replace_worst", "hybrid.refresh",
                                            "benchmarks.objective"}


def _walks_cover(starts, iters, width):
    """Walks that start at ``starts`` (one run's, in order), each improvising
    ``width`` iterations, keep every iteration 0 .. iters - 1 once: each walk
    keeps up to where the next starts, and the last up to the end."""
    return (starts[0] == 0 and all(a < b <= a + width for a, b in zip(starts, starts[1:]))
            and starts[-1] < iters <= starts[-1] + width)


def test_every_hook_records_and_counts_accepts(tmp_path, monkeypatch):
    # every call's t, recorded beneath the tracer's wrapper: the hybrid's
    # refresh (_run_engine's hs.improvise, offered by hs.offer) improvises one
    # vector, an index t; HS a slice as wide as hs.width of its memory and dimension
    improvised = []
    improvise = hs.improvise

    def recorded(positions, draws, t, problem):
        improvised.append((t, hs.width(len(positions), problem.dim)))
        return improvise(positions, draws, t, problem)

    monkeypatch.setattr(hs, "improvise", recorded)
    results = []
    tracer = Tracer()
    tracer.install()
    traced_cell = harness.run_cell

    def recorded_cell(*args):
        cell_results = traced_cell(*args)
        results.extend(cell_results)
        return cell_results

    tracer.patch(harness, "run_cell", recorded_cell)
    try:
        harness.run_experiment(harness.ExperimentPlan(
            algorithms=sorted(harness.ALGORITHMS), functions=["F1", "F7", "F16"],
            config=RunConfig(pop_size=8, max_iters=10, n_runs=2, base_seed=3),
            output_dir=tmp_path))
    finally:
        tracer.restore()
    totals = tracer.totals()

    assert {name for name in SPANS if totals.get(name, {}).get("count", 0) == 0} == set()
    assert len(results) == 3 * 3 * 2
    # 2 runs x 3 functions x 10 iterations: one vector per hybrid refresh,
    # and HS slices of hs.width whose walks keep each HS iteration once; none for CDDO
    refresh = [t for t, _ in improvised if isinstance(t, int)]
    ahead = [(t.start, w) for t, w in improvised if isinstance(t, slice) and t.stop - t.start == w]
    assert len(refresh) + len(ahead) == len(improvised)
    assert len(refresh) == totals["hybrid.refresh"]["count"] == 2 * 3 * 10
    runs = []  # each HS run's walks and width; a run's first walk starts at 0
    for start, w in ahead:
        if start == 0:
            runs.append(([], w))
        runs[-1][0].append(start)
    assert len(runs) == 2 * 3 and all(_walks_cover(run, 10, w) for run, w in runs)
    assert {w for _, w in runs} == {4, 6}  # F1 and F7 (d = 10), F16 (d = 2), memory of 8
    assert totals["hs.improvise"]["count"] == len(refresh) + len(ahead)
    # HS offers the memory only the rows it keeps: one per iteration
    assert totals["hs.replace_worst"]["count"] == 2 * 3 * 10
    assert totals["hs.replace_worst"]["accepted"] == sum(r.hm_accepts for r in results)
    assert totals["hybrid.refresh"]["accepted"] == sum(r.refresh_accepts for r in results)
