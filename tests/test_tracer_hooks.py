"""The benchmark's tracer finds every hook it wraps by name.

``bench/tracing.py`` replaces module attributes of cddohs with timed wrappers.
A rename or a call that binds a function at import time silently leaves a
span empty, so this runs a small grid under the tracer and checks that every
span records calls, that ``hs.improvise`` records every improvisation, and
that the accept counts it reads off the wrapped calls equal the run counters.
"""

import sys
from pathlib import Path

from cddohs import harness
from cddohs.core import RunConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import TARGETS, Tracer  # noqa: E402

SPANS = {name for _, _, name in TARGETS} | {"hs.replace_worst", "hybrid.refresh",
                                            "benchmarks.objective"}


def test_every_hook_records_and_counts_accepts(tmp_path):
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
    # one improvisation per HS iteration and per hybrid refresh: 2 runs x 3
    # functions x 10 iterations for each of the two, none for CDDO
    assert totals["hs.improvise"]["count"] == 2 * 3 * 10 * 2
    assert totals["hs.replace_worst"]["accepted"] == sum(r.hm_accepts for r in results)
    assert totals["hybrid.refresh"]["accepted"] == sum(r.refresh_accepts for r in results)
