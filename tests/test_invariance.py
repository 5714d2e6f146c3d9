"""Every optimiser reads fitness only through comparisons.

Scaling an objective by k = 2 or 1/8, a product that is exact in binary floating
point short of overflow and subnormals, then changes no choice a run makes: the
scaled run keeps the same best position, evals and counters, and its trace and
best fitness are k times the unscaled run's, bit for bit. A rule that compares
fitness against a fixed margin, or adds a fixed amount to it, breaks this. F7 is
left out: its noise is added after the objective, so it is not scaled with it.
"""

import dataclasses

import numpy as np
import pytest

from cddohs.benchmarks import FUNCTION_IDS, make_function
from cddohs.core import RunConfig
from cddohs.harness import ALGORITHMS

CONFIG = RunConfig(pop_size=10, max_iters=40, base_seed=7)
SCALES = (2.0, 0.125)
COUNTS = ("seed", "evals", "skill", "creativity", "rest", "pm_replacements", "refresh_accepts",
          "hm_accepts")
DETERMINISTIC = [f for f in FUNCTION_IDS if not make_function(f).stochastic]


def _bits(value):
    return np.float64(value).tobytes()


def _scaled(spec, k):
    objective = spec.objective
    return dataclasses.replace(spec, objective=lambda x: k * objective(x))


@pytest.mark.parametrize("algo", list(ALGORITHMS))
@pytest.mark.parametrize("fid", DETERMINISTIC)
def test_scaling_the_objective_scales_the_run(fid, algo):
    spec, run = make_function(fid), ALGORITHMS[algo]
    for r in range(2):
        base = run(spec, CONFIG, run_index=r)
        for k in SCALES:
            scaled = run(_scaled(spec, k), CONFIG, run_index=r)
            where = f"{fid} {algo} run {r}, k = {k}"
            assert scaled.best_position.tobytes() == base.best_position.tobytes(), where
            assert [getattr(scaled, c) for c in COUNTS] == [getattr(base, c) for c in COUNTS], where
            assert scaled.trace.tobytes() == (k * base.trace).tobytes(), where
            assert _bits(scaled.best_fitness) == _bits(k * base.best_fitness), where
