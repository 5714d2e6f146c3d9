"""Harmony Search: one improvised vector per iteration, worst-replacement."""

from __future__ import annotations

import numpy as np

from . import core
from .core import Archive, Problem, RunConfig, RunResult, evaluate, make_rng, uniform

# The paper's protocol: fixed, not settable.
HMCR = 0.995  # per-component probability of copying from memory
PAR = 0.1     # pitch adjustment probability, given a memory copy
BW = 0.04     # absolute perturbation bandwidth


class HarmonyMemory(Archive):
    """The HS archive (pop_size rows). A class of its own so that wrapping
    ``HarmonyMemory.replace_worst`` counts HS acceptances only, not the
    pattern-memory replacements of CDDO and the hybrid."""


def improvise(positions: np.ndarray, problem: Problem, rng) -> np.ndarray:
    """Compose one new vector per-dimension from the memory rows ``positions``.

    Each component: with prob HMCR copy it from a random row (then with prob
    PAR nudge it by uniform(-1,1)*BW), otherwise redraw uniformly in bounds.
    """
    m = len(positions)
    new = np.empty(problem.dim)
    for k in range(problem.dim):
        if rng.random() <= HMCR:
            v = float(positions[rng.integers(m), k])
            if rng.random() <= PAR:
                v += uniform(rng, -1.0, 1.0) * BW
        else:
            v = uniform(rng, problem.lower, problem.upper)
        new[k] = v
    return np.clip(new, problem.lower, problem.upper)


def hs_run(problem: Problem, config: RunConfig, run_index: int = 0) -> RunResult:
    """One full HS run; run r uses seed base_seed + r; evals == pop_size + max_iters."""
    seed = config.seed_for_run(run_index)
    rng = make_rng(seed)
    hm = HarmonyMemory(*core.init_population(problem, config.pop_size, rng))
    trace = np.empty(config.max_iters)
    for t in range(config.max_iters):
        pos = improvise(hm.x, problem, rng)
        hm.replace_worst(pos, evaluate(problem, pos, rng))
        trace[t] = hm.f.min()
    best = int(np.argmin(hm.f))
    return RunResult(
        best_fitness=float(hm.f[best]),
        best_position=hm.x[best].copy(),
        trace=trace,
        seed=seed,
        evals=config.pop_size + config.max_iters,
    )
