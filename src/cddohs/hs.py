"""Harmony Search: one improvised vector per iteration, worst-replacement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Archive, Problem, RunConfig, RunResult, evaluate, make_rng, uniform


@dataclass
class HsParams:
    hmcr: float = 0.995  # per-component probability of copying from memory
    par: float = 0.1     # pitch adjustment probability, given a memory copy
    bw: float = 0.04     # absolute perturbation bandwidth

    def __post_init__(self):
        if not (0.0 <= self.hmcr <= 1.0 and 0.0 <= self.par <= 1.0):
            raise ValueError("hmcr and par must lie in [0, 1]")


class HarmonyMemory(Archive):
    """The HS archive (pop_size rows). A class of its own so that wrapping
    ``HarmonyMemory.replace_worst`` counts HS acceptances only, not the
    pattern-memory replacements of CDDO and the hybrid."""


def improvise(positions: np.ndarray, params: HsParams, problem: Problem, rng) -> np.ndarray:
    """Compose one new vector per-dimension from the memory rows ``positions``.

    Each component: with prob hmcr copy it from a random row (then with prob
    par nudge it by uniform(-1,1)*bw), otherwise redraw uniformly in bounds.
    """
    m = len(positions)
    new = np.empty(problem.dim)
    for k in range(problem.dim):
        if rng.random() <= params.hmcr:
            v = float(positions[rng.integers(m), k])
            if rng.random() <= params.par:
                v += uniform(rng, -1.0, 1.0) * params.bw
        else:
            v = uniform(rng, problem.lower, problem.upper)
        new[k] = v
    return np.clip(new, problem.lower, problem.upper)


def hs_run(problem: Problem, config: RunConfig, params: Optional[HsParams] = None,
           run_index: int = 0) -> RunResult:
    """One full HS run; evals == pop_size + max_iters."""
    from .core import init_population

    params = params or HsParams()
    seed = config.seed_for_run(run_index)
    rng = make_rng(seed)
    hm = HarmonyMemory(*init_population(problem, config.pop_size, rng))
    trace = np.empty(config.max_iters)
    for t in range(config.max_iters):
        pos = improvise(hm.x, params, problem, rng)
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
