"""Harmony Search: one improvised vector per iteration, worst-replacement."""

from __future__ import annotations

import numpy as np

from . import core
from .core import Archive, Problem, RunConfig, RunResult, evaluate, indices, make_rng, scale

# The paper's protocol: fixed, not settable.
HMCR = 0.995  # per-component probability of copying from memory
PAR = 0.1     # pitch adjustment probability, given a memory copy
BW = 0.04     # absolute perturbation bandwidth


class HarmonyMemory(Archive):
    """The HS archive (pop_size rows). A class of its own so that wrapping
    ``HarmonyMemory.replace_worst`` counts HS acceptances only, not the
    pattern-memory replacements of CDDO and the hybrid."""


def improvise(positions: np.ndarray, problem: Problem, rng) -> np.ndarray:
    """Compose one new vector from the memory rows ``positions`` (m, d), from
    one (4, d) block of uniforms.

    Each component: with prob HMCR copy it from a random row (then with prob
    PAR nudge it by uniform(-1,1)*BW), otherwise redraw uniformly in bounds.
    The block's rows are the HMCR test, the memory row, the PAR test, and the
    nudge or the redraw (a component takes at most one of the two).
    """
    d = problem.dim
    u = rng.random((4, d))
    memory = positions[indices(u[1], len(positions)), np.arange(d)]
    memory = np.where(u[2] <= PAR, memory + scale(u[3], -1.0, 1.0) * BW, memory)
    new = np.where(u[0] <= HMCR, memory, scale(u[3], problem.lower, problem.upper))
    return np.clip(new, problem.lower, problem.upper)


def hs_run(problem: Problem, config: RunConfig, run_index: int = 0) -> RunResult:
    """One full HS run; run r uses seed base_seed + r; evals == pop_size + max_iters."""
    seed = config.seed_for_run(run_index)
    rng = make_rng(seed)
    hm = HarmonyMemory(*core.init_population(problem, config.pop_size, rng))
    trace = np.empty(config.max_iters)
    accepts = 0
    for t in range(config.max_iters):
        pos = improvise(hm.x, problem, rng)
        accepts += hm.replace_worst(pos, evaluate(problem, pos, rng))
        trace[t] = hm.f.min()
    best = int(np.argmin(hm.f))
    return RunResult(
        best_fitness=float(hm.f[best]),
        best_position=hm.x[best].copy(),
        trace=trace,
        seed=seed,
        evals=config.pop_size + config.max_iters,
        hm_accepts=accepts,
    )
