"""Child Drawing Development Optimization.

Each agent ("drawing") per iteration either takes the skill branch
(pulled toward its personal and the global best, offset by its golden
ratio), takes the creativity branch (rebuilt from a random pattern-memory
elite) when its golden ratio is near phi, or stays put. An elite archive
(the pattern memory) is refreshed with the global best every iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import core
from .core import Archive, Problem, RunConfig, RunResult, clamp, evaluate, make_rng, uniform

# The paper's protocol: fixed, not settable.
PHI = 1.618
GR_TOLERANCE = 0.1  # creativity fires when |gr - PHI| <= GR_TOLERANCE
PM_FRACTION = 0.2   # pattern memory holds ceil(PM_FRACTION * pop_size) elites

SR_LR_HIGH = (0.6, 1.0)
SR_LR_LOW = (0.0, 0.5)


@dataclass
class CddoState:
    # A move always builds a new array and no position is changed in place, so
    # agents, their bests and gbest may share one array without copies.
    x: list[np.ndarray]
    lbest_x: list[np.ndarray]
    lbest_f: list[float]
    gbest_x: np.ndarray
    gbest_f: float
    pm: Archive
    evals: int = 0


def random_hand_pressure(problem: Problem, rng) -> float:
    """RHP: a uniform draw within the problem's bounds."""
    return uniform(rng, problem.lower, problem.upper)


def select_hand_pressure(x: np.ndarray, rng) -> float:
    """HP: a uniformly chosen component of the current position."""
    return float(x[rng.integers(x.size)])


def golden_ratio(pos: np.ndarray, rng) -> float:
    """(pos[M] + pos[N]) / pos[M] for random distinct indices M != N.

    A zero denominator is resampled once; if still zero, returns phi so the
    agent falls into the creativity branch rather than dividing by zero.
    """
    if pos.size < 2:
        raise ValueError("golden ratio needs dim >= 2")
    for _ in range(2):
        m = int(rng.integers(pos.size))
        n = int(rng.integers(pos.size - 1))
        if n >= m:
            n += 1
        if pos[m] != 0.0:
            return float((pos[m] + pos[n]) / pos[m])
    return PHI


def skill_update(x: np.ndarray, lbest: np.ndarray, gbest: np.ndarray,
                 gr: float, sr: float, lr: float, problem: Problem) -> np.ndarray:
    """Skill-branch move: position scaled by gr plus pulls toward both bests.

    gr scales the current position (a dimensionless ratio applied to the
    drawing) rather than being added to it; the additive reading cannot
    contract and demonstrably stalls far above the published optima.
    """
    new = gr * x + sr * (lbest - x) + lr * (gbest - x)
    return clamp(new, problem)


def creativity_update(pm_entry: np.ndarray, gbest: np.ndarray, sr: float,
                      problem: Problem) -> np.ndarray:
    """Creativity-branch move: a pattern-memory elite shifted by sr * gbest."""
    return clamp(pm_entry + sr * gbest, problem)


def init_state(problem: Problem, config: RunConfig, pm_size: int, rng) -> CddoState:
    x, f = core.init_population(problem, config.pop_size, rng)
    g = int(np.argmin(f))
    pm = Archive.best_of(x, f, pm_size)
    return CddoState(list(x), list(x), f.tolist(), x[g], float(f[g]), pm, evals=config.pop_size)


def cddo_step(state: CddoState, problem: Problem, rng) -> CddoState:
    """One iteration over all agents; mutates and returns state."""
    hi_lo, hi_hi = SR_LR_HIGH
    lo_lo, lo_hi = SR_LR_LOW
    for i, x in enumerate(state.x):
        rhp = random_hand_pressure(problem, rng)
        hp = select_hand_pressure(x, rng)
        gr = golden_ratio(x, rng)
        if hp < rhp:
            sr = uniform(rng, hi_lo, hi_hi)
            lr = uniform(rng, hi_lo, hi_hi)
            new_pos = skill_update(x, state.lbest_x[i], state.gbest_x, gr, sr, lr, problem)
        elif abs(gr - PHI) <= GR_TOLERANCE:
            sr = uniform(rng, lo_lo, lo_hi)
            entry = state.pm.x[rng.integers(len(state.pm.f))]
            new_pos = creativity_update(entry, state.gbest_x, sr, problem)
        else:
            continue  # neither condition holds: the drawing rests this round
        fit = evaluate(problem, new_pos, rng)
        state.evals += 1
        state.x[i] = new_pos
        if fit < state.lbest_f[i]:
            state.lbest_x[i], state.lbest_f[i] = new_pos, fit
        if fit < state.gbest_f:
            state.gbest_x, state.gbest_f = new_pos, fit
    state.pm.replace_worst(state.gbest_x, state.gbest_f)
    return state


RefreshFn = Callable[[CddoState, Problem, np.random.Generator], None]


def _run_engine(problem: Problem, config: RunConfig, pm_fraction: float,
                run_index: int, refresh: Optional[RefreshFn] = None) -> RunResult:
    """Shared driver for CDDO and the hybrid (the hybrid passes its larger
    pattern-memory fraction and a refresh hook); run r uses seed base_seed + r."""
    if problem.dim < 2:
        raise ValueError("CDDO needs dim >= 2 (golden ratio uses two distinct components)")
    seed = config.seed_for_run(run_index)
    rng = make_rng(seed)
    state = init_state(problem, config, math.ceil(pm_fraction * config.pop_size), rng)
    trace = np.empty(config.max_iters)
    for t in range(config.max_iters):
        if refresh is not None:
            refresh(state, problem, rng)
        cddo_step(state, problem, rng)
        trace[t] = state.gbest_f
    return RunResult(
        best_fitness=state.gbest_f,
        best_position=state.gbest_x.copy(),
        trace=trace,
        seed=seed,
        evals=state.evals,
    )


def cddo_run(problem: Problem, config: RunConfig, run_index: int = 0) -> RunResult:
    """One full CDDO run; run r uses seed base_seed + r."""
    return _run_engine(problem, config, PM_FRACTION, run_index)
