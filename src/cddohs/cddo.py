"""Child Drawing Development Optimization.

Each agent ("drawing") per iteration either takes the skill branch
(pulled toward its personal and the global best, offset by its golden
ratio), takes the creativity branch (rebuilt from a random pattern-memory
elite) when its golden ratio is near phi, or stays put. An elite archive
(the pattern memory) is refreshed with the global best every iteration.

One iteration is array work over the population: a single (P, 8) block of
uniforms gives every agent its hand pressures, golden ratio, branch, rates
and pattern-memory pick, and one objective call evaluates the moving
agents' candidates. The result is that of the original agent-by-agent method
(Abdulhameed & Rashid 2022), which evaluates the agents one at a time, in
agent order, with the global best updated after each: an agent that improves
the global best ends the batch, and the candidates after it are rebuilt with
the new global best and evaluated in one more call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import core
from .core import Archive, Problem, RunConfig, RunResult, clamp, indices, make_rng, scale

# The paper's protocol: fixed, not settable.
PHI = 1.618
GR_TOLERANCE = 0.1  # creativity fires when |gr - PHI| <= GR_TOLERANCE
PM_FRACTION = 0.2   # pattern memory holds ceil(PM_FRACTION * pop_size) elites

SR_LR_HIGH = (0.6, 1.0)
SR_LR_LOW = (0.0, 0.5)


# Columns of the (P, 8) block of uniforms that one iteration draws, one row
# per agent: RHP, the HP component, two (M, N) golden-ratio index pairs, SR,
# and LR (skill branch) or the pattern-memory pick (creativity branch).
U_RHP, U_HP, U_GR, U_SR, U_LR_PM = 0, 1, slice(2, 6), 6, 7
N_UNIFORMS = 8


@dataclass
class CddoState:
    x: np.ndarray        # (P, d) agent positions
    lbest_x: np.ndarray  # (P, d) personal bests
    lbest_f: np.ndarray  # (P,)
    gbest_x: np.ndarray  # (d,), replaced and never changed in place
    gbest_f: float
    pm: Archive
    evals: int = 0
    # the RunResult counters of the same names
    skill: int = 0
    creativity: int = 0
    rest: int = 0
    pm_replacements: int = 0
    refresh_accepts: int = 0


def hand_pressures(x: np.ndarray, u: np.ndarray, problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """(HP, RHP) per agent from its row of the iteration's block u: HP a
    uniformly chosen component of its position (row of x), RHP a uniform draw
    within the problem's bounds."""
    hp = x[np.arange(len(x)), indices(u[:, U_HP], x.shape[1])]
    return hp, scale(u[:, U_RHP], problem.lower, problem.upper)


def golden_ratio(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(x[M] + x[N]) / x[M] per row of x (P, d), for distinct indices M != N.

    Each row of u (P, 4) holds two (M, N) draws. A zero denominator in the
    first is retried with the second; if that is zero too, the ratio is phi,
    so the agent falls into the creativity branch rather than dividing by zero.
    A ratio that overflows is phi as well: an infinite gr would make the skill
    move inf * 0 or inf - inf, a NaN position.
    """
    p, d = x.shape
    if d < 2:
        raise ValueError("golden ratio needs dim >= 2")
    r = np.arange(p)
    m = indices(u[:, 0::2], d)      # (P, 2): M of each draw
    n = indices(u[:, 1::2], d - 1)  # N != M, drawn from the other d - 1
    n += n >= m
    k = (x[r, m[:, 0]] == 0.0).astype(np.intp)  # the second draw where the first has x[M] == 0
    den = x[r, m[r, k]]
    gr = np.divide(den + x[r, n[r, k]], den, out=np.full(p, PHI), where=den != 0.0)
    gr[np.isinf(gr)] = PHI
    return gr


def skill_update(x: np.ndarray, lbest: np.ndarray, gbest: np.ndarray,
                 gr, sr, lr, problem: Problem) -> np.ndarray:
    """Skill-branch move: position scaled by gr plus pulls toward both bests.

    gr scales the current position (a dimensionless ratio applied to the
    drawing) rather than being added to it; the additive reading cannot
    contract and demonstrably stalls far above the published optima. Rows of
    x and lbest move together, with gr, sr and lr as (n, 1) columns.
    """
    new = gr * x + sr * (lbest - x) + lr * (gbest - x)
    return clamp(new, problem)


def creativity_update(pm_entry: np.ndarray, gbest: np.ndarray, sr,
                      problem: Problem) -> np.ndarray:
    """Creativity-branch move: a pattern-memory elite shifted by sr * gbest."""
    return clamp(pm_entry + sr * gbest, problem)


def init_state(problem: Problem, config: RunConfig, pm_size: int, rng) -> CddoState:
    x, f = core.init_population(problem, config.pop_size, rng)
    g = int(np.argmin(f))
    pm = Archive.best_of(x, f, pm_size)
    return CddoState(x, x.copy(), f.copy(), x[g].copy(), float(f[g]), pm, evals=config.pop_size)


def cddo_step(state: CddoState, problem: Problem, rng) -> CddoState:
    """One iteration over all agents; mutates and returns state.

    Branches and moves are computed for all agents at once from one block of
    uniforms, and the movers' candidates are evaluated in one call. In the
    agent-by-agent loop each agent sees the gbest of the agents before it, so
    the rows are kept up to the first one that is not >= gbest (it improves
    gbest, or is NaN): every kept row was built with the gbest its agent
    would have seen. At that row gbest is updated, and the candidates of the
    agents after it are rebuilt and evaluated in one more call. A stochastic
    objective gets one row per call, because a rebuilt row must not draw its
    noise twice. ``evals`` counts one evaluation per mover, as the loop does.
    """
    x, lbest_x = state.x, state.lbest_x
    u = rng.random((len(x), N_UNIFORMS))
    hp, rhp = hand_pressures(x, u, problem)
    gr = golden_ratio(x, u[:, U_GR])
    skill = hp < rhp
    creative = ~skill & (np.abs(gr - PHI) <= GR_TOLERANCE)
    s, c = np.flatnonzero(skill), np.flatnonzero(creative)
    sr_s = scale(u[s, U_SR, None], *SR_LR_HIGH)
    lr_s = scale(u[s, U_LR_PM, None], *SR_LR_HIGH)
    sr_c = scale(u[c, U_SR, None], *SR_LR_LOW)
    entries = state.pm.x[indices(u[c, U_LR_PM], len(state.pm.f))]
    new = np.empty_like(x)  # the candidates; rows that rest stay unset

    def build(first: int):
        """The candidates of the movers from agent ``first`` on, for the current gbest."""
        a, b = np.searchsorted(s, first), np.searchsorted(c, first)
        new[s[a:]] = skill_update(x[s[a:]], lbest_x[s[a:]], state.gbest_x,
                                  gr[s[a:], None], sr_s[a:], lr_s[a:], problem)
        new[c[b:]] = creativity_update(entries[b:], state.gbest_x, sr_c[b:], problem)

    build(0)
    movers = np.flatnonzero(skill | creative)
    fit = np.empty(len(movers))
    j = 0  # movers before j have their agent-by-agent fitness
    while j < len(movers):
        rows = movers[j:j + 1] if problem.stochastic else movers[j:]
        f = core.evaluate_rows(problem, new[rows], rng)
        stop = np.flatnonzero(~(f >= state.gbest_f))
        n = stop[0] + 1 if len(stop) else len(f)  # rows kept
        fit[j:j + n] = f[:n]
        j += n
        if len(stop):
            i, f_i = rows[n - 1], float(f[n - 1])
            if math.isnan(f_i):
                raise core.nan_error(problem)
            state.gbest_x, state.gbest_f = new[i].copy(), f_i
            build(i + 1)

    moved = new[movers]
    x[movers] = moved
    better = fit < state.lbest_f[movers]
    lbest_x[movers[better]] = moved[better]
    state.lbest_f[movers[better]] = fit[better]
    state.evals += len(movers)
    state.skill += len(s)
    state.creativity += len(c)
    state.rest += len(x) - len(movers)
    state.pm_replacements += state.pm.replace_worst(state.gbest_x, state.gbest_f)
    return state


def _run_engine(problem: Problem, config: RunConfig, pm_fraction: float,
                run_index: int, refresh: Optional[Callable] = None) -> RunResult:
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
        skill=state.skill,
        creativity=state.creativity,
        rest=state.rest,
        pm_replacements=state.pm_replacements,
        refresh_accepts=state.refresh_accepts,
    )


def cddo_run(problem: Problem, config: RunConfig, run_index: int = 0) -> RunResult:
    """One full CDDO run; run r uses seed base_seed + r."""
    return _run_engine(problem, config, PM_FRACTION, run_index)
