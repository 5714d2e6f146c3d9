"""Child Drawing Development Optimization.

Each agent ("drawing") per iteration either takes the skill branch
(pulled toward its personal and the global best, offset by its golden
ratio), takes the creativity branch (rebuilt from a random pattern-memory
elite) when its golden ratio is near phi, or stays put. An elite archive
(the pattern memory) is refreshed with the global best every iteration.

A run draws a (P, 8) block of uniforms per iteration (after the hybrid refresh's),
BLOCK iterations in one call, and takes every agent's choices from them once per
block. One iteration reads HP and the golden ratios' components in one gather,
and its movers' coefficients (SR, LR and the creativity branch's SR) in another;
each mover's candidate is clamp(A + B (gbest - X)), (A, B, X) = (gr x + sr (lbest
- x), lr, x) in the skill branch and (entry, sr, 0) in the creativity branch, and
one objective call evaluates them. The result is that of the original
agent-by-agent method (Abdulhameed & Rashid 2022), which evaluates the agents one
at a time, in agent order, with the global best updated after each: an agent that
improves the global best ends the batch, and the candidates after it are rebuilt
with the new global best and evaluated in one more call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import core, hs
from .core import Archive, Problem, RunConfig, RunResult, clamp, indices, make_rng, scale

# The paper's protocol: fixed, not settable.
PHI = 1.618
GR_TOLERANCE = 0.1  # creativity fires when |gr - PHI| <= GR_TOLERANCE
PM_FRACTION = 0.2   # pattern memory holds ceil(PM_FRACTION * pop_size) elites

SR_LR_HIGH = (0.6, 1.0)
SR_LR_LOW = (0.0, 0.5)

# Columns of the (P, 8) block of uniforms of one iteration, one row per agent:
# RHP, the HP component, two (M, N) golden-ratio index pairs, SR, and LR
# (skill branch) or the pattern-memory pick (creativity branch).
U_RHP, U_HP, U_GR, U_SR, U_LR_PM = 0, 1, slice(2, 6), 6, 7
N_UNIFORMS = 8
BLOCK = 100  # iterations drawn at once, so a long run's draws stay small


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


class Draws(NamedTuple):
    """The choices of n iterations, each (n, P, ...): row t is iteration t.
    Indices into the positions are flat, into x.ravel() of x (P, d)."""

    gather: np.ndarray  # (n, P, 5): HP, then M, N, M', N' of two golden-ratio draws
    coef: np.ndarray    # (n, P, 4): RHP, uniform in the box, the skill branch's SR and
                        # LR, and the creativity branch's SR
    pick: np.ndarray    # the pattern-memory row of the creativity branch


def choices(u: np.ndarray, pm_size: int, problem: Problem) -> Draws:
    """The choices of n iterations from their uniforms u (n, P, 8), for a
    pattern memory of pm_size rows. Each golden-ratio draw takes M uniformly
    of the d components and N != M uniformly of the other d - 1."""
    d = problem.dim
    gather = indices(u[..., U_HP:U_GR.stop], np.array([d, d, d - 1, d, d - 1]))
    gather[..., 2::2] += gather[..., 2::2] >= gather[..., 1::2]  # each N past its M
    gather += np.arange(0, u.shape[1] * d, d)[:, None]  # each agent's row start in x.ravel()
    lo, hi = zip((problem.lower, problem.upper), SR_LR_HIGH, SR_LR_HIGH, SR_LR_LOW)
    coef = scale(u[..., [U_RHP, U_SR, U_LR_PM, U_SR]], np.array(lo), np.array(hi))
    return Draws(gather=gather, coef=coef, pick=indices(u[..., U_LR_PM], pm_size))


def golden_ratio(xm: np.ndarray, xn: np.ndarray) -> np.ndarray:
    """(x[M] + x[N]) / x[M] per agent, from its two draws' x[M] and x[N] (P, 2).

    A zero denominator in the first draw is retried with the second; if that
    is zero too, the ratio is phi, so the agent falls into the creativity
    branch rather than dividing by zero. A ratio that overflows is phi as
    well: an infinite gr would make the skill move inf * 0 or inf - inf, a
    NaN position.
    """
    first = xm[:, 0]
    if np.count_nonzero(first) == len(first):  # the second draw is not needed
        gr = (first + xn[:, 0]) / first
    else:
        nonzero = xm != 0.0
        # both draws' ratios in one divide, then the first's wherever it has a denominator
        ratios = np.empty(xm.shape)
        ratios.fill(PHI)
        np.divide(xm + xn, xm, out=ratios, where=nonzero)
        gr = ratios[:, 1]
        np.copyto(gr, ratios[:, 0], where=nonzero[:, 0])
    gr[np.isinf(gr)] = PHI
    return gr


def skill_update(x: np.ndarray, lbest: np.ndarray, gr, sr, lr):
    """Skill-branch move as (A, B, X): gr * x + sr * (lbest - x) + lr * (gbest - x).

    gr scales the current position (a dimensionless ratio applied to the
    drawing) rather than being added to it; the additive reading cannot
    contract and demonstrably stalls far above the published optima. Rows of
    x and lbest move together, with gr, sr and lr as (n, 1) columns.
    """
    return gr * x + sr * (lbest - x), lr, x


def creativity_update(pm_entry: np.ndarray, sr):
    """Creativity-branch move as (A, B, X): a pattern-memory elite plus sr * gbest."""
    return pm_entry, sr, 0.0


def init_state(problem: Problem, config: RunConfig, pm_size: int, rng) -> CddoState:
    x, f = core.init_population(problem, config.pop_size, rng)
    pm = Archive.best_of(x, f, pm_size)  # row 0 is the first minimum, np.argmin's row
    return CddoState(x, x.copy(), f.copy(), pm.x[0].copy(), float(pm.f[0]), pm, evals=config.pop_size)


def cddo_step(state: CddoState, problem: Problem, draws: Draws, t: int, rng) -> None:
    """Iteration t of ``draws`` over all agents; mutates state.

    Branches and moves are computed for all agents at once (the creativity
    branch's only in a step where a mover takes it), and the movers'
    candidates are evaluated in one call. In the agent-by-agent loop each
    agent sees the gbest of the agents before it, so the rows are kept up to
    the first one that is not >= gbest (it improves gbest, or is NaN): every
    kept row was built with the gbest its agent would have seen. At that row
    gbest is updated, and the candidates of the agents after it are rebuilt
    and evaluated in one more call. A stochastic problem draws one noise
    value per row, in row order, so the rows past a cut give their draws back
    (:func:`core.give_back`) and the generator draws what the loop draws.
    ``evals`` counts one evaluation per mover.
    """
    x, lbest_x = state.x, state.lbest_x
    flat = x.ravel()
    g = flat.take(draws.gather[t])  # HP, M, N, M', N' per agent
    coef = draws.coef[t]  # RHP, SR, LR, creative SR per agent
    skill = g[:, 0] < coef[:, 0]  # HP < RHP
    gr = golden_ratio(g[:, 1::2], g[:, 2::2])
    movers = (skill | (np.abs(gr - PHI) <= GR_TOLERANCE)).nonzero()[0]
    n_skill = int(np.count_nonzero(skill))
    # the skill branch's (A, B, X) at every mover, from rows gathered once; take()
    # is the gather without fancy indexing's cost per call
    coef = coef.take(movers, 0)  # the movers' rows
    a, b, z = skill_update(x.take(movers, 0), lbest_x.take(movers, 0), gr.take(movers)[:, None],
                           coef[:, 1:2], coef[:, 2:3])
    if n_skill < len(movers):  # a creative mover: its rows take the creativity branch's
        creative_move = creativity_update(state.pm.x.take(draws.pick[t].take(movers), 0), coef[:, 3:])
        creative = ~skill.take(movers)[:, None]
        a, b, z = (np.where(creative, c, s) for s, c in zip((a, b, z), creative_move))
    if len(movers):
        # the movers' candidates and fitness, in agent order; a cut rebuilds the rows after it
        new = clamp(a + b * (state.gbest_x - z), problem)
        fit = core.evaluate_rows(problem, new, rng)
        j = 0  # movers before j have their agent-by-agent candidate and fitness
        while len(stop := (~(fit[j:] >= state.gbest_f)).nonzero()[0]):
            j += stop[0] + 1  # the rows up to the cut are kept
            core.give_back(problem, rng, len(movers) - j)
            f_i = float(fit[j - 1])
            if math.isnan(f_i):
                raise core.nan_error(problem)
            state.gbest_x, state.gbest_f = new[j - 1].copy(), f_i
            if j == len(movers):
                break
            new[j:] = clamp(a[j:] + b[j:] * (state.gbest_x - z[j:]), problem)
            fit[j:] = core.evaluate_rows(problem, new[j:], rng)
        x[movers] = new
        better = (fit < state.lbest_f.take(movers)).nonzero()[0]
        improved = movers.take(better)
        lbest_x[improved] = new.take(better, 0)
        state.lbest_f[improved] = fit.take(better)
    state.evals += len(movers)
    state.skill += n_skill
    state.creativity += len(movers) - n_skill
    state.rest += len(x) - len(movers)
    state.pm_replacements += state.pm.replace_worst(state.gbest_x, state.gbest_f)


def _run_engine(problem: Problem, config: RunConfig, pm_fraction: float,
                run_index: int, refresh: Optional[Callable] = None) -> RunResult:
    """Shared driver for CDDO and the hybrid; run r uses seed base_seed + r. The
    hybrid passes its larger pattern-memory fraction and a refresh of the pattern
    memory with :func:`hs.iterate`'s signature, run before each step from a (4, d)
    block of uniforms that precedes the step's in the iteration's row. The engine
    books it: one evaluation, its acceptance, and its vector, an evaluated
    solution, as the global best when it beats it."""
    if problem.dim < 2:
        raise ValueError(f"{problem.id}: CDDO needs dim >= 2 (golden ratio uses two distinct components)")
    seed = config.seed_for_run(run_index)
    rng = make_rng(seed)
    pop, pm_size = config.pop_size, math.ceil(pm_fraction * config.pop_size)
    state = init_state(problem, config, pm_size, rng)
    w = 4 * problem.dim if refresh is not None else 0  # the refresh's uniforms
    trace = np.empty(config.max_iters)
    for start in range(0, config.max_iters, BLOCK):
        k = min(BLOCK, config.max_iters - start)
        u = rng.random((k, w + N_UNIFORMS * pop))
        steps = choices(u[:, w:].reshape(k, pop, N_UNIFORMS), pm_size, problem)
        if refresh is not None:
            improvisations = hs.choices(u[:, :w].reshape(k, 4, problem.dim), pm_size, problem)
        for t in range(k):
            if refresh is not None:
                kept, position, fitness = refresh(state.pm, problem, improvisations, t, rng)
                state.evals += 1
                state.refresh_accepts += kept
                if fitness < state.gbest_f:
                    state.gbest_x, state.gbest_f = position, fitness
            cddo_step(state, problem, steps, t, rng)
            trace[start + t] = state.gbest_f
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
