"""Harmony Search: one improvised vector per iteration, worst-replacement.

A run improvises :func:`width` iterations at once from the memory as it stands
and evaluates them in one objective call, then walks them in order through the
worst-replacement. The walk keeps the set of memory rows it has replaced and
stops before the first improvisation that copies a component from one of them,
since that one was built from the old row; the next walk improvises from there.
So every kept improvisation, fitness and acceptance is the one-at-a-time loop's,
whatever the width.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import core
from .core import Archive, Problem, RunConfig, RunResult, clamp, evaluate, indices, make_rng, scale

# The paper's protocol: fixed, not settable.
HMCR = 0.995  # per-component probability of copying from memory
PAR = 0.1     # pitch adjustment probability, given a memory copy
BW = 0.04     # absolute perturbation bandwidth
# A run draws the uniforms of at most this many iterations at once, so a long
# run's draws stay bounded; a protocol run (500 iterations) draws once.
BLOCK = 1000


class HarmonyMemory(Archive):
    """The HS archive (pop_size rows). A class of its own so that wrapping
    ``HarmonyMemory.replace_worst`` counts HS acceptances only, not the
    pattern-memory replacements of CDDO and the hybrid."""


class Draws(NamedTuple):
    """The choices of n improvisations, row t for improvisation t: (n, d) arrays."""

    source: np.ndarray  # the memory entry a component copies: row * d + column, flat in (m, d)
    keep: np.ndarray    # 1.0 where the component copies, 0.0 where it is redrawn
    base: np.ndarray    # added to keep * copy: the nudge or -0.0 where it copies, the redraw where not


def draw(rng, n: int, m: int, problem: Problem) -> Draws:
    """:func:`choices` of one (n, 4, d) block of uniforms: the same doubles as
    n consecutive (4, d) draws."""
    return choices(rng.random((n, 4, problem.dim)), m, problem)


def choices(u: np.ndarray, m: int, problem: Problem) -> Draws:
    """The choices of n improvisations over a memory of m rows from their
    uniforms u (n, 4, d). Block t's rows are the HMCR test, the memory row, the
    PAR test, and the nudge or the redraw (a component takes at most one of them)."""
    d = problem.dim
    fresh = u[:, 0] > HMCR
    nudge = np.where(u[:, 2] <= PAR, scale(u[:, 3], -1.0, 1.0) * BW, -0.0)
    return Draws(source=indices(u[:, 1], m) * d + np.arange(d), keep=np.where(fresh, 0.0, 1.0),
                 base=np.where(fresh, scale(u[:, 3], problem.lower, problem.upper), nudge))


def improvise(positions: np.ndarray, draws: Draws, t: int | slice, problem: Problem) -> np.ndarray:
    """Improvisation t of ``draws`` over the memory rows ``positions`` (m, d),
    as a vector (d,); for a slice t, those improvisations as rows (k, d).

    Each component: with prob HMCR copy it from a random row (then with prob
    PAR nudge it by uniform(-1,1)*BW), otherwise redraw uniformly in bounds.
    """
    # copy * keep + base is either, bit for bit: memory rows are finite (drawn in the
    # box or clamped), so x * 1.0 = x and x * 0.0 = +-0.0; x + -0.0 = x for every x;
    # and +-0.0 + r = r, as a redraw r is never -0.0 (scale's (hi - lo) * u >= +0.0, plus lo)
    memory = positions.take(draws.source[t]) * draws.keep[t]  # fresh rows
    memory += draws.base[t]
    return clamp(memory, problem)


def width(m: int, d: int) -> int:
    """The iterations a run over a memory of m rows in dimension d improvises
    and evaluates at once. An improvisation copies each of its d components
    from a random row, so it copies a row the walk replaced with a chance that
    grows with d/m: at m = 40 walks keep 1.8 rows on average at d = 30, 2.8 at
    d = 10 and 6.1 at d = 2. A row evaluated in vain costs less than a call,
    so the width runs above that mean, from 4 (d = 30 at m = 40) to 16
    (d <= 3). On the HS grid (F1-F19, population 40, 500 iterations) the rule
    took 2% longer than each function at its fastest width, and a fixed 8 6%
    longer than the rule. Every width gives the same run."""
    return min(16, max(4, 3 * m // (2 * d)))


def iterate(memory: Archive, problem: Problem, draws: Draws, t: int,
            rng) -> tuple[bool, np.ndarray, float]:
    """One standard HS iteration, one at a time: improvise ``draws``' vector t,
    evaluate it (F7's noise is drawn from rng) and :func:`offer` it. The hybrid's
    refresh is this iteration with the evaluation in its step's objective call."""
    position = improvise(memory.x, draws, t, problem)
    return offer(memory, position, evaluate(problem, position, rng))


def offer(memory: Archive, position: np.ndarray, fitness: float) -> tuple[bool, np.ndarray, float]:
    """Keep an evaluated vector if it beats the memory's worst row; (kept, position, fitness)."""
    return memory.replace_worst(position, fitness), position, fitness


def hs_run(problem: Problem, config: RunConfig, run_index: int = 0) -> RunResult:
    """One full HS run; run r uses seed base_seed + r; evals == pop_size + max_iters.

    A walk is cut before improvisation t when one of ``rows[t]``, the memory
    rows it copies, is in ``replaced``. Rows evaluated past a cut are not
    counted: a stochastic problem draws one noise value per row, in row order,
    so they give their draws back (:func:`core.give_back`) and the generator
    draws what the one-at-a-time loop draws. NaN raises only in a kept row.
    """
    seed = config.seed_for_run(run_index)
    rng = make_rng(seed)
    hm = HarmonyMemory(*core.init_population(problem, config.pop_size, rng))
    replace_worst = hm.replace_worst
    ahead = width(config.pop_size, problem.dim)
    trace = []
    accepts = 0
    # the memory's minimum moves only when a kept vector beats it
    best_f = float(hm.f.min())
    for start in range(0, config.max_iters, BLOCK):
        n = min(BLOCK, config.max_iters - start)
        draws = draw(rng, n, config.pop_size, problem)
        rows = (draws.source // problem.dim).tolist()  # the memory rows each one copies
        t = 0
        while t < n:
            walk = t
            positions = improvise(hm.x, draws, slice(walk, walk + ahead), problem)
            fitness = core.evaluate_rows(problem, positions, rng).tolist()
            replaced = set()  # the memory rows replaced in this walk
            for position, f in zip(positions, fitness):
                if replaced and not replaced.isdisjoint(rows[t]):
                    break
                if math.isnan(f):
                    raise core.nan_error(problem)
                if replace_worst(position, f):
                    replaced.add(hm.replaced)
                    accepts += 1
                    if f < best_f:
                        best_f = f
                trace.append(best_f)
                t += 1
            core.give_back(problem, rng, len(fitness) - (t - walk))
    best = int(np.argmin(hm.f))
    return RunResult(
        best_fitness=float(hm.f[best]),
        best_position=hm.x[best].copy(),
        trace=np.array(trace),
        seed=seed,
        evals=config.pop_size + config.max_iters,
        hm_accepts=accepts,
    )
