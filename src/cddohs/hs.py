"""Harmony Search: one improvised vector per iteration, worst-replacement."""

from __future__ import annotations

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
    """The choices of n improvisations, row t for improvisation t: arrays of
    (n, d), and two flag lists of n Python bools, computed once per block."""

    take: np.ndarray    # copy the component from memory (prob HMCR), else redraw
    source: np.ndarray  # the memory entry it copies: row * d + column, flat in (m, d)
    adjust: np.ndarray  # nudge the copy (prob PAR)
    nudge: np.ndarray   # uniform(-1, 1) * BW
    redraw: np.ndarray  # uniform in the box
    nudges: list[bool]  # improvisation t nudges a component: adjust[t].any()
    redraws: list[bool]  # improvisation t redraws a component: (~take[t]).any()


def draw(rng, n: int, m: int, problem: Problem) -> Draws:
    """:func:`choices` of one (n, 4, d) block of uniforms: the same doubles as
    n consecutive (4, d) draws."""
    return choices(rng.random((n, 4, problem.dim)), m, problem)


def choices(u: np.ndarray, m: int, problem: Problem) -> Draws:
    """The choices of n improvisations over a memory of m rows from their
    uniforms u (n, 4, d). Block t's rows are the HMCR test, the memory row, the
    PAR test, and the nudge or the redraw (a component takes at most one of them)."""
    d = problem.dim
    take, adjust = u[:, 0] <= HMCR, u[:, 2] <= PAR
    return Draws(take=take, source=indices(u[:, 1], m) * d + np.arange(d), adjust=adjust,
                 nudge=scale(u[:, 3], -1.0, 1.0) * BW,
                 redraw=scale(u[:, 3], problem.lower, problem.upper),
                 nudges=adjust.any(1).tolist(), redraws=(~take).any(1).tolist())


def improvise(positions: np.ndarray, draws: Draws, t: int, problem: Problem) -> np.ndarray:
    """Improvisation t of ``draws`` over the memory rows ``positions`` (m, d).

    Each component: with prob HMCR copy it from a random row (then with prob
    PAR nudge it by uniform(-1,1)*BW), otherwise redraw uniformly in bounds.
    A masked copy runs only when its flag (``nudges[t]``, ``redraws[t]``) is set.
    """
    memory = positions.take(draws.source[t])  # a fresh row, so the copies write into it
    if draws.nudges[t]:
        np.copyto(memory, memory + draws.nudge[t], where=draws.adjust[t])
    if draws.redraws[t]:
        np.copyto(memory, draws.redraw[t], where=~draws.take[t])
    return clamp(memory, problem)


def iterate(memory: Archive, problem: Problem, draws: Draws, t: int,
            rng) -> tuple[bool, np.ndarray, float]:
    """One standard HS iteration (HS's, and the hybrid's PM refresh): improvise
    ``draws``' vector t, evaluate it (F7 draws its noise from rng), keep it if
    it beats the worst row; (kept, position, fitness)."""
    position = improvise(memory.x, draws, t, problem)
    fitness = evaluate(problem, position, rng)
    return memory.replace_worst(position, fitness), position, fitness


def hs_run(problem: Problem, config: RunConfig, run_index: int = 0) -> RunResult:
    """One full HS run; run r uses seed base_seed + r; evals == pop_size + max_iters."""
    seed = config.seed_for_run(run_index)
    rng = make_rng(seed)
    hm = HarmonyMemory(*core.init_population(problem, config.pop_size, rng))
    trace = np.empty(config.max_iters)
    accepts = 0
    # the memory's minimum moves only when a kept vector beats it
    best_f = hm.f.min()
    for start in range(0, config.max_iters, BLOCK):
        n = min(BLOCK, config.max_iters - start)
        draws = draw(rng, n, config.pop_size, problem)
        for t in range(n):
            kept, _, fitness = iterate(hm, problem, draws, t, rng)
            if kept:
                accepts += 1
                best_f = min(best_f, fitness)
            trace[start + t] = best_f
    best = int(np.argmin(hm.f))
    return RunResult(
        best_fitness=float(hm.f[best]),
        best_position=hm.x[best].copy(),
        trace=trace,
        seed=seed,
        evals=config.pop_size + config.max_iters,
        hm_accepts=accepts,
    )
