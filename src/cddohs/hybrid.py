"""The CDDO-HS hybrid: CDDO with an enlarged pattern memory (80% of the
population) that a Harmony-Search improvisation refreshes every iteration."""

from __future__ import annotations

import numpy as np

from .cddo import CddoState, _run_engine
from .core import Archive, Problem, RunConfig, RunResult, evaluate
from .hs import improvise

PM_FRACTION = 0.8


def _improvise_refresh(pm: Archive, problem: Problem, rng) -> tuple[bool, np.ndarray, float]:
    """Improvise one vector over the PM rows and keep it if it beats the PM's
    worst; returns (replaced, position, fitness)."""
    pos = improvise(pm.x, problem, rng)
    fit = evaluate(problem, pos, rng)
    return pm.replace_worst(pos, fit), pos, fit


def _refresh(state: CddoState, problem: Problem, rng) -> None:
    # The improvised vector is an evaluated solution, so it also feeds the
    # global best (the loop updates gbest after the refresh each iteration).
    replaced, pos, fit = _improvise_refresh(state.pm, problem, rng)
    state.evals += 1
    state.refresh_accepts += replaced
    if fit < state.gbest_f:
        state.gbest_x, state.gbest_f = pos, fit


def cddo_hs_run(problem: Problem, config: RunConfig, run_index: int = 0) -> RunResult:
    """One full hybrid run; identical to CDDO except for the PM sizing and
    the per-iteration HS refresh that precedes the hand-pressure block."""
    return _run_engine(problem, config, PM_FRACTION, run_index, refresh=_refresh)
