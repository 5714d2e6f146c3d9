"""The CDDO-HS hybrid: CDDO with an enlarged pattern memory (80% of the
population) that a Harmony-Search improvisation refreshes every iteration."""

from __future__ import annotations

from .cddo import CddoState, _run_engine
from .core import Problem, RunConfig, RunResult
# The refresh is one HS iteration over the PM. ``_refresh`` looks this name up
# at call time, so a wrapper set on ``hybrid._improvise_refresh`` sees every refresh.
from .hs import iterate as _improvise_refresh

PM_FRACTION = 0.8


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
