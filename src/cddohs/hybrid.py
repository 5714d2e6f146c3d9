"""The CDDO-HS hybrid: CDDO with an enlarged pattern memory (80% of the
population) that a Harmony-Search improvisation refreshes every iteration."""

from __future__ import annotations

from . import hs
from .cddo import _run_engine
from .core import Problem, RunConfig, RunResult

PM_FRACTION = 0.8


# One HS iteration over the PM, which CDDO's engine runs and books; a name of
# its own, so that a wrapper set on ``hybrid._improvise_refresh`` sees every
# refresh and no HS iteration.
_improvise_refresh = hs.iterate


def cddo_hs_run(problem: Problem, config: RunConfig, run_index: int = 0) -> RunResult:
    """One full hybrid run; identical to CDDO except for the PM sizing and
    the per-iteration HS refresh that precedes the hand-pressure block."""
    return _run_engine(problem, config, PM_FRACTION, run_index, refresh=_improvise_refresh)
