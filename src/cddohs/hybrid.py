"""The CDDO-HS hybrid: CDDO with an enlarged pattern memory (80% of the
population) that a Harmony-Search improvisation refreshes every iteration."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cddo import CddoParams, CddoState, _run_engine
from .core import Archive, Problem, RunConfig, RunResult, evaluate
from .hs import HsParams, improvise

PM_FRACTION = 0.8


@dataclass
class HybridParams:
    cddo: CddoParams = field(default_factory=CddoParams)
    hs: HsParams = field(default_factory=HsParams)

    def pm_size(self, pop_size: int) -> int:
        return math.ceil(PM_FRACTION * pop_size)


def _improvise_refresh(pm: Archive, hs_params: HsParams,
                       problem: Problem, rng) -> tuple[bool, np.ndarray, float]:
    """Improvise one vector over the PM rows and keep it if it beats the PM's
    worst; returns (replaced, position, fitness)."""
    pos = improvise(pm.x, hs_params, problem, rng)
    fit = evaluate(problem, pos, rng)
    return pm.replace_worst(pos, fit), pos, fit


def cddo_hs_run(problem: Problem, config: RunConfig,
                params: Optional[HybridParams] = None, run_index: int = 0) -> RunResult:
    """One full hybrid run; identical to CDDO except for the PM sizing and
    the per-iteration HS refresh that precedes the hand-pressure block."""
    params = params or HybridParams()

    def refresh(state: CddoState, prob: Problem, rng) -> None:
        # The improvised vector is an evaluated solution, so it also feeds the
        # global best (the loop updates gbest after the refresh each iteration).
        _, pos, fit = _improvise_refresh(state.pm, params.hs, prob, rng)
        state.evals += 1
        if fit < state.gbest_f:
            state.gbest_x, state.gbest_f = pos, fit

    cddo_params = dataclasses.replace(params.cddo, pm_size=params.pm_size(config.pop_size))
    return _run_engine(problem, config, cddo_params,
                       seed=config.seed_for_run(run_index), refresh=refresh)
