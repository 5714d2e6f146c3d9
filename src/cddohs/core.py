"""Shared problem/candidate/run abstractions used by every optimizer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Problem:
    """A box-constrained minimization problem.

    ``objective`` takes a position vector; stochastic objectives additionally
    take the run's RNG (use :func:`evaluate` rather than calling it directly).
    """

    id: str
    dim: int
    lower: float
    upper: float
    objective: Callable[..., float]
    stochastic: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")


@dataclass
class Candidate:
    position: np.ndarray
    fitness: float

    def copy(self) -> "Candidate":
        return Candidate(self.position.copy(), self.fitness)


@dataclass(frozen=True)
class RunConfig:
    """Experimental protocol knobs (defaults: pop 40, 500 iters, 30 runs)."""

    pop_size: int = 40
    max_iters: int = 500
    n_runs: int = 30
    base_seed: int = 0

    def __post_init__(self):
        if self.pop_size < 1 or self.max_iters < 1 or self.n_runs < 1:
            raise ValueError("pop_size, max_iters and n_runs must be positive")

    def seed_for_run(self, run_index: int) -> int:
        return self.base_seed + run_index


@dataclass
class RunResult:
    best_fitness: float
    best_position: np.ndarray
    trace: np.ndarray  # global-best fitness at the end of each iteration
    seed: int
    evals: int


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Uniform draw in [lo, hi); consumes exactly one raw draw."""
    return lo + (hi - lo) * rng.random()


def clamp(position: np.ndarray, problem: Problem) -> np.ndarray:
    return np.clip(position, problem.lower, problem.upper)


def evaluate(problem: Problem, position: np.ndarray, rng: Optional[np.random.Generator] = None) -> float:
    """Evaluate the objective; stochastic objectives draw their noise from rng."""
    if problem.stochastic:
        if rng is None:
            raise ValueError(f"{problem.id} is stochastic and needs an RNG")
        return float(problem.objective(position, rng))
    return float(problem.objective(position))


def init_population(problem: Problem, n: int, rng: np.random.Generator) -> list[Candidate]:
    """n candidates drawn uniformly in the box, each evaluated once."""
    pop = []
    for _ in range(n):
        pos = problem.lower + (problem.upper - problem.lower) * rng.random(problem.dim)
        pop.append(Candidate(pos, evaluate(problem, pos, rng)))
    return pop
