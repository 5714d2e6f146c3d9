"""Shared problem, elite-archive and run abstractions used by every optimizer."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# np.clip's ufunc, from numpy._core (numpy.core before numpy 2); if numpy moves it, this fails
_clip = (np._core if int(np.__version__.split(".")[0]) >= 2 else np.core).umath.clip


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(owner: str, name: str, value) -> int:
    """The count rule: an integer >= 1 (numpy integers pass, bool does not), as an int."""
    if not (_is_int(value) and value >= 1):
        raise ValueError(f"{owner}: {name} must be an integer >= 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class Problem:
    """A box-constrained minimization problem.

    ``objective`` takes one point (d,) and returns a float, or rows (n, d) and
    returns (n,), row i bit for bit the one-point value: CDDO evaluates a
    step's moving agents, and every run its initial population, in one call.
    Stochastic objectives additionally take the run's RNG and draw their
    noise from it once per point, in row order. Call it through
    :func:`evaluate` or :func:`evaluate_rows`.
    """

    id: str
    dim: int
    lower: float
    upper: float
    objective: Callable[..., float | np.ndarray]
    stochastic: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dim", check_count(f"problem {self.id}", "dim", self.dim))
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"need finite bounds, got [{self.lower}, {self.upper}]")
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if not math.isfinite(self.upper - self.lower):
            # every uniform draw in the box is lower + (upper - lower) * u
            raise ValueError(f"box width upper - lower overflows: [{self.lower}, {self.upper}]")


@dataclass
class Archive:
    """Fixed-size elite set (pattern memory, harmony memory): x (k, d), f (k,)."""

    x: np.ndarray
    f: np.ndarray

    @classmethod
    def best_of(cls, x: np.ndarray, f: np.ndarray, k: int) -> "Archive":
        """The k best rows; equal fitness keeps input order (stable sort)."""
        keep = np.argsort(f, kind="stable")[:k]
        return cls(x[keep], f[keep])

    def replace_worst(self, position: np.ndarray, fitness: float) -> bool:
        """Overwrite the first worst row when ``fitness`` is strictly better."""
        w = int(self.f.argmax())
        if fitness < self.f[w]:
            self.x[w] = position
            self.f[w] = fitness
            return True
        return False


@dataclass(frozen=True)
class RunConfig:
    """Experimental protocol knobs (defaults: pop 40, 500 iters, 30 runs)."""

    pop_size: int = 40
    max_iters: int = 500
    n_runs: int = 30
    base_seed: int = 0

    def __post_init__(self):
        for name in ("pop_size", "max_iters", "n_runs"):
            object.__setattr__(self, name, check_count("run config", name, getattr(self, name)))
        if not _is_int(self.base_seed):
            raise ValueError(f"run config: base_seed must be an integer, got {self.base_seed}")
        object.__setattr__(self, "base_seed", int(self.base_seed))

    def seed_for_run(self, run_index: int) -> int:
        """base_seed + run_index, an int >= 0 (cells replace a negative base seed)."""
        seed = self.base_seed + run_index
        if not _is_int(run_index) or seed < 0:
            raise ValueError(f"run {run_index}: seed {seed} is not an integer >= 0")
        return int(seed)


@dataclass
class RunResult:
    best_fitness: float
    best_position: np.ndarray
    trace: np.ndarray  # global-best fitness at the end of each iteration
    seed: int
    evals: int
    # Counts over the run (not written to artifacts). Agent steps by branch
    # (CDDO and the hybrid): skill + creativity + rest == pop_size * max_iters.
    skill: int = 0
    creativity: int = 0
    rest: int = 0
    pm_replacements: int = 0  # iterations whose gbest entered the pattern memory
    refresh_accepts: int = 0  # hybrid HS refreshes that entered the pattern memory
    hm_accepts: int = 0       # HS improvisations that entered the harmony memory


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def scale(u, lo: float, hi: float):
    """Uniforms u in [0, 1) mapped onto [lo, hi)."""
    return lo + (hi - lo) * u


def indices(u: np.ndarray, n: int) -> np.ndarray:
    """Uniforms u in [0, 1) mapped onto the integers 0 .. n-1, each with
    probability 1/n (floor(u * n), kept below n against rounding up)."""
    return np.minimum((u * n).astype(np.intp), n - 1)


def clamp(position: np.ndarray, problem: Problem) -> np.ndarray:
    # the ufunc, without np.clip's and ndarray.clip's Python-level dispatch; -0.0 stays -0.0
    return _clip(position, problem.lower, problem.upper)


def nan_error(problem: Problem) -> ValueError:
    """NaN has no place in a ranking, so an objective that returns it fails
    the run; +inf is kept and ranks last."""
    return ValueError(f"{problem.id}: objective returned NaN")


def _call(problem: Problem, x: np.ndarray, rng: Optional[np.random.Generator]):
    if problem.stochastic:
        if rng is None:
            raise ValueError(f"{problem.id} is stochastic and needs an RNG")
        return problem.objective(x, rng)
    return problem.objective(x)


def evaluate(problem: Problem, position: np.ndarray, rng: Optional[np.random.Generator] = None) -> float:
    """The objective at one point (d,); stochastic objectives draw their noise
    from rng. NaN raises (see :func:`nan_error`)."""
    value = float(_call(problem, position, rng))
    if math.isnan(value):
        raise nan_error(problem)
    return value


def evaluate_rows(problem: Problem, rows: np.ndarray,
                  rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """The objective at each row of rows (n, d), from one call: (n,) floats.

    NaN is returned, not raised: a caller that keeps only some of the rows
    checks those (see :func:`nan_error`).
    """
    # C order: numpy reduces the last axis of another layout in another order,
    # so row values could differ from the one-point values in the last bit
    values = np.asarray(_call(problem, np.ascontiguousarray(rows), rng), dtype=float)
    if values.shape != (len(rows),):
        raise ValueError(f"{problem.id}: objective returned shape {values.shape} for "
                         f"{len(rows)} rows; it must map rows (n, d) to values (n,)")
    return values


def init_population(problem: Problem, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Positions (n, dim) uniform in the box, drawn in one call, and their
    fitness (n,), evaluated in one call on the same stream (F7 draws its n
    noise values from it after the positions)."""
    x = scale(rng.random((n, problem.dim)), problem.lower, problem.upper)
    f = evaluate_rows(problem, x, rng)
    if np.isnan(f).any():
        raise nan_error(problem)
    return x, f
