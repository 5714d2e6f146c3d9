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

    The objective contract: ``objective`` maps x (..., d) to values (...), one
    point (d,) to a float and rows (n, d) to (n,), each point's value bit for bit
    the same in every layout. Only :func:`evaluate_rows` calls it; that adds a
    stochastic problem's noise, one ``rng.random()`` per point in C order, so the
    objective is never passed the generator.
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
            raise ValueError(f"{self.id}: need finite bounds, got [{self.lower}, {self.upper}]")
        if not self.lower < self.upper:
            raise ValueError(f"{self.id}: need lower < upper, got [{self.lower}, {self.upper}]")
        if not math.isfinite(self.upper - self.lower):
            # every uniform draw in the box is lower + (upper - lower) * u
            raise ValueError(f"{self.id}: box width upper - lower overflows: [{self.lower}, {self.upper}]")


@dataclass
class Archive:
    """Fixed-size elite set (pattern memory, harmony memory): x (k, d), f (k,).

    Only ``replace_worst`` writes an archive's rows once it is built. So the
    first worst row, ``f.argmax()``, and its value are found at the first offer
    and again after each accepted one, and a rejected offer costs one float
    comparison."""

    x: np.ndarray
    f: np.ndarray
    replaced = -1  # the row the last accepted replace_worst overwrote
    _worst = -1  # the first worst row, a Python int; -1 until it is found
    _worst_f = math.inf  # its fitness, a Python float

    @classmethod
    def best_of(cls, x: np.ndarray, f: np.ndarray, k: int) -> "Archive":
        """The k best rows; equal fitness keeps input order (stable sort)."""
        keep = np.argsort(f, kind="stable")[:k]
        return cls(x[keep], f[keep])

    def replace_worst(self, position: np.ndarray, fitness: float) -> bool:
        """Overwrite the first worst row when ``fitness`` is strictly better."""
        if self._worst < 0:
            self._find_worst()
        if fitness < self._worst_f:
            w = self._worst
            self.x[w] = position
            self.f[w] = fitness
            self.replaced = w
            self._find_worst()
            return True
        return False

    def _find_worst(self) -> None:
        self._worst = w = int(self.f.argmax())
        self._worst_f = float(self.f[w])


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
        if not _is_int(run_index):
            raise ValueError(f"run {run_index!r}: the run index is not an integer")
        seed = self.base_seed + int(run_index)
        if seed < 0:
            raise ValueError(f"run {run_index}: seed {seed} is not an integer >= 0")
        return seed


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


def scale(u, lo, hi):
    """Uniforms u in [0, 1) mapped onto [lo, hi), lo + (hi - lo) u; lo and hi are
    floats or arrays that broadcast against u. The sum is taken in place, so a
    block of uniforms costs one new array, not two."""
    w = (hi - lo) * u
    w += lo
    return w


def indices(u: np.ndarray, n: int | np.ndarray) -> np.ndarray:
    """Uniforms u in [0, 1) mapped onto the integers 0 .. n-1, each with
    probability 1/n (floor(u * n), kept below n against rounding up). n may be
    an array of sizes, broadcast over u's last axis."""
    return np.minimum((u * n).astype(np.intp), n - 1)


def clamp(position: np.ndarray, problem: Problem) -> np.ndarray:
    # the ufunc, without np.clip's and ndarray.clip's Python-level dispatch; -0.0 stays -0.0
    return _clip(position, problem.lower, problem.upper)


def nan_error(problem: Problem) -> ValueError:
    """NaN has no place in a ranking, so an objective that returns it fails
    the run; +inf is kept and ranks last."""
    return ValueError(f"{problem.id}: objective returned NaN")


def evaluate(problem: Problem, position: np.ndarray, rng: Optional[np.random.Generator] = None) -> float:
    """The value at one point (d,): :func:`evaluate_rows` of it, as a float.
    Rows raise, naming the problem, and so does NaN (see :func:`nan_error`)."""
    values = evaluate_rows(problem, position, rng)
    try:
        value = float(values)
    except TypeError:  # values of rows, not of one point
        raise ValueError(f"{problem.id}: evaluate takes one point (dim,) for dim = {problem.dim}, "
                         f"got x.shape = {np.shape(position)}; evaluate_rows takes rows") from None
    if math.isnan(value):
        raise nan_error(problem)
    return value


def evaluate_rows(problem: Problem, x: np.ndarray,
                  rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """The values at x (..., d) from one objective call, floats shaped x.shape[:-1]
    (0-d for one point), plus a stochastic problem's noise (see :class:`Problem`).
    A last axis of another length than ``problem.dim`` raises, naming the problem.

    NaN is returned, not raised: a caller that keeps only some of the rows
    checks those (see :func:`nan_error`), and gives the rest back (see
    :func:`give_back`).
    """
    # C order: numpy reduces the last axis of another layout in another order,
    # so row values could differ from the one-point values in the last bit
    x = np.ascontiguousarray(x)
    if x.shape[-1] != problem.dim:  # ascontiguousarray gives x at least one axis
        raise ValueError(f"{problem.id}: x must be (..., dim) for dim = {problem.dim}, "
                         f"got x.shape = {x.shape}")
    values, shape = np.asarray(problem.objective(x), dtype=float), x.shape[:-1]
    if values.shape != shape:
        raise ValueError(f"{problem.id}: objective returned shape {values.shape} for x of "
                         f"shape {x.shape}; it must map x (..., d) to values (...)")
    if problem.stochastic:
        if rng is None:
            raise ValueError(f"{problem.id} is stochastic and needs an RNG")
        values = values + rng.random(shape or None)
    return values


def give_back(problem: Problem, rng: np.random.Generator, rows) -> None:
    """Give back the noise of the last ``rows`` rows evaluated: a stochastic problem
    steps its PCG64 generator back ``rows`` draws (2**128 is its period)."""
    rows = int(rows)  # 2**128 - a numpy integer overflows
    if problem.stochastic and rows:
        rng.bit_generator.advance(2 ** 128 - rows)


def init_population(problem: Problem, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Positions (n, dim) uniform in the box, drawn in one call, and their
    fitness (n,), evaluated in one call on the same stream (F7 draws its n
    noise values from it after the positions)."""
    x = scale(rng.random((n, problem.dim)), problem.lower, problem.upper)
    f = evaluate_rows(problem, x, rng)
    if np.isnan(f).any():
        raise nan_error(problem)
    return x, f
