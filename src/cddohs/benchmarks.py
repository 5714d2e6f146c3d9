"""The 19 classical benchmark functions (F1-F19) with a lookup registry.

F1-F7 are unimodal, F8-F13 multimodal, F14-F19 fixed-dimension multimodal.
All functions are minimization targets on a uniform box; F7 is the only
stochastic one (core adds uniform [0, 1) noise from the caller's RNG to its quartic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Problem, evaluate

# -- fixed-dimension constant tables (canonical published values) -----------

_FOXHOLES_A = np.array(
    [
        [-32, -16, 0, 16, 32] * 5,
        [-32] * 5 + [-16] * 5 + [0] * 5 + [16] * 5 + [32] * 5,
    ],
    dtype=float,
)

_KOWALIK_A = np.array(
    [0.1957, 0.1947, 0.1735, 0.1600, 0.0844, 0.0627,
     0.0456, 0.0342, 0.0323, 0.0235, 0.0246]
)
_KOWALIK_B = 1.0 / np.array([0.25, 0.5, 1, 2, 4, 6, 8, 10, 12, 14, 16])
_KOWALIK_B2 = _KOWALIK_B ** 2
_POLE_SCALE = 2.0 ** -600
_FOXHOLES_J = np.arange(1, 26)

_HARTMANN3_A = np.array(
    [[3.0, 10.0, 30.0],
     [0.1, 10.0, 35.0],
     [3.0, 10.0, 30.0],
     [0.1, 10.0, 35.0]]
)
_HARTMANN3_C = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMANN3_P = np.array(
    [[0.3689, 0.1170, 0.2673],
     [0.4699, 0.4387, 0.7470],
     [0.1091, 0.8732, 0.5547],
     [0.03815, 0.5743, 0.8828]]
)

# -- objective functions ------------------------------------------------------
#
# Each objective meets the contract of core.Problem: x (..., d) to values (...),
# each point's value bit for bit the same in every layout. Every integer power is
# a product (F7's fourth, F12's and F13's penalty's fourth, F14's sixth): on an
# AVX-512 host, numpy's pow takes slow paths for negative and zero bases (about 30
# and 3 times the time per value of a positive base), and its AVX-512 kernel rounds
# about 1 in 20 values differently from another CPU dispatch's kernel, while a
# product is correctly rounded, the same for -x as for x, under every dispatch.
# Reductions are the ufunc's own reduce/accumulate (np.add.reduce for np.sum,
# and so on): bit for bit numpy's functions, without their Python dispatch.
#
# F12, F13 and their penalty spend most of a call on the fixed cost of each ufunc
# call, so they make few calls, update intermediates in place, and take their
# component-wise constants as 0-d float64 arrays: numpy 2 converts a Python float
# operand on every call (NEP 50), and an (18, 10) multiply takes 592 ns with 2.0 and
# 415 ns with a 0-d array. Their per-point sums keep Python floats: at one point they
# are numpy scalars, and a numpy scalar times a Python float takes 49 ns, against
# 530 ns times a 0-d array (timeit, least of 7, 2-core AVX-512 Xeon VM, numpy 2.4.6).
_ZERO, _ONE, _FOUR, _FIVE, _TEN, _HUNDRED = (np.array(v) for v in (0.0, 1.0, 4.0, 5.0, 10.0, 100.0))
_PI = np.array(np.pi)


def f1_sphere(x):
    return np.add.reduce(x * x, -1)


def f2_sum_and_product(x):
    ax = np.abs(x)
    return np.add.reduce(ax, -1) + np.multiply.reduce(ax, -1)


def f3_rotated_hyper_ellipsoid(x):
    return np.add.reduce(np.add.accumulate(x, -1) ** 2, -1)


def f4_max_abs(x):
    return np.maximum.reduce(np.abs(x), -1)


def f5_rosenbrock(x):
    head, tail = x[..., :-1], x[..., 1:]
    return np.add.reduce(100.0 * (tail - head ** 2) ** 2 + (head - 1.0) ** 2, -1)


def f6_step(x):
    return np.add.reduce(np.floor(x + 0.5) ** 2, -1)


def f7_quartic(x):
    i = np.arange(1, x.shape[-1] + 1)
    s = x * x
    return np.add.reduce(i * (s * s), -1)


def f8_schwefel(x):
    return np.add.reduce(-x * np.sin(np.sqrt(np.abs(x))), -1)


def f9_rastrigin(x):
    return np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, -1)


def f10_ackley(x):
    n = x.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.add.reduce(x * x, -1) / n))
        - np.exp(np.add.reduce(np.cos(2.0 * np.pi * x), -1) / n)
        + 20.0
        + np.e
    )


def f11_griewank(x):
    i = np.arange(1, x.shape[-1] + 1)
    return np.add.reduce(x * x, -1) / 4000.0 - np.multiply.reduce(np.cos(x / np.sqrt(i)), -1) + 1.0


def _penalty(x, a):
    # 100 max(|x| - a, 0)^4 as 100 (p²)²: +0.0 inside [-a, a]
    p = np.abs(x)
    p -= a
    np.maximum(p, _ZERO, out=p)
    p *= p
    p *= p
    p *= _HUNDRED
    return np.add.reduce(p, -1)


def f12_penalized1(x):
    y = x + _ONE
    y /= _FOUR
    y += _ONE  # 1 + (x + 1) / 4
    s = y * _PI
    np.sin(s, out=s)
    s *= s
    s *= _TEN  # 10 sin²(π y_i)
    y -= _ONE
    y *= y  # (y_i - 1)²
    t = s[..., 1:] + _ONE
    t *= y[..., :-1]
    core = s[..., 0] + np.add.reduce(t, -1) + y[..., -1]
    return np.pi / x.shape[-1] * core + _penalty(x, _TEN)


_F13_ANGLES = {}  # d -> (take index, factors): see _f13_angles


def _f13_angles(d):
    """F13's d + 1 angles, 3π x_i for each component and 2π x_d for the last, as
    ``x.take(index, -1) * factors``: one take and one multiply for any layout."""
    index = np.append(np.arange(d), d - 1)
    factors = np.full(d + 1, 3.0 * np.pi)
    factors[-1] = 2.0 * np.pi
    _F13_ANGLES[d] = index, factors
    return index, factors


def f13_penalized2(x):
    index, factors = _F13_ANGLES.get(x.shape[-1]) or _f13_angles(x.shape[-1])
    s = x.take(index, -1)
    s *= factors
    np.sin(s, out=s)
    s *= s  # sin²(3π x_i), then sin²(2π x_d)
    q = x - _ONE
    q *= q
    t = s[..., 1:] + _ONE
    t *= q  # (x_i - 1)² (1 + sin²(3π x_i+1)), then (x_d - 1)² (1 + sin²(2π x_d))
    core = s[..., 0] + np.add.reduce(t[..., :-1], -1) + t[..., -1]
    return 0.1 * core + _penalty(x, _FIVE)


def f14_foxholes(x):
    e = x[..., :, None] - _FOXHOLES_A
    s = e * e
    d = np.add.reduce(s * s * s, -2)
    return 1.0 / (1.0 / 500.0 + np.add.reduce(1.0 / (_FOXHOLES_J + d), -1))


def f15_kowalik(x):
    x1, x2, x3, x4 = x[..., 0, None], x[..., 1, None], x[..., 2, None], x[..., 3, None]
    num = _KOWALIK_B * x2
    num += _KOWALIK_B2
    num *= x1  # x1 (b² + b·x2)
    den = _KOWALIK_B * x3
    den += _KOWALIK_B2
    den += x4  # b² + b·x3 + x4: 0 inside the box, e.g. at x3 = 0, x4 = -b²
    # den·2^-600 is 0 only for |den| <= 2^-475; beyond that, |num| <= 180 in the box keeps
    # q² below 1e291. A pole is +inf (ranks last), and a den within 2^-475 of one may
    # overflow to +inf: both with no warning, and only there, as they cost more
    if np.count_nonzero(den * _POLE_SCALE) == den.size:
        num /= den
        e = np.subtract(_KOWALIK_A, num, out=num)
        e *= e
        return np.add.reduce(e, -1)
    with np.errstate(over="ignore"):
        q = np.divide(num, den, out=np.full(den.shape, np.inf), where=den != 0.0)
        return np.add.reduce((_KOWALIK_A - q) ** 2, -1)


def f16_six_hump_camel(x):
    x1, x2 = x[..., 0], x[..., 1]
    s1, s2 = x1 * x1, x2 * x2
    return 4.0 * s1 - 2.1 * (s1 * s1) + s1 * s1 * s1 / 3.0 + x1 * x2 - 4.0 * s2 + 4.0 * (s2 * s2)


def f17_branin(x):
    x1, x2 = x[..., 0], x[..., 1]
    b = 5.1 / (4.0 * np.pi ** 2)
    c = 5.0 / np.pi
    t = 1.0 / (8.0 * np.pi)
    r = x2 - b * (x1 * x1) + c * x1 - 6.0
    return r * r + 10.0 * (1.0 - t) * np.cos(x1) + 10.0


def f18_goldstein_price(x):
    x1, x2 = x[..., 0], x[..., 1]
    s1, s2, p, q = x1 * x1, x2 * x2, x1 + x2 + 1.0, 2.0 * x1 - 3.0 * x2
    a = 1.0 + p * p * (19.0 - 14.0 * x1 + 3.0 * s1 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * s2)
    b = 30.0 + q * q * (18.0 - 32.0 * x1 + 12.0 * s1 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * s2)
    return a * b


def f19_hartmann3(x):
    inner = np.add.reduce(_HARTMANN3_A * (x[..., None, :] - _HARTMANN3_P) ** 2, -1)
    return -np.add.reduce(_HARTMANN3_C * np.exp(-inner), -1)


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class BenchmarkSpec(Problem):
    """A registry entry: the Problem the optimizers run, plus its table metadata."""

    family: str  # unimodal | multimodal | fixed-dimension
    f_min: float  # a lower bound within 1e-6 of the global minimum
    minimizer: Optional[tuple] = None  # a known global minimizer, when exact/canonical


_U, _M, _F = "unimodal", "multimodal", "fixed-dimension"

# Each entry is built once; it is frozen, so every caller shares it.
SPECS: dict[str, BenchmarkSpec] = {
    s.id: s
    for s in [
        BenchmarkSpec("F1", 10, -100.0, 100.0, f1_sphere, family=_U, f_min=0.0, minimizer=(0.0,) * 10),
        BenchmarkSpec("F2", 10, -10.0, 10.0, f2_sum_and_product, family=_U, f_min=0.0,
                      minimizer=(0.0,) * 10),
        BenchmarkSpec("F3", 10, -30.0, 30.0, f3_rotated_hyper_ellipsoid, family=_U, f_min=0.0,
                      minimizer=(0.0,) * 10),
        BenchmarkSpec("F4", 10, -100.0, 100.0, f4_max_abs, family=_U, f_min=0.0, minimizer=(0.0,) * 10),
        BenchmarkSpec("F5", 10, -30.0, 30.0, f5_rosenbrock, family=_U, f_min=0.0, minimizer=(1.0,) * 10),
        BenchmarkSpec("F6", 10, -100.0, 100.0, f6_step, family=_U, f_min=0.0, minimizer=(0.0,) * 10),
        BenchmarkSpec("F7", 10, -1.28, 1.28, f7_quartic, stochastic=True, family=_U, f_min=0.0),
        # Schwefel at dim 30: global min -418.9829*dim at x_i = 420.9687
        BenchmarkSpec("F8", 30, -500.0, 500.0, f8_schwefel, family=_M, f_min=-12569.487,
                      minimizer=(420.9687,) * 30),
        BenchmarkSpec("F9", 10, -10.0, 10.0, f9_rastrigin, family=_M, f_min=0.0, minimizer=(0.0,) * 10),
        BenchmarkSpec("F10", 10, -32.0, 32.0, f10_ackley, family=_M, f_min=0.0, minimizer=(0.0,) * 10),
        BenchmarkSpec("F11", 10, -600.0, 600.0, f11_griewank, family=_M, f_min=0.0,
                      minimizer=(0.0,) * 10),
        BenchmarkSpec("F12", 10, -50.0, 50.0, f12_penalized1, family=_M, f_min=0.0,
                      minimizer=(-1.0,) * 10),
        BenchmarkSpec("F13", 30, -50.0, 50.0, f13_penalized2, family=_M, f_min=0.0,
                      minimizer=(1.0,) * 30),
        BenchmarkSpec("F14", 2, -65.0, 65.0, f14_foxholes, family=_F, f_min=0.9980038,
                      minimizer=(-32.0, -32.0)),
        BenchmarkSpec("F15", 4, -5.0, 5.0, f15_kowalik, family=_F, f_min=0.0003,
                      minimizer=(0.192833, 0.190836, 0.123117, 0.135766)),
        BenchmarkSpec("F16", 2, -5.0, 5.0, f16_six_hump_camel, family=_F, f_min=-1.0316285,
                      minimizer=(0.089842, -0.712656)),
        BenchmarkSpec("F17", 2, -5.0, 5.0, f17_branin, family=_F, f_min=0.3978873,
                      minimizer=(np.pi, 2.275)),
        BenchmarkSpec("F18", 2, -2.0, 2.0, f18_goldstein_price, family=_F, f_min=3.0,
                      minimizer=(0.0, -1.0)),
        # Hartmann-3's own box (also Mirjalili's Get_Functions_details.m); the paper's
        # table prints [1, 3]^3, where the function is about 0 and its minimizer is outside
        BenchmarkSpec("F19", 3, 0.0, 1.0, f19_hartmann3, family=_F, f_min=-3.862783,
                      minimizer=(0.114614, 0.555649, 0.852547)),
    ]
}

FUNCTION_IDS = list(SPECS)  # registry order, F1..F19: the order of every grid and table


def make_function(func_id: str) -> BenchmarkSpec:
    """The registry entry (a Problem) for one of F1..F19."""
    try:
        return SPECS[func_id]
    except KeyError:
        raise KeyError(f"unknown benchmark id {func_id!r}; expected one of F1..F19") from None


def evaluate_at(func_id: str, x, rng=None) -> float:
    """Evaluate a registered function at one point x, of length its dim (core.evaluate
    rejects another shape)."""
    return evaluate(make_function(func_id), np.asarray(x, dtype=float), rng)
