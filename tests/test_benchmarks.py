import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cddohs import benchmarks
from cddohs.benchmarks import FUNCTION_IDS, SPECS, evaluate_at, make_function
from cddohs.core import Problem, evaluate, evaluate_rows, make_rng

# functions whose known minimizer certifies f_min (relative 1e-3, abs floor
# 1e-6 so exact-zero optima like F1's are checked tightly)
CERTIFIED = ["F1", "F2", "F3", "F4", "F5", "F6", "F9", "F10", "F11", "F12",
             "F13", "F16", "F17", "F18", "F19"]

NONNEGATIVE = ["F1", "F2", "F3", "F4", "F5", "F6", "F9", "F11"]
SIGN_SYMMETRIC = ["F1", "F9", "F10", "F11"]


def _random_input(fid, rng):
    s = SPECS[fid]
    return s.lower + (s.upper - s.lower) * rng.random(s.dim)


class TestRegistry:
    def test_nineteen_functions(self):
        assert FUNCTION_IDS == [f"F{i}" for i in range(1, 20)]
        assert set(SPECS) == set(FUNCTION_IDS)

    def test_family_partition(self):
        for i in range(1, 8):
            assert SPECS[f"F{i}"].family == "unimodal"
        for i in range(8, 14):
            assert SPECS[f"F{i}"].family == "multimodal"
        for i in range(14, 20):
            assert SPECS[f"F{i}"].family == "fixed-dimension"

    def test_table_metadata(self):
        f1 = SPECS["F1"]
        assert (f1.dim, f1.lower, f1.upper, f1.f_min) == (10, -100, 100, 0)
        f16 = SPECS["F16"]
        assert (f16.dim, f16.lower, f16.upper, f16.f_min) == (2, -5, 5, -1.0316285)
        f13 = make_function("F13")
        assert (f13.dim, f13.lower, f13.upper) == (30, -50, 50)

    @pytest.mark.parametrize("fid", [f for f in FUNCTION_IDS if SPECS[f].minimizer])
    def test_minimizer_lies_in_the_box(self, fid):
        # the optimizers search the box, so a minimizer outside it cannot be found
        s = SPECS[fid]
        assert all(s.lower <= v <= s.upper for v in s.minimizer), (fid, s.lower, s.upper)

    def test_only_f7_is_stochastic(self):
        assert [f for f in FUNCTION_IDS if SPECS[f].stochastic] == ["F7"]

    def test_objectives_take_x_only(self):
        # core draws F7's noise: no objective is passed the generator
        for f in FUNCTION_IDS:
            assert list(inspect.signature(SPECS[f].objective).parameters) == ["x"], f

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="unknown"):
            make_function("F99")
        with pytest.raises(KeyError, match="unknown"):
            evaluate_at("nope", [0.0])

    def test_wrong_length_rejected(self):
        # core.evaluate checks the shape, naming the problem
        with pytest.raises(ValueError, match=r"^F1: x must be \(\.\.\., dim\) for dim = 10, "
                                             r"got x\.shape = \(2,\)"):
            evaluate_at("F1", [0.0, 0.0])
        with pytest.raises(ValueError, match=r"^F1: evaluate takes one point"):
            evaluate_at("F1", np.zeros((1, 10)))

    def test_registry_problems_are_built_once(self):
        # one record per function: the registry entry is the Problem itself
        for f in FUNCTION_IDS:
            assert make_function(f) is SPECS[f]
            assert isinstance(SPECS[f], Problem)

    def test_evaluate_at_rejects_what_evaluate_rejects(self):
        # evaluate_at goes through core.evaluate: NaN and a missing RNG raise
        with pytest.raises(ValueError, match="F1: objective returned NaN"):
            evaluate_at("F1", np.full(10, np.nan))
        with pytest.raises(ValueError, match="F7 is stochastic"):
            evaluate_at("F7", np.zeros(10))


class TestKnownValues:
    @pytest.mark.parametrize("fid", CERTIFIED)
    def test_minimizer_certifies_f_min(self, fid):
        s = SPECS[fid]
        val = evaluate_at(fid, np.array(s.minimizer, dtype=float))
        assert val == pytest.approx(s.f_min, rel=1e-3, abs=1e-6)

    def test_f1_at_origin_exact(self):
        assert evaluate_at("F1", np.zeros(10)) == 0.0

    def test_f5_at_ones(self):
        assert evaluate_at("F5", np.ones(10)) == 0.0

    def test_f9_at_origin(self):
        assert evaluate_at("F9", np.zeros(10)) == 0.0

    def test_f10_at_origin(self):
        assert abs(evaluate_at("F10", np.zeros(10))) < 1e-12

    def test_f11_at_origin(self):
        assert evaluate_at("F11", np.zeros(10)) == 0.0

    def test_f16_near_canonical_minimizer(self):
        assert evaluate_at("F16", np.array([0.08984, -0.7126])) == pytest.approx(-1.0316, abs=1e-3)

    def test_f6_dim2_probe_rounds_to_zero(self):
        # dim-generic step formula probed at reduced dimension
        assert benchmarks.f6_step(np.array([0.4, -0.4])) == 0.0

    def test_f14_foxholes_canonical(self):
        assert evaluate_at("F14", np.array([-32.0, -32.0])) == pytest.approx(0.998, abs=1e-3)

    def test_f15_kowalik_canonical(self):
        x = np.array(SPECS["F15"].minimizer)
        assert evaluate_at("F15", x) == pytest.approx(0.0003075, abs=1e-4)

    @pytest.mark.filterwarnings("error:divide by zero:RuntimeWarning",
                                "error:invalid value:RuntimeWarning")
    def test_f15_poles_are_inf(self):
        # b² + b·x3 + x4 is 0 at x3 = 0, x4 = -b², inside the box for b = 1/16:
        # 0.1·b² / 0 and 0 / 0 are +inf, ranked last, for one point and rows alike
        poles = np.array([[0.1, 0.0, 0.0, -1 / 256], [0.0, 0.0, 0.0, -1 / 256]])
        assert [evaluate_at("F15", x) for x in poles] == [np.inf, np.inf]
        rows = np.vstack([poles, [SPECS["F15"].minimizer]])
        values = benchmarks.f15_kowalik(rows)
        assert values.tolist() == [np.inf, np.inf, evaluate_at("F15", rows[2])]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_f15_near_poles_warn_nothing(self):
        # den = b² + b·x3 + x4 within 2^-475 of 0 (for b = 1 here): num / den, or its
        # square, overflows to +inf or stays finite, as numpy gives it with its warnings
        # ignored, for one point and rows alike
        near = np.array([[2, 2, -1, 2.2e-308], [1, 2.2e-308, -1, 2.2e-308], [1, 0, -1, 1e-160],
                         [1, 0, -1, 1e-150], [1, 0, -1, -2.0 ** -475], [1, 0, -1, 2.0 ** -474]])
        expected = _f15_warnings_ignored(near)
        assert np.isinf(expected[:3]).all() and np.isfinite(expected[3:]).all()
        assert _bits([evaluate_at("F15", x) for x in near]).tobytes() == _bits(expected).tobytes()
        rows = np.vstack([near, [SPECS["F15"].minimizer]])
        assert _bits(benchmarks.f15_kowalik(rows)).tobytes() == \
            _bits([*expected, evaluate_at("F15", rows[-1])]).tobytes()

    def test_f19_hartmann_canonical(self):
        s = SPECS["F19"]
        assert benchmarks.f19_hartmann3(np.array(s.minimizer)) == pytest.approx(s.f_min, abs=1e-4)

    # minimisers polished with Nelder-Mead from the listed ones (F14 from the
    # foxhole near (-32, -32))
    @pytest.mark.parametrize("fid, x", [
        ("F14", (-31.9783345, -31.9783408)),
        ("F16", (0.089842, -0.7126564)),
        ("F17", (3.1415927, 2.275)),
        ("F19", (0.1146143, 0.5556489, 0.852547)),
    ])
    def test_f_min_is_a_tight_lower_bound(self, fid, x):
        f_min = SPECS[fid].f_min
        assert f_min <= evaluate_at(fid, x) < f_min + 1e-6

    def test_f8_schwefel_standard_form(self):
        # -x*sin(sqrt|x|) at the canonical minimizer, dim 30
        x = np.full(30, 420.9687)
        assert evaluate_at("F8", x) == pytest.approx(-12569.487, abs=0.1)


class TestProperties:
    @pytest.mark.parametrize("fid", NONNEGATIVE)
    def test_nonnegative(self, fid):
        rng = make_rng(7)
        for _ in range(200):
            assert evaluate_at(fid, _random_input(fid, rng)) >= 0.0

    @pytest.mark.parametrize("fid", SIGN_SYMMETRIC)
    def test_sign_flip_invariance(self, fid):
        rng = make_rng(8)
        for _ in range(100):
            x = _random_input(fid, rng)
            assert evaluate_at(fid, x) == pytest.approx(evaluate_at(fid, -x))

    def test_f7_noise_bound(self):
        rng = make_rng(11)
        for _ in range(100):
            x = _random_input("F7", rng)
            det = benchmarks.f7_quartic(x)
            v = evaluate_at("F7", x, rng=rng)
            assert det <= v <= det + 1.0

    def test_f7_is_even_bit_for_bit(self):
        # x * x rounds the same for -x as for x; numpy's pow of an array need not
        s = SPECS["F7"]
        for shape in ((s.dim,), (40, s.dim), (3, 5, s.dim)):  # a point, rows, a batch
            x = s.lower + (s.upper - s.lower) * make_rng(len(shape)).random(shape)
            assert _bits(benchmarks.f7_quartic(-x)).tobytes() == \
                _bits(benchmarks.f7_quartic(x)).tobytes(), shape

    def test_f7_deterministic_with_fixed_rng(self):
        x = np.linspace(-1, 1, 10)
        assert evaluate_at("F7", x, rng=make_rng(3)) == evaluate_at("F7", x, rng=make_rng(3))

    @given(st.lists(st.floats(-60, 60), min_size=1, max_size=9),
           st.floats(min_value=0.1, max_value=20))
    @settings(max_examples=200, deadline=None)
    def test_penalty_zero_iff_inside(self, xs, a):
        # one row per value: the penalty of each row is its own
        val = benchmarks._penalty(np.array(xs)[:, None], a)
        assert val.shape == (len(xs),)
        for x, v in zip(xs, val):
            assert (v == 0.0) if abs(x) <= a else (v > 0.0)


def _penalty_where(x, a, k):
    """The penalty with the fourth power k·(s·s), s = (|x| - a)², computed at every
    component, then masked."""
    ax = np.abs(x)
    e = ax - a
    s = e * e
    return np.add.reduce(np.where(ax > a, k * (s * s), 0.0), -1)


@pytest.mark.parametrize("a", [10.0, 5.0])  # F12's and F13's
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_penalty_equals_the_where_form(a, data):
    # the fourth power of max(|x| - a, 0) at every component: +0.0 inside ±a, the same bits
    edges = [a, -a, np.nextafter(a, 0.0), -np.nextafter(a, 99.0), 0.0, -0.0]
    shape = data.draw(st.sampled_from([(10,), (30,), (7, 10), (20, 30)]), label="shape")
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from(edges), st.floats(-50.0, 50.0))), label="x")
    assert _bits(benchmarks._penalty(x, a)).tobytes() == \
        _bits(_penalty_where(x, a, 100.0)).tobytes()


def _f15_warnings_ignored(x):
    """F15 as numpy computes it with its floating-point warnings ignored, a pole at +inf."""
    b, b2 = benchmarks._KOWALIK_B, benchmarks._KOWALIK_B2
    with np.errstate(all="ignore"):
        num = x[..., :1] * (b2 + b * x[..., 1:2])
        den = b2 + b * x[..., 2:3] + x[..., 3:]
        q = np.where(den == 0.0, np.inf, num / den)
        return np.add.reduce((benchmarks._KOWALIK_A - q) ** 2, -1)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


# F12 and F13 with the first component's sine taken apart from the others' and each
# (v - 1)² taken twice: the reference that the objectives equal bit for bit
def _f12_sines_apart(x):
    n = x.shape[-1]
    y = 1.0 + (x + 1.0) / 4.0
    first, last = y[..., 0][()], y[..., -1][()]
    s, z = np.sin(np.pi * first), last - 1.0
    core = (
        10.0 * (s * s)
        + np.add.reduce((y[..., :-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[..., 1:]) ** 2), -1)
        + z * z
    )
    return np.pi / n * core + benchmarks._penalty(x, 10.0)


def _f13_sines_apart(x):
    first, last = x[..., 0][()], x[..., -1][()]
    s, z, w = np.sin(3.0 * np.pi * first), last - 1.0, np.sin(2.0 * np.pi * last)
    core = (
        s * s
        + np.add.reduce((x[..., :-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * x[..., 1:]) ** 2), -1)
        + z * z * (1.0 + w * w)
    )
    return 0.1 * core + benchmarks._penalty(x, 5.0)


# (objective, its form with the sines apart, the penalty's a, the optimum's component)
PENALIZED = {"F12": (benchmarks.f12_penalized1, _f12_sines_apart, 10.0, -1.0),
             "F13": (benchmarks.f13_penalized2, _f13_sines_apart, 5.0, 1.0)}


def _penalized_edges(fid):
    """Components at ±a, just inside and just beyond, ±0, the optimum and the box edges."""
    _, _, a, opt = PENALIZED[fid]
    s = SPECS[fid]
    return [a, -a, np.nextafter(a, 0.0), -np.nextafter(a, 0.0), np.nextafter(a, 99.0),
            -np.nextafter(a, 99.0), 0.0, -0.0, opt, s.lower, s.upper]


@pytest.mark.parametrize("fid", PENALIZED)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_f12_f13_equal_their_sines_apart(fid, data):
    # one sine and one square per component give the same bits as before, at a
    # point (numpy scalars), for rows and for (k, n, d) batches; within ±a the
    # penalty is 0, so every bit of the rest shows
    objective, apart, a, _ = PENALIZED[fid]
    s = SPECS[fid]
    shape = data.draw(st.sampled_from([(s.dim,), (7, s.dim), (3, 4, s.dim)]), label="shape")
    reach = data.draw(st.sampled_from([a, s.upper]), label="reach")
    edges = [e for e in _penalized_edges(fid) if abs(e) <= reach]
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from(edges), st.floats(-reach, reach))), label="x")
    value, before = objective(x), apart(x)
    assert type(value) is type(before)
    assert _bits(value).tobytes() == _bits(before).tobytes()


class TestRowContract:
    """Every objective maps rows (n, d) to (n,), row i bit for bit its
    one-point value: CDDO's batched step is exact only if this holds."""

    @pytest.mark.parametrize("fid", FUNCTION_IDS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_rows_equal_points(self, fid, data):
        s = SPECS[fid]
        n = data.draw(st.sampled_from([1, 8, 9, 40]), label="n")
        x = data.draw(hnp.arrays(np.float64, (2 * n, s.dim),
                                 elements=st.floats(s.lower, s.upper)), label="x")
        pick = data.draw(st.permutations(range(2 * n)), label="pick")[:n]
        for rows in (x[:n], x, x[::2], x[pick]):  # contiguous, strided, fancy-indexed
            batch, points = s.objective(rows), [s.objective(row) for row in rows]
            assert batch.shape == (len(rows),)
            assert np.array_equal(_bits(batch), _bits(points)), fid

    @pytest.mark.parametrize("fid", FUNCTION_IDS)
    def test_fortran_ordered_rows_equal_points(self, fid):
        # numpy reduces the last axis of a Fortran-ordered array in another
        # order; evaluate_rows hands the objective C-ordered rows
        s = SPECS[fid]
        for n in (8, 9, 40):
            x = np.asfortranarray(s.lower + (s.upper - s.lower) * make_rng(n).random((n, s.dim)))
            batch_rng, point_rng = make_rng(n), make_rng(n)
            batch = evaluate_rows(s, x, batch_rng)
            points = [evaluate(s, row, point_rng) for row in x]
            assert np.array_equal(_bits(batch), _bits(points)), (fid, n)

    @pytest.mark.parametrize("fid", FUNCTION_IDS)
    def test_3d_batches_equal_points(self, fid):
        # a (k, n, d) batch of blocks of rows maps to (k, n), each value its point's
        s = SPECS[fid]
        for k, n in ((1, 1), (3, 5), (2, 40)):
            x = s.lower + (s.upper - s.lower) * make_rng(k * n).random((k, n, s.dim))
            batch = s.objective(x)
            assert batch.shape == (k, n), fid
            points = [[s.objective(row) for row in rows] for rows in x]
            assert np.array_equal(_bits(batch), _bits(points)), fid

    @given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_f7_rows_draw_as_successive_points(self, n, seed):
        x = _random_input("F7", make_rng(seed)) * np.ones((n, 1))
        batch_rng, point_rng = make_rng(seed), make_rng(seed)
        batch = evaluate_rows(SPECS["F7"], x, batch_rng)
        points = [evaluate_at("F7", row, rng=point_rng) for row in x]
        assert np.array_equal(_bits(batch), _bits(points))
        assert len(set(points)) == n  # each row drew its own noise
        assert batch_rng.random() == point_rng.random()


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_objectives_skip_numpy_reduction_dispatch(fid, monkeypatch):
    # np.sum and friends cost more in Python-level dispatch than a one-point
    # reduction costs; the objectives call the ufunc's reduce/accumulate
    def dispatched(*args, **kwargs):
        raise AssertionError("objective called a dispatching numpy reduction")

    for name in ("sum", "prod", "max", "amax", "cumsum"):
        monkeypatch.setattr(np, name, dispatched)
    s = SPECS[fid]
    rows = s.lower + (s.upper - s.lower) * make_rng(3).random((8, s.dim))
    rng = make_rng(4) if s.stochastic else None
    assert isinstance(evaluate(s, rows[0], rng), float)
    assert evaluate_rows(s, rows, rng).shape == (8,)


SRC = str(Path(__file__).resolve().parents[1] / "src")
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"  # numpy's AVX-512 kernels off
# digests of F7's, F12's, F13's and F14's values at 20000 seeded points, as a batch, as
# rows and one point at a time (under numpy's pow, about 1 in 1500 of F14's values moved
# with the dispatch, and F12's and F13's penalties moved too)
_OBJECTIVE_DIGESTS = """
import hashlib
import numpy as np
from cddohs.benchmarks import SPECS
from cddohs.core import make_rng
for fid in ("F7", "F12", "F13", "F14"):
    s = SPECS[fid]
    x = s.lower + (s.upper - s.lower) * make_rng(int(fid[1:])).random((4, 5000, s.dim))
    for layout, values in (("batch", s.objective(x)), ("rows", s.objective(x[0])),
                           ("points", [s.objective(p) for p in x[1, :200]])):
        print(fid, layout, hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest())
"""


def _python(code, disable=None):
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    # numpy refuses a feature it cannot disable with an ImportWarning
    return subprocess.run([sys.executable, "-W", "error::ImportWarning", "-c", code],
                          env=env, capture_output=True, text=True)


# F12 and F13 against their forms with the sines apart (this module's), at 20000
# seeded points, half within ±a (where the penalty is 0) and half in the box, with
# the edge components mixed in, as a batch, as rows and one point at a time, and
# the penalty of the batch against its where form; exits 1 on a difference
_PENALIZED_AGAINST_APART = f"""
import sys
import numpy as np
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from test_benchmarks import PENALIZED, SPECS, _penalized_edges, _penalty_where
from cddohs.benchmarks import _penalty
from cddohs.core import make_rng
for fid, (objective, apart, a, _) in PENALIZED.items():
    s, rng = SPECS[fid], make_rng(int(fid[1:]))
    reach = np.where(np.arange(5000) < 2500, a, s.upper)[:, None]
    x = reach * (2.0 * rng.random((4, 5000, s.dim)) - 1.0)
    edges = np.array(_penalized_edges(fid))
    pick = edges[(rng.random(x.shape) * len(edges)).astype(int)]
    mixed = (rng.random(x.shape) < 0.2) & (np.abs(pick) <= reach)
    x[mixed] = pick[mixed]
    for layout, xs in (("batch", x), ("rows", x[0]), ("points", x[1, 2400:2600])):
        if layout == "points":
            new, old = [objective(p) for p in xs], [apart(p) for p in xs]
        else:
            new, old = objective(xs), apart(xs)
        if np.asarray(new).tobytes() != np.asarray(old).tobytes():
            raise SystemExit(fid + " " + layout + " differs")
    if _penalty(x, a).tobytes() != _penalty_where(x, a, 100.0).tobytes():
        raise SystemExit(fid + " penalty differs from its where form")
"""


def test_f12_f13_equal_their_sines_apart_without_avx512():
    refused = _python("import numpy", NO_AVX512)
    if refused.returncode:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={NO_AVX512!r}: {refused.stderr.strip()}")
    proc = _python(_PENALIZED_AGAINST_APART, NO_AVX512)
    assert proc.returncode == 0, proc.stderr


def test_f7_f12_f13_and_f14_do_not_depend_on_cpu_dispatch():
    # their powers are products, which round the same under every SIMD kernel. F12 and
    # F13 also take sin: numpy 2.4.6's float64 sin, cos and sqrt moved none of 10^6
    # values with the dispatch, where exp moved 4.7% and pow 5.3%. F10 and F19 take
    # exp, so they are left out: their values still follow the dispatch.
    refused = _python("import numpy", NO_AVX512)
    if refused.returncode:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={NO_AVX512!r}: {refused.stderr.strip()}")
    default, no_avx512 = _python(_OBJECTIVE_DIGESTS), _python(_OBJECTIVE_DIGESTS, NO_AVX512)
    assert default.returncode == 0 == no_avx512.returncode, default.stderr + no_avx512.stderr
    assert default.stdout == no_avx512.stdout
