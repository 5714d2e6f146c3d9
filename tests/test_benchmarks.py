import inspect

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
        with pytest.raises(ValueError, match="length-10"):
            evaluate_at("F1", [0.0, 0.0])

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

    def test_f7_deterministic_with_fixed_rng(self):
        x = np.linspace(-1, 1, 10)
        assert evaluate_at("F7", x, rng=make_rng(3)) == evaluate_at("F7", x, rng=make_rng(3))

    @given(st.lists(st.floats(-60, 60), min_size=1, max_size=9),
           st.floats(min_value=0.1, max_value=20))
    @settings(max_examples=200, deadline=None)
    def test_penalty_zero_iff_inside(self, xs, a):
        # one row per value: the penalty of each row is its own
        val = benchmarks._penalty(np.array(xs)[:, None], a, 100.0, 4.0)
        assert val.shape == (len(xs),)
        for x, v in zip(xs, val):
            assert (v == 0.0) if abs(x) <= a else (v > 0.0)


def _penalty_where(x, a, k, m):
    """The penalty with the power computed at every component, then masked."""
    ax = np.abs(x)
    return np.add.reduce(np.where(ax > a, k * (ax - a) ** m, 0.0), -1)


@pytest.mark.parametrize("a", [10.0, 5.0])  # F12's and F13's
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_penalty_equals_the_where_form(a, data):
    # the power is computed only where it is kept; the result is the same bits
    edges = [a, -a, np.nextafter(a, 0.0), -np.nextafter(a, 99.0), 0.0, -0.0]
    shape = data.draw(st.sampled_from([(10,), (30,), (7, 10), (20, 30)]), label="shape")
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from(edges), st.floats(-50.0, 50.0))), label="x")
    assert _bits(benchmarks._penalty(x, a, 100.0, 4.0)).tobytes() == \
        _bits(_penalty_where(x, a, 100.0, 4.0)).tobytes()


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


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
