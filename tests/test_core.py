import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cddohs import core
from cddohs.benchmarks import FUNCTION_IDS, evaluate_at, make_function
from cddohs.cddo import cddo_run
from cddohs.core import (
    Archive, Problem, RunConfig, clamp, evaluate, indices, init_population, make_rng, scale,
)
from cddohs.harness import ALGORITHMS
from cddohs.hs import hs_run
from cddohs.hybrid import cddo_hs_run


def _toy(dim=3, lower=-1.0, upper=1.0):
    return Problem(id="toy", dim=dim, lower=lower, upper=upper,
                   objective=lambda x: np.sum(x * x, axis=-1))


class TestProblem:
    def test_rejects_inverted_bounds(self):
        # inverted, and not finite: an infinite box has no uniform initial draw
        for lower, upper in [(1.0, -1.0), (-math.inf, 1.0), (-1.0, math.inf),
                             (-math.inf, math.inf), (math.nan, 1.0), (-1.0, math.nan)]:
            with pytest.raises(ValueError):
                Problem(id="bad", dim=2, lower=lower, upper=upper, objective=lambda x: 0.0)


class TestRunConfig:
    def test_defaults_match_protocol(self):
        cfg = RunConfig()
        assert (cfg.pop_size, cfg.max_iters, cfg.n_runs) == (40, 500, 30)

    def test_run_seed_is_base_plus_index(self):
        cfg = RunConfig(base_seed=100)
        assert cfg.seed_for_run(0) == 100
        assert cfg.seed_for_run(7) == 107


class TestCountRule:
    """dim, pop_size, max_iters and n_runs are integers >= 1: numpy integers
    pass, floats and bools fail with an error naming the owner and the field."""

    @pytest.mark.parametrize("dim", [0, 2.5, True])
    def test_problem_dim(self, dim):
        with pytest.raises(ValueError,
                           match=f"^problem bad: dim must be an integer >= 1, got {dim}$"):
            Problem(id="bad", dim=dim, lower=0.0, upper=1.0, objective=lambda x: 0.0)

    @pytest.mark.parametrize("name, value", [("pop_size", 0), ("pop_size", 8.5),
                                             ("max_iters", True), ("n_runs", 3.0)])
    def test_run_config_counts(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^run config: {name} must be an integer >= 1, got {value}$"):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("run", [cddo_run, hs_run, cddo_hs_run])
    def test_numpy_integers_pass(self, run):
        # and are stored as Python ints, so no numpy integer reaches a seed or an artifact
        p = _toy(dim=np.int64(2))
        cfg = RunConfig(pop_size=np.int64(5), max_iters=np.int32(3), n_runs=np.int64(2),
                        base_seed=np.int64(5))
        stored = [p.dim, cfg.pop_size, cfg.max_iters, cfg.n_runs, cfg.base_seed]
        assert [type(v) for v in stored] == [int] * 5 and stored == [2, 5, 3, 2, 5]
        assert run(p, cfg).trace.shape == (3,)


class TestSeeds:
    @pytest.mark.parametrize("seed", [1.5, True])
    def test_base_seed_is_an_integer(self, seed):
        with pytest.raises(ValueError,
                           match=f"^run config: base_seed must be an integer, got {seed}$"):
            RunConfig(base_seed=seed)

    @pytest.mark.parametrize("run", [cddo_run, hs_run, cddo_hs_run])
    def test_odd_run_seed_names_the_run(self, run):
        # a negative base seed is legal (the harness replaces it with a cell
        # seed), but a run cannot start from a negative or fractional seed
        cfg = RunConfig(pop_size=5, max_iters=2, base_seed=-3)
        with pytest.raises(ValueError, match="^run 2: seed -1 is not an integer >= 0$"):
            run(_toy(), cfg, run_index=2)
        with pytest.raises(ValueError, match=r"^run 4\.5: seed 1\.5 is not an integer >= 0$"):
            run(_toy(), cfg, run_index=4.5)
        assert run(_toy(), cfg, run_index=3).seed == 0

    @pytest.mark.parametrize("algo", list(ALGORITHMS))
    def test_numpy_run_index_gives_an_int_seed(self, algo):
        # a numpy seed in a RunResult would fail json.dumps
        seed = ALGORITHMS[algo](make_function("F1"), RunConfig(pop_size=5, max_iters=2),
                                run_index=np.int64(1)).seed
        assert type(seed) is int and seed == 1


class TestClamp:
    def test_in_bounds_passthrough(self):
        p = _toy(dim=2)
        out = clamp(np.array([0.5, -0.5]), p)
        assert np.array_equal(out, [0.5, -0.5])

    def test_saturates(self):
        p = _toy(dim=2)
        out = clamp(np.array([2.0, -3.0]), p)
        assert np.array_equal(out, [1.0, -1.0])

    def test_boundary_is_fixed_point(self):
        p = Problem(id="t", dim=1, lower=1.0, upper=2.0, objective=lambda x: 0.0)
        assert np.array_equal(clamp(np.array([1.0]), p), [1.0])

    def test_is_the_clip_ufunc_bit_for_bit(self):
        # clamp calls the ufunc ndarray.clip ends in, without the method's
        # Python-level dispatch; the same bits, -0.0 included
        assert isinstance(core._clip, np.ufunc) and core._clip.__name__ == "clip"
        for lower, upper in [(-1.0, 1.0), (0.0, 1.0), (-1.0, -0.0)]:
            p = Problem(id="t", dim=3, lower=lower, upper=upper, objective=lambda x: 0.0)
            edges = [np.nextafter(lower, -2.0), lower, np.nextafter(lower, 0.5), upper,
                     np.nextafter(upper, 2.0), -2.0, 2.0, -0.0, 0.0]
            for x in (np.array(edges), np.array(edges).reshape(3, 3)):
                assert clamp(x, p).tobytes() == x.clip(lower, upper).tobytes()


class TestUniform:
    def test_degenerate_interval(self, rng):
        assert np.all(scale(rng.random(5), 3.0, 3.0) == 3.0)

    def test_sample_mean(self):
        draws = scale(make_rng(2).random(10_000), -2.0, 6.0)
        assert abs(np.mean(draws) - 2.0) < 0.1
        assert np.all((draws >= -2.0) & (draws < 6.0))

    def test_reproducible_and_distinct(self):
        va1, va2 = scale(make_rng(5).random(2), 0, 1)
        vb1, vb2 = scale(make_rng(5).random(2), 0, 1)
        assert (va1, va2) == (vb1, vb2)
        assert va1 != va2

    def test_indices_cover_the_range_evenly(self):
        got = indices(make_rng(6).random(30_000), 3)
        assert np.bincount(got).tolist() == pytest.approx([10_000] * 3, rel=0.05)
        # the largest uniform below 1 stays on the last index
        top = np.nextafter(1.0, 0.0)
        assert indices(np.array([0.0, top]), 7).tolist() == [0, 6]


class TestInitPopulation:
    def test_bounds_and_count(self, rng):
        x, f = init_population(_toy(), 5, rng)
        assert x.shape == (5, 3) and f.shape == (5,)
        assert np.all(x >= -1) and np.all(x <= 1)

    def test_deterministic(self):
        p = _toy()
        x_a, f_a = init_population(p, 5, make_rng(9))
        x_b, f_b = init_population(p, 5, make_rng(9))
        assert np.array_equal(x_a, x_b)
        assert np.array_equal(f_a, f_b)

    def test_positions_drawn_in_one_block(self):
        # the positions are the run's first n * dim uniforms; F7's noise follows
        x, _ = init_population(make_function("F7"), 4, make_rng(8))
        assert np.array_equal(x, scale(make_rng(8).random((4, 10)), -1.28, 1.28))

    def test_sphere_fitness_matches_hand_formula(self, rng):
        x, f = init_population(make_function("F1"), 40, rng)
        for pos, fit in zip(x, f):
            assert fit == pytest.approx(sum(v * v for v in pos))


def _archive(*rows):
    x = np.array(rows, dtype=float)
    return Archive(x, np.sum(x * x, axis=1))


class TestArchive:
    def test_seeded_with_best_of_population(self):
        pop = _archive([3.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 0.0])
        pm = Archive.best_of(pop.x, pop.f, 2)
        assert sorted(pm.f) == [0.25, 1.0]
        assert pm.x.shape == (2, 2)

    def test_capacity_constant_and_worst_replacement(self):
        pm = _archive([1.0, 0.0], [2.0, 0.0])
        assert pm.replace_worst(np.array([0.0, 0.5]), 0.25)
        assert pm.x.shape == (2, 2) and pm.f.shape == (2,)
        assert not pm.replace_worst(np.array([5.0, 5.0]), 50.0)
        # equal fitness does not replace
        assert not pm.replace_worst(np.zeros(2), pm.f.max())

    def test_worse_candidate_rejected(self):
        hm = _archive([0.1], [0.5])
        assert not hm.replace_worst(np.array([0.9]), 0.81)
        assert hm.x[:, 0].tolist() == [0.1, 0.5]

    def test_better_candidate_replaces_worst(self):
        hm = _archive([0.1], [0.5])
        old_worst = hm.f.max()
        assert hm.replace_worst(np.array([0.2]), 0.04)
        assert hm.f.max() <= old_worst

    def test_equal_fitness_rejected(self):
        hm = _archive([0.1], [0.5])
        w = int(np.argmax(hm.f))
        assert not hm.replace_worst(hm.x[w].copy(), hm.f[w])

    def test_best_of_keeps_input_order_among_ties(self):
        # F6-style integer fitness: rows 1 and 3 tie, and row 1 must come first
        x = np.arange(8.0).reshape(4, 2)
        pm = Archive.best_of(x, np.array([5.0, 2.0, 7.0, 2.0]), 3)
        assert pm.x[:, 0].tolist() == [2.0, 6.0, 0.0]
        assert pm.f.tolist() == [2.0, 2.0, 5.0]

    def test_replace_worst_takes_first_of_equal_worsts(self):
        pm = Archive(np.zeros((3, 2)), np.array([1.0, 4.0, 4.0]))
        assert pm.replace_worst(np.ones(2), 3.0)
        assert pm.f.tolist() == [1.0, 3.0, 4.0]
        assert pm.x[:, 0].tolist() == [0.0, 1.0, 0.0]

    def test_infinite_fitness_ranks_last(self):
        pm = Archive.best_of(np.arange(3.0)[:, None], np.array([math.inf, 1.0, 0.0]), 2)
        assert pm.f.tolist() == [0.0, 1.0]
        pm = Archive(np.zeros((2, 1)), np.array([0.0, math.inf]))
        assert pm.replace_worst(np.ones(1), 1e300)
        assert pm.f.tolist() == [0.0, 1e300]


def _nan_on_call(k):
    """A user problem that returns NaN on the k-th row it evaluates (a
    one-point call is one row)."""
    rows = itertools.count(1)

    def objective(x):
        f = np.array(np.sum(x * x, axis=-1))
        f.reshape(-1)[[next(rows) == k for _ in range(f.size)]] = math.nan
        return f

    return Problem(id="nan-at-k", dim=3, lower=-1.0, upper=1.0, objective=objective)


class TestNonFiniteObjectives:
    def test_infinity_is_kept(self):
        p = Problem(id="inf", dim=2, lower=-1.0, upper=1.0, objective=lambda x: math.inf)
        assert evaluate(p, np.zeros(2)) == math.inf

    @pytest.mark.parametrize("run", [cddo_run, hs_run, cddo_hs_run])
    def test_point_only_objective_is_rejected(self, run):
        # an objective that sums rows (n, d) into one value would give every
        # agent the same fitness
        p = Problem(id="point-only", dim=2, lower=-1.0, upper=1.0,
                    objective=lambda x: float(np.sum(x * x)))
        with pytest.raises(ValueError, match="point-only: objective returned shape"):
            run(p, RunConfig(pop_size=5, max_iters=5))

    @pytest.mark.parametrize("run", [cddo_run, hs_run, cddo_hs_run])
    @pytest.mark.parametrize("k", [1, 8])
    def test_nan_raises_naming_the_problem(self, run, k):
        # k=1 hits initialisation; k=8 (pop 5) hits the iteration loop
        with pytest.raises(ValueError, match="nan-at-k: objective returned NaN"):
            run(_nan_on_call(k), RunConfig(pop_size=5, max_iters=20))


RUNS = [cddo_run, hs_run, cddo_hs_run]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
HUGE = st.floats(min_value=2.0 ** 1022, allow_infinity=False)  # where widths can overflow
BOUNDS = st.one_of(FINITE, HUGE, HUGE.map(lambda v: -v))


@st.composite
def _boxes(draw):
    """(lower, upper) anywhere in the finite float range, lower < upper."""
    lower, upper = sorted((draw(BOUNDS), draw(BOUNDS)))
    assume(lower < upper)
    return lower, upper


def _user_problem(box, dim, objective):
    """A Problem over box, or a skipped example where the box is rejected."""
    try:
        return Problem(id="user", dim=dim, lower=box[0], upper=box[1], objective=objective)
    except ValueError:
        assume(False)


def _arctan_sum(x):
    return np.sum(np.arctan(x), axis=-1)  # finite wherever x is


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestUserProblems:
    """User-defined problems over boxes drawn from the whole finite float
    range, dims 2-5, run briefly by every optimiser. Near the ends of that
    range a move can overflow; clamping takes it back into the box."""

    CONFIG = dict(pop_size=6, max_iters=8)

    @given(box=_boxes())
    def test_rejected_exactly_when_the_width_overflows(self, box):
        lower, upper = box
        if math.isfinite(upper - lower):
            Problem(id="user", dim=2, lower=lower, upper=upper, objective=_arctan_sum)
        else:
            with pytest.raises(ValueError, match="width"):
                Problem(id="user", dim=2, lower=lower, upper=upper, objective=_arctan_sum)

    @pytest.mark.parametrize("run", RUNS)
    @given(box=_boxes(), dim=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_best_lies_in_the_box(self, run, box, dim, seed):
        p = _user_problem(box, dim, _arctan_sum)
        r = run(p, RunConfig(**self.CONFIG, base_seed=seed))
        assert r.best_position.shape == (dim,)
        assert np.all((p.lower <= r.best_position) & (r.best_position <= p.upper))
        assert r.best_fitness == evaluate(p, r.best_position)

    @pytest.mark.parametrize("run, seed", [(cddo_run, 34), (cddo_hs_run, 103)])
    def test_overflowing_golden_ratio_stays_in_the_box(self, run, seed):
        # agents clamped to 0 meet golden ratios that overflow; inf * 0 was a
        # NaN position, reported as a NaN objective
        p = Problem(id="user", dim=3, lower=0.0, upper=1.5e308, objective=_arctan_sum)
        r = run(p, RunConfig(pop_size=10, max_iters=30, base_seed=seed))
        assert np.all((p.lower <= r.best_position) & (r.best_position <= p.upper))

    @pytest.mark.parametrize("run", RUNS)
    @given(box=_boxes(), dim=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_infinite_objective_completes(self, run, box, dim, seed):
        p = _user_problem(box, dim, lambda x: np.full(x.shape[:-1], math.inf))
        r = run(p, RunConfig(**self.CONFIG, base_seed=seed))
        assert r.best_fitness == math.inf
        assert np.all((p.lower <= r.best_position) & (r.best_position <= p.upper))

    @pytest.mark.parametrize("run", RUNS)
    @given(box=_boxes(), dim=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_nan_objective_raises_naming_the_problem(self, run, box, dim, seed):
        p = _user_problem(box, dim, lambda x: np.full(x.shape[:-1], math.nan))
        with pytest.raises(ValueError, match="user: objective returned NaN"):
            run(p, RunConfig(**self.CONFIG, base_seed=seed))


COUNTERS = ("skill", "creativity", "rest", "pm_replacements", "refresh_accepts", "hm_accepts")


@pytest.mark.parametrize("func", FUNCTION_IDS)
@pytest.mark.parametrize("run", RUNS, ids=lambda f: f.__name__)
def test_run_counters_add_up(run, func):
    """The run contract of every optimiser on every registry function."""
    cfg = RunConfig(pop_size=10, max_iters=20, base_seed=7)
    p = make_function(func)
    r = run(p, cfg)
    again = run(p, cfg)
    for name in ("trace", "best_position", "best_fitness", "evals", *COUNTERS):
        assert np.array_equal(getattr(again, name), getattr(r, name)), name
    assert len(r.trace) == cfg.max_iters
    assert np.all(np.diff(r.trace) <= 0) and r.trace[-1] == r.best_fitness
    assert np.all((p.lower <= r.best_position) & (r.best_position <= p.upper))
    assert all(getattr(r, name) >= 0 for name in COUNTERS)
    if func != "F7":  # F7 draws fresh noise at every evaluation
        assert evaluate_at(func, r.best_position) == r.best_fitness
    agent_steps = r.skill + r.creativity + r.rest
    if run is hs_run:
        assert agent_steps == r.pm_replacements == r.refresh_accepts == 0
        assert r.evals == cfg.pop_size + cfg.max_iters
        assert 0 <= r.hm_accepts <= cfg.max_iters
        return
    refreshes = cfg.max_iters if run is cddo_hs_run else 0
    assert agent_steps == cfg.pop_size * cfg.max_iters
    assert r.evals == cfg.pop_size + r.skill + r.creativity + refreshes
    assert 0 <= r.pm_replacements <= cfg.max_iters
    assert 0 <= r.refresh_accepts <= refreshes
    assert r.hm_accepts == 0


@pytest.mark.parametrize("run", [cddo_run, cddo_hs_run], ids=lambda f: f.__name__)
def test_f19_agents_rest(run):
    """Agents that stop moving (ROADMAP item 3), stated with the rest counter.

    On F19 (Hartmann-3 on [1, 3]^3) the skill move pushes agents to the upper
    corner, where they rest for the rest of the run: CDDO and the hybrid rest
    in 99.6% of agent steps (CDDO makes 124 evaluations in 500 iterations),
    against 48% and 46% on F12. A fix for F19 changes these shares and must
    update this test.
    """
    cfg = RunConfig(pop_size=40, max_iters=500, base_seed=2023)
    for func, low, high in (("F19", 0.99, 1.0), ("F12", 0.0, 0.6)):
        r = run(make_function(func), cfg)
        share = r.rest / (r.skill + r.creativity + r.rest)
        assert low < share <= high, (func, share)


# best_fitness and evals of a short fixed-seed run: any change to the order or
# number of random draws, or to the floats of an update rule, moves them.
STREAM_PIN = {
    (cddo_run, "F7"): (0.07306714269726695, 119),
    (cddo_run, "F16"): (-0.977700072916351, 149),
    (hs_run, "F7"): (9.700364832860647, 35),
    (hs_run, "F16"): (-0.6451902127268643, 35),
    (cddo_hs_run, "F7"): (0.007278046441328323, 154),
    (cddo_hs_run, "F16"): (-1.0152796138004152, 178),
}


@pytest.mark.parametrize("run, func", list(STREAM_PIN), ids=lambda v: getattr(v, "__name__", v))
def test_rng_stream_pin(run, func):
    best, evals = STREAM_PIN[(run, func)]
    r = run(make_function(func), RunConfig(pop_size=10, max_iters=25, base_seed=2023))
    assert r.best_fitness == pytest.approx(best, rel=1e-12)
    assert r.evals == evals
