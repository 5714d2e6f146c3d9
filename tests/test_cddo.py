import numpy as np
import pytest

from cddohs import cddo as cddo_mod
from cddohs.benchmarks import make_function
from cddohs.cddo import (
    PHI, cddo_run, cddo_step,
    creativity_update, golden_ratio, init_state, random_hand_pressure,
    select_hand_pressure, skill_update,
)
from cddohs.core import Problem, RunConfig, make_rng


class ScriptedRng:
    """Returns queued integers; random() falls back to a real generator."""

    def __init__(self, integers, seed=0):
        self._queue = list(integers)
        self._rng = make_rng(seed)

    def integers(self, *a, **kw):
        return self._queue.pop(0)

    def random(self, *a, **kw):
        return self._rng.random(*a, **kw)


def _problem(dim=2, lower=-10.0, upper=10.0):
    return Problem(id="t", dim=dim, lower=lower, upper=upper,
                   objective=lambda x: float(np.sum(x * x)))


def _cand(*vals):
    return np.array(vals, dtype=float)


class TestHandPressure:
    def test_rhp_within_bounds(self, rng):
        p = _problem(lower=-100, upper=100)
        for _ in range(50):
            assert -100 <= random_hand_pressure(p, rng) <= 100

    def test_rhp_reproducible(self):
        p = _problem()
        assert random_hand_pressure(p, make_rng(4)) == random_hand_pressure(p, make_rng(4))

    def test_hp_single_dim_forced(self):
        c = _cand(7.0)
        assert select_hand_pressure(c, make_rng(0)) == 7.0

    def test_hp_uniform_over_components(self):
        c = _cand(1.0, 2.0, 3.0)
        rng = make_rng(21)
        draws = [select_hand_pressure(c, rng) for _ in range(3000)]
        for v in (1.0, 2.0, 3.0):
            assert abs(draws.count(v) / 3000 - 1 / 3) < 0.05


class TestGoldenRatio:
    def test_golden_proportion(self):
        c = _cand(1.0, 0.618)
        # M=0, N raw draw 0 -> bumped to 1
        assert golden_ratio(c, ScriptedRng([0, 0])) == pytest.approx(1.618)

    def test_equal_values_distinct_indices(self):
        c = _cand(2.0, 2.0)
        assert golden_ratio(c, ScriptedRng([0, 0])) == 2.0

    def test_opposite_values(self):
        c = _cand(-1.0, 1.0)
        assert golden_ratio(c, ScriptedRng([0, 0])) == 0.0

    def test_zero_denominator_resampled_then_phi(self):
        c = _cand(0.0, 5.0)
        # both attempts pick M=0 (zero denominator) -> sentinel phi
        assert golden_ratio(c, ScriptedRng([0, 0, 0, 0])) == PHI
        # first attempt zero, second picks M=1 -> (5 + 0) / 5 = 1
        assert golden_ratio(c, ScriptedRng([0, 0, 1, 0])) == 1.0

    def test_requires_two_dims(self):
        with pytest.raises(ValueError):
            golden_ratio(_cand(1.0), make_rng(0))


class TestSkillUpdate:
    def test_converged_agent_with_zero_gr_goes_to_origin(self):
        p = _problem()
        c = _cand(3.0, -2.0)
        out = skill_update(c, c, c, gr=0.0, sr=0.9, lr=0.9, problem=p)
        assert np.array_equal(out, [0.0, 0.0])

    def test_hand_evaluation(self):
        p = _problem(dim=1)
        out = skill_update(_cand(0.0), _cand(1.0), _cand(2.0),
                           gr=1.6, sr=1.0, lr=1.0, problem=p)
        # 1.6 * 0 + 1 * (1 - 0) + 1 * (2 - 0)
        assert out == pytest.approx([3.0])

    def test_pure_scaling_when_rates_zero(self):
        p = _problem(dim=2, lower=-5, upper=5)
        out = skill_update(_cand(1.0, 2.0), _cand(0.0, 0.0), _cand(0.0, 0.0),
                           gr=1.618, sr=0.0, lr=0.0, problem=p)
        assert out == pytest.approx([1.618, 3.236])

    def test_clamped(self):
        p = _problem(dim=1, lower=-1, upper=1)
        out = skill_update(_cand(1.0), _cand(1.0), _cand(1.0),
                           gr=5.0, sr=0.5, lr=0.5, problem=p)
        assert out == pytest.approx([1.0])


class TestCreativityUpdate:
    def test_zero_rate_copies_entry(self):
        p = _problem()
        out = creativity_update(_cand(1.0, -1.0), _cand(5.0, 5.0), sr=0.0, problem=p)
        assert np.array_equal(out, [1.0, -1.0])

    def test_hand_evaluation(self):
        p = _problem()
        out = creativity_update(_cand(1.0, 1.0), _cand(2.0, 4.0), sr=0.5, problem=p)
        assert out == pytest.approx([2.0, 3.0])

    def test_saturates(self):
        p = _problem(dim=1)
        out = creativity_update(_cand(9.0), _cand(9.0), sr=0.5, problem=p)
        assert out == pytest.approx([10.0])


class TestCddoStep:
    def test_gbest_monotone_one_step(self):
        p = make_function("F1")
        cfg = RunConfig(pop_size=40, base_seed=5)
        rng = make_rng(5)
        state = init_state(p, cfg, 8, rng)
        before = state.gbest_f
        cddo_step(state, p, rng)
        assert state.gbest_f <= before

    def test_branch_exclusivity_via_eval_count(self, monkeypatch):
        p = make_function("F1")
        cfg = RunConfig(pop_size=40, base_seed=5)
        rng = make_rng(5)
        state = init_state(p, cfg, 8, rng)
        counts = {"skill": 0, "creat": 0}
        real_skill, real_creat = skill_update, creativity_update

        def spy_skill(*a, **kw):
            counts["skill"] += 1
            return real_skill(*a, **kw)

        def spy_creat(*a, **kw):
            counts["creat"] += 1
            return real_creat(*a, **kw)

        monkeypatch.setattr(cddo_mod, "skill_update", spy_skill)
        monkeypatch.setattr(cddo_mod, "creativity_update", spy_creat)
        before = state.evals
        cddo_step(state, p, rng)
        updates = counts["skill"] + counts["creat"]
        assert updates <= cfg.pop_size
        assert state.evals - before == updates  # one evaluation per updated agent

    def test_sr_lr_interval_discipline(self, monkeypatch):
        p = make_function("F9")
        cfg = RunConfig(pop_size=40, max_iters=30, base_seed=3)
        calls = []
        real_uniform = cddo_mod.uniform

        def spy(rng, lo, hi):
            calls.append((lo, hi))
            return real_uniform(rng, lo, hi)

        monkeypatch.setattr(cddo_mod, "uniform", spy)
        cddo_run(p, cfg)
        intervals = set(calls)
        assert intervals <= {(p.lower, p.upper), (0.6, 1.0), (0.0, 0.5)}
        assert (0.6, 1.0) in intervals  # skill branch fired
        assert (p.lower, p.upper) in intervals  # rhp draws


class TestCddoRun:
    def test_deterministic(self):
        p = make_function("F11")
        cfg = RunConfig(pop_size=20, max_iters=60, base_seed=77)
        a = cddo_run(p, cfg)
        b = cddo_run(p, cfg)
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.best_position, b.best_position)
        assert a.evals == b.evals

    def test_trace_monotone_and_consistent(self):
        p = make_function("F9")
        cfg = RunConfig(pop_size=20, max_iters=80, base_seed=1)
        r = cddo_run(p, cfg)
        assert np.all(np.diff(r.trace) <= 0)
        assert r.best_fitness == r.trace[-1]
        assert len(r.trace) == cfg.max_iters

    def test_nonnegative_objective_stays_nonnegative(self):
        r = cddo_run(make_function("F11"), RunConfig(pop_size=20, max_iters=50, base_seed=2))
        assert r.best_fitness >= 0.0

    def test_eval_budget(self):
        cfg = RunConfig(pop_size=15, max_iters=40, base_seed=9)
        r = cddo_run(make_function("F1"), cfg)
        assert r.evals <= cfg.pop_size * (cfg.max_iters + 1)
        assert r.evals >= cfg.pop_size

    def test_bound_containment_every_iteration(self):
        p = make_function("F16")
        cfg = RunConfig(pop_size=10, base_seed=4)
        rng = make_rng(4)
        state = init_state(p, cfg, 2, rng)
        for _ in range(50):
            cddo_step(state, p, rng)
            for x in state.x + state.lbest_x + list(state.pm.x) + [state.gbest_x]:
                assert np.all(x >= p.lower) and np.all(x <= p.upper)

    def test_pm_elitism_and_coherence(self):
        p = make_function("F10")
        cfg = RunConfig(pop_size=20, base_seed=6)
        rng = make_rng(6)
        state = init_state(p, cfg, 4, rng)
        prev_pm_best = state.pm.f.min()
        for _ in range(40):
            cddo_step(state, p, rng)
            assert state.pm.f.min() <= prev_pm_best
            prev_pm_best = state.pm.f.min()
            assert state.gbest_f == min(state.lbest_f)

    def test_pm_default_size_is_20_percent(self, monkeypatch):
        sizes = []
        real_init_state = cddo_mod.init_state

        def spy(problem, config, pm_size, rng):
            sizes.append(pm_size)
            return real_init_state(problem, config, pm_size, rng)

        monkeypatch.setattr(cddo_mod, "init_state", spy)
        cddo_run(make_function("F1"), RunConfig(pop_size=40, max_iters=1))
        assert sizes == [8]

    def test_rejects_dim_one(self):
        p = Problem(id="d1", dim=1, lower=-1, upper=1, objective=lambda x: float(x[0] ** 2))
        with pytest.raises(ValueError, match="dim >= 2"):
            cddo_run(p, RunConfig(pop_size=5, max_iters=5))
