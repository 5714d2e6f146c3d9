import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cddohs import cddo as cddo_mod
from cddohs import core, hs, hybrid
from cddohs.benchmarks import FUNCTION_IDS, make_function
from cddohs.cddo import (
    BLOCK, GR_TOLERANCE, N_UNIFORMS, PHI, SR_LR_HIGH, SR_LR_LOW, U_GR, U_HP, U_RHP, CddoState,
    cddo_run, cddo_step, choices, creativity_update, golden_ratio, init_state, skill_update,
)
from cddohs.core import Archive, Problem, RunConfig, clamp, evaluate, make_rng
from cddohs.hybrid import cddo_hs_run


def _problem(dim=2, lower=-10.0, upper=10.0):
    return Problem(id="t", dim=dim, lower=lower, upper=upper,
                   objective=lambda x: np.sum(x * x, axis=-1))


def _cand(*vals):
    return np.array(vals, dtype=float)


def _draws(u, problem, pm_size=1):
    """The choices of one iteration from its (P, 8) block of uniforms."""
    return choices(np.asarray(u, dtype=float)[None], pm_size, problem)


def _hand_pressures(x, u, problem):
    """(HP, RHP) per agent of x (P, d) from the iteration's block u (P, 8)."""
    draws = _draws(u, problem)
    return x.ravel()[draws.gather[0, :, 0]], draws.coef[0, :, 0]


def _golden_ratios(x, u):
    """golden_ratio of each row of x (P, d >= 2) with its index uniforms u (P, 4):
    M1, N1, M2, N2, gathered as a step gathers them."""
    block = np.zeros((len(x), N_UNIFORMS))
    block[:, U_GR] = u
    g = x.ravel()[_draws(block, _problem(dim=x.shape[1])).gather[0]]
    return golden_ratio(g[:, 1::2], g[:, 2::2])


def _gr(x, *u):
    """golden_ratio of the single row x with the index uniforms u (M1, N1, M2, N2)."""
    return _golden_ratios(np.array([x], dtype=float), np.array([u], dtype=float))[0]


def _move(update, gbest, problem):
    """The candidate clamp(A + B * (gbest - X)) of a move's (A, B, X)."""
    a, b, x = update
    return clamp(a + b * (gbest - x), problem)


def _skill(x, lbest, gbest, gr, sr, lr, problem):
    return _move(skill_update(x, lbest, gr, sr, lr), gbest, problem)


def _creativity(pm_entry, gbest, sr, problem):
    return _move(creativity_update(pm_entry, sr), gbest, problem)


def _step(state, problem, rng):
    """cddo_step from one iteration's draws: the (P, 8) block reference_step reads."""
    u = rng.random((len(state.x), N_UNIFORMS))
    cddo_step(state, problem, _draws(u, problem, len(state.pm.f)), 0, rng)


def reference_refresh(state, problem, rng):
    """The hybrid's refresh from one improvisation's (4, d) draws, booked as
    the engine books it: one evaluation, its acceptance, and gbest."""
    kept, position, fitness = hs.iterate(state.pm, problem,
                                         hs.draw(rng, 1, len(state.pm.f), problem), 0, rng)
    state.evals += 1
    state.refresh_accepts += kept
    if fitness < state.gbest_f:
        state.gbest_x, state.gbest_f = position, fitness


class TestHandPressure:
    def test_rhp_within_bounds(self, rng):
        p = _problem(lower=-100, upper=100)
        x = np.zeros((50, 2))
        _, rhp = _hand_pressures(x, rng.random((50, N_UNIFORMS)), p)
        assert np.all((rhp >= -100) & (rhp < 100))
        # the ends of [0, 1) map onto the ends of the box
        u = np.zeros((2, N_UNIFORMS))
        u[1, U_RHP] = np.nextafter(1.0, 0.0)
        _, rhp = _hand_pressures(x[:2], u, p)
        assert rhp[0] == -100.0 and rhp[1] == pytest.approx(100.0)

    def test_rhp_reproducible(self):
        p = _problem()
        x = np.zeros((2, 2))
        a = _hand_pressures(x, make_rng(4).random((2, N_UNIFORMS)), p)[1]
        b = _hand_pressures(x, make_rng(4).random((2, N_UNIFORMS)), p)[1]
        assert np.array_equal(a, b)
        assert a[0] != a[1]  # each agent has its own draw

    def test_hp_single_dim_forced(self):
        # one component: whatever the draw, HP is that component
        hp, _ = _hand_pressures(np.full((3, 1), 7.0), make_rng(0).random((3, N_UNIFORMS)),
                                _problem(dim=1))
        assert hp.tolist() == [7.0, 7.0, 7.0]

    def test_hp_uniform_over_components(self):
        x = np.tile(_cand(1.0, 2.0, 3.0), (3000, 1))
        hp, _ = _hand_pressures(x, make_rng(21).random((3000, N_UNIFORMS)), _problem(dim=3))
        for v in (1.0, 2.0, 3.0):
            assert abs(np.mean(hp == v) - 1 / 3) < 0.05
        # the top of [0, 1) stays on the last component
        u = np.full((1, N_UNIFORMS), np.nextafter(1.0, 0.0))
        assert _hand_pressures(x[:1], u, _problem(dim=3))[0][0] == 3.0


def _gather_apart(u, d):
    """The gather indices of choices(u) as once built: HP, the M's and the N's
    each from their own indices() call, N shifted past M, then M, M', N, N'
    joined; returned in choices' column order HP, M, N, M', N'."""
    row = np.arange(u.shape[1]) * d
    mn = u[..., U_GR]
    m = core.indices(mn[..., 0::2], d)
    n = core.indices(mn[..., 1::2], d - 1)
    n += n >= m
    hp = core.indices(u[..., U_HP], d) + row
    mn = np.concatenate([m, n], axis=-1) + row[:, None]
    return np.concatenate([hp[..., None], mn[..., [0, 2, 1, 3]]], axis=-1)


@pytest.mark.parametrize("d", [2, 3, 10, 30])
def test_gather_equals_the_indices_apart(d):
    # one indices() call over the five columns gives the indices of five calls
    rng = make_rng(d)
    u = rng.random((7, 40, N_UNIFORMS))
    u[0, :, U_HP:U_GR.stop] = np.nextafter(1.0, 0.0)  # the top of [0, 1): the last index
    u[1, :, U_HP:U_GR.stop] = 0.0
    gather = choices(u, 8, _problem(dim=d)).gather
    assert gather.shape == (7, 40, 5)
    assert np.array_equal(gather, _gather_apart(u, d))


class TestGoldenRatio:
    def test_golden_proportion(self):
        # M = 0; N's raw index 0 is bumped past M to 1
        assert _gr([1.0, 0.618], 0.0, 0.0, 0.0, 0.0) == pytest.approx(1.618)
        # M = 1 (u = 0.5 of two), N = 0 (below M, kept)
        assert _gr([0.618, 1.0], 0.5, 0.0, 0.0, 0.0) == pytest.approx(1.618)

    def test_equal_values_distinct_indices(self):
        assert _gr([2.0, 2.0], 0.0, 0.0, 0.0, 0.0) == 2.0
        # N is never M: with M = 0, (3 + 3) / 3 = 2 never occurs
        ratios = {_gr([3.0, 0.0, 6.0], 0.0, un, 0.0, 0.0) for un in np.linspace(0, 0.999, 50)}
        assert ratios == {1.0, 3.0}

    def test_opposite_values(self):
        assert _gr([-1.0, 1.0], 0.0, 0.0, 0.0, 0.0) == 0.0

    def test_zero_denominator_resampled_then_phi(self):
        # both draws pick M=0 (zero denominator) -> sentinel phi
        assert _gr([0.0, 5.0], 0.0, 0.0, 0.0, 0.0) == PHI
        # first draw zero, second picks M=1 -> (5 + 0) / 5 = 1
        assert _gr([0.0, 5.0], 0.0, 0.0, 0.5, 0.0) == 1.0
        # a first draw with a denominator is kept, whatever the second's
        assert _gr([5.0, 0.0], 0.0, 0.0, 0.5, 0.0) == 1.0
        # the retry is per row: other rows keep their first draw
        x = np.array([[0.0, 5.0], [2.0, 2.0], [0.0, 0.0]])
        u = np.tile([0.0, 0.0, 0.5, 0.0], (3, 1))
        assert _golden_ratios(x, u).tolist() == [1.0, 2.0, PHI]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_is_phi(self):
        # (x[M] + x[N]) / x[M] overflows for a tiny x[M] or a sum beyond the float range
        assert _gr([1e-300, 1e300, 0.0], 0.0, 0.0, 0.0, 0.0) == PHI
        assert _gr([-1e307, -1e307], 0.0, 0.0, 0.0, 0.0) == 2.0
        assert _gr([1.5e308, 1.5e308], 0.0, 0.0, 0.0, 0.0) == PHI

    @staticmethod
    def _masked(xm, xn):
        """The ratio with both draws always divided: golden_ratio's general path."""
        nonzero = xm != 0.0
        ratios = np.full(xm.shape, PHI)
        np.divide(xm + xn, xm, out=ratios, where=nonzero)
        gr = np.where(nonzero[:, 0], ratios[:, 0], ratios[:, 1])
        gr[np.isinf(gr)] = PHI
        return gr

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(4)),
                      elements=st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1.5e308, 1.5e308]),
                                         st.floats(-1e308, 1e308))))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_masked_ratio(self, xmn):
        # a block whose first denominators are all nonzero takes one plain divide
        xm, xn = xmn[:, :2], xmn[:, 2:]
        assert golden_ratio(xm, xn).tobytes() == self._masked(xm, xn).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_both_paths_equal_the_masked_ratio(self):
        xm = np.array([[1e-300, 3.0], [2.0, 0.0], [-4.0, 1.0], [-0.0, 5.0], [0.0, 0.0]])
        xn = np.array([[1e300, 1.0], [3.0, 1.0], [1.0, 2.0], [7.0, 2.0], [1.0, 1.0]])
        for rows in (slice(0, 3), slice(0, 5)):  # without and with a zero first denominator
            gr = golden_ratio(xm[rows], xn[rows])
            assert gr.tobytes() == self._masked(xm[rows], xn[rows]).tobytes()
        assert gr.tolist() == [PHI, 2.5, 0.75, 1.4, PHI]  # the first overflows to inf


class TestSkillUpdate:
    def test_converged_agent_with_zero_gr_goes_to_origin(self):
        p = _problem()
        c = _cand(3.0, -2.0)
        out = _skill(c, c, c, gr=0.0, sr=0.9, lr=0.9, problem=p)
        assert np.array_equal(out, [0.0, 0.0])

    def test_hand_evaluation(self):
        p = _problem(dim=1)
        out = _skill(_cand(0.0), _cand(1.0), _cand(2.0),
                     gr=1.6, sr=1.0, lr=1.0, problem=p)
        # 1.6 * 0 + 1 * (1 - 0) + 1 * (2 - 0)
        assert out == pytest.approx([3.0])

    def test_pure_scaling_when_rates_zero(self):
        p = _problem(dim=2, lower=-5, upper=5)
        out = _skill(_cand(1.0, 2.0), _cand(0.0, 0.0), _cand(0.0, 0.0),
                     gr=1.618, sr=0.0, lr=0.0, problem=p)
        assert out == pytest.approx([1.618, 3.236])

    def test_clamped(self):
        p = _problem(dim=1, lower=-1, upper=1)
        out = _skill(_cand(1.0), _cand(1.0), _cand(1.0),
                     gr=5.0, sr=0.5, lr=0.5, problem=p)
        assert out == pytest.approx([1.0])


class TestCreativityUpdate:
    def test_zero_rate_copies_entry(self):
        p = _problem()
        out = _creativity(_cand(1.0, -1.0), _cand(5.0, 5.0), sr=0.0, problem=p)
        assert np.array_equal(out, [1.0, -1.0])

    def test_hand_evaluation(self):
        p = _problem()
        out = _creativity(_cand(1.0, 1.0), _cand(2.0, 4.0), sr=0.5, problem=p)
        assert out == pytest.approx([2.0, 3.0])

    def test_saturates(self):
        p = _problem(dim=1)
        out = _creativity(_cand(9.0), _cand(9.0), sr=0.5, problem=p)
        assert out == pytest.approx([10.0])


class BlockRng:
    """Hands out the given blocks of uniforms, one per random() call."""

    def __init__(self, *blocks):
        self._blocks = [np.array(b, dtype=float) for b in blocks]

    def random(self, size):
        block = self._blocks.pop(0)
        assert block.shape == size
        return block


def reference_step(state, problem, rng):
    """The agent-by-agent loop, in scalar arithmetic, reading each agent's
    draws from its row of the iteration's (P, 8) block of uniforms."""
    lo, hi, d, k = problem.lower, problem.upper, problem.dim, len(state.pm.f)

    def uniform(u, interval):
        return interval[0] + (interval[1] - interval[0]) * u

    def index(u, n):
        return min(int(u * n), n - 1)

    u = rng.random((len(state.x), N_UNIFORMS))
    for i, row in enumerate(u):
        x = state.x[i]
        rhp = uniform(row[0], (lo, hi))
        hp = x[index(row[1], d)]
        gr = PHI
        for a in (2, 4):
            m, n = index(row[a], d), index(row[a + 1], d - 1)
            if n >= m:
                n += 1
            if x[m] != 0.0:
                gr = (x[m] + x[n]) / x[m]
                gr = gr if math.isfinite(gr) else PHI
                break
        if hp < rhp:
            sr, lr = uniform(row[6], SR_LR_HIGH), uniform(row[7], SR_LR_HIGH)
            new = gr * x + sr * (state.lbest_x[i] - x) + lr * (state.gbest_x - x)
            state.skill += 1
        elif abs(gr - PHI) <= GR_TOLERANCE:
            sr = uniform(row[6], SR_LR_LOW)
            new = state.pm.x[index(row[7], k)] + sr * state.gbest_x
            state.creativity += 1
        else:
            state.rest += 1
            continue
        new = np.clip(new, lo, hi)
        fit = evaluate(problem, new, rng)
        state.evals += 1
        state.x[i] = new
        if fit < state.lbest_f[i]:
            state.lbest_x[i], state.lbest_f[i] = new, fit
        if fit < state.gbest_f:
            state.gbest_x, state.gbest_f = new, fit
    state.pm_replacements += state.pm.replace_worst(state.gbest_x, state.gbest_f)


def reference_run(problem, config, pm_fraction, refresh=None):
    """Run 0 of the engine one iteration at a time: refresh(state, problem, rng),
    if given, then one step from its own draws; (state, trace)."""
    rng = make_rng(config.seed_for_run(0))
    state = init_state(problem, config, math.ceil(pm_fraction * config.pop_size), rng)
    trace = np.empty(config.max_iters)
    for t in range(config.max_iters):
        if refresh is not None:
            refresh(state, problem, rng)
        _step(state, problem, rng)
        trace[t] = state.gbest_f
    return state, trace


def _copy(state):
    return CddoState(state.x.copy(), state.lbest_x.copy(), state.lbest_f.copy(),
                     state.gbest_x.copy(), state.gbest_f,
                     Archive(state.pm.x.copy(), state.pm.f.copy()), state.evals)


def _assert_same(a, b):
    for field in ("x", "lbest_x", "lbest_f", "gbest_x", "gbest_f", "evals", "skill",
                  "creativity", "rest", "pm_replacements", "refresh_accepts"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert np.array_equal(a.pm.x, b.pm.x) and np.array_equal(a.pm.f, b.pm.f)


class TestCddoStep:
    def test_gbest_monotone_one_step(self):
        p = make_function("F1")
        cfg = RunConfig(pop_size=40, base_seed=5)
        rng = make_rng(5)
        state = init_state(p, cfg, 8, rng)
        before = state.gbest_f
        _step(state, p, rng)
        assert state.gbest_f <= before

    def test_branch_exclusivity_via_eval_count(self):
        p = make_function("F1")
        cfg = RunConfig(pop_size=40, base_seed=5)
        rng = make_rng(5)
        state = init_state(p, cfg, 8, rng)
        for _ in range(5):
            before = (state.evals, state.skill, state.creativity, state.rest)
            _step(state, p, rng)
            evals, skill, creativity, rest = (
                now - was for now, was in zip(
                    (state.evals, state.skill, state.creativity, state.rest), before))
            assert skill + creativity + rest == cfg.pop_size  # one branch per agent
            assert evals == skill + creativity  # one evaluation per updated agent
            assert skill > 0

    def test_resting_step_makes_no_objective_call(self):
        calls = []
        p = Problem(id="t", dim=2, lower=-10.0, upper=10.0, objective=calls.append,
                    stochastic=True)
        x = np.ones((5, 2))  # every golden ratio is (1 + 1) / 1 = 2, outside phi's tolerance
        state = CddoState(x, x.copy(), np.full(5, 2.0), x[0].copy(), 2.0,
                          Archive(x[:1].copy(), np.array([2.0])), evals=5)
        u = np.zeros((5, N_UNIFORMS))  # RHP at the lower bound: no agent takes the skill branch
        rng = make_rng(0)
        cddo_step(state, p, _draws(u, p), 0, rng)
        assert calls == []
        assert (state.rest, state.skill, state.creativity, state.evals) == (5, 0, 0, 5)
        assert np.array_equal(state.x, np.ones((5, 2)))
        assert rng.random() == make_rng(0).random()  # no noise was drawn

    def test_sr_lr_interval_discipline(self, monkeypatch):
        p = make_function("F9")
        cfg = RunConfig(pop_size=40, max_iters=30, base_seed=3)
        skill_rates, creativity_rates = [], []
        real_skill, real_creat = skill_update, creativity_update

        def spy_skill(x, lbest, gr, sr, lr):
            skill_rates.append(np.concatenate([sr, lr]))
            return real_skill(x, lbest, gr, sr, lr)

        def spy_creat(entry, sr):
            creativity_rates.append(sr)
            return real_creat(entry, sr)

        monkeypatch.setattr(cddo_mod, "skill_update", spy_skill)
        monkeypatch.setattr(cddo_mod, "creativity_update", spy_creat)
        r = cddo_run(p, cfg)
        skill_rates = np.concatenate(skill_rates)
        creativity_rates = np.concatenate(creativity_rates)
        assert skill_rates.size >= 2 * r.skill > 0  # skill branch fired
        assert np.all((skill_rates >= 0.6) & (skill_rates < 1.0))
        assert np.all((creativity_rates >= 0.0) & (creativity_rates < 0.5))

    def test_step_writes_only_into_its_own_arrays(self, monkeypatch):
        # the helpers return arguments (creativity_update its sr), and a caller
        # such as a spy may keep them: a step reads them and a block's draws
        # and writes only into arrays it allocates
        p = make_function("F9")
        rng = make_rng(9)
        state = init_state(p, RunConfig(pop_size=40), 8, rng)
        draws = choices(rng.random((BLOCK, 40, N_UNIFORMS)), 8, p)
        draws_before = [a.copy() for a in draws]
        calls = []

        def keep(helper):
            def spy(*args):
                calls.append([(a, np.copy(a)) for a in args])
                return helper(*args)
            return spy

        monkeypatch.setattr(cddo_mod, "skill_update", keep(skill_update))
        monkeypatch.setattr(cddo_mod, "creativity_update", keep(creativity_update))
        for t in range(BLOCK):
            cddo_step(state, p, draws, t, rng)
            for arg, copy in (pair for call in calls for pair in call):
                assert arg.tobytes() == copy.tobytes()
            calls.clear()
        assert state.skill > 0 and state.creativity > 0
        for now, before in zip(draws, draws_before):
            assert now.tobytes() == before.tobytes()

    @staticmethod
    def _gated_step(x, u, monkeypatch):
        """One step from the (P, 8) block u at positions x, against reference_step
        from the same block; the step's creativity_update calls."""
        p = _problem(dim=3)
        f = np.sum(x * x, axis=1)
        g = int(np.argmin(f))
        state = CddoState(x.copy(), x.copy(), f.copy(), x[g].copy(), float(f[g]),
                          Archive.best_of(x, f, 2), evals=len(x))
        ref = _copy(state)
        calls = []

        def spy(entry, sr):
            calls.append(sr)
            return creativity_update(entry, sr)

        monkeypatch.setattr(cddo_mod, "creativity_update", spy)
        _step(state, p, BlockRng(u))
        reference_step(ref, p, BlockRng(u))
        _assert_same(state, ref)
        return state, calls

    # four movers and two resting agents, whose golden ratio is (1 + 1) / 1 = 2
    MOVERS = make_rng(41).uniform(-5.0, 5.0, (6, 3))
    MOVERS[4:] = 1.0

    def test_all_skill_step_skips_the_creativity_branch(self, monkeypatch):
        u = make_rng(42).random((6, N_UNIFORMS))
        u[:4, U_RHP] = 0.999  # rhp 9.98 > hp: the skill branch
        u[4:, U_RHP] = 0.0    # rhp at the lower bound: rest
        state, calls = self._gated_step(self.MOVERS, u, monkeypatch)
        assert (state.skill, state.creativity, state.rest) == (4, 0, 2)
        assert calls == []

    def test_all_creative_step_equals_the_reference(self, monkeypatch):
        x = self.MOVERS.copy()
        x[:4, 1] = 0.618 * x[:4, 0]  # M = 0, N = 1: gr = 1.618, within phi's tolerance
        u = make_rng(43).random((6, N_UNIFORMS))
        u[:, U_RHP] = 0.0  # no agent takes the skill branch
        u[:, U_GR] = 0.0
        state, calls = self._gated_step(x, u, monkeypatch)
        assert (state.skill, state.creativity, state.rest) == (0, 4, 2)
        assert len(calls) == 1 and len(calls[0]) == 4  # once, on the four movers' rows

    @pytest.mark.parametrize("func", FUNCTION_IDS)
    def test_matches_agent_by_agent_reference(self, func):
        p = make_function(func)
        cfg = RunConfig(pop_size=40, base_seed=31)
        state = init_state(p, cfg, 8, make_rng(31))
        ref = _copy(state)
        rng, ref_rng = make_rng(32), make_rng(32)
        for _ in range(30):
            _step(state, p, rng)
            reference_step(ref, p, ref_rng)
        _assert_same(state, ref)
        assert state.creativity > 0 and state.skill > 0
        assert rng.random() == ref_rng.random()  # the same draws were consumed

    def test_hybrid_matches_agent_by_agent_reference(self):
        p = make_function("F5")
        cfg = RunConfig(pop_size=40, base_seed=33)
        state = init_state(p, cfg, 32, make_rng(33))
        ref = _copy(state)
        rng, ref_rng = make_rng(34), make_rng(34)
        for _ in range(30):
            reference_refresh(state, p, rng)
            _step(state, p, rng)
            reference_refresh(ref, p, ref_rng)
            reference_step(ref, p, ref_rng)
        _assert_same(state, ref)
        assert state.refresh_accepts > 0
        assert rng.random() == ref_rng.random()

    def test_stochastic_batch_is_one_call_until_a_cut(self, monkeypatch):
        # F7 draws noise per row: the rows past a cut at a gbest improvement
        # give their draws back, so each improvement costs at most one more
        # call (the rebuilt rows' batch)
        f7 = make_function("F7")
        calls, values = [], []

        def counted(x):
            calls.append(len(x))
            return f7.objective(x)

        def recorded(problem, x, rng=None):  # the reference's noisy one-point values
            values.append(core.evaluate(problem, x, rng))
            return values[-1]

        monkeypatch.setitem(globals(), "evaluate", recorded)
        cuts = 0
        for seed in range(35, 60):
            calls.clear()
            values.clear()
            state = init_state(f7, RunConfig(pop_size=40, base_seed=seed), 8, make_rng(seed))
            ref, best = _copy(state), state.gbest_f
            rng, ref_rng = make_rng(seed + 1), make_rng(seed + 1)
            _step(state, dataclasses.replace(f7, objective=counted), rng)
            reference_step(ref, f7, ref_rng)
            _assert_same(state, ref)
            assert rng.random() == ref_rng.random(), seed
            improvements = 0
            for v in values:  # in agent order
                if v < best:
                    best, improvements = v, improvements + 1
            assert len(calls) <= 1 + improvements, seed
            cuts += len(calls) > 1
        assert cuts >= 20  # most seeds cut a batch

    # Agent 0 moves to (0.5, -0.25) and improves gbest; agent 1's skill move
    # must then pull toward that point, not toward the old gbest.
    TWO_AGENTS = np.array([[1.0, -0.5], [4.0, 4.0]])
    NEW_GBEST = np.array([0.5, -0.25])  # gr = (1 - 0.5) / 1 scales agent 0
    FRESH = _skill(TWO_AGENTS[1], TWO_AGENTS[1], NEW_GBEST, 2.0, 0.8, 0.8, _problem())
    STALE = _skill(TWO_AGENTS[1], TWO_AGENTS[1], TWO_AGENTS[0], 2.0, 0.8, 0.8, _problem())

    def _two_agent_step(self, p, step):
        x = self.TWO_AGENTS
        f = np.sum(x * x, axis=1)
        state = CddoState(x.copy(), x.copy(), f.copy(), x[0].copy(), float(f[0]),
                          Archive.best_of(x, f, 1))
        u = np.zeros((2, N_UNIFORMS))
        u[:, U_RHP] = 0.99  # rhp 9.8 > hp: both agents take the skill branch
        u[:, 6:] = 0.5      # sr = lr = 0.8
        step(state, p, BlockRng(u))
        return state

    def test_later_agents_see_the_gbest_an_earlier_agent_found(self):
        p = _problem()
        state = self._two_agent_step(p, _step)
        assert np.array_equal(state.gbest_x, self.NEW_GBEST)
        assert np.array_equal(state.x[1], self.FRESH)
        assert not np.array_equal(self.FRESH, self.STALE)
        _assert_same(state, self._two_agent_step(p, reference_step))

    @staticmethod
    def _nan_at(point):
        """A row-wise user problem that is NaN at ``point`` and x.x elsewhere."""
        def objective(x):
            return np.where(np.all(x == point, axis=-1), np.nan, np.sum(x * x, axis=-1))
        return Problem(id="nan-at-point", dim=2, lower=-10.0, upper=10.0, objective=objective)

    def test_nan_in_a_rebuilt_candidate_does_not_raise(self):
        # The batch holds agent 1's stale candidate; the agent-by-agent loop
        # rebuilds it before evaluating it, so its NaN is never a result.
        p = self._nan_at(self.STALE)
        state = self._two_agent_step(p, _step)
        assert np.array_equal(state.x[1], self.FRESH)
        _assert_same(state, self._two_agent_step(p, reference_step))

    def test_nan_in_an_evaluated_row_raises(self):
        for point in (self.NEW_GBEST, self.FRESH):  # the first batch, the rebuilt one
            with pytest.raises(ValueError, match="nan-at-point: objective returned NaN"):
                self._two_agent_step(self._nan_at(point), _step)


class TestCddoRun:
    def test_nonnegative_objective_stays_nonnegative(self):
        r = cddo_run(make_function("F11"), RunConfig(pop_size=20, max_iters=50, base_seed=2))
        assert r.best_fitness >= 0.0

    def test_bound_containment_every_iteration(self):
        p = make_function("F16")
        cfg = RunConfig(pop_size=10, base_seed=4)
        rng = make_rng(4)
        state = init_state(p, cfg, 2, rng)
        for _ in range(50):
            _step(state, p, rng)
            for x in (state.x, state.lbest_x, state.pm.x, state.gbest_x):
                assert np.all(x >= p.lower) and np.all(x <= p.upper)

    def test_pm_elitism_and_coherence(self):
        p = make_function("F10")
        cfg = RunConfig(pop_size=20, base_seed=6)
        rng = make_rng(6)
        state = init_state(p, cfg, 4, rng)
        prev_pm_best = state.pm.f.min()
        for _ in range(40):
            _step(state, p, rng)
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
        with pytest.raises(ValueError, match="^d1: CDDO needs dim >= 2"):
            cddo_run(p, RunConfig(pop_size=5, max_iters=5))


@pytest.mark.parametrize("run", [cddo_run, cddo_hs_run], ids=lambda run: run.__name__)
@pytest.mark.parametrize("func", ["F1", "F9", "F16"])
def test_blocks_change_nothing(func, run, monkeypatch):
    # A run draws BLOCK iterations at a time; a reference loop that draws one
    # iteration at a time (the hybrid's refresh block, then the step's) reaches
    # the same run bit for bit across two block boundaries.
    p = make_function(func)
    cfg = RunConfig(pop_size=10, max_iters=2 * BLOCK + 7, base_seed=11)
    hybrid_run = run is cddo_hs_run
    fraction = hybrid.PM_FRACTION if hybrid_run else cddo_mod.PM_FRACTION
    state, trace = reference_run(p, cfg, fraction, reference_refresh if hybrid_run else None)

    sizes = []

    def spy(u, pm_size, problem):
        sizes.append(len(u))
        return choices(u, pm_size, problem)

    monkeypatch.setattr(cddo_mod, "choices", spy)
    r = run(p, cfg)
    assert r.trace.tobytes() == trace.tobytes()
    assert r.best_position.tobytes() == state.gbest_x.tobytes()
    for field in ("evals", "skill", "creativity", "rest", "pm_replacements", "refresh_accepts"):
        assert getattr(r, field) == getattr(state, field), field
    assert hybrid_run == (r.refresh_accepts > 0)
    assert max(sizes) <= BLOCK and sum(sizes) == cfg.max_iters
