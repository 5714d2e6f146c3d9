import math

import numpy as np
import pytest

from cddohs import cddo, hs, hybrid
from cddohs.benchmarks import make_function
from cddohs.cddo import _run_engine, init_state
from cddohs.core import Archive, RunConfig, make_rng
from cddohs.hybrid import _improvise_refresh, cddo_hs_run
from test_cddo import reference_refresh, reference_run


def _pm(positions):
    x = np.array(positions, dtype=float)
    return Archive(x, np.sum(np.square(x), axis=1))


def _refresh_once(pm, problem, rng):
    """One refresh from one improvisation's draws from rng; (kept, position, fitness)."""
    return _improvise_refresh(pm, problem, hs.draw(rng, 1, len(pm.f), problem), 0, rng)


class TestRefresh:
    def test_identical_rows_cannot_strictly_improve(self, monkeypatch):
        monkeypatch.setattr(hs, "HMCR", 1.0)
        monkeypatch.setattr(hs, "PAR", 0.0)
        p = make_function("F1")
        pm = _pm([np.full(10, 3.0)] * 4)
        assert not _refresh_once(pm, p, make_rng(1))[0]

    def test_pure_random_ignores_pm(self, monkeypatch):
        monkeypatch.setattr(hs, "HMCR", 0.0)
        p = make_function("F1")
        pm = _pm([np.full(10, 99.0)] * 4)
        rng = make_rng(2)
        # with hmcr=0 the improvised vector is uniform in bounds; a uniform
        # draw over [-100,100]^10 beats a PM stuck at 99-vectors essentially always
        hits = sum(
            _refresh_once(_pm([np.full(10, 99.0)] * 4), p, make_rng(s))[0]
            for s in range(20)
        )
        assert hits == 20

    def test_eventual_improvement_of_bad_pm(self, monkeypatch):
        monkeypatch.setattr(hs, "HMCR", 0.0)
        p = make_function("F1")
        pm = _pm([np.full(10, 90.0) + i for i in range(4)])
        rng = make_rng(3)
        improved = 0
        for _ in range(1000):
            if _refresh_once(pm, p, rng)[0]:
                improved += 1
        assert improved >= 1

    def test_never_increases_worst_fitness(self):
        p = make_function("F9")
        rng = make_rng(4)
        cfg = RunConfig(pop_size=10, base_seed=4)
        state = init_state(p, cfg, 8, rng)
        for _ in range(300):
            worst_before = state.pm.f.max()
            _refresh_once(state.pm, p, rng)
            assert state.pm.f.max() <= worst_before


class TestHybridRun:
    def test_pm_capacity_is_80_percent(self, monkeypatch):
        sizes = []
        real_init_state = cddo.init_state

        def spy(problem, config, pm_size, rng):
            sizes.append(pm_size)
            return real_init_state(problem, config, pm_size, rng)

        monkeypatch.setattr(cddo, "init_state", spy)
        for pop in (40, 10):
            cddo_hs_run(make_function("F1"), RunConfig(pop_size=pop, max_iters=1))
        assert sizes == [32, 8]

    def test_reduces_to_cddo_when_refresh_disabled(self, monkeypatch):
        # A refresh that never improves leaves CDDO with an 80% pattern memory,
        # plus one counted evaluation per iteration. The refresh's uniforms are
        # drawn with the step's, so the plain run draws them and drops them.
        def inert_refresh(pm, problem, draws, t, rng):
            return False, np.zeros(problem.dim), math.inf

        def drawn_and_dropped(state, problem, rng):
            rng.random((4, problem.dim))

        monkeypatch.setattr(hybrid, "_improvise_refresh", inert_refresh)
        p = make_function("F9")
        cfg = RunConfig(pop_size=16, max_iters=120, base_seed=123)
        hyb = cddo_hs_run(p, cfg)
        plain, trace = reference_run(p, cfg, hybrid.PM_FRACTION, drawn_and_dropped)
        assert np.array_equal(hyb.trace, trace)
        assert hyb.evals == plain.evals + cfg.max_iters

    @pytest.mark.parametrize("func", ["F16", "F5"])
    def test_engine_runs_and_books_a_refresh_alone(self, func):
        # the refresh-only variant (CDDO's 20% memory, the hybrid's refresh) is
        # the engine given hs.iterate: it books each refresh as the reference does
        p = make_function(func)
        cfg = RunConfig(pop_size=10, max_iters=cddo.BLOCK + 7, base_seed=13)
        r = _run_engine(p, cfg, cddo.PM_FRACTION, 0, refresh=hs.iterate)
        state, trace = reference_run(p, cfg, cddo.PM_FRACTION, reference_refresh)
        assert r.trace.tobytes() == trace.tobytes()
        assert (r.evals, r.refresh_accepts) == (state.evals, state.refresh_accepts)
        assert r.refresh_accepts > 0

    def test_beats_hs_on_sphere(self):
        # direction of the published comparison, small-scale smoke version
        from cddohs.hs import hs_run
        p = make_function("F1")
        cfg = RunConfig(pop_size=20, max_iters=150, base_seed=77, n_runs=5)
        hyb = np.mean([cddo_hs_run(p, cfg, run_index=r).best_fitness for r in range(5)])
        hs = np.mean([hs_run(p, cfg, run_index=r).best_fitness for r in range(5)])
        assert hyb < hs
