import numpy as np

from cddohs.benchmarks import make_function
from cddohs.core import Problem, RunConfig, make_rng
from cddohs import hs
from cddohs.hs import HarmonyMemory, hs_run, improvise, iterate


def _problem(dim=4, lower=-1.0, upper=1.0):
    return Problem(id="t", dim=dim, lower=lower, upper=upper,
                   objective=lambda x: np.sum(x * x, axis=-1))


def _rows(positions):
    return np.array(positions, dtype=float)


class TestImprovise:
    def test_pure_memory_consideration(self, monkeypatch):
        monkeypatch.setattr(hs, "HMCR", 1.0)
        monkeypatch.setattr(hs, "PAR", 0.0)
        p = _problem(dim=3)
        rows = _rows([[0.1, 0.2, 0.3], [-0.1, -0.2, -0.3]])
        rng = make_rng(1)
        for _ in range(20):
            new = improvise(rows, p, rng)
            for k, v in enumerate(new):
                assert v in {rows[0, k], rows[1, k]}

    def test_pure_random_ignores_memory(self, monkeypatch):
        monkeypatch.setattr(hs, "HMCR", 0.0)
        p = _problem(dim=3, lower=2.0, upper=3.0)
        rows = _rows([[2.5, 2.5, 2.5]])
        new = improvise(rows, p, make_rng(2))
        assert np.all((new >= 2.0) & (new <= 3.0))
        assert not np.any(new == 2.5)

    def test_pitch_adjustment_range(self, monkeypatch):
        monkeypatch.setattr(hs, "HMCR", 1.0)
        monkeypatch.setattr(hs, "PAR", 1.0)
        p = _problem(dim=5)
        rows = np.zeros((2, 5))
        rng = make_rng(3)
        for _ in range(50):
            new = improvise(rows, p, rng)
            assert np.all(np.abs(new) <= 0.04)

    def test_result_clamped(self, monkeypatch):
        monkeypatch.setattr(hs, "HMCR", 1.0)
        monkeypatch.setattr(hs, "PAR", 1.0)
        monkeypatch.setattr(hs, "BW", 5.0)
        p = _problem(dim=2, lower=0.0, upper=0.01)
        rows = _rows([[0.01, 0.01]])
        for _ in range(20):
            new = improvise(rows, p, make_rng(4))
            assert np.all((new >= 0.0) & (new <= 0.01))

    def test_branch_probabilities(self, monkeypatch):
        # component-level frequencies of memory consideration / pitch adjustment
        monkeypatch.setattr(hs, "HMCR", 0.9)
        monkeypatch.setattr(hs, "PAR", 0.3)
        monkeypatch.setattr(hs, "BW", 1e-6)
        p = _problem(dim=1, lower=-1000.0, upper=1000.0)
        rows = np.zeros((1, 1))
        rng = make_rng(5)
        n = 100_000
        mem = pitch = 0
        for _ in range(n):
            v = improvise(rows, p, rng)[0]
            if abs(v) <= 1e-6:
                mem += 1
                if v != 0.0:
                    pitch += 1
        assert abs(mem / n - 0.9) < 0.01
        assert abs(pitch / n - 0.9 * 0.3) < 0.01


class TestHsRun:
    def test_deterministic(self):
        p = make_function("F9")
        cfg = RunConfig(pop_size=20, max_iters=100, base_seed=11)
        a, b = hs_run(p, cfg), hs_run(p, cfg)
        assert np.array_equal(a.trace, b.trace)
        assert a.best_fitness == b.best_fitness

    def test_eval_count_is_hms_plus_iters(self):
        cfg = RunConfig(pop_size=25, max_iters=130, base_seed=1)
        r = hs_run(make_function("F1"), cfg)
        assert r.evals == 25 + 130

    def test_memory_monotonicity(self):
        p = make_function("F10")
        cfg = RunConfig(pop_size=15, max_iters=1, base_seed=2)
        # track worst/best across HS iterations
        from cddohs.core import init_population
        rng = make_rng(3)
        hm = HarmonyMemory(*init_population(p, 15, rng))
        prev_worst = hm.f.max()
        prev_best = hm.f.min()
        for _ in range(200):
            kept, _, fit = iterate(hm, p, rng)
            assert kept == (fit in hm.f)
            worst = hm.f.max()
            best = hm.f.min()
            assert worst <= prev_worst and best <= prev_best
            prev_worst, prev_best = worst, best

    def test_trace_monotone(self):
        r = hs_run(make_function("F11"), RunConfig(pop_size=10, max_iters=200, base_seed=9))
        assert np.all(np.diff(r.trace) <= 0)
        assert r.best_fitness == r.trace[-1]

    def test_default_params_match_protocol(self):
        assert (hs.HMCR, hs.PAR, hs.BW) == (0.995, 0.1, 0.04)
