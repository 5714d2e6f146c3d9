import numpy as np
import pytest

from cddohs.benchmarks import make_function
from cddohs.core import Problem, RunConfig, clamp, init_population, make_rng
from cddohs import hs
from cddohs.hs import HarmonyMemory, choices, draw, hs_run, improvise, iterate


def _problem(dim=4, lower=-1.0, upper=1.0):
    return Problem(id="t", dim=dim, lower=lower, upper=upper,
                   objective=lambda x: np.sum(x * x, axis=-1))


def _rows(positions):
    return np.array(positions, dtype=float)


def _improvise(rows, p, rng):
    """One improvisation over rows from its own draws."""
    return improvise(rows, draw(rng, 1, len(rows), p), 0, p)


class TestImprovise:
    def test_pure_memory_consideration(self, monkeypatch):
        monkeypatch.setattr(hs, "HMCR", 1.0)
        monkeypatch.setattr(hs, "PAR", 0.0)
        p = _problem(dim=3)
        rows = _rows([[0.1, 0.2, 0.3], [-0.1, -0.2, -0.3]])
        rng = make_rng(1)
        for _ in range(20):
            new = _improvise(rows, p, rng)
            for k, v in enumerate(new):
                assert v in {rows[0, k], rows[1, k]}

    def test_pure_random_ignores_memory(self, monkeypatch):
        monkeypatch.setattr(hs, "HMCR", 0.0)
        p = _problem(dim=3, lower=2.0, upper=3.0)
        rows = _rows([[2.5, 2.5, 2.5]])
        new = _improvise(rows, p, make_rng(2))
        assert np.all((new >= 2.0) & (new <= 3.0))
        assert not np.any(new == 2.5)

    def test_pitch_adjustment_range(self, monkeypatch):
        monkeypatch.setattr(hs, "HMCR", 1.0)
        monkeypatch.setattr(hs, "PAR", 1.0)
        p = _problem(dim=5)
        rows = np.zeros((2, 5))
        rng = make_rng(3)
        for _ in range(50):
            new = _improvise(rows, p, rng)
            assert np.all(np.abs(new) <= 0.04)

    def test_result_clamped(self, monkeypatch):
        monkeypatch.setattr(hs, "HMCR", 1.0)
        monkeypatch.setattr(hs, "PAR", 1.0)
        monkeypatch.setattr(hs, "BW", 5.0)
        p = _problem(dim=2, lower=0.0, upper=0.01)
        rows = _rows([[0.01, 0.01]])
        for _ in range(20):
            new = _improvise(rows, p, make_rng(4))
            assert np.all((new >= 0.0) & (new <= 0.01))

    def test_branch_probabilities(self, monkeypatch):
        # component-level frequencies of memory consideration / pitch adjustment
        monkeypatch.setattr(hs, "HMCR", 0.9)
        monkeypatch.setattr(hs, "PAR", 0.3)
        monkeypatch.setattr(hs, "BW", 1e-6)
        p = _problem(dim=1, lower=-1000.0, upper=1000.0)
        rows = np.zeros((1, 1))
        rng = make_rng(5)
        n, block = 100_000, 1000
        mem = pitch = 0
        for _ in range(n // block):
            draws = draw(rng, block, 1, p)
            for t in range(block):
                v = improvise(rows, draws, t, p)[0]
                if abs(v) <= 1e-6:
                    mem += 1
                    if v != 0.0:
                        pitch += 1
        assert abs(mem / n - 0.9) < 0.01
        assert abs(pitch / n - 0.9 * 0.3) < 0.01


@pytest.mark.parametrize("dim", [2, 10, 30])
def test_skipped_selects_change_nothing(dim):
    # improvise skips a select whose flag is unset; both selects, always run,
    # give the same vector bit for bit. The memory holds -0.0 at a lower
    # bound of 0.0 (the clamp keeps its sign) and rows at both bounds.
    p = _problem(dim=dim, lower=0.0, upper=1.0)
    rng = make_rng(dim)
    positions = np.vstack([rng.random((3, dim)), np.full((1, dim), -0.0),
                           np.zeros((1, dim)), np.ones((1, dim))])
    # hand-built improvisations: neither flag, a nudge only, a redraw only, both
    u = rng.random((4, 4, dim))
    u[:, 0], u[:, 2] = 0.0, 1.0  # copy every component, nudge none
    u[1, 2, 0] = u[3, 2, 0] = 0.0
    u[2, 0, -1] = u[3, 0, -1] = 1.0
    forced = choices(u, len(positions), p)
    assert forced.nudges == [False, True, False, True]
    assert forced.redraws == [False, False, True, True]
    for draws in (forced, draw(rng, 300, len(positions), p)):
        for t in range(len(draws.take)):
            m = positions.take(draws.source[t])
            full = np.where(draws.take[t], np.where(draws.adjust[t], m + draws.nudge[t], m),
                            draws.redraw[t])
            assert improvise(positions, draws, t, p).tobytes() == clamp(full, p).tobytes()
        assert draws.nudges == draws.adjust.any(1).tolist()
        assert draws.redraws == (~draws.take).any(1).tolist()


def test_improvise_writes_only_into_its_own_row():
    # improvise's masked copies write into the row it gathers, never into the
    # block's draws or the memory
    p = make_function("F13")  # dim 30: most improvisations nudge, about one in seven redraws
    rng = make_rng(13)
    hm = HarmonyMemory(*init_population(p, 40, rng))
    draws = draw(rng, 500, 40, p)
    before = [np.copy(a) for a in draws]
    for t in range(500):
        positions = hm.x.copy()
        improvise(hm.x, draws, t, p)
        assert hm.x.tobytes() == positions.tobytes()
        iterate(hm, p, draws, t, rng)
    assert any(draws.nudges) and any(draws.redraws)
    for now, was in zip(draws, before):
        assert np.asarray(now).tobytes() == was.tobytes()


class TestHsRun:
    def test_memory_monotonicity(self):
        p = make_function("F10")
        cfg = RunConfig(pop_size=15, max_iters=1, base_seed=2)
        # track worst/best across HS iterations
        rng = make_rng(3)
        hm = HarmonyMemory(*init_population(p, 15, rng))
        prev_worst = hm.f.max()
        prev_best = hm.f.min()
        for _ in range(200):
            kept, _, fit = iterate(hm, p, draw(rng, 1, 15, p), 0, rng)
            assert kept == (fit in hm.f)
            worst = hm.f.max()
            best = hm.f.min()
            assert worst <= prev_worst and best <= prev_best
            prev_worst, prev_best = worst, best

    def test_default_params_match_protocol(self):
        assert (hs.HMCR, hs.PAR, hs.BW) == (0.995, 0.1, 0.04)


@pytest.mark.parametrize("func", ["F1", "F9", "F16"])
def test_blocks_change_nothing(func, monkeypatch):
    # A run draws BLOCK iterations at a time; a reference loop that draws one
    # improvisation at a time, and reads the memory's best each iteration,
    # reaches the same run bit for bit across two block boundaries.
    p = make_function(func)
    cfg = RunConfig(pop_size=10, max_iters=2 * hs.BLOCK + 107, base_seed=11)
    rng = make_rng(cfg.seed_for_run(0))
    hm = HarmonyMemory(*init_population(p, cfg.pop_size, rng))
    trace, accepts = [], 0
    for _ in range(cfg.max_iters):
        accepts += iterate(hm, p, draw(rng, 1, cfg.pop_size, p), 0, rng)[0]
        trace.append(hm.f.min())
    best = int(np.argmin(hm.f))

    sizes = []

    def spy(rng, n, m, problem):
        sizes.append(n)
        return draw(rng, n, m, problem)

    monkeypatch.setattr(hs, "draw", spy)
    r = hs_run(p, cfg)
    assert r.trace.tobytes() == np.array(trace).tobytes()
    assert r.best_position.tobytes() == hm.x[best].tobytes()
    assert r.best_fitness == hm.f[best]
    assert r.hm_accepts == accepts
    assert max(sizes) <= hs.BLOCK and sum(sizes) == cfg.max_iters
