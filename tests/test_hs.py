import numpy as np
import pytest

from cddohs.benchmarks import make_function
from cddohs.core import Problem, RunConfig, clamp, init_population, make_rng
from cddohs import core, hs
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
            for v in improvise(rows, draw(rng, block, 1, p), slice(0, block), p)[:, 0]:
                if abs(v) <= 1e-6:
                    mem += 1
                    if v != 0.0:
                        pitch += 1
        assert abs(mem / n - 0.9) < 0.01
        assert abs(pitch / n - 0.9 * 0.3) < 0.01


@pytest.mark.parametrize("dim", [2, 10, 30])
def test_improvise_matches_its_uniforms(dim):
    # each component from its uniforms alone: copy when u0 <= HMCR, adding
    # (2*u3 - 1)*BW when u2 <= PAR, otherwise lo + (hi - lo)*u3; bit for bit,
    # one improvisation at a time and over slices of them. The memory holds
    # -0.0 at a lower bound of 0.0 (the clamp keeps its sign) and rows at both
    # bounds.
    p = _problem(dim=dim, lower=0.0, upper=1.0)
    rng = make_rng(dim)
    positions = np.vstack([rng.random((3, dim)), np.full((1, dim), -0.0),
                           np.zeros((1, dim)), np.ones((1, dim))])
    m = len(positions)
    # hand-built improvisations: neither a nudge nor a redraw, a nudge only, a redraw only, both
    hand = rng.random((4, 4, dim))
    hand[:, 0], hand[:, 2] = 0.0, 1.0  # copy every component, nudge none
    hand[1, 2, 0] = hand[3, 2, 0] = 0.0
    hand[2, 0, -1] = hand[3, 0, -1] = 1.0
    # hand-built signs: a redraw at u3 = 0, which lands on +0.0, over the -0.0 row (3)
    # and over the +0.0 row (4); an un-nudged copy of -0.0; nudges of -0.0 by +0.0
    # (u3 = 0.5), by a negative and by a positive amount. Each column of u is
    # (u0, u1, u2, u3), and u1 = (row + 0.5) / m picks the row.
    signs = np.array([(1.0, 3.5, 1.0, 0.0), (1.0, 4.5, 1.0, 0.0), (0.0, 3.5, 1.0, 0.3),
                      (0.0, 3.5, 0.0, 0.5), (0.0, 3.5, 0.0, 0.25), (0.0, 3.5, 0.0, 0.75)])
    signs[:, 1] /= m
    signs = np.repeat(signs[:, :, None], dim, axis=2)
    for u in (hand, signs, rng.random((300, 4, dim))):
        draws = choices(u, m, p)
        wants = []
        for t, (u0, u1, u2, u3) in enumerate(u):
            copy = positions[np.minimum((u1 * m).astype(int), m - 1), np.arange(dim)]
            nudged = np.where(u2 <= hs.PAR, copy + (2.0 * u3 - 1.0) * hs.BW, copy)
            want = np.where(u0 <= hs.HMCR, nudged, p.lower + (p.upper - p.lower) * u3)
            wants.append(clamp(want, p))
            assert improvise(positions, draws, t, p).tobytes() == wants[t].tobytes()
        for start in range(len(u)):  # slices that do and do not hold a redraw
            ts = slice(start, start + hs.width(40, dim))
            assert improvise(positions, draws, ts, p).tobytes() == np.array(wants[ts]).tobytes()


def test_improvise_writes_only_into_its_own_row():
    # improvise's in-place add writes only into the rows its gather and multiply
    # built, never into the block's draws or the memory; this guards against any write
    p = make_function("F13")  # dim 30: most improvisations nudge, about one in seven redraws
    rng = make_rng(13)
    hm = HarmonyMemory(*init_population(p, 40, rng))
    draws = draw(rng, 500, 40, p)
    before = [np.copy(a) for a in draws]
    for t in range(500):
        positions = hm.x.copy()
        improvise(hm.x, draws, slice(t, t + hs.width(40, p.dim)), p)
        assert hm.x.tobytes() == positions.tobytes()
        iterate(hm, p, draws, t, rng)
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


@pytest.mark.parametrize("func,pop_size", [
    pytest.param(func, m, id=func if m == 10 else f"{func}-m{m}")
    for m in (10, 70) for func in ("F1", "F7", "F9", "F13", "F14", "F16")])
def test_blocks_change_nothing(func, pop_size, monkeypatch):
    # A run draws BLOCK iterations at a time and improvises hs.width of them at
    # once. A reference loop that improvises, evaluates and keeps one vector at
    # a time, and reads the memory's best each iteration, reaches the same run
    # bit for bit across two block boundaries and a last block of 107
    # iterations, which ends in a part of a look-ahead. It draws one
    # improvisation at a time, except for F7: F7's noise follows each block's
    # uniforms, so its reference draws whole blocks. A memory of 70 rows checks
    # the walk's cut on rows past the first 64.
    p = make_function(func)
    cfg = RunConfig(pop_size=pop_size, max_iters=2 * hs.BLOCK + 107, base_seed=11)
    assert (cfg.max_iters - 2 * hs.BLOCK) % hs.width(cfg.pop_size, p.dim)
    rng = make_rng(cfg.seed_for_run(0))
    hm = HarmonyMemory(*init_population(p, cfg.pop_size, rng))
    trace, accepts = [], 0
    for start in range(0, cfg.max_iters, hs.BLOCK):
        n = min(hs.BLOCK, cfg.max_iters - start)
        block = draw(rng, n, cfg.pop_size, p) if p.stochastic else None
        for t in range(n):
            draws, i = (block, t) if p.stochastic else (draw(rng, 1, cfg.pop_size, p), 0)
            accepts += iterate(hm, p, draws, i, rng)[0]
            trace.append(hm.f.min())
    best = int(np.argmin(hm.f))

    sizes, rows = [], []

    def spy_draw(rng, n, m, problem):
        sizes.append(n)
        return draw(rng, n, m, problem)

    evaluate_rows = core.evaluate_rows

    def spy_rows(problem, x, rng=None):
        rows.append(len(x))
        return evaluate_rows(problem, x, rng)

    monkeypatch.setattr(hs, "draw", spy_draw)
    monkeypatch.setattr(core, "evaluate_rows", spy_rows)
    r = hs_run(p, cfg)
    assert r.trace.tobytes() == np.array(trace).tobytes()
    assert r.best_position.tobytes() == hm.x[best].tobytes()
    assert r.best_fitness == hm.f[best]
    assert r.hm_accepts == accepts
    assert r.evals == cfg.pop_size + cfg.max_iters
    assert max(sizes) <= hs.BLOCK and sum(sizes) == cfg.max_iters
    # improvisations evaluated ahead, and rows past a cut left unkept
    assert len(rows) < cfg.max_iters and sum(rows) > cfg.pop_size + cfg.max_iters


def test_f7_look_ahead_is_one_call(monkeypatch):
    # F7 draws noise per row: the rows past a cut give their draws back, so a
    # look-ahead is one evaluate_rows call however it is cut
    lookaheads, calls = [], []
    improvise, evaluate_rows = hs.improvise, core.evaluate_rows

    def spy_improvise(positions, draws, t, problem):
        lookaheads.append(t)
        return improvise(positions, draws, t, problem)

    def spy_rows(problem, x, rng=None):
        calls.append(len(x))
        return evaluate_rows(problem, x, rng)

    monkeypatch.setattr(hs, "improvise", spy_improvise)
    monkeypatch.setattr(core, "evaluate_rows", spy_rows)
    cfg = RunConfig(pop_size=40, max_iters=500, base_seed=7)
    p = make_function("F7")
    hs_run(p, cfg)
    assert len(lookaheads) > cfg.max_iters / hs.width(cfg.pop_size, p.dim)  # walks were cut
    assert len(calls) == 1 + len(lookaheads)


def test_walk_width_changes_nothing(monkeypatch):
    # The width only sets how many improvisations a walk evaluates at once:
    # every width, from one at a time to past a block's walks, gives the
    # rule's runs bit for bit. At population 40 the rule evaluates 4 rows a
    # walk at d = 30 (F13) and 16 at d = 2 (F16).
    def run(func, pop_size):
        r = hs_run(make_function(func), RunConfig(pop_size=pop_size, max_iters=200, base_seed=23))
        return (r.trace.tobytes(), r.best_position.tobytes(), repr(r.best_fitness),
                r.hm_accepts, r.evals)

    rows, evaluate_rows = [], core.evaluate_rows

    def spy_rows(problem, x, rng=None):
        rows.append(len(x))
        return evaluate_rows(problem, x, rng)

    monkeypatch.setattr(core, "evaluate_rows", spy_rows)
    grid = [(f"F{i}", m) for i in range(1, 20) for m in (10, 40, 70)]
    ruled = {}
    for func, m in grid:
        rows.clear()
        ruled[func, m] = run(func, m)
        walks = rows[1:]  # the first call evaluates the initial memory
        if m == 40 and func == "F13":
            assert max(walks) == 4
        if m == 40 and func == "F16":
            assert max(walks) == 16
    for w in (1, 2, 5, 16, 64):
        monkeypatch.setattr(hs, "width", lambda m, d: w)
        for func, m in grid:
            assert run(func, m) == ruled[func, m], (func, m, w)


def test_nan_past_a_cut_does_not_raise(monkeypatch):
    # A row evaluated past a cut copies a row the walk replaced; the
    # one-at-a-time loop builds that improvisation from the new row instead,
    # so the stale row's NaN is never a result.
    p = _problem(dim=4)
    cfg = RunConfig(pop_size=10, max_iters=60, base_seed=5)
    rng = make_rng(cfg.seed_for_run(0))
    hm = HarmonyMemory(*init_population(p, cfg.pop_size, rng))
    draws = draw(rng, cfg.max_iters, cfg.pop_size, p)
    loop = [iterate(hm, p, draws, t, rng)[1].tolist() for t in range(cfg.max_iters)]

    evaluated, evaluate_rows = [], core.evaluate_rows

    def recorded(problem, x, rng=None):
        evaluated.extend(x.tolist())
        return evaluate_rows(problem, x, rng)

    monkeypatch.setattr(core, "evaluate_rows", recorded)
    finite = hs_run(p, cfg)
    stale = next(x for x in evaluated[cfg.pop_size:] if x not in loop)

    def objective(x):
        return np.where(np.all(x == stale, axis=-1), np.nan, np.sum(x * x, axis=-1))

    evaluated.clear()
    nan_at_stale = hs_run(Problem(id="nan", dim=4, lower=-1.0, upper=1.0, objective=objective), cfg)
    assert stale in evaluated
    assert nan_at_stale.trace.tobytes() == finite.trace.tobytes()
    assert nan_at_stale.best_position.tobytes() == finite.best_position.tobytes()
    assert nan_at_stale.hm_accepts == finite.hm_accepts
