"""The benchmark's workloads and metric names (standard library only).

Both the orchestrator (run.py) and the round worker (worker.py) import this
module, so it must not import numpy or cddohs.
"""

from __future__ import annotations

from dataclasses import dataclass

FUNCS = tuple(f"F{i}" for i in range(1, 20))


@dataclass(frozen=True)
class Workload:
    """One pass of a workload; a run repeats the same pass at least
    ``passes`` times, and more while fewer than --seconds are timed.

    A ``grid`` pass makes one ``run_experiment`` call over ``algos`` x F1-F19
    with ``runs`` runs per cell. Otherwise a pass makes ``runs`` independent
    library calls per (function, algorithm) pair, each one run with its own
    seed.
    """

    name: str
    algos: tuple[str, ...]
    runs: int
    iters: int
    passes: int
    pop: int = 40
    grid: bool = True

    @property
    def ops_per_pass(self) -> int:
        return len(self.algos) * len(FUNCS) * self.runs


WORKLOADS = {
    # The paper's grid as users run it, shortened so a pass takes seconds.
    # Ten runs per cell keep the harness's Wilcoxon test on its normal
    # approximation, which scipy reproduces exactly (ties included).
    "study": Workload("study", ("cddo", "cddo-hs", "hs"), runs=10, iters=20, passes=2),
    # HS alone at the paper's full protocol: improvisation and artifact
    # writing dominate and the CDDO engine never runs.
    "hs_baseline": Workload("hs_baseline", ("hs",), runs=30, iters=500, passes=1),
    # A library user's latency: no harness, statistics or artifacts. Twelve
    # seeds per pair give 456 calls; how far an agent moves depends on the
    # seed, so fewer calls would let the seed move the pass's time.
    "single_run": Workload("single_run", ("cddo", "cddo-hs"), runs=12, iters=50, passes=1,
                           grid=False),
}

# Metric names and units, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p95": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "benchmarks.objective_us": "us",
    **{f"benchmarks.{f}.eval_us": "us" for f in FUNCS},
    "core.init_population_us": "us",
    "cddo.step_us": "us",
    "cddo.step_self_us": "us",
    "cddo.golden_ratio_us": "us",
    "cddo.skill_update_us": "us",
    "cddo.creativity_update_us": "us",
    "cddo.moving_share": "ratio",
    "hs.improvise_us": "us",
    "hs.accept_share": "ratio",
    "hybrid.refresh_us": "us",
    "hybrid.refresh_accept_share": "ratio",
    "stats.wilcoxon_us": "us",
    "stats.summarize_us": "us",
    "harness.run_s": "s",
    "harness.cell_s": "s",
    "harness.write_s": "s",
    "harness.artifact_mb": "MB",
    "trace.overhead_s": "s",
}
