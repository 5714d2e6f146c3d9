"""Spans at cddohs's public-function boundaries, recorded from outside.

``install`` replaces module attributes with wrappers that record one span
(name, parent, start, end) per call into flat in-memory arrays. The program
itself is unchanged; ``restore`` puts the original functions back. Self time
of a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name) of every plain function that is wrapped.
# Each is replaced where its callers look it up at call time.
TARGETS = [
    ("core", "init_population", "core.init_population"),
    ("cddo", "cddo_step", "cddo.step"),
    ("cddo", "golden_ratio", "cddo.golden_ratio"),
    ("cddo", "skill_update", "cddo.skill_update"),
    ("cddo", "creativity_update", "cddo.creativity_update"),
    ("hs", "improvise", "hs.improvise"),
    ("harness", "summarize", "stats.summarize"),
    ("harness", "wilcoxon_rank_sum", "stats.wilcoxon"),
    ("harness", "run_cell", "harness.cell"),
    ("harness", "run_experiment", "harness.experiment"),
    # the optimiser entry points, as library users call them
    ("cddo", "cddo_run", "harness.run"),
    ("hs", "hs_run", "harness.run"),
    ("hybrid", "cddo_hs_run", "harness.run"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.accepted: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, accepted=None):
        """fn, recording a span per call; ``accepted(result)`` counts outcomes."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if accepted is not None and accepted(result):
                self.accepted[name] += 1
            return result

        return traced

    def patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap the public boundaries of every cddohs layer."""
        from cddohs import benchmarks, cddo, core, harness, hs, hybrid

        modules = {"core": core, "cddo": cddo, "hs": hs, "harness": harness,
                   "hybrid": hybrid}
        for module, attr, name in TARGETS:
            owner = modules[module]
            self.patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        for algo, fn in harness.ALGORITHMS.items():
            self.patch_item(harness.ALGORITHMS, algo, self.wrap("harness.run", fn))
        self.patch(hs.HarmonyMemory, "replace_worst",
                   self.wrap("hs.replace_worst", hs.HarmonyMemory.replace_worst, bool))
        # the hybrid's per-iteration HS refresh returns (replaced, candidate)
        self.patch(hybrid, "_improvise_refresh",
                   self.wrap("hybrid.refresh", hybrid._improvise_refresh, lambda r: r[0]))

        # Objectives are plain callables on each Problem: trace them on every
        # Problem the registry builds.
        def make_function(original):
            def traced_make_function(func_id):
                problem = original(func_id)
                objective = self.wrap("benchmarks.objective", problem.objective)
                return dataclasses.replace(problem, objective=objective)
            return traced_make_function

        for owner in (benchmarks, harness):
            self.patch(owner, "make_function", make_function(owner.make_function))

    def patch_item(self, mapping: dict, key, replacement):
        self._patched.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
        }

    def totals(self) -> dict:
        """Per span name: call count, total and self seconds, accepted count."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        count = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=self_time, minlength=k)
        return {
            name: {"count": int(count[i]), "total_s": float(total[i]),
                   "self_s": float(own[i]), "accepted": self.accepted[name]}
            for i, name in enumerate(self.names)
        }


def per_layer_metrics(totals: dict, pop: int, scale: float, kernel_in_cells_s: float,
                      eval_us: dict, artifact_mb: float, overhead_s: float) -> dict:
    """The per-layer metrics from span totals summed over a run's traced passes.

    Span times are multiplied by ``scale``, the traced passes' factor to the
    host's reference speed (calibrate.py). The calibration kernel runs before
    each optimiser call, inside ``run_cell``, so its time is taken out of
    ``harness.cell_s``. A layer the workload never calls reads 0.
    """
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_s(name, less=0.0):
        return scale * ratio(get(name, "total_s") - less, get(name, "count"))

    def mean_us(name):
        return 1e6 * mean_s(name)

    steps = pop * get("cddo.step", "count")
    moves = get("cddo.skill_update", "count") + get("cddo.creativity_update", "count")
    return {
        "benchmarks.objective_us": mean_us("benchmarks.objective"),
        **{f"benchmarks.{f}.eval_us": us for f, us in eval_us.items()},
        "core.init_population_us": mean_us("core.init_population"),
        "cddo.step_us": 1e6 * scale * ratio(get("cddo.step", "total_s"), steps),
        "cddo.step_self_us": 1e6 * scale * ratio(get("cddo.step", "self_s"), steps),
        "cddo.golden_ratio_us": mean_us("cddo.golden_ratio"),
        "cddo.skill_update_us": mean_us("cddo.skill_update"),
        "cddo.creativity_update_us": mean_us("cddo.creativity_update"),
        "cddo.moving_share": ratio(moves, steps),
        "hs.improvise_us": mean_us("hs.improvise"),
        "hs.accept_share": ratio(get("hs.replace_worst", "accepted"),
                                 get("hs.replace_worst", "count")),
        "hybrid.refresh_us": mean_us("hybrid.refresh"),
        "hybrid.refresh_accept_share": ratio(get("hybrid.refresh", "accepted"),
                                             get("hybrid.refresh", "count")),
        "stats.wilcoxon_us": mean_us("stats.wilcoxon"),
        "stats.summarize_us": mean_us("stats.summarize"),
        "harness.run_s": mean_s("harness.run"),
        "harness.cell_s": mean_s("harness.cell", less=kernel_in_cells_s),
        "harness.write_s": scale * ratio(get("harness.experiment", "self_s"),
                                         get("harness.experiment", "count")),
        "harness.artifact_mb": artifact_mb,
        "trace.overhead_s": overhead_s,
    }
