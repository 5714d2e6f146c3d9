"""Summary statistics, the Wilcoxon rank-sum test, and ranking tables."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SampleSummary:
    avg: float
    std: float  # sample standard deviation (n-1 denominator); 0 for n == 1
    n: int


def summarize(samples) -> SampleSummary:
    xs = np.asarray(list(samples), dtype=float)
    if xs.size == 0:
        raise ValueError("cannot summarize an empty sample")
    avg = float(np.mean(xs))
    std = float(np.std(xs, ddof=1)) if xs.size > 1 else 0.0
    return SampleSummary(avg=avg, std=std, n=int(xs.size))


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks 1..n with ties given the mean of their ranks, and the size of
    each tie group. The one place that ranks ties; NaN has no rank."""
    if np.isnan(values).any():
        raise ValueError("cannot rank NaN")
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # rank of each group's last member
    return (last - (counts - 1) / 2.0)[group], counts


# exact enumeration is used while C(n, n1) stays below this (covers n1+n2 <= 16)
_EXACT_ENUMERATION_LIMIT = 20_000


def _exact_two_sided_p(ranks: np.ndarray, n1: int) -> float:
    """Share of the n1-subsets of the pooled ranks whose rank sum lies at least
    as far from its mean n1(n+1)/2 as the first sample's (the first subset)."""
    n = ranks.size
    subsets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), n1)),
                          dtype=np.intp).reshape(-1, n1)
    deviation = np.abs(ranks[subsets].sum(axis=1) - n1 * (n + 1) / 2.0)
    return int(np.count_nonzero(deviation >= deviation[0])) / deviation.size


def wilcoxon_rank_sum(a, b) -> float:
    """Two-sided rank-sum (Mann-Whitney) p-value with midrank tie handling.

    Small samples are enumerated exactly; larger ones use the normal
    approximation with tie-corrected variance and a 0.5 continuity
    correction (the approximation alone is too coarse below ~n=4).
    Degenerate input (every value identical across both samples) returns 1.0.
    """
    a = np.asarray(list(a), dtype=float)
    b = np.asarray(list(b), dtype=float)
    n1, n2 = a.size, b.size
    if n1 < 2 or n2 < 2:
        raise ValueError("both samples need at least 2 elements")
    ranks, counts = _midranks(np.concatenate([a, b]))
    if counts.size == 1:
        return 1.0  # no evidence either way
    if math.comb(n1 + n2, n1) <= _EXACT_ENUMERATION_LIMIT:
        return _exact_two_sided_p(ranks, n1)
    # the first sample's rank sum, as far from its mean as the exact branch takes it
    n = n1 + n2
    deviation = abs(float(np.sum(ranks[:n1])) - n1 * (n + 1) / 2.0)

    # tie correction: 1 - sum(t^3 - t) / (N^3 - N)
    correction = 1.0 - float(np.sum(counts ** 3 - counts)) / (n ** 3 - n)
    sd = math.sqrt(correction * n1 * n2 * (n + 1) / 12.0)

    z = max((deviation - 0.5) / sd, 0.0)
    # the two-sided normal tail, 2(1 - Phi(z)), without the cancellation of 1 - Phi(z)
    p = math.erfc(z / math.sqrt(2.0))
    return min(max(p, np.nextafter(0.0, 1.0)), 1.0)


@dataclass(frozen=True)
class RankTable:
    placements: dict  # func id -> {algo: placement (1 = best)}
    scores: dict      # algo -> mean placement, lower is better


def table_algorithms(results: dict) -> list:
    """The algorithms of ``results`` ({func: {algo: avg}}) in table order. A function
    without an average of one of them raises, naming the first such function and the
    first algorithm it lacks."""
    algos = list(dict.fromkeys(itertools.chain.from_iterable(results.values())))
    for func, row in results.items():
        missing = [algo for algo in algos if algo not in row]
        if missing:
            raise ValueError(f"{func}: no {missing[0]!r} average")
    return algos


def rank_algorithms(results: dict) -> RankTable:
    """Rank algorithms per function by average fitness (ascending).

    ``results`` maps function id -> {algorithm: avg}. Ties share the midrank
    (mean of the tied placements), matching how the published table spreads
    tied algorithms over consecutive places. Score = mean placement across
    functions.
    """
    if not results:
        raise ValueError("results must be non-empty")
    algos = sorted(table_algorithms(results))
    if not algos:
        raise ValueError("need at least one algorithm to rank")

    placements: dict = {}
    for func, row in results.items():
        ranks, _ = _midranks(np.array([row[a] for a in algos], dtype=float))
        placements[func] = dict(zip(algos, ranks.tolist()))
    scores = {
        a: float(np.mean([placements[f][a] for f in results])) for a in algos
    }
    return RankTable(placements=placements, scores=scores)
