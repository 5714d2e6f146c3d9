import itertools
import math

import numpy as np
import pytest

from cddohs.reference import TABLE6, TABLE8_SCORES, checksum
from cddohs.stats import SampleSummary, rank_algorithms, summarize, wilcoxon_rank_sum


def _midranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def exact_rank_sum_p(a, b):
    """Exact two-sided p by enumerating every assignment of pooled ranks.

    Independent oracle: counts the fraction of C(n, n1) rank partitions whose
    U statistic is at least as extreme as the observed one.
    """
    pooled = list(a) + list(b)
    n1, n = len(a), len(pooled)
    ranks = _midranks(pooled)
    mean_u = n1 * (n - n1) / 2.0

    def u_stat(idx):
        r1 = sum(ranks[i] for i in idx)
        u1 = n1 * (n - n1) + n1 * (n1 + 1) / 2.0 - r1
        return abs(u1 - mean_u)

    observed = u_stat(range(n1))
    total = extreme = 0
    for idx in itertools.combinations(range(n), n1):
        total += 1
        if u_stat(idx) >= observed - 1e-12:
            extreme += 1
    return extreme / total


class TestSummarize:
    def test_constant_sample(self):
        assert summarize([5, 5, 5]) == SampleSummary(avg=5.0, std=0.0, n=3)

    def test_hand_computed(self):
        s = summarize([1, 2, 3])
        assert s.avg == 2.0
        assert s.std == pytest.approx(1.0)

    def test_singleton(self):
        assert summarize([4.2]) == SampleSummary(avg=4.2, std=0.0, n=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_translation_behavior(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=30)
        s0, s1 = summarize(xs), summarize(xs + 17.0)
        assert s1.avg == pytest.approx(s0.avg + 17.0)
        assert s1.std == pytest.approx(s0.std)


class TestWilcoxon:
    def test_identical_samples(self):
        assert wilcoxon_rank_sum([1, 2, 3], [1, 2, 3]) == 1.0

    def test_fully_separated_small(self):
        p = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
        assert exact_rank_sum_p([1, 2, 3], [4, 5, 6]) == pytest.approx(0.1)
        assert abs(p - 0.1) <= 0.05

    def test_symmetric_in_arguments(self):
        a, b = [1.5, 2.0, 9.0, 4.0], [3.0, 3.0, 8.0]
        assert wilcoxon_rank_sum(a, b) == pytest.approx(wilcoxon_rank_sum(b, a))

    def test_degenerate_all_equal(self):
        assert wilcoxon_rank_sum([7, 7, 7], [7, 7]) == 1.0

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([1], [2, 3])

    def test_matches_exact_oracle_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            na, nb = rng.integers(2, 9), rng.integers(2, 9)
            a = rng.integers(0, 10, size=na).tolist()
            b = rng.integers(0, 10, size=nb).tolist()
            # every pair takes the exact branch, so it must equal the oracle
            assert wilcoxon_rank_sum(a, b) == exact_rank_sum_p(a, b), (a, b)

    def test_approximation_branch_near_exact_oracle(self):
        # sizes chosen so comb(n, n1) exceeds the exact-enumeration cutoff,
        # forcing the normal approximation, while the oracle still enumerates
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.integers(0, 100, size=10).tolist()
            b = rng.integers(0, 100, size=10).tolist()
            approx = wilcoxon_rank_sum(a, b)
            exact = exact_rank_sum_p(a, b)
            assert abs(approx - exact) <= 0.05, (a, b, approx, exact)

    def test_approximation_branch_with_ties_pin(self):
        # 10 vs 10 takes the tie-corrected normal approximation; the literal
        # pins its bits, so a change to midranks or tie counts shows up
        a = [0, 0, 1, 1, 1, 2, 3, 3, 5, 7]
        b = [2, 3, 3, 4, 4, 4, 6, 7, 7, 7]
        assert wilcoxon_rank_sum(a, b) == 0.01969887959945682

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_rank_sum([1, math.nan, 2], [3, 4, math.nan])

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=12).tolist()
        b = (rng.normal(size=15) + 0.5).tolist()
        base = wilcoxon_rank_sum(a, b)
        assert wilcoxon_rank_sum(np.exp(a), np.exp(b)) == pytest.approx(base)
        assert wilcoxon_rank_sum(3 * np.asarray(a) + 2, 3 * np.asarray(b) + 2) == pytest.approx(base)


class TestRanking:
    def test_two_algorithms_forced_order(self):
        t = rank_algorithms({"F1": {"a": 1.0, "b": 2.0}})
        assert t.placements["F1"] == {"a": 1.0, "b": 2.0}
        assert t.scores == {"a": 1.0, "b": 2.0}

    def test_all_tied_share_midrank(self):
        t = rank_algorithms({"F1": {"a": 5.0, "b": 5.0, "c": 5.0}})
        assert t.placements["F1"] == {"a": 2.0, "b": 2.0, "c": 2.0}

    def test_winner_everywhere_scores_one(self):
        results = {f"F{i}": {"win": 0.0, "lose": float(i)} for i in range(1, 6)}
        assert rank_algorithms(results).scores["win"] == 1.0

    def test_inconsistent_rows_rejected(self):
        with pytest.raises(ValueError):
            rank_algorithms({"F1": {"a": 1.0}, "F2": {"b": 1.0}})

    def test_empty_algorithm_set_rejected(self):
        with pytest.raises(ValueError, match="at least one algorithm"):
            rank_algorithms({"F1": {}, "F2": {}})

    def test_placements_match_counting_reference(self):
        # reference: (number strictly better) + (number tied, itself included, + 1) / 2
        rng = np.random.default_rng(5)
        for _ in range(200):
            row = {f"a{i}": float(v) for i, v in enumerate(rng.integers(0, 4, rng.integers(1, 8)))}
            placements = rank_algorithms({"F1": row}).placements["F1"]
            for a, v in row.items():
                less = sum(w < v for w in row.values())
                tied = sum(w == v for w in row.values())
                assert placements[a] == less + (tied + 1) / 2.0, row

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            rank_algorithms({"F1": {"a": math.nan, "b": 1.0}, "F2": {"a": 2.0, "b": 1.0}})

    def test_table6_scores_pin(self):
        assert rank_algorithms(TABLE6).scores == {
            "BOA": 6.2, "CDDO-HS": 2.35, "ChOA": 6.0, "DCSO": 2.95, "FOX": 2.85,
            "GWO-WOA": 3.85, "WOA-BAT": 3.8}

    def test_reproduces_published_ranking(self):
        t = rank_algorithms(TABLE6)
        assert t.best_algorithm() == "CDDO-HS"
        assert t.worst_algorithm() == "BOA"
        for algo, published in TABLE8_SCORES.items():
            assert abs(t.scores[algo] - published) <= 0.3


def test_reference_tables_checksum():
    # guards against transcription drift in the embedded published data
    assert checksum() == EXPECTED_CHECKSUM


EXPECTED_CHECKSUM = "a9f6772f9968defc0194955439dc086cedd964b229d52383c8beb24bde0273fd"
