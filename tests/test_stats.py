import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resprop import stats
from resprop.stats import (
    ALTERNATIVES,
    EXACT_THRESHOLD,
    WilcoxonResult,
    average_ranks,
    wilcoxon_signed_rank,
)
from resprop.tensor import RngStream


def enumerate_exact(diffs, alternative):
    """Independent oracle: walk all 2^n sign assignments literally."""
    diffs = np.asarray(diffs, dtype=np.float64)
    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    ranks = average_ranks(np.abs(diffs))
    observed = ranks[diffs > 0].sum()
    at_least = at_most = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        at_least += w >= observed - 1e-12
        at_most += w <= observed + 1e-12
    p_greater = at_least / 2 ** n
    p_less = at_most / 2 ** n
    if alternative == "greater":
        p = p_greater
    elif alternative == "less":
        p = p_less
    else:
        p = min(1.0, 2.0 * min(p_less, p_greater))
    return observed, p


class TestAverageRanks:
    def test_hand_case_with_tie(self):
        assert average_ranks([3.0, 1.0, 3.0, 2.0]).tolist() == [3.5, 1.0, 3.5, 2.0]

    def test_distinct_values(self):
        assert average_ranks([10.0, -2.0, 5.0]).tolist() == [3.0, 1.0, 2.0]

    def test_all_tied(self):
        assert average_ranks([7.0, 7.0, 7.0]).tolist() == [2.0, 2.0, 2.0]

    def test_rank_sum_invariant(self):
        rng = RngStream(3, 0)
        for n in (1, 2, 5, 17):
            vals = np.floor(rng.uniform(0, 5, size=n))
            assert average_ranks(vals).sum() == n * (n + 1) / 2


class TestHandValues:
    def test_all_positive_small(self):
        # diffs {1,2,3}: W+ is maximal (6) and only 1 of 8 sign
        # assignments reaches it
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0], alternative="greater")
        assert res.statistic == 6.0
        assert res.p_value == 0.125
        assert res.n_used == 3
        assert res.method == "exact"

    def test_five_pair_case(self):
        # |d| ranks: 1->1, 3->2, 4->3, 5->4, 6->5; positives sum to 14
        res = wilcoxon_signed_rank([5.0, -1.0, 4.0, 6.0, 3.0])
        assert res.statistic == 14.0
        assert res.p_value == 0.125
        assert res.method == "exact"

    def test_identical_samples_no_significance(self):
        x = [0.1, 0.2, 0.3]
        res = wilcoxon_signed_rank(x, x)
        assert res.n_used == 0
        assert res.p_value == 1.0
        assert not res.significant(0.98)

    def test_zero_diffs_dropped(self):
        a = wilcoxon_signed_rank([0.0, 0.0, 1.0, 2.0, 3.0],
                                 alternative="greater")
        b = wilcoxon_signed_rank([1.0, 2.0, 3.0], alternative="greater")
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value
        assert a.n_used == 3

    def test_paired_form_matches_diffs(self):
        x = [1.0, 4.0, 2.5, 7.0]
        y = [0.5, 5.0, 2.0, 3.0]
        a = wilcoxon_signed_rank(x, y)
        b = wilcoxon_signed_rank(np.subtract(x, y))
        assert a == b

    def test_significance_threshold(self):
        res = WilcoxonResult(1.0, 8, 0.0195, "exact")
        assert res.significant(0.98)
        assert not res.significant(0.99)


class TestValidation:
    def test_bad_alternative(self):
        with pytest.raises(ValueError, match="alternative"):
            wilcoxon_signed_rank([1.0], alternative="bigger")

    def test_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            wilcoxon_signed_rank([1.0, 2.0], [1.0])

    def test_matrix_rejected(self):
        with pytest.raises(ValueError, match="vector"):
            wilcoxon_signed_rank(np.ones((2, 2)))


class TestExactAgainstEnumeration:
    @given(st.integers(0, 10**6), st.integers(1, 10),
           st.sampled_from(ALTERNATIVES))
    @settings(max_examples=120, deadline=None)
    def test_random_cases(self, seed, n, alternative):
        rng = RngStream(seed, 0)
        # small integer grid forces frequent ties and occasional zeros
        diffs = np.floor(rng.uniform(-4, 5, size=n))
        res = wilcoxon_signed_rank(diffs, alternative=alternative)
        if res.n_used == 0:
            assert res.p_value == 1.0
            return
        w, p = enumerate_exact(diffs, alternative)
        assert res.statistic == w
        assert res.p_value == p
        assert res.method == "exact"

    def test_w_plus_complement(self):
        rng = RngStream(9, 0)
        for n in (2, 5, 9):
            diffs = rng.uniform(-1, 1, size=n)
            wp = wilcoxon_signed_rank(diffs, alternative="greater")
            wm = wilcoxon_signed_rank(-diffs, alternative="less")
            assert wp.statistic + wm.statistic == n * (n + 1) / 2
            assert wp.p_value == wm.p_value


class TestNormalApproximation:
    def test_method_switches_at_threshold(self):
        rng = RngStream(11, 0)
        at = wilcoxon_signed_rank(rng.uniform(-1, 1, size=EXACT_THRESHOLD))
        above = wilcoxon_signed_rank(rng.uniform(-1, 1, size=EXACT_THRESHOLD + 1))
        assert at.method == "exact"
        assert above.method == "normal"

    def test_against_reference_implementation(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = RngStream(12, 0)
        for n, with_ties in ((25, False), (40, True)):
            diffs = rng.uniform(-1, 1, size=n)
            if with_ties:
                diffs = np.round(diffs, 1)
                diffs = diffs[diffs != 0.0]
            for alternative in ALTERNATIVES:
                res = wilcoxon_signed_rank(diffs, alternative=alternative)
                ref = scipy_stats.wilcoxon(
                    diffs, alternative=alternative,
                    correction=False, mode="approx",
                )
                # scipy reports W+ as well under alternative != two-sided;
                # for two-sided it reports min(W+, W-) so compare p only
                assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12)

    def test_forced_normal_on_small_sample_is_close(self, monkeypatch):
        diffs = [5.0, -1.0, 4.0, 6.0, 3.0, -2.5, 1.5, 7.0, -0.5, 2.0]
        exact = wilcoxon_signed_rank(diffs)
        monkeypatch.setattr(stats, "EXACT_THRESHOLD", 0)
        approx = wilcoxon_signed_rank(diffs)
        assert approx.method == "normal"
        assert approx.p_value == pytest.approx(exact.p_value, abs=0.05)
