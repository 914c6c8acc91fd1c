"""Wilcoxon signed-rank test with an exact small-sample distribution.

The statistic is W+, the sum of the ranks of the positive differences
(ranks of |d| with average ranks on ties; zero differences are dropped
before ranking, the usual convention). For n <= EXACT_THRESHOLD pairs
the null distribution is computed exactly by enumerating all 2^n
equiprobable sign assignments via a generating-polynomial convolution
over doubled ranks (doubling makes tied half-ranks integral), so
p-values are exact dyadic rationals. Larger n uses the normal
approximation with tie-corrected variance and no continuity correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXACT_THRESHOLD = 20

ALTERNATIVES = ("two-sided", "greater", "less")


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties replaced by the mean of their rank range."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float        # W+ over the nonzero differences
    n_used: int             # pairs remaining after dropping zero differences
    p_value: float
    method: str             # "exact" or "normal"

    def significant(self, confidence: float = 0.98) -> bool:
        return self.p_value < 1.0 - confidence


def wilcoxon_signed_rank(x, y=None,
                         alternative: str = "two-sided") -> WilcoxonResult:
    """Test whether paired differences are symmetric about zero.

    With `y` given the differences are x - y; otherwise x already holds
    the differences. "greater" tests for positive location of x - y.
    """
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}")
    x = np.asarray(x, dtype=np.float64)
    if y is not None:
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape:
            raise ValueError(
                f"paired samples must have equal length, got {x.shape} and {y.shape}"
            )
        diffs = x - y
    else:
        diffs = x
    if diffs.ndim != 1:
        raise ValueError("differences must be a vector")

    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    if n == 0:
        return WilcoxonResult(0.0, 0, 1.0, "exact")

    ranks = average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())

    if n <= EXACT_THRESHOLD:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        total = int(doubled.sum())
        counts = np.zeros(total + 1, dtype=np.int64)
        counts[0] = 1
        upto = 0
        for r in doubled:
            nxt = counts.copy()
            nxt[r:upto + r + 1] += counts[:upto + 1]
            counts = nxt
            upto += r
        denom = 2 ** n
        w2 = int(round(2.0 * w_plus))
        p_less = int(counts[:w2 + 1].sum()) / denom
        p_greater = int(counts[w2:].sum()) / denom
        method = "exact"
    else:
        mu = n * (n + 1) / 4.0
        _, tie_counts = np.unique(np.abs(diffs), return_counts=True)
        tie_term = float(((tie_counts ** 3) - tie_counts).sum()) / 48.0
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
        sd = math.sqrt(var)
        z = (w_plus - mu) / sd
        p_greater = 0.5 * math.erfc(z / math.sqrt(2.0))
        p_less = 0.5 * math.erfc(-z / math.sqrt(2.0))
        method = "normal"

    if alternative == "greater":
        p = p_greater
    elif alternative == "less":
        p = p_less
    else:
        p = min(1.0, 2.0 * min(p_less, p_greater))
    return WilcoxonResult(w_plus, n, p, method)
