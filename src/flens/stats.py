"""Heteroscedastic equal-means testing for per-query similarity audits.

The workhorse is the Alexander-Govern ANOVA variant: each group mean is
compared to a variance-weighted grand mean via a one-sample t statistic,
each t is carried through Hill's normalizing transformation, and the sum
of squared normal scores is referred to a chi-square distribution with
p-1 degrees of freedom. Unlike classical ANOVA it does not assume equal
group variances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import GroupLabels
from .errors import DataError, NumericError


@dataclass(frozen=True)
class TestResult:
    """Test statistic, its p-value, and the chi-square degrees of freedom."""

    statistic: float
    p_value: float
    degrees_of_freedom: int


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail chi-square probability for an integer df, in closed form.

    With h = x/2 the tail is exp(-h)·Σ_{i<df/2} hⁱ/i! for even df and
    erfc(√h) + exp(-h)·Σ_{j<(df-1)/2} h^{j+½}/Γ(j+3/2) for odd df. Each term
    is built in log space and scaled by the largest, so exp(-h) never
    underflows ahead of the sum; every term is positive, so nothing cancels.
    """
    if df < 1:
        raise NumericError(f"degrees of freedom must be positive, got {df}")
    if not x >= 0.0:
        raise NumericError(f"chi-square statistic must be nonnegative, got {x}")
    h = x / 2.0
    if h == 0.0:  # x is 0, or so small that the tail rounds to 1
        return 1.0
    if h == math.inf:
        return 0.0
    log_h = math.log(h)
    if df % 2:
        head, powers = math.erfc(math.sqrt(h)), [j + 0.5 for j in range((df - 1) // 2)]
    else:
        head, powers = 0.0, [float(i) for i in range(df // 2)]
    logs = [k * log_h - h - math.lgamma(k + 1.0) for k in powers]
    top = max(logs, default=0.0)
    return min(1.0, head + math.exp(top) * sum(math.exp(v - top) for v in logs))


def alexander_govern(samples: Sequence[Sequence[float]]) -> TestResult:
    """Equal-means test across groups allowing unequal variances.

    ``samples`` holds each group's real observations: at least two groups of
    at least two finite values each, none of zero variance. Returns the
    statistic A (sum of squared normalized scores) and its p-value from the
    chi-square distribution with p-1 degrees of freedom.
    """
    if len(samples) < 2:
        raise DataError("need at least two groups of observations")
    groups = [np.asarray(sample, dtype=np.float64) for sample in samples]
    for g, sample in enumerate(groups):
        if sample.size < 2:
            raise DataError(f"group {g} has fewer than 2 observations")
        if np.var(sample) == 0.0:
            raise DataError(f"group {g} sample has zero variance")
    sizes = np.array([s.size for s in groups], dtype=np.float64)
    means = np.array([s.mean() for s in groups])
    # Squared standard errors of the group means (sample variance / n).
    se_sq = np.array([s.var(ddof=1) / s.size for s in groups])
    weights = (1.0 / se_sq) / np.sum(1.0 / se_sq)
    grand_mean = np.sum(weights * means)
    t = (means - grand_mean) / np.sqrt(se_sq)
    # Hill's normalizing transformation of each one-sample t statistic.
    nu = sizes - 1.0
    a = nu - 0.5
    b = 48.0 * a**2
    c = np.sqrt(a * np.log1p(t**2 / nu))
    z = c + (c**3 + 3.0 * c) / b - (
        (4.0 * c**7 + 33.0 * c**5 + 240.0 * c**3 + 855.0 * c)
        / (10.0 * b**2 + 8.0 * b * c**4 + 1000.0 * b)
    )
    statistic = float(np.sum(z**2))
    df = len(groups) - 1
    return TestResult(statistic=statistic, p_value=chi_square_sf(statistic, df), degrees_of_freedom=df)


@dataclass(frozen=True, eq=False)
class QueryGroupComparison:
    """Per-query test outcome plus the pairwise mean-similarity gaps.

    abs_mean_diff_x100 holds |mean_i - mean_j| scaled by 100, the
    convention used for similarity-gap heatmaps.
    """

    test: TestResult
    group_mean_similarity: np.ndarray
    abs_mean_diff_x100: np.ndarray


def per_query_similarity_tests(
    similarities: np.ndarray, groups: GroupLabels
) -> list[QueryGroupComparison]:
    """Run the equal-means test on each query's similarity row, split by group.

    Each column is an item that ``groups`` labels, as retrieve-audit builds them.
    """
    masks = [groups.labels == g for g in range(groups.group_count)]
    out = []
    for row in similarities:
        per_group = tuple(row[mask] for mask in masks)
        result = alexander_govern(per_group)
        means = np.array([g.mean() for g in per_group])
        diffs = np.abs(means[:, None] - means[None, :]) * 100.0
        out.append(QueryGroupComparison(result, means, diffs))
    return out
