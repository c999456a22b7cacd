"""Fairness and performance metrics for classification and retrieval.

All disparity metrics reduce a vector of per-group rates to the largest
pairwise absolute difference and report which pair attains it. Rates are
computed as exact integer tallies divided once at the end, so equal rates
compare exactly equal in floating point. Binary predictions and ground
truth are boolean arrays, true at the positive class, at the rows of the
groups; split_masks checks every group is present and retrieve-audit checks
k, so a selection is non-empty and, for DDP, leaves an item unselected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import GroupLabels
from .errors import DataError


@dataclass(frozen=True, eq=False)
class MetricResult:
    """A disparity value, the group pair attaining it, and the per-group rates."""

    value: float
    arg_pair: tuple[int, int]
    per_group_rates: np.ndarray


def _max_pairwise(rates: np.ndarray) -> MetricResult:
    """Max over pairs of |rate_i - rate_j|, attained at (argmax, argmin)."""
    hi = int(np.argmax(rates))
    lo = int(np.argmin(rates))
    return MetricResult(value=float(rates[hi] - rates[lo]), arg_pair=(hi, lo), per_group_rates=rates)


def ddp_classification(predictions: np.ndarray, groups: GroupLabels) -> MetricResult:
    """Demographic disparity of a binary classifier.

    Max over group pairs of the absolute difference in positive-prediction
    fractions. 0 means parity, 1 maximal disparity. Every group has a member.
    """
    group_sizes = groups.counts()
    positives = np.bincount(groups.labels[predictions], minlength=groups.group_count)
    rates = positives / group_sizes
    return _max_pairwise(rates)


def ddp_retrieval(
    selected_per_group: Sequence[int], population_per_group: Sequence[int]
) -> MetricResult:
    """Demographic disparity of a top-k selection, from per-group counts.

    ``selected_per_group`` holds |K_i|, the selected items of group i, and
    ``population_per_group`` holds |Z_i|, all of group i's items. For each
    group the rate is the share of the selection it received minus the share
    of the remainder it received; the metric is the largest pairwise gap
    between those rates. Requires a non-empty selection and a non-empty
    remainder, as retrieve-audit checks k; every group has population.
    """
    k_i = np.asarray(selected_per_group, dtype=np.int64)
    z_i = np.asarray(population_per_group, dtype=np.int64)
    k, z = int(k_i.sum()), int(z_i.sum())
    rates = k_i / k - (z_i - k_i) / (z - k)
    return _max_pairwise(rates)


def dtpr(predictions: np.ndarray, truth: np.ndarray, groups: GroupLabels) -> MetricResult:
    """Disparity in true-positive rates across groups.

    Only ground-truth positives enter; every group must contribute at
    least one positive.
    """
    pos_per_group = np.bincount(groups.labels[truth], minlength=groups.group_count)
    if np.any(pos_per_group == 0):
        empty = int(np.flatnonzero(pos_per_group == 0)[0])
        raise DataError(f"group {empty} has no ground-truth positives")
    hit = truth & predictions
    hit_per_group = np.bincount(groups.labels[hit], minlength=groups.group_count)
    rates = hit_per_group / pos_per_group
    return _max_pairwise(rates)


def skew_at_k(selected_per_group: Sequence[int]) -> MetricResult:
    """Largest absolute log-ratio of retrieved vs the uniform 1/p group fractions.

    ``selected_per_group`` holds the selected item count of each of the p
    groups. A group entirely absent from the selection yields the +inf
    sentinel rather than an error: it is the extreme of the quantity being
    measured, not an invalid input. The selection is non-empty.
    """
    k_i = np.asarray(selected_per_group, dtype=np.int64)
    desired = 1.0 / k_i.size
    k = int(k_i.sum())
    log_ratios = np.where(k_i > 0, np.log(np.maximum(k_i, 1) / k / desired), -np.inf)
    i = int(np.argmax(np.abs(log_ratios)))
    return MetricResult(value=float(abs(log_ratios[i])), arg_pair=(i, i), per_group_rates=log_ratios)


def ddp_rep(positives_per_group: Sequence[int]) -> MetricResult:
    """Largest gap in group shares of retrieved positives; retrieve-audit checks there is one."""
    counts = np.asarray(positives_per_group, dtype=np.int64)
    return _max_pairwise(counts / int(counts.sum()))


def accuracy(predictions: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of exact matches between two equal-length, non-empty label arrays."""
    return float(np.count_nonzero(predictions == truth) / predictions.size)
