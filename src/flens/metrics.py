"""Fairness and performance metrics for classification and retrieval.

All disparity metrics reduce a vector of per-group rates to the largest
pairwise absolute difference and report which pair attains it. Rates are
computed as exact integer tallies divided once at the end, so equal rates
compare exactly equal in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import BinaryLabels, GroupLabels, GroupPartition
from .errors import (
    DegenerateDenominator,
    EmptyGroup,
    EmptyInput,
    EmptyPositiveSet,
    EmptySelection,
    InvalidK,
    InvalidSelection,
    ShapeError,
    ValidationError,
)


@dataclass(frozen=True, eq=False)
class MetricResult:
    """A disparity value, the group pair attaining it, and the per-group rates."""

    value: float
    arg_pair: tuple[int, int]
    per_group_rates: np.ndarray

    def __post_init__(self) -> None:
        if not self.value >= 0.0:
            raise ValidationError("metric value must be nonnegative")
        rates = np.asarray(self.per_group_rates, dtype=np.float64)
        rates.setflags(write=False)
        object.__setattr__(self, "per_group_rates", rates)


def _max_pairwise(rates: np.ndarray) -> MetricResult:
    """Max over pairs of |rate_i - rate_j|, attained at (argmax, argmin)."""
    hi = int(np.argmax(rates))
    lo = int(np.argmin(rates))
    return MetricResult(value=float(rates[hi] - rates[lo]), arg_pair=(hi, lo), per_group_rates=rates)


def _check_lengths(a, b) -> None:
    if len(a) != len(b):
        raise ShapeError(f"length mismatch: {len(a)} vs {len(b)}")


def ddp_classification(predictions: BinaryLabels, groups: GroupLabels) -> MetricResult:
    """Demographic disparity of a binary classifier.

    Max over group pairs of the absolute difference in positive-prediction
    fractions. 0 means parity, 1 maximal disparity.
    """
    _check_lengths(predictions, groups)
    group_sizes = groups.counts()
    if np.any(group_sizes == 0):
        raise EmptyGroup("every group must have at least one member")
    positives = np.bincount(
        groups.labels[predictions.positive_mask()], minlength=groups.group_count
    )
    rates = positives / group_sizes
    return _max_pairwise(rates)


def ddp_retrieval(partition: GroupPartition) -> MetricResult:
    """Demographic disparity of a top-k selection.

    For each group the rate is the share of the selection it received minus
    the share of the remainder it received; the metric is the largest
    pairwise gap between those rates. Requires a non-empty selection and a
    non-empty remainder.
    """
    k = partition.total_selected
    z = partition.total_population
    if k == 0:
        raise EmptySelection("cannot score an empty selection")
    if z <= k:
        raise DegenerateDenominator("selection must leave at least one item unselected")
    if any(z_i == 0 for z_i in partition.population_per_group):
        raise EmptyGroup("every group must have population")
    k_i = np.asarray(partition.selected_per_group, dtype=np.int64)
    z_i = np.asarray(partition.population_per_group, dtype=np.int64)
    rates = k_i / k - (z_i - k_i) / (z - k)
    return _max_pairwise(rates)


def dtpr(predictions: BinaryLabels, truth: BinaryLabels, groups: GroupLabels) -> MetricResult:
    """Disparity in true-positive rates across groups.

    Only ground-truth positives enter; every group must contribute at
    least one positive.
    """
    _check_lengths(predictions, truth)
    _check_lengths(predictions, groups)
    pos = truth.positive_mask()
    pos_per_group = np.bincount(groups.labels[pos], minlength=groups.group_count)
    if np.any(pos_per_group == 0):
        empty = int(np.flatnonzero(pos_per_group == 0)[0])
        raise EmptyPositiveSet(f"group {empty} has no ground-truth positives")
    hit = pos & predictions.positive_mask()
    hit_per_group = np.bincount(groups.labels[hit], minlength=groups.group_count)
    rates = hit_per_group / pos_per_group
    return _max_pairwise(rates)


def skew_at_k(
    partition: GroupPartition, desired_fractions: Sequence[float] | None = None
) -> MetricResult:
    """Largest absolute log-ratio of retrieved vs desired group fractions.

    desired_fractions defaults to the uniform 1/p. A group entirely absent
    from the selection yields the +inf sentinel rather than an error: it is
    the extreme of the quantity being measured, not an invalid input.
    """
    p = partition.group_count
    k = partition.total_selected
    if k == 0:
        raise EmptySelection("cannot score an empty selection")
    if desired_fractions is None:
        df = np.full(p, 1.0 / p)
    else:
        df = np.asarray(desired_fractions, dtype=np.float64)
        if df.shape != (p,):
            raise ShapeError("desired_fractions length must equal the group count")
        if np.any(df <= 0.0):
            raise ValidationError("desired fractions must be strictly positive")
        if abs(df.sum() - 1.0) > 1e-9:
            raise ValidationError("desired fractions must sum to 1")
    k_i = np.asarray(partition.selected_per_group, dtype=np.int64)
    log_ratios = np.where(k_i > 0, np.log(np.maximum(k_i, 1) / k / df), -np.inf)
    i = int(np.argmax(np.abs(log_ratios)))
    return MetricResult(value=float(abs(log_ratios[i])), arg_pair=(i, i), per_group_rates=log_ratios)


def ddp_rep(positives_per_group: Sequence[int], total_positives: int) -> MetricResult:
    """Largest pairwise gap in group shares among retrieved positives."""
    counts = np.asarray(positives_per_group, dtype=np.int64)
    if np.any(counts < 0):
        raise ValidationError("negative positive count")
    if total_positives <= 0:
        raise EmptySelection("no retrieved positives to compare")
    if int(counts.sum()) != total_positives:
        raise ValidationError("per-group positives do not sum to the total")
    shares = counts / total_positives
    return _max_pairwise(shares)


def accuracy(predictions, truth) -> float:
    """Fraction of exact matches between two equal-length label vectors."""
    pred = _as_label_array(predictions)
    true = _as_label_array(truth)
    if pred.shape != true.shape:
        raise ShapeError(f"length mismatch: {pred.shape} vs {true.shape}")
    if pred.size == 0:
        raise EmptyInput("cannot compute accuracy of zero items")
    return float(np.count_nonzero(pred == true) / pred.size)


def _as_label_array(labels) -> np.ndarray:
    if isinstance(labels, (BinaryLabels, GroupLabels)):
        return labels.labels
    return np.asarray(labels)


def precision_at_k(ranked: Sequence[int], relevant: Iterable[int], k: int) -> float:
    """Share of the top k ranked indices that are relevant."""
    ranked_arr = np.asarray(ranked, dtype=np.int64)
    if k < 1 or k > ranked_arr.size:
        raise InvalidK(f"k={k} outside [1, {ranked_arr.size}]")
    if np.unique(ranked_arr).size != ranked_arr.size:
        raise InvalidSelection("ranked list contains duplicate indices")
    if isinstance(relevant, np.ndarray):
        relevant_arr = relevant.astype(np.int64, copy=False)
    else:
        relevant_arr = np.fromiter((int(i) for i in relevant), dtype=np.int64)
    hits = np.count_nonzero(np.isin(ranked_arr[:k], relevant_arr))
    return int(hits) / k


def recall_at_k(
    per_query_ranked: Sequence[Sequence[int]], targets: Sequence[int], k: int
) -> float:
    """Fraction of queries whose target item appears in their top k."""
    if len(per_query_ranked) == 0:
        raise EmptyInput("no queries")
    if len(per_query_ranked) != len(targets):
        raise ShapeError("one target per query required")
    if k < 1:
        raise InvalidK("k must be at least 1")
    hits = 0
    for ranked, target in zip(per_query_ranked, targets):
        head = np.asarray(ranked, dtype=np.int64)[:k]
        if int(target) in head:
            hits += 1
    return hits / len(per_query_ranked)

