"""Shared data model: embeddings, labels, splits, and group partitions.

Every container here is immutable after construction (numpy buffers are
marked read-only), so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateVector,
    EmptyGroup,
    InvalidSelection,
    ShapeError,
    ValidationError,
)

TRAIN = "train"
TEST = "test"


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """Dense n x d matrix of embedding vectors, held as float64 in memory.

    ``finite=True`` skips the NaN/Inf scan, for values whose source was
    already scanned: a file's float32 payload, or rows of another matrix.
    """

    values: np.ndarray
    finite: InitVar[bool] = False

    def __post_init__(self, finite: bool) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ShapeError(f"embedding matrix must be 2-d, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValidationError("embedding matrix needs at least one row and one column")
        if not finite and not np.all(np.isfinite(values)):
            raise ValidationError("embedding matrix contains NaN or Inf")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    @cached_property
    def unit_rows(self) -> np.ndarray:
        """Rows scaled to unit L2 norm, computed on first use and read-only.

        Raises DegenerateVector naming the first zero-norm row; nothing is
        cached then, so every later use raises again.
        """
        norms = np.linalg.norm(self.values, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise DegenerateVector(f"row {int(zero[0])} has zero norm")
        return _freeze(self.values / norms[:, None])

    def take(self, indices: np.ndarray) -> "EmbeddingMatrix":
        """New matrix with the given rows, in the given order."""
        return EmbeddingMatrix(self.values[np.asarray(indices)], finite=True)


@dataclass(frozen=True, eq=False)
class GroupLabels:
    """Per-item protected-group indices in [0, group_count).

    The constructor deliberately allows a group index to be absent from
    ``labels``: inferred labelings can legitimately leave a group empty
    (e.g. when two attribute prompts coincide). Operations whose math
    requires every group to be populated call :meth:`require_all_groups`,
    and dataset loading rejects splits with absent groups.
    """

    labels: np.ndarray
    group_count: int
    group_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ShapeError(f"group labels must be 1-d, got shape {labels.shape}")
        if self.group_count < 2:
            raise ValidationError("group_count must be at least 2")
        if labels.size and (labels.min() < 0 or labels.max() >= self.group_count):
            raise ValidationError("group label outside [0, group_count)")
        if self.group_names is not None:
            names = tuple(str(s) for s in self.group_names)
            if len(names) != self.group_count:
                raise ValidationError("group_names length must equal group_count")
            object.__setattr__(self, "group_names", names)
        object.__setattr__(self, "labels", _freeze(labels))

    def __len__(self) -> int:
        return int(self.labels.size)

    def counts(self) -> np.ndarray:
        """Item count per group over the full label vector."""
        return np.bincount(self.labels, minlength=self.group_count)

    def require_all_groups(self) -> None:
        """Raise EmptyGroup unless every group index occurs at least once."""
        counts = self.counts()
        if np.any(counts == 0):
            missing = int(np.flatnonzero(counts == 0)[0])
            raise EmptyGroup(f"group {missing} has no members")

    def take(self, indices: np.ndarray) -> "GroupLabels":
        return GroupLabels(self.labels[np.asarray(indices)], self.group_count, self.group_names)


@dataclass(frozen=True, eq=False)
class BinaryLabels:
    """Per-item values in {-1, +1}; +1 is the positive class."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ShapeError(f"binary labels must be 1-d, got shape {labels.shape}")
        if labels.size and not np.all(np.isin(labels, (-1, 1))):
            raise ValidationError("binary labels must be -1 or +1")
        object.__setattr__(self, "labels", _freeze(labels))

    def __len__(self) -> int:
        return int(self.labels.size)

    def positive_mask(self) -> np.ndarray:
        return self.labels == 1

    def take(self, indices: np.ndarray) -> "BinaryLabels":
        return BinaryLabels(self.labels[np.asarray(indices)])


def split_tags(split: np.ndarray | None, protected: GroupLabels) -> np.ndarray:
    """Checked, read-only split tags, one per item that ``protected`` labels.

    None tags every item as test data. Every tag must be train or test, and
    a non-empty split must contain every protected group.
    """
    n = len(protected)
    if split is None:
        tags = np.full(n, TEST, dtype="<U5")
    else:
        tags = np.asarray(split, dtype=str)  # full width: "training" is not "train"
        if tags.shape != (n,):
            raise ShapeError("split tags length differs from embedding rows")
        bad = ~np.isin(tags, (TRAIN, TEST))
        if np.any(bad):
            raise ValidationError(f"unknown split tag {str(tags[bad][0])!r}")
        tags = tags.astype("<U5")
    for tag in (TRAIN, TEST):
        mask = tags == tag
        if not np.any(mask):
            continue
        present = np.bincount(protected.labels[mask], minlength=protected.group_count)
        if np.any(present == 0):
            missing = int(np.flatnonzero(present == 0)[0])
            raise EmptyGroup(f"group {missing} absent from the {tag} split")
    return _freeze(tags)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Embeddings joined with protected labels, optional task labels, and split tags.

    A non-empty split must contain every protected group; datasets violating
    this are rejected here rather than failing later inside a pairwise max.
    When ``split`` is omitted every item is tagged as test data.
    """

    embeddings: EmbeddingMatrix
    protected: GroupLabels
    ground_truth: BinaryLabels | None = None
    split: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.embeddings.rows
        if len(self.protected) != n:
            raise ShapeError("protected labels length differs from embedding rows")
        if self.ground_truth is not None and len(self.ground_truth) != n:
            raise ShapeError("ground-truth labels length differs from embedding rows")
        object.__setattr__(self, "split", split_tags(self.split, self.protected))

    @property
    def n(self) -> int:
        return self.embeddings.rows

    @property
    def train_mask(self) -> np.ndarray:
        return self.split == TRAIN

    @property
    def test_mask(self) -> np.ndarray:
        return self.split == TEST

    def subset(self, tag: str) -> "LabeledDataset":
        """Dataset restricted to one split; the subset keeps its tag."""
        if tag not in (TRAIN, TEST):
            raise ValidationError(f"unknown split tag {tag!r}")
        idx = np.flatnonzero(self.split == tag)
        if idx.size == 0:
            raise EmptyGroup(f"the {tag} split is empty")
        return LabeledDataset(
            embeddings=self.embeddings.take(idx),
            protected=self.protected.take(idx),
            ground_truth=None if self.ground_truth is None else self.ground_truth.take(idx),
            split=self.split[idx],
        )


@dataclass(frozen=True)
class GroupPartition:
    """Counts of selected items per group against the full population.

    selected_per_group holds |K_i|, population_per_group holds |Z_i|.
    """

    selected_per_group: tuple[int, ...]
    total_selected: int
    population_per_group: tuple[int, ...]
    total_population: int

    def __post_init__(self) -> None:
        if len(self.selected_per_group) != len(self.population_per_group):
            raise ShapeError("per-group count vectors differ in length")
        if sum(self.selected_per_group) != self.total_selected:
            raise ValidationError("selected counts do not sum to total_selected")
        if sum(self.population_per_group) != self.total_population:
            raise ValidationError("population counts do not sum to total_population")
        for k_i, z_i in zip(self.selected_per_group, self.population_per_group):
            if k_i < 0 or z_i < 0:
                raise ValidationError("negative group count")
            if k_i > z_i:
                raise ValidationError("selected more items than a group contains")

    @property
    def group_count(self) -> int:
        return len(self.selected_per_group)


def partition_by_group(selected: Sequence[int] | np.ndarray, groups: GroupLabels) -> GroupPartition:
    """Tally a selection of item indices into per-group counts.

    Raises InvalidSelection on duplicate or out-of-range indices. The order
    of ``selected`` is irrelevant.
    """
    sel = np.asarray(selected, dtype=np.int64)
    if sel.ndim != 1:
        raise InvalidSelection(f"selection must be 1-d, got shape {sel.shape}")
    n = len(groups)
    if sel.size:
        if sel.min() < 0 or sel.max() >= n:
            raise InvalidSelection("selection index out of range")
        if np.bincount(sel, minlength=n).max() > 1:
            raise InvalidSelection("selection contains duplicate indices")
    per_group = np.bincount(groups.labels[sel], minlength=groups.group_count)
    population = groups.counts()
    return GroupPartition(
        selected_per_group=tuple(int(c) for c in per_group),
        total_selected=int(sel.size),
        population_per_group=tuple(int(c) for c in population),
        total_population=n,
    )
