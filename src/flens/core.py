"""Shared data model: embeddings, group labels and split tags.

Every container here is immutable after construction: numpy buffers are
marked read-only, so no holder can change the values another one reads.
Binary task labels need no container: a label column decodes to a
read-only boolean array, true at the positive class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

TRAIN = "train"
TEST = "test"
# Rows per block wherever n x d work streams through fixed memory: reading,
# checking and writing embeddings files, the fair-PCA scatter, and the items
# of each similarity GEMM. Fixed, so no output depends on a memory setting.
BLOCK_ROWS = 4096


def row_norms(values: np.ndarray) -> np.ndarray:
    """Each row's L2 norm, summed by einsum with no temporary the size of ``values``.

    A row's norm does not depend on the rows beside it.
    """
    return np.sqrt(np.einsum("ij,ij->i", values, values))


def lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Linear interpolation from ``a`` to ``b`` at ``t``, computed as numpy computes it.

    np.quantile's "linear" method steps up from ``a`` where t < 0.5 and down
    from ``b`` elsewhere. Computed the same way, a quantile read off sorted
    values matches np.quantile to the last bit, so the report quartiles and
    the MI-clip bin edges need no np.quantile call.
    """
    step = b - a
    return np.where(t >= 0.5, b - step * (1 - t), a + step * t)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """A whole n x d float64 matrix: synth's draw, in the form write_embeddings takes.

    The library passes plain 2-d arrays; this class stays because the benchmark's
    set-up names it. io, not this class, checks values for NaN/Inf.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"embedding matrix must be 2-d, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError("embedding matrix needs at least one row and one column")
        object.__setattr__(self, "values", _freeze(values))


@dataclass(frozen=True, eq=False)
class GroupLabels:
    """Per-item protected-group indices in [0, group_count).

    The constructor allows a group index to be absent from ``labels``:
    an inferred labeling can leave a group empty, e.g. when two attribute
    prompts coincide. Every group present is checked where labels enter:
    split_tags checks each split of a label table, and debias-fit checks
    an inferred labeling. The metrics, tests and fits assume it.
    """

    labels: np.ndarray
    group_count: int
    group_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise DataError(f"group labels must be 1-d, got shape {labels.shape}")
        if self.group_count < 2:
            raise DataError("group_count must be at least 2")
        if labels.size and (labels.min() < 0 or labels.max() >= self.group_count):
            raise DataError("group label outside [0, group_count)")
        if self.group_names is not None:
            names = tuple(str(s) for s in self.group_names)
            if len(names) != self.group_count:
                raise DataError("group_names length must equal group_count")
            object.__setattr__(self, "group_names", names)
        object.__setattr__(self, "labels", _freeze(labels))

    def __len__(self) -> int:
        return int(self.labels.size)

    def counts(self) -> np.ndarray:
        """Item count per group over the full label vector."""
        return np.bincount(self.labels, minlength=self.group_count)

    def take(self, indices: np.ndarray) -> "GroupLabels":
        return GroupLabels(self.labels[np.asarray(indices)], self.group_count, self.group_names)


def split_tags(split: np.ndarray | None, protected: GroupLabels) -> np.ndarray:
    """Checked, read-only split tags, one per item that ``protected`` labels.

    None tags every item as test data. Every tag must be train or test, and
    a non-empty split must contain every protected group. cli._load_labels
    takes ``split`` and ``protected`` from one table, so their lengths agree.
    """
    if split is None:
        tags = np.full(len(protected), TEST, dtype="<U5")
    else:
        tags = np.asarray(split, dtype=str)  # full width: "training" is not "train"
        bad = ~np.isin(tags, (TRAIN, TEST))
        if np.any(bad):
            raise DataError(f"unknown split tag {str(tags[bad][0])!r}")
        tags = tags.astype("<U5")
    for tag in (TRAIN, TEST):
        mask = tags == tag
        if not np.any(mask):
            continue
        present = np.bincount(protected.labels[mask], minlength=protected.group_count)
        if np.any(present == 0):
            missing = int(np.flatnonzero(present == 0)[0])
            raise DataError(f"group {missing} absent from the {tag} split")
    return _freeze(tags)
