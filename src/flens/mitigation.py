"""Post-processing debiasing transforms fitted on a train split.

Two families:

* mutual-information dimension clipping: rank embedding dimensions by a
  plug-in MI estimate against the protected attribute and drop the most
  informative ones;
* fair PCA: a variance-maximizing orthonormal projection whose output has
  exactly zero empirical correlation with every demeaned group indicator
  on the train split.

The fitted map is a single shared transform: apply it unchanged to both
item and query embeddings. Transformed vectors are fed to cosine
similarity directly; no renormalization step is needed because cosine
normalizes per vector anyway. Each transform class applies itself and
reads and writes its own body of a ``.ftfm`` container, under its KIND code.
"""

from __future__ import annotations

import logging
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import BLOCK_ROWS, GroupLabels, lerp
from .errors import ConfigError, DataError, NumericError

log = logging.getLogger(__name__)

# Relative singular-value cutoff for rank decisions, and the residual /
# orthonormality tolerances the fitted projection must meet.
RANK_RTOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
CONSTRAINT_TOL = 1e-8
# Values per block of columns binned together by estimate_mi_per_dimension.
_MI_BLOCK_ELEMENTS = 2**15


def _le_f8(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


@dataclass(frozen=True, eq=False)
class MiClipTransform:
    """Boolean keep-mask over embedding dimensions plus the MI scores behind it."""

    KIND = 1  # its code in a .ftfm container

    keep_mask: np.ndarray
    mi_scores: np.ndarray

    def __post_init__(self) -> None:
        mask = np.asarray(self.keep_mask, dtype=bool)
        scores = np.asarray(self.mi_scores, dtype=np.float64)
        if mask.ndim != 1 or scores.shape != mask.shape:
            raise DataError("keep_mask and mi_scores must be aligned 1-d vectors")
        if int(mask.sum()) < 1:
            raise DataError("mask must retain at least one dimension")
        mask.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "keep_mask", mask)
        object.__setattr__(self, "mi_scores", scores)

    @property
    def input_dims(self) -> int:
        return int(self.keep_mask.size)

    @property
    def output_dims(self) -> int:
        return int(self.keep_mask.sum())

    @property
    def removed_dims(self) -> np.ndarray:
        return np.flatnonzero(~self.keep_mask)

    def apply(self, embeddings: np.ndarray) -> np.ndarray:
        return apply_mi_clip(self, embeddings)

    def details(self) -> dict:
        """What a fit report says about the transform."""
        return {"retained_dims": self.output_dims, "cut_dims": self.removed_dims.tolist()}

    def to_bytes(self) -> bytes:
        """Container body: d and m as <II, the keep mask as d bytes, then the d MI scores."""
        head = struct.pack("<II", self.input_dims, self.output_dims)
        return head + self.keep_mask.astype(np.uint8).tobytes() + _le_f8(self.mi_scores)

    @classmethod
    def from_bytes(cls, body: bytes) -> "MiClipTransform":
        d, m = struct.unpack_from("<II", body)
        expected = 8 + d + d * 8
        if len(body) != expected:
            raise DataError(f"mi-clip payload has {len(body)} of {expected} bytes")
        mask = np.frombuffer(body, dtype=np.uint8, count=d, offset=8).astype(bool)
        scores = np.frombuffer(body, dtype="<f8", count=d, offset=8 + d)
        if not np.all(np.isfinite(scores)):
            raise DataError("mi-clip payload holds non-finite MI scores")
        transform = cls(mask, scores)
        if transform.output_dims != m:
            raise DataError("mask cardinality disagrees with the header")
        return transform


@dataclass(frozen=True, eq=False)
class FairPcaTransform:
    """Centering vector and orthonormal-column projection matrix."""

    KIND = 2  # its code in a .ftfm container

    mean: np.ndarray
    projection: np.ndarray
    target_dim: int
    # Max-abs train covariance with the demeaned group indicators, set by fit_fair_pca.
    constraint_residual: float | None = field(default=None, init=False)
    # (λ_r − λ_{r+1}) / λ_1: the feasible-subspace scatter's gap at r over the
    # train scatter's largest eigenvalue, set by fit_fair_pca. None when r is
    # the feasible dimension, so no eigenvalue follows λ_r.
    eigengap: float | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        proj = np.asarray(self.projection, dtype=np.float64)
        if mean.ndim != 1 or proj.ndim != 2 or proj.shape[0] != mean.size:
            raise DataError("mean must be length d and projection d x r")
        if proj.shape[1] != self.target_dim:
            raise DataError("projection column count must equal target_dim")
        mean.setflags(write=False)
        proj.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "projection", proj)
        if not self.orthonormality_residual <= ORTHONORMALITY_TOL:
            raise DataError("projection columns are not orthonormal")
        # apply subtracts this offset; finite, it keeps finite rows finite
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is the error raised here
            if not np.all(np.isfinite(mean @ proj)):
                raise DataError("fair-pca offset (mean @ projection) overflows")

    @property
    def input_dims(self) -> int:
        return int(self.mean.size)

    @property
    def orthonormality_residual(self) -> float:
        """Max-abs deviation of the projection's Gram matrix from the identity."""
        gram = self.projection.T @ self.projection
        return float(np.max(np.abs(gram - np.eye(self.target_dim))))

    def apply(self, embeddings: np.ndarray) -> np.ndarray:
        return apply_fair_pca(self, embeddings)

    def details(self) -> dict:
        """What a fit report says about the transform."""
        return {
            "target_dim": self.target_dim,
            "constraint_residual": self.constraint_residual,
            "orthonormality_residual": self.orthonormality_residual,
            "eigengap": self.eigengap,
        }

    def to_bytes(self) -> bytes:
        """Container body: d and r as <II, the d-vector mean, then the d x r projection."""
        head = struct.pack("<II", self.input_dims, self.target_dim)
        return head + _le_f8(self.mean) + _le_f8(self.projection)

    @classmethod
    def from_bytes(cls, body: bytes) -> "FairPcaTransform":
        d, r = struct.unpack_from("<II", body)
        expected = 8 + d * 8 + d * r * 8
        if len(body) != expected:
            raise DataError(f"fair-pca payload has {len(body)} of {expected} bytes")
        mean = np.frombuffer(body, dtype="<f8", count=d, offset=8)
        proj = np.frombuffer(body, dtype="<f8", count=d * r, offset=8 + d * 8).reshape(d, r)
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(proj))):
            raise DataError("fair-pca payload holds non-finite values")
        return cls(mean=mean, projection=proj, target_dim=r)


Transform = MiClipTransform | FairPcaTransform
# The transform kinds by their .ftfm code.
TRANSFORMS = {cls.KIND: cls for cls in (MiClipTransform, FairPcaTransform)}


def _plugin_mi(joint: np.ndarray) -> float:
    """Maximum-likelihood mutual information (nats) of an integer bins x groups table."""
    joint = joint.astype(np.float64)
    n = joint.sum()
    row = joint.sum(axis=1, keepdims=True)
    col = joint.sum(axis=0, keepdims=True)
    nonzero = joint > 0
    mi = np.sum(joint[nonzero] / n * np.log(joint[nonzero] * n / (row @ col)[nonzero]))
    return max(float(mi), 0.0)


def estimate_mi_per_dimension(
    train: np.ndarray, groups: GroupLabels, bins: int = 32
) -> np.ndarray:
    """Per-dimension plug-in MI between equal-frequency-binned values and group labels.

    Returns nonnegative estimates in nats. The estimate carries the usual
    plug-in positive bias of roughly (bins-1)(p-1)/(2n); that bias is shared
    across dimensions so the ranking it feeds is unaffected. Every group is
    present in ``groups``, as split_tags and debias-fit check.

    A value's bin counts the interior quantile edges at or below it. Columns
    go in blocks of about ``_MI_BLOCK_ELEMENTS`` values (O(n) scratch), rows
    in group order; a block is sorted whole for the edges, and per group for
    binary searches that count the values below each edge. Table rows are
    their differences; a repeated edge only adds an empty row, worth no MI.
    """
    if bins < 2:
        raise ConfigError(f"bins must be at least 2, got {bins}")
    n, d = train.shape
    if n < bins:
        raise ConfigError(f"bins must be at most the item count {n}, got {bins}")
    if len(groups) != n:
        raise DataError("group labels length differs from embedding rows")
    counts = groups.counts()
    p = groups.group_count
    # Edges at np.quantile's default ("linear", Hyndman-Fan type 7) positions,
    # read off the sorted column with numpy's interpolation, to the last bit.
    h = (n - 1) * np.linspace(0.0, 1.0, bins + 1)[1:-1]
    low = np.floor(h).astype(np.intp)
    t = (h - low)[:, None]
    ends = np.cumsum(counts)
    segments = list(zip(ends - counts, ends))  # each group's rows, once in group order
    by_group = np.argsort(groups.labels, kind="stable")
    width = max(1, _MI_BLOCK_ELEMENTS // n)
    scores = np.empty(d, dtype=np.float64)
    for start in range(0, d, width):
        block = np.ascontiguousarray(train[by_group, start : start + width].T)
        whole = np.sort(block, axis=1)
        edges = lerp(whole[:, low].T, whole[:, low + 1].T, t)
        edges.sort(axis=0)  # so each group's counts below the edges never decrease
        below = np.zeros((block.shape[0], bins + 1, p), dtype=np.int64)
        below[:, -1] = counts
        for g, (first, stop) in enumerate(segments):
            block[:, first:stop].sort(axis=1)
            for i, column in enumerate(block[:, first:stop]):
                below[i, 1:-1, g] = np.searchsorted(column, edges[:, i], side="left")
        for i, table in enumerate(np.diff(below, axis=1), start):
            scores[i] = _plugin_mi(table)
    return scores


def fit_mi_clip(
    train: np.ndarray, groups: GroupLabels, m: int, bins: int = 32
) -> MiClipTransform:
    """Rank dimensions by MI on the train rows and cut the d-m most informative.

    Ties cut the lower dimension index first, which makes the family of
    masks over different m nested.
    """
    d = train.shape[1]
    if not 1 <= m < d:
        raise ConfigError(f"m must be in [1, d) = [1, {d}), got {m}")
    scores = estimate_mi_per_dimension(train, groups, bins=bins)
    cut_order = np.lexsort((np.arange(d), -scores))
    keep = np.ones(d, dtype=bool)
    keep[cut_order[: d - m]] = False
    return MiClipTransform(keep_mask=keep, mi_scores=scores)


def apply_mi_clip(transform: MiClipTransform, embeddings: np.ndarray) -> np.ndarray:
    """Keep the masked-in columns, preserving their original order."""
    if embeddings.shape[1] != transform.input_dims:
        raise DataError(f"transform expects d={transform.input_dims}, got d={embeddings.shape[1]}")
    # compress keeps rows contiguous, as [:, mask] would not; a GEMM's bits depend on layout
    return embeddings.compress(transform.keep_mask, axis=1)


def _demeaned_onehot(groups: GroupLabels) -> np.ndarray:
    onehot = np.zeros((len(groups), groups.group_count))
    onehot[np.arange(len(groups)), groups.labels] = 1.0
    return onehot - onehot.mean(axis=0)


def fit_fair_pca(
    train: np.ndarray, groups: GroupLabels, target_dim: int | None = None
) -> FairPcaTransform:
    """Fit a group-uncorrelated PCA projection on the train rows.

    Steps: center the data, build the demeaned one-hot group matrix (rank
    p-1), take an orthonormal basis B of the null space of its cross-product
    with the data via SVD, run standard PCA inside that feasible subspace
    (an eigendecomposition of the d' x d' scatter B^T X^T X B), and compose
    the two maps. The projected train data then has exactly zero empirical
    covariance with every demeaned group indicator. Cost: O(n d^2 + d^3)
    time. The centred rows are formed BLOCK_ROWS at a time, and each block
    adds to the d x d scatter and the p x d constraint matrix, so the fit
    holds d^2 + BLOCK_ROWS d floats beyond the input and its n x p group
    matrix, never a centred n x d copy.

    target_dim defaults to d - (p-1), the maximal feasible rank. Numerically
    rank-deficient constraints are dropped (logged), never inflated.
    """
    n, d = train.shape
    if len(groups) != n:
        raise DataError("group labels length differs from embedding rows")
    p = groups.group_count
    max_rank = d - (p - 1)
    if target_dim is None and max_rank < 1:
        raise DataError(f"fair PCA needs d > p-1 dimensions for p={p} groups, got d={d}")
    r = max_rank if target_dim is None else int(target_dim)
    if not 1 <= r <= max_rank:
        raise ConfigError(f"target_dim must be in [1, d-(p-1)] = [1, {max_rank}], got {r}")
    if n <= d:
        warnings.warn(
            f"fitting fair PCA with n={n} <= d={d}; constraints may overfit",
            stacklevel=2,
        )
    mean = train.mean(axis=0)
    demeaned = _demeaned_onehot(groups)
    # The centred scatter and constraints, summed over row blocks. Taken from
    # the centred rows: raw second moments minus n * mean mean^T would cancel
    # most digits under a large common mean.
    scatter = np.zeros((d, d))
    constraints = np.zeros((p, d))
    buffer = np.empty((min(n, BLOCK_ROWS), d))
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        block = np.subtract(train[start:stop], mean, out=buffer[: stop - start])
        scatter += block.T @ block
        constraints += demeaned[start:stop].T @ block
    _, sing, vt = np.linalg.svd(constraints, full_matrices=True)
    # Noise floor: a constraint matrix at round-off scale is inactive, so the
    # relative rank threshold must not promote pure noise to rank. The centred
    # rows' Frobenius norm is the root of the scatter's trace.
    noise_floor = 1e-12 * max(
        np.linalg.norm(demeaned) * np.sqrt(np.trace(scatter)), 1.0
    )
    if sing.size == 0 or sing[0] <= noise_floor:
        rank = 0
    else:
        rank = int(np.count_nonzero(sing > RANK_RTOL * sing[0]))
    if rank < p - 1:
        log.info("constraint matrix rank %d < p-1 = %d; dropping dependent constraints", rank, p - 1)
    basis = vt[rank:].T
    # PCA inside the feasible subspace from its d' x d' scatter. eigh returns
    # all d' eigenvectors, so with n - 1 < r the zero-variance directions pad
    # the basis.
    eigvals, eigvecs = np.linalg.eigh(basis.T @ scatter @ basis)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]  # descending
    projection = basis @ eigvecs[:, :r]
    # Deterministic sign: each projection column's largest-magnitude entry is
    # positive. The rule reads the columns in input coordinates: the null-space
    # basis is any orthonormal basis of that space, which round-off can rotate.
    flips = np.sign(projection[np.argmax(np.abs(projection), axis=0), np.arange(r)])
    flips[flips == 0] = 1.0
    projection *= flips
    transform = FairPcaTransform(mean=mean, projection=projection, target_dim=r)
    residual = float(np.max(np.abs(constraints @ projection))) if constraints.size else 0.0
    if not residual <= CONSTRAINT_TOL * max(1.0, float(np.abs(constraints).max(initial=0.0))):
        raise NumericError(f"fair PCA constraint residual {residual:.3e} too large")
    object.__setattr__(transform, "constraint_residual", residual)
    if r < eigvals.size:
        # Relative to the full scatter's largest eigenvalue, the scale of the
        # reduced scatter's round-off. A scatter is positive semi-definite, so
        # an eigenvalue below 0 is round-off too.
        top = np.linalg.eigvalsh(scatter)[-1]
        at_r, after = np.maximum(eigvals[[r - 1, r]], 0.0)
        gap = (at_r - after) / top if top > 0 else 0.0
        object.__setattr__(transform, "eigengap", float(gap))
    return transform


def apply_fair_pca(transform: FairPcaTransform, embeddings: np.ndarray) -> np.ndarray:
    """Center with the fitted train mean and project onto the fitted basis.

    Computed as X P - mean P, so it holds its n x r output and no centred
    n x d copy of X. The ``apply`` command passes one block of rows at a time.
    """
    if embeddings.shape[1] != transform.input_dims:
        raise DataError(f"transform expects d={transform.input_dims}, got d={embeddings.shape[1]}")
    out = embeddings @ transform.projection
    out -= transform.mean @ transform.projection
    return out
