"""Independent direct-formula oracles for the test suite.

Everything here is deliberately written from the definitions in plain
Python, with no imports from the package under test and no helpers shared
with it. Each oracle stands alone so a bug cannot hide in common code.
"""

from __future__ import annotations

import csv
import math


def oracle_ddp_classification(predictions: list[int], groups: list[int], p: int) -> float:
    """Max pairwise gap in positive-prediction fractions."""
    positive = [0] * p
    total = [0] * p
    for pred, g in zip(predictions, groups):
        total[g] += 1
        if pred == 1:
            positive[g] += 1
    best = 0.0
    for i in range(p):
        for j in range(p):
            gap = abs(positive[i] / total[i] - positive[j] / total[j])
            if gap > best:
                best = gap
    return best


def oracle_ddp_retrieval(k_counts: list[int], z_counts: list[int]) -> float:
    """Max pairwise gap of advantaged-minus-disadvantaged shares."""
    k_total = sum(k_counts)
    z_total = sum(z_counts)
    p = len(k_counts)
    best = 0.0
    for i in range(p):
        for j in range(p):
            term_i = k_counts[i] / k_total - (z_counts[i] - k_counts[i]) / (z_total - k_total)
            term_j = k_counts[j] / k_total - (z_counts[j] - k_counts[j]) / (z_total - k_total)
            if abs(term_i - term_j) > best:
                best = abs(term_i - term_j)
    return best


def oracle_dtpr(predictions: list[int], truth: list[int], groups: list[int], p: int) -> float:
    """Max pairwise gap in true-positive rates."""
    hits = [0] * p
    positives = [0] * p
    for pred, true, g in zip(predictions, truth, groups):
        if true == 1:
            positives[g] += 1
            if pred == 1:
                hits[g] += 1
    best = 0.0
    for i in range(p):
        for j in range(p):
            gap = abs(hits[i] / positives[i] - hits[j] / positives[j])
            if gap > best:
                best = gap
    return best


def oracle_skew(k_counts: list[int], desired: list[float]) -> float:
    """Max absolute log-ratio of retrieved to desired fraction."""
    k_total = sum(k_counts)
    best = 0.0
    for count, df in zip(k_counts, desired):
        if count == 0:
            return math.inf
        ratio = (count / k_total) / df
        if abs(math.log(ratio)) > best:
            best = abs(math.log(ratio))
    return best


def oracle_ddp_rep(positive_counts: list[int]) -> float:
    """Max pairwise absolute count gap over the total positives."""
    total = sum(positive_counts)
    p = len(positive_counts)
    best = 0.0
    for i in range(p):
        for j in range(p):
            gap = abs(positive_counts[i] - positive_counts[j]) / total
            if gap > best:
                best = gap
    return best


def oracle_balanced_retrieval(sims: list[list[float]], k: int) -> tuple[list[int], list[float]]:
    """Round-robin picks of k items over p rows of similarities, one row per group.

    Group g's quota is k // p, plus one when g < k % p. Picks go in rounds by
    rank, groups in index order, and each pick takes the group's best item,
    by (-similarity, index), that no earlier pick claimed. Returns the picked
    items and each one's similarity to the group that picked it.
    """
    p = len(sims)
    orders = [sorted(range(len(row)), key=lambda i: (-row[i], i)) for row in sims]
    quotas = [k // p + (1 if g < k % p else 0) for g in range(p)]
    claimed: set[int] = set()
    picked: list[int] = []
    values: list[float] = []
    for rank in range(max(quotas)):
        for g in range(p):
            if rank < quotas[g]:
                item = next(i for i in orders[g] if i not in claimed)
                claimed.add(item)
                picked.append(item)
                values.append(sims[g][item])
    return picked, values


def oracle_probe_loss(x, y, classes: int, l2: float, max_iter: int, tol: float) -> float:
    """Reference fit of the probe objective with the same optimizer recipe.

    Full-weight parameterization with the last class's row held at zero,
    zero init, steepest descent with Armijo backtracking (c1 = 1e-4,
    halving steps from 1.0). Returns the final mean cross-entropy.
    """
    import numpy as np

    n, d = x.shape
    full_w = np.zeros((classes, d))
    full_b = np.zeros(classes)
    onehot = np.zeros((n, classes))
    onehot[np.arange(n), y] = 1.0

    def objective(w, b):
        scores = x @ w.T + b
        scores = scores - scores.max(axis=1)[:, None]
        probs = np.exp(scores)
        probs /= probs.sum(axis=1)[:, None]
        ce = -np.log(probs[np.arange(n), y]).sum() / n
        return ce + 0.5 * l2 * (w[: classes - 1] ** 2).sum(), ce, probs

    value, ce, probs = objective(full_w, full_b)
    for _ in range(max_iter):
        delta = (probs - onehot) / n
        grad_w = delta.T @ x + l2 * full_w
        grad_b = delta.sum(axis=0)
        grad_w[classes - 1] = 0.0
        grad_b[classes - 1] = 0.0
        grad_norm = max(np.abs(grad_w).max(), np.abs(grad_b).max())
        if grad_norm < tol:
            break
        sq = (grad_w**2).sum() + (grad_b**2).sum()
        step = 1.0
        for _ in range(60):
            trial = objective(full_w - step * grad_w, full_b - step * grad_b)
            if trial[0] <= value - 1e-4 * step * sq:
                break
            step *= 0.5
        full_w = full_w - step * grad_w
        full_b = full_b - step * grad_b
        value, ce, probs = trial
    return ce


class OracleSchemaError(ValueError):
    """A label table that breaks the schema; the message names file and row."""


def oracle_read_label_table(path) -> dict[str, list[str]]:
    """Row-by-row reference parse of a label CSV into columns.

    Each row is checked as soon as csv yields it, in this order: width, no
    empty cell, an integer item_id, and item_id equal to the row's index.
    Row messages count the header as line 1 and one line per row; a csv
    error names the reader's physical line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise OracleSchemaError(f"{path}: empty label file") from None
            if not header or header[0] != "item_id":
                raise OracleSchemaError(f"{path}: first column must be item_id")
            if len(set(header)) != len(header):
                raise OracleSchemaError(f"{path}: duplicate column names")
            columns = {name: [] for name in header}
            rows = 0
            for row in reader:
                line = rows + 2
                if len(row) != len(header):
                    raise OracleSchemaError(f"{path}:{line}: expected {len(header)} cells")
                for cell in row:
                    if cell == "":
                        raise OracleSchemaError(f"{path}:{line}: missing value")
                try:
                    item_id = int(row[0])
                except ValueError:
                    raise OracleSchemaError(f"{path}:{line}: item_id must be an integer") from None
                if item_id != rows:
                    raise OracleSchemaError(
                        f"{path}:{line}: item_id {item_id} breaks the dense 0..n-1 order"
                    )
                for name, cell in zip(header, row):
                    columns[name].append(cell)
                rows += 1
        except UnicodeDecodeError:
            raise OracleSchemaError(f"{path}: label file is not UTF-8 text") from None
        except csv.Error as exc:
            raise OracleSchemaError(f"{path}:{reader.line_num}: {exc}") from None
    if rows == 0:
        raise OracleSchemaError(f"{path}: no data rows")
    return columns


def oracle_mi_per_dimension(values, labels, p: int, bins: int):
    """Column-by-column reference of the plug-in MI estimator, in nats.

    Each column gets interior equal-frequency edges from ``np.quantile``;
    duplicate edges collapse, and a value's bin is the number of edges at or
    below it (``searchsorted`` with side="right"). The (bins + 1) x p
    contingency table then gives sum_ij P_ij log(P_ij / (P_i P_j)), clipped
    at 0.
    """
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    probs = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    scores = np.empty(values.shape[1], dtype=np.float64)
    for dim in range(values.shape[1]):
        column = values[:, dim]
        edges = np.unique(np.quantile(column, probs))
        binned = np.searchsorted(edges, column, side="right")
        joint = np.bincount(binned * p + labels, minlength=(bins + 1) * p)
        joint = joint.reshape(bins + 1, p).astype(np.float64)
        n = joint.sum()
        row = joint.sum(axis=1, keepdims=True)
        col = joint.sum(axis=0, keepdims=True)
        nonzero = joint > 0
        mi = np.sum(joint[nonzero] / n * np.log(joint[nonzero] * n / (row @ col)[nonzero]))
        scores[dim] = max(float(mi), 0.0)
    return scores


def oracle_fit_fair_pca(values, labels, p: int, r: int):
    """Reference fair-PCA fit by a thin SVD of the rows in the feasible subspace.

    Centre the rows; the constraint matrix is the demeaned one-hot group
    matrix transposed times the centred rows. Its right singular vectors past
    its rank span the feasible subspace B (rank: singular values above 1e-10
    of the largest, or 0 when the largest is at most 1e-12 times the product
    of the two matrices' Frobenius norms). The top r right singular vectors
    of centred @ B, with full matrices when there are fewer rows than columns,
    give the components. Returns the train mean and the d x r projection
    B @ components, each of whose columns is flipped so its largest-magnitude
    entry is positive.
    """
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    mean = values.mean(axis=0)
    centered = values - mean
    onehot = np.zeros((n, p))
    onehot[np.arange(n), labels] = 1.0
    demeaned = onehot - onehot.mean(axis=0)
    constraints = demeaned.T @ centered
    _, sing, vt = np.linalg.svd(constraints, full_matrices=True)
    floor = 1e-12 * max(np.linalg.norm(demeaned) * np.linalg.norm(centered), 1.0)
    rank = 0 if sing[0] <= floor else int(np.sum(sing > 1e-10 * sing[0]))
    basis = vt[rank:].T
    projected = centered @ basis
    _, _, pc_vt = np.linalg.svd(projected, full_matrices=projected.shape[0] < projected.shape[1])
    projection = basis @ pc_vt[:r].T
    for j in range(r):
        if projection[np.argmax(np.abs(projection[:, j])), j] < 0:
            projection[:, j] = -projection[:, j]
    return mean, projection
