"""Downstream task pipelines on embeddings: zero-shot classification,
top-k retrieval, balanced group-query retrieval, and attribute inference.

All decisions are deterministic: cosine ties in classification go to the
first class, ranking ties go to the lower item index.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .core import BinaryLabels, EmbeddingMatrix, GroupLabels
from .errors import (
    DegenerateVector,
    InsufficientItems,
    InvalidK,
    ShapeError,
    ValidationError,
)

INDEPENDENCE = "independence"
DIVERSITY = "diversity"


@dataclass(frozen=True)
class TaxonomyTags:
    """Audit-taxonomy flags attached to a task or query."""

    human_centric: bool
    subjective: bool
    fairness_mode: str = INDEPENDENCE

    def __post_init__(self) -> None:
        if self.fairness_mode not in (INDEPENDENCE, DIVERSITY):
            raise ValidationError(f"unknown fairness mode {self.fairness_mode!r}")


@dataclass(frozen=True, eq=False)
class RetrievalResult:
    """Ranked item indices for one query with aligned similarities.

    top_k emits indices in non-increasing similarity order;
    balanced_retrieval emits round-robin rank order across group queries,
    so its similarity vector is not globally monotone. Both build their
    indices unique and pass built_unique=True, which skips that check.
    """

    query_index: int
    ranked_indices: np.ndarray
    similarities: np.ndarray
    built_unique: InitVar[bool] = False

    def __post_init__(self, built_unique: bool) -> None:
        idx = np.asarray(self.ranked_indices, dtype=np.int64)
        sims = np.asarray(self.similarities, dtype=np.float64)
        if idx.shape != sims.shape or idx.ndim != 1:
            raise ShapeError("indices and similarities must be aligned 1-d vectors")
        if not built_unique and np.unique(idx).size != idx.size:
            raise ValidationError("ranked indices must be unique")
        idx.setflags(write=False)
        sims.setflags(write=False)
        object.__setattr__(self, "ranked_indices", idx)
        object.__setattr__(self, "similarities", sims)

    def __len__(self) -> int:
        return int(self.ranked_indices.size)


def _unit_rows(matrix: EmbeddingMatrix, what: str) -> np.ndarray:
    try:
        return matrix.unit_rows
    except DegenerateVector as exc:
        raise DegenerateVector(f"{what} {exc}") from None


def cosine_similarity_matrix(items: EmbeddingMatrix, queries: EmbeddingMatrix) -> np.ndarray:
    """q x n matrix of cosine similarities; entry (j, i) pairs query j with item i."""
    if items.dims != queries.dims:
        raise ShapeError(f"dimension mismatch: items d={items.dims}, queries d={queries.dims}")
    item_unit = _unit_rows(items, "item")
    query_unit = _unit_rows(queries, "query")
    sims = query_unit @ item_unit.T
    return np.clip(sims, -1.0, 1.0)


def zero_shot_classify(
    items: EmbeddingMatrix, class_a: np.ndarray, class_b: np.ndarray
) -> BinaryLabels:
    """Label each item +1 for class A or -1 for class B by nearest class embedding.

    Cosine ties go to class A. Picking the larger cosine is equivalent to
    picking the larger softmax probability over the two similarities at any
    temperature, so no temperature parameter exists.
    """
    pair = EmbeddingMatrix(np.vstack([np.asarray(class_a, dtype=np.float64),
                                      np.asarray(class_b, dtype=np.float64)]))
    sims = cosine_similarity_matrix(items, pair)
    labels = np.where(sims[0] >= sims[1], 1, -1)
    return BinaryLabels(labels)


def top_k(similarities: np.ndarray, k: int) -> list[RetrievalResult]:
    """Per query, the k items of largest similarity; ties by ascending item index.

    The order is one stable sort, so the result for any k' <= k is a prefix.
    """
    sims = np.asarray(similarities, dtype=np.float64)
    if sims.ndim != 2:
        raise ShapeError(f"similarity matrix must be 2-d, got shape {sims.shape}")
    n = sims.shape[1]
    if k < 1 or k > n:
        raise InvalidK(f"k={k} outside [1, {n}]")
    results = []
    for j in range(sims.shape[0]):
        order = np.argsort(-sims[j], kind="stable")[:k]
        # a prefix of a permutation holds each index once
        results.append(
            RetrievalResult(j, ranked_indices=order, similarities=sims[j, order], built_unique=True)
        )
    return results


def balanced_retrieval(
    items: EmbeddingMatrix,
    group_queries: EmbeddingMatrix,
    k: int,
    query_index: int = 0,
) -> RetrievalResult:
    """Retrieve k items split as evenly as possible across p group-specific queries.

    Each group query gets floor(k/p) picks and the first k mod p groups one
    extra. An item already claimed by an earlier pick is skipped in favor of
    that group's next-best candidate. Picks are made and returned in
    round-robin order by rank, so each group's best item precedes any
    group's second-best. Quotas fill whole rounds first, so the picks for
    any k' in [p, k] are the first k' picks for k.
    """
    p = group_queries.rows
    if k < p:
        raise InvalidK(f"k={k} must be at least the group-query count {p}")
    n = items.rows
    if k > n:
        raise InsufficientItems(f"need {k} distinct items but only {n} exist")
    sims = cosine_similarity_matrix(items, group_queries)
    # Fewer than k items are claimed before any pick, so no group's cursor
    # passes index k-1 of its order: the first k columns of each order suffice.
    orders = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    # Scalar reads through memoryviews give Python ints without the numpy
    # scalar overhead, and without the memory of a .tolist() copy.
    rows = [memoryview(orders[g]) for g in range(p)]
    cursors = [0] * p
    claimed = bytearray(n)
    picked = np.empty(k, dtype=np.int64)
    out = memoryview(picked)
    # Pick t belongs to group t % p: quotas fill whole rounds first.
    for t in range(k):
        g = t % p
        row, cursor = rows[g], cursors[g]
        item = row[cursor]
        while claimed[item]:
            cursor += 1
            item = row[cursor]
        claimed[item] = 1
        out[t] = item
        cursors[g] = cursor + 1
    return RetrievalResult(
        query_index=query_index,
        ranked_indices=picked,
        similarities=sims[np.arange(k) % p, picked],
        built_unique=True,  # `claimed` lets each item be picked once
    )


def infer_protected_attribute(
    items: EmbeddingMatrix, attribute_prompts: EmbeddingMatrix
) -> GroupLabels:
    """Assign each item the nearest of p attribute-prompt embeddings.

    Ties go to the lowest prompt index. The result is meant only for
    fitting mitigation transforms; evaluation must use ground-truth labels.
    """
    p = attribute_prompts.rows
    if p < 2:
        raise ValidationError("need at least two attribute prompts")
    sims = cosine_similarity_matrix(items, attribute_prompts)
    labels = np.argmax(sims, axis=0)
    return GroupLabels(labels, group_count=p)
