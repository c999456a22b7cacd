"""Downstream task pipelines on embeddings: zero-shot classification,
top-k retrieval, balanced group-query retrieval, and attribute inference.

All decisions are deterministic: cosine ties in classification go to the
first class, ranking ties go to the lower item index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import BLOCK_ROWS, GroupLabels
from .errors import DataError

INDEPENDENCE = "independence"
DIVERSITY = "diversity"


@dataclass(frozen=True)
class TaxonomyTags:
    """Audit-taxonomy flags attached to a task or query."""

    human_centric: bool
    subjective: bool
    fairness_mode: str = INDEPENDENCE


def score_blocks(
    queries: tuple[np.ndarray, np.ndarray], blocks: Iterable[tuple[np.ndarray, np.ndarray]], n: int
) -> np.ndarray:
    """q x n cosine similarities of query rows with n items that arrive in blocks.

    ``queries`` is (rows, their row_norms), and ``blocks`` yields item rows
    with theirs in blocks of any lengths. Rows are divided by their norms
    here only: the query rows once, and each item into a staging buffer of
    BLOCK_ROWS rows. Each full buffer, then the last partial one, is scored
    by one GEMM with the items on its N side, into its columns of the
    result. The GEMM calls so depend on n alone, not on how the items were
    cut into blocks, and neither do the bits. Every norm must be non-zero:
    the callers check each row where it is read.
    """
    query_rows, query_norms = queries
    unit_queries = query_rows / query_norms[:, None]
    sims = np.empty((len(unit_queries), n))
    staged = np.empty((min(n, BLOCK_ROWS), unit_queries.shape[1]))
    scored = filled = 0
    for values, norms in blocks:
        if values.shape[1] != staged.shape[1]:
            dims = f"items d={values.shape[1]}, queries d={staged.shape[1]}"
            raise DataError(f"dimension mismatch: {dims}")
        while len(values):
            take = min(len(staged) - filled, len(values))
            np.divide(values[:take], norms[:take, None], out=staged[filled : filled + take])
            values, norms, filled = values[take:], norms[take:], filled + take
            if filled == len(staged) or scored + filled == n:
                np.matmul(unit_queries, staged[:filled].T, out=sims[:, scored : scored + filled])
                scored, filled = scored + filled, 0
    if scored != n:  # a short stream would leave columns unset
        raise DataError(f"expected {n} items, got {scored + filled}")
    return np.clip(sims, -1.0, 1.0, out=sims)


def _ranked_prefix(similarities: np.ndarray, k: int) -> np.ndarray:
    """Per row, the first k of ``np.argsort(-row, kind="stable")``: a rows x k index array.

    When 2k <= n, np.partition finds each row's k-th largest value and only
    the items at or above it, boundary ties included, are sorted. Items come
    in ascending index order into that stable sort, so ties still go to the
    lower index. Otherwise a full stable argsort of the rows is the cheaper way.
    """
    rows, n = similarities.shape
    if 2 * k > n:
        return np.argsort(-similarities, axis=1, kind="stable")[:, :k]
    threshold = np.partition(similarities, n - k, axis=1)[:, n - k]
    row, item = np.nonzero(similarities >= threshold[:, None])
    # lexsort is stable and sorts by row first, so each row's candidates stay where
    # np.nonzero put them, starting at the row's first index in `row`
    order = item[np.lexsort((-similarities[row, item], row))]
    starts = np.searchsorted(row, np.arange(rows))
    return order[starts[:, None] + np.arange(k)]


def zero_shot_classify(sims_a: np.ndarray, sims_b: np.ndarray) -> np.ndarray:
    """Per item, True for class A or False for class B by nearest class embedding.

    ``sims_a`` and ``sims_b`` are the items' cosine similarities to the class A
    and class B embeddings: two rows of a score_blocks result, as classify-audit
    passes them. Cosine ties go to class A. Picking the larger cosine is
    equivalent to picking the larger softmax probability over the two
    similarities at any temperature, so no temperature parameter exists.
    """
    return sims_a >= sims_b


def top_k(similarities: np.ndarray, k: int) -> np.ndarray:
    """Per query row, the k items of largest similarity: a rows x k index array.

    Ties go to the lower item index. The order is one stable sort, so the
    result for any k' <= k is a prefix. retrieve-audit checks k in [1, n].
    """
    return _ranked_prefix(similarities, k)


def balanced_retrieval(similarities: np.ndarray, k: int) -> np.ndarray:
    """Retrieve k items split as evenly as possible across p group-specific queries.

    ``similarities`` holds one row per group query: p rows of a
    score_blocks result. Each group query gets floor(k/p) picks and the
    first k mod p groups one extra. An item already claimed by an earlier pick
    is skipped in favor of that group's next-best candidate. Picks are made and
    returned in round-robin order by rank, so each group's best item precedes
    any group's second-best. Quotas fill whole rounds first, so the picks for
    any k' in [p, k] are the first k' picks for k. retrieve-audit checks k in [p, n].
    """
    p, n = similarities.shape
    # Fewer than k items are claimed before any pick, so no group's cursor
    # passes index k-1 of its order: the first k columns of each order suffice.
    orders = _ranked_prefix(similarities, k)
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
    return picked


def infer_protected_attribute(
    items: tuple[np.ndarray, np.ndarray], prompts: tuple[np.ndarray, np.ndarray]
) -> GroupLabels:
    """Assign each item the nearest of p attribute-prompt embeddings.

    Each side is (rows, their row_norms), as score_blocks takes them, which
    scores the items as one block. Ties go to the lowest prompt index. The
    result is meant only for fitting mitigation transforms; evaluation must
    use ground-truth labels.
    """
    p = len(prompts[0])
    if p < 2:
        raise DataError("need at least two attribute prompts")
    sims = score_blocks(prompts, [items], len(items[0]))
    return GroupLabels(np.argmax(sims, axis=0), group_count=p)
