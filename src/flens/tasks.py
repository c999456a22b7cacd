"""Downstream task pipelines on embeddings: zero-shot classification,
top-k retrieval, balanced group-query retrieval, and attribute inference.

All decisions are deterministic: cosine ties in classification go to the
first class, ranking ties go to the lower item index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .core import BLOCK_ROWS, GroupLabels
from .errors import DataError

INDEPENDENCE = "independence"
DIVERSITY = "diversity"

# Ranking positions a balanced_retrieval group reads per gather of the claimed flags.
PICK_WINDOW = 256


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
    cut into blocks, and neither do the bits. No block is held while
    ``blocks`` makes the next. Every norm must be non-zero: the callers
    check each row where it is read.
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
        del values, norms  # the block is let go before the next one is made
    if scored != n:  # a short stream would leave columns unset
        raise DataError(f"expected {n} items, got {scored + filled}")
    return np.clip(sims, -1.0, 1.0, out=sims)


def _ranked_prefix(similarities: np.ndarray, k: int) -> np.ndarray:
    """Per row, the first k of ``np.argsort(-row, kind="stable")``: a rows x k index array.

    Every similarity must be finite: score_blocks clips its results to
    [-1, 1], and the callers' rows come from it. +0.0 and -0.0 tie.

    When 2k <= n, np.partition finds each row's k-th largest value and only
    the items at or above it, boundary ties included, are sorted. Items come
    in ascending index order into that stable sort, so ties still go to the
    lower index. Otherwise each row is sorted whole, one row at a time: a
    plain (unstable, vectorised) argsort orders the values, each run of
    equal values gets an id, and one sort of the int64 keys run * n + item
    puts each run's items in ascending index order. That is the stable order,
    in half the time of a stable argsort of the row or less.
    """
    rows, n = similarities.shape
    if 2 * k > n:
        ranked = np.empty((rows, k), dtype=np.int64)
        for row, out in zip(similarities, ranked):
            order = np.argsort(-row)
            values = row[order]
            keys = np.empty(n, dtype=np.int64)
            keys[0] = 0
            np.cumsum(values[1:] != values[:-1], out=keys[1:])
            keys *= n
            keys += order
            keys.sort()
            np.remainder(keys[:k], n, out=out)
        return ranked
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
    score_blocks result, so every value is finite. Each group query gets
    floor(k/p) picks and the first k mod p groups one extra. An item already
    claimed by an earlier pick is skipped in favor of that group's next-best
    candidate. Picks are made and returned in round-robin order by rank, so
    each group's best item precedes any group's second-best. Quotas fill whole
    rounds first, so the picks for any k' in [p, k] are the first k' picks for
    k. retrieve-audit checks k in [p, n].

    Each group reads its ranking PICK_WINDOW positions at a time. From its
    second window on, one gather drops the items claimed before the window
    is read. Each candidate left is checked again when its turn comes, since
    another group may have claimed it since: the picks are those of stepping
    over claimed items one at a time.
    """
    p, n = similarities.shape
    # Fewer than k items are claimed before any pick, so no group reads past
    # column k-1 of its order: the first k columns of each order suffice. A
    # group that ran past them would raise StopIteration, not loop on.
    orders = _ranked_prefix(similarities, k)
    claimed = np.zeros(n, dtype=np.uint8)
    # Scalar reads and writes through a memoryview use Python ints without
    # the numpy scalar overhead.
    flags = memoryview(claimed)

    def candidates(order: np.ndarray) -> Iterator[int]:
        for start in range(0, k, PICK_WINDOW):
            window = order[start : start + PICK_WINDOW]
            # At a group's first window fewer than p items are claimed: the
            # gather would drop next to nothing, and the check below sees them.
            if start:
                window = window[claimed[window] == 0]
            for item in window.tolist():
                if not flags[item]:
                    yield item

    groups = [candidates(order) for order in orders]
    picked = np.empty(k, dtype=np.int64)
    out = memoryview(picked)
    # Pick t belongs to group t % p: quotas fill whole rounds first.
    for t in range(k):
        item = next(groups[t % p])
        flags[item] = 1
        out[t] = item
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
