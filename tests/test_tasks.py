"""Task pipeline tests: similarity, classification, retrieval, inference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flens.core import BLOCK_ROWS, row_norms
from flens.errors import DataError
from flens.tasks import (
    _ranked_prefix,
    balanced_retrieval,
    infer_protected_attribute,
    score_blocks,
    top_k,
    zero_shot_classify,
)

from .helpers import cosine_similarity_matrix
from .oracles import oracle_balanced_retrieval


def _classify(items: np.ndarray, class_a, class_b):
    sims = cosine_similarity_matrix(items, np.vstack([class_a, class_b]))
    return zero_shot_classify(sims[0], sims[1])


def _balanced(items: np.ndarray, group_queries: np.ndarray, k: int):
    return balanced_retrieval(cosine_similarity_matrix(items, group_queries), k)


def _level_rows(count: int):
    """count rows of four entries, each -1, 0 or 1."""
    row = st.lists(st.integers(-1, 1), min_size=4, max_size=4)
    return st.lists(row, min_size=count, max_size=count)


# Similarities on a 1/16 grid, with both signed zeros: rows of a few dozen
# entries hold many exact ties, at the k-th largest value too.
_GRID = [-0.0] + [i / 16 for i in range(-16, 17)]


def _grid_rows(rows: int, n: int):
    row = st.lists(st.sampled_from(_GRID), min_size=n, max_size=n)
    return st.lists(row, min_size=rows, max_size=rows).map(np.array)


class TestCosineSimilarity:
    def test_self_similarity(self):
        v = np.array([[0.3, -1.2, 0.5]])
        sims = cosine_similarity_matrix(v, v)
        assert sims[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        items = np.array([[1.0, 0.0]])
        queries = np.array([[0.0, 2.0]])
        assert cosine_similarity_matrix(items, queries)[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_hand_arithmetic(self):
        items = np.array([[1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]])
        queries = np.array([[1.0, 0.0]])
        assert cosine_similarity_matrix(items, queries)[0, 0] == pytest.approx(
            1.0 / np.sqrt(2), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimension mismatch: items d=2, queries d=1"):
            cosine_similarity_matrix(np.array([[1.0, 0.0]]), np.array([[1.0]]))

    def test_range(self):
        rng = np.random.default_rng(0)
        sims = cosine_similarity_matrix(
            rng.normal(size=(40, 8)), rng.normal(size=(5, 8))
        )
        assert np.all(sims >= -1.0) and np.all(sims <= 1.0)


class TestScoreBlocks:
    """Items streamed in blocks of any sizes score as one whole-matrix pass, bit for bit."""

    @pytest.mark.parametrize(
        "q, d, n", [(1, 8, BLOCK_ROWS + 1), (4, 16, 2 * BLOCK_ROWS + 5), (64, 253, 9000)]
    )
    def test_any_cut_gives_the_whole_matrix_bits(self, q, d, n):
        rng = np.random.default_rng(q)
        items = rng.normal(size=(n, d))
        queries = rng.normal(size=(q, d))
        cuts = [0, 1, 4, 1229, BLOCK_ROWS - 1, BLOCK_ROWS + 1, n]
        blocks = [
            (items[a:b], row_norms(items[a:b])) for a, b in zip(cuts, cuts[1:])
        ]
        sims = score_blocks((queries, row_norms(queries)), blocks, n)
        assert sims.tobytes() == cosine_similarity_matrix(items, queries).tobytes()

    def test_query_rows_divided_by_the_norms_given(self):
        items = np.array([[1.0, 0.0]])
        sims = score_blocks((np.array([[2.0, 0.0]]), np.array([4.0])), [(items, np.ones(1))], 1)
        assert sims.tolist() == [[0.5]]

    def test_short_stream_is_data_error(self):
        values = np.ones((3, 2))
        with pytest.raises(DataError, match="^expected 5 items, got 3$"):
            score_blocks((np.array([[1.0, 0.0]]), np.ones(1)), [(values, row_norms(values))], 5)


class TestZeroShotClassify:
    def test_identical_to_class_a(self):
        items = np.array([[1.0, 0.0]])
        labels = _classify(items, np.array([2.0, 0.0]), np.array([0.0, 1.0]))
        assert labels.tolist() == [True]

    def test_tie_goes_to_class_a(self):
        items = np.array([[1.0, 1.0]])
        labels = _classify(items, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert labels.tolist() == [True]

    def test_fan_flips_at_bisector(self):
        # items on a 2-d fan between two orthogonal class vectors; even point
        # count keeps the exact bisector (the documented tie) out of the fan
        angles = np.linspace(0.05, np.pi / 2 - 0.05, 36)
        items = np.column_stack([np.cos(angles), np.sin(angles)])
        labels = _classify(items, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert labels.tolist() == (angles < np.pi / 4).tolist()

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(30, 6))
        a, b = rng.normal(size=6), rng.normal(size=6)
        base = _classify(values, a, b)
        scales = rng.uniform(0.1, 10.0, size=30)
        rescaled = _classify(values * scales[:, None], 3.0 * a, 0.25 * b)
        assert base.tolist() == rescaled.tolist()

    def test_softmax_argmax_equivalence(self):
        # picking the larger cosine equals picking the larger softmax weight
        # at any temperature, so the classifier needs no temperature knob
        rng = np.random.default_rng(4)
        items = rng.normal(size=(50, 5))
        a, b = rng.normal(size=5), rng.normal(size=5)
        labels = _classify(items, a, b)
        sims = cosine_similarity_matrix(
            items, np.vstack([a, b])
        )
        for temperature in (0.07, 1.0, 100.0):
            logits = sims / temperature
            softmax = np.exp(logits - logits.max(axis=0))
            softmax /= softmax.sum(axis=0)
            assert (softmax[0] >= softmax[1]).tolist() == labels.tolist()

    def test_rows_must_match(self):
        with pytest.raises(DataError, match="class similarities must be two equal 1-d rows"):
            zero_shot_classify(np.zeros(3), np.zeros(4))


class TestTopK:
    def test_k_equals_n_is_full_sort(self):
        sims = np.array([[0.1, 0.9, 0.5]])
        ranked = top_k(sims, 3)[0]
        assert ranked.tolist() == [1, 2, 0]
        assert np.all(np.diff(sims[0, ranked]) <= 0)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(11)
        sims = rng.normal(size=(4, 50))
        for j, ranked in enumerate(top_k(sims, 10)):
            expected = np.argsort(-sims[j], kind="stable")[:10]
            assert ranked.tolist() == expected.tolist()

    def test_all_equal_takes_lowest_indices(self):
        sims = np.full((1, 6), 0.25)
        assert top_k(sims, 3)[0].tolist() == [0, 1, 2]

    def test_truncation_property(self):
        rng = np.random.default_rng(12)
        sims = rng.choice([0.1, 0.2, 0.3], size=(3, 20))
        for k in (1, 5, 11):
            full = top_k(sims, 20)
            short = top_k(sims, k)
            for f, s in zip(full, short):
                assert f[:k].tolist() == s.tolist()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_ranked_prefix_is_stable_argsort_prefix(self, data):
        # every k from 1 to n: both sides of the 2k <= n partition rule, and k = n
        rows = data.draw(st.integers(1, 4), label="rows")
        n = data.draw(st.integers(1, 40), label="n")
        sims = data.draw(_grid_rows(rows, n), label="sims")
        full = np.argsort(-sims, axis=1, kind="stable")
        for k in range(1, n + 1):
            assert _ranked_prefix(sims, k).tolist() == full[:, :k].tolist()
            ranked = top_k(sims, k)
            assert ranked.tolist() == full[:, :k].tolist()
            assert all(np.unique(row).size == k for row in ranked)  # no row repeats an item


class TestBalancedRetrieval:
    def _clustered(self):
        # items 0-4 near e0 with decreasing alignment, items 5-9 near e1
        values = np.zeros((10, 2))
        for rank, item in enumerate(range(5)):
            values[item] = [1.0, 0.1 * rank]
        for rank, item in enumerate(range(5, 10)):
            values[item] = [0.1 * rank, 1.0]
        return values

    def test_even_split(self):
        queries = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = _balanced(self._clustered(), queries, 10)
        picked = set(result.tolist())
        assert len(picked & {0, 1, 2, 3, 4}) == 5
        assert len(picked & {5, 6, 7, 8, 9}) == 5

    def test_remainder_goes_to_lower_group(self):
        values = np.vstack([self._clustered(), [[1.0, 0.05]]])
        queries = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = _balanced(values, queries, 11)
        group0 = {0, 1, 2, 3, 4, 10}
        picked = result.tolist()
        assert sum(1 for i in picked if i in group0) == 6
        assert sum(1 for i in picked if i not in group0) == 5

    def test_disjoint_top_lists_equal_union(self):
        items = self._clustered()
        queries = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = _balanced(items, queries, 4)
        sims = cosine_similarity_matrix(items, queries)
        top0 = top_k(sims[0:1], 2)[0].tolist()
        top1 = top_k(sims[1:2], 2)[0].tolist()
        assert set(result.tolist()) == set(top0) | set(top1)

    def test_round_robin_order(self):
        queries = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = _balanced(self._clustered(), queries, 4)
        # group 0's best, group 1's best, then each second-best
        assert result.tolist() == [0, 5, 1, 6]

    def test_duplicate_claimed_once(self):
        # item 0 is the top hit for both queries
        values = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.8, 0.2], [0.2, 0.8]])
        queries = np.array([[1.0, 0.9], [0.9, 1.0]])
        result = _balanced(values, queries, 4)
        picked = result.tolist()
        # group 0 claims the contested item; group 1 falls back to its next best
        assert picked == [0, 4, 3, 2]

    def test_smaller_k_is_prefix(self):
        # Three-level items give exact cosine ties; near-identical group
        # queries contest the same top items, so claimed items get skipped.
        rng = np.random.default_rng(13)
        levels = rng.integers(-1, 2, size=(60, 6)).astype(float)
        items = levels + [[5, 0, 0, 0, 0, 0]]
        queries = np.eye(6)[:3] + [[4, 0, 0, 0, 0, 0]]
        p, big = len(queries), 40
        sims = cosine_similarity_matrix(items, queries)
        assert any(np.unique(row).size < row.size for row in sims)
        tops = [top_k(sims[g : g + 1], big // p)[0] for g in range(p)]
        assert np.unique(np.concatenate(tops)).size < big // p * p
        full = _balanced(items, queries, big).tolist()
        for k in range(p, big + 1):
            assert _balanced(items, queries, k).tolist() == full[:k]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_for_every_k(self, data):
        p = data.draw(st.integers(2, 4), label="p")
        n = data.draw(st.integers(p, 14), label="n")
        items = np.array(data.draw(_level_rows(n - 1), label="items"), dtype=float)
        queries = np.array(data.draw(_level_rows(p), label="queries"), dtype=float)
        # A shared large first coordinate keeps every row non-zero and pulls
        # all group queries toward the same top items. The repeated item gives
        # an exact cosine tie, the repeated query a contested top item.
        items = np.vstack([items, items[:1]]) + [5, 0, 0, 0]
        queries[-1] = queries[0]
        queries = queries + [4, 0, 0, 0]
        sims = cosine_similarity_matrix(items, queries)
        for k in range(p, n + 1):
            result = _balanced(items, queries, k)
            picked, values = oracle_balanced_retrieval(sims.tolist(), k)
            assert result.tolist() == picked
            assert np.unique(result).size == k  # no item is picked twice
            assert sims[np.arange(k) % p, result].tolist() == values


    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_on_tied_similarities(self, data):
        # every k from p to n: both sides of the 2k <= n partition rule
        p = data.draw(st.integers(2, 4), label="p")
        n = data.draw(st.integers(p, 40), label="n")
        sims = data.draw(_grid_rows(p, n), label="sims")
        for k in range(p, n + 1):
            result = balanced_retrieval(sims, k)
            picked, values = oracle_balanced_retrieval(sims.tolist(), k)
            assert result.tolist() == picked
            assert np.unique(result).size == k  # no item is picked twice
            assert sims[np.arange(k) % p, result].tolist() == values


def _with_norms(rows):
    """(rows, their row_norms), one side as infer_protected_attribute takes it."""
    rows = np.asarray(rows, dtype=np.float64)
    return rows, row_norms(rows)


class TestInferProtectedAttribute:
    def test_item_equal_to_prompt(self):
        prompts = _with_norms([[1.0, 0.0], [0.0, 1.0]])
        items = _with_norms([[0.0, 3.0]])
        assert infer_protected_attribute(items, prompts).labels.tolist() == [1]

    def test_identical_prompts_tie_to_lowest(self):
        prompts = _with_norms([[1.0, 0.0], [1.0, 0.0]])
        items = _with_norms([[1.0, 0.2], [0.5, -0.1]])
        labels = infer_protected_attribute(items, prompts)
        assert labels.labels.tolist() == [0, 0]
        assert labels.counts().tolist() == [2, 0]  # an empty group is the caller's to reject

    def test_synthetic_clusters_recovered(self):
        rng = np.random.default_rng(21)
        d, per_cluster = 8, 700
        prompts = np.zeros((3, d))
        prompts[0, 0] = prompts[1, 1] = prompts[2, 2] = 5.0
        items = np.vstack(
            [prompts[c] + rng.normal(size=(per_cluster, d)) for c in range(3)]
        )
        truth = np.repeat(np.arange(3), per_cluster)
        inferred = infer_protected_attribute(_with_norms(items), _with_norms(prompts))
        agreement = np.mean(inferred.labels == truth)
        assert agreement > 0.99
        # the same labels as the nearest prompt by cosine_similarity_matrix
        sims = cosine_similarity_matrix(items, prompts)
        assert inferred.labels.tolist() == np.argmax(sims, axis=0).tolist()


class TestTypes:
    def test_top_k_similarities_non_increasing(self):
        rng = np.random.default_rng(31)
        sims = rng.normal(size=(2, 30))
        for row, ranked in zip(sims, top_k(sims, 30)):
            assert np.all(np.diff(row[ranked]) <= 0)
