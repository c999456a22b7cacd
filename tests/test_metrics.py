"""Metric correctness against spec examples and independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flens.cli import _retrieval_metrics
from flens.core import GroupLabels
from flens.errors import DataError
from flens.metrics import (
    accuracy,
    ddp_classification,
    ddp_rep,
    ddp_retrieval,
    dtpr,
    skew_at_k,
)
from flens.tasks import DIVERSITY, TaxonomyTags

from .oracles import (
    oracle_ddp_classification,
    oracle_ddp_rep,
    oracle_ddp_retrieval,
    oracle_dtpr,
    oracle_skew,
)


def precision_at_k(ranked, relevant, k):
    """precision@k of a ranked list as retrieve-audit reports it for a diversity query.

    As in a label file's relevance column, the items of ``relevant`` are marked
    +1 and every other item -1.
    """
    marks = np.full(10, -1)
    marks[[int(i) for i in relevant]] = 1
    tags = TaxonomyTags(human_centric=True, subjective=False, fairness_mode=DIVERSITY)
    groups = GroupLabels(np.arange(10) % 2, 2)
    relevant_rows = np.flatnonzero(marks == 1)
    block = _retrieval_metrics(np.asarray(ranked[:k]), groups, groups.counts(), tags, relevant_rows, k)
    return block["performance"]["precision_at_k"]


class TestDdpClassification:
    def test_equal_rates(self):
        preds = np.array([True, False, True, False])
        groups = GroupLabels([0, 0, 1, 1], 2)
        assert ddp_classification(preds, groups).value == 0.0

    def test_direct_tally(self):
        preds = np.array([True, True, True, False, False] + [True, True, False, False, False])
        groups = GroupLabels([0] * 5 + [1] * 5, 2)
        result = ddp_classification(preds, groups)
        assert result.value == pytest.approx(0.2, abs=1e-15)

    def test_three_groups_attaining_pair(self):
        preds = np.array([True, True, True, False, False, False])
        groups = GroupLabels([0, 0, 1, 1, 2, 2], 3)
        result = ddp_classification(preds, groups)
        assert result.value == 1.0
        assert result.arg_pair == (0, 2)
        assert result.per_group_rates.tolist() == [1.0, 0.5, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch: 1 vs 2"):
            ddp_classification(np.array([True]), GroupLabels([0, 1], 2))


class TestDdpRetrieval:
    def test_proportional_selection(self):
        assert ddp_retrieval([5, 5], [50, 50]).value == 0.0

    def test_direct_arithmetic(self):
        assert ddp_retrieval([8, 2], [50, 50]).value == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_equal_selection_rates_give_zero(self):
        assert ddp_retrieval([2, 3], [4, 6]).value == 0.0

    def test_empty_selection(self):
        with pytest.raises(DataError, match="cannot score an empty selection"):
            ddp_retrieval([0, 0], [5, 5])

    def test_degenerate_denominator(self):
        with pytest.raises(DataError, match="selection must leave at least one item unselected"):
            ddp_retrieval([5, 5], [5, 5])


class TestDtpr:
    def test_perfect_recall_everywhere(self):
        preds = np.array([True, True, True, True])
        truth = np.array([True, True, True, True])
        groups = GroupLabels([0, 0, 1, 1], 2)
        assert dtpr(preds, truth, groups).value == 0.0

    def test_direct_tally(self):
        # group 0: TPR 4/4, group 1: TPR 2/4
        preds = np.array([True, True, True, True] + [True, True, False, False])
        truth = np.array([True] * 8)
        groups = GroupLabels([0] * 4 + [1] * 4, 2)
        assert dtpr(preds, truth, groups).value == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_classifier(self):
        preds = np.array([False] * 6)
        truth = np.array([True, True, False, True, True, False])
        groups = GroupLabels([0, 0, 0, 1, 1, 1], 2)
        assert dtpr(preds, truth, groups).value == 0.0

    def test_group_without_positives(self):
        preds = np.array([True, True])
        truth = np.array([True, False])
        groups = GroupLabels([0, 1], 2)
        with pytest.raises(DataError, match="^group 1 has no ground-truth positives$"):
            dtpr(preds, truth, groups)


class TestSkewAtK:
    def test_exactly_desired(self):
        assert skew_at_k([5, 5]).value == 0.0

    def test_direct_arithmetic(self):
        result = skew_at_k([8, 2])
        assert result.value == pytest.approx(math.log(2.5), abs=1e-12)

    def test_absent_group_sentinel(self):
        result = skew_at_k([10, 0])
        assert math.isinf(result.value)
        assert result.value > 0

    def test_empty_selection(self):
        with pytest.raises(DataError, match="cannot score an empty selection"):
            skew_at_k([0, 0])


class TestDdpRep:
    def test_equal_representation(self):
        assert ddp_rep((5, 5)).value == 0.0

    def test_direct_arithmetic(self):
        assert ddp_rep((7, 3)).value == pytest.approx(0.4, abs=1e-15)

    def test_pairwise_enumeration(self):
        result = ddp_rep((10, 0, 0))
        assert result.value == 1.0
        assert result.arg_pair == (0, 1)

    def test_empty(self):
        with pytest.raises(DataError, match="no retrieved positives to compare"):
            ddp_rep((0, 0))


class TestPerformanceMetrics:
    def test_accuracy_identical(self):
        assert accuracy(np.array([True, False, True]), np.array([True, False, True])) == 1.0

    def test_accuracy_complementary(self):
        assert accuracy(np.array([True, False]), np.array([False, True])) == 0.0

    def test_accuracy_three_of_four(self):
        assert accuracy(np.array([0, 1, 2, 3]), np.array([0, 1, 2, 9])) == 0.75

    def test_accuracy_mismatch(self):
        with pytest.raises(DataError, match=r"length mismatch: \(2,\) vs \(3,\)"):
            accuracy(np.array([0, 1]), np.array([0, 1, 2]))

    def test_precision_all_relevant(self):
        assert precision_at_k([3, 1, 2], {1, 2, 3}, 3) == 1.0

    def test_precision_none_relevant(self):
        assert precision_at_k([3, 1, 2], {9}, 3) == 0.0

    def test_precision_nine_of_ten(self):
        ranked = list(range(10))
        assert precision_at_k(ranked, set(range(9)), 10) == pytest.approx(0.9)

    @pytest.mark.parametrize(
        "relevant, expected",
        [
            ({0, 2, 9}, 0.5),
            ([9, 2, 0], 0.5),
            (np.array([0, 2, 9]), 0.5),
            (np.array([0, 2, 9], dtype=np.int32), 0.5),
            ((i for i in (0, 2, 9)), 0.5),
            ([0.0, 2.0, 9.0], 0.5),
            ([], 0.0),
            (np.array([], dtype=np.int64), 0.0),
            ([2, 2, 0, 0, 2], 0.5),
            (np.array([7, 7, 7]), 0.25),
        ],
        ids=["set", "list", "ndarray", "ndarray-int32", "generator", "floats", "empty",
             "empty-ndarray", "duplicates", "ndarray-duplicates"],
    )
    def test_precision_relevant_forms(self, relevant, expected):
        assert precision_at_k([4, 0, 7, 2, 9], relevant, 4) == expected


def random_instance(rng: np.random.Generator):
    p = int(rng.integers(2, 8))
    sizes = rng.integers(1, 30, size=p)
    n = int(sizes.sum())
    groups = np.repeat(np.arange(p), sizes)
    rng.shuffle(groups)
    return p, n, groups


class TestOracleEquivalence:
    """Each metric must match its standalone direct-formula oracle."""

    def test_ddp_classification(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            p, n, groups = random_instance(rng)
            preds = rng.choice([-1, 1], size=n)
            ours = ddp_classification(preds == 1, GroupLabels(groups, p)).value
            ref = oracle_ddp_classification(preds.tolist(), groups.tolist(), p)
            assert abs(ours - ref) <= 1e-12

    def test_ddp_retrieval(self):
        rng = np.random.default_rng(102)
        for _ in range(300):
            p = int(rng.integers(2, 8))
            z = rng.integers(2, 30, size=p)
            k = np.minimum(rng.integers(0, 30, size=p), z - 1)
            if k.sum() == 0:
                k[0] = 1
            ours = ddp_retrieval(k.tolist(), z.tolist()).value
            ref = oracle_ddp_retrieval(k.tolist(), z.tolist())
            assert abs(ours - ref) <= 1e-12

    def test_dtpr(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            p, n, groups = random_instance(rng)
            preds = rng.choice([-1, 1], size=n)
            truth = np.full(n, -1)
            # force one positive per group, then add noise
            for g in range(p):
                truth[np.flatnonzero(groups == g)[0]] = 1
            extra = rng.random(n) < 0.5
            truth[extra] = 1
            ours = dtpr(preds == 1, truth == 1, GroupLabels(groups, p)).value
            ref = oracle_dtpr(preds.tolist(), truth.tolist(), groups.tolist(), p)
            assert abs(ours - ref) <= 1e-12

    def test_skew(self):
        rng = np.random.default_rng(104)
        for _ in range(300):
            p = int(rng.integers(2, 8))
            k = rng.integers(0, 20, size=p)
            if k.sum() == 0:
                k[0] = 1
            df = [1.0 / p] * p
            ours = skew_at_k(k.tolist()).value
            ref = oracle_skew(k.tolist(), df)
            if math.isinf(ref):
                assert math.isinf(ours)
            else:
                assert abs(ours - ref) <= 1e-12

    def test_ddp_rep(self):
        rng = np.random.default_rng(105)
        for _ in range(300):
            p = int(rng.integers(2, 8))
            counts = rng.integers(0, 25, size=p)
            if counts.sum() == 0:
                counts[0] = 1
            ours = ddp_rep(counts.tolist()).value
            ref = oracle_ddp_rep(counts.tolist())
            assert abs(ours - ref) <= 1e-12


class TestInvariants:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_relabeling_invariance(self, data):
        p = data.draw(st.integers(min_value=2, max_value=5))
        n = data.draw(st.integers(min_value=2 * p, max_value=40))
        labels = np.array(
            data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        )
        for g in range(p):
            labels[g] = g  # every group occupied
        preds = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
        perm = np.array(data.draw(st.permutations(range(p))))
        original = ddp_classification(preds == 1, GroupLabels(labels, p))
        relabeled = ddp_classification(preds == 1, GroupLabels(perm[labels], p))
        assert original.value == pytest.approx(relabeled.value, abs=1e-12)
        assert np.allclose(
            np.sort(original.per_group_rates), np.sort(relabeled.per_group_rates)
        )

    def test_pairwise_max_reduces_for_two_groups(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            groups = rng.integers(0, 2, size=n)
            groups[:2] = [0, 1]
            preds = rng.choice([-1, 1], size=n)
            result = ddp_classification(preds == 1, GroupLabels(groups, 2))
            rates = result.per_group_rates
            assert result.value == pytest.approx(abs(rates[0] - rates[1]), abs=1e-15)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p, n, groups = random_instance(rng)
            preds = rng.choice([-1, 1], size=n)
            value = ddp_classification(preds == 1, GroupLabels(groups, p)).value
            assert 0.0 <= value <= 1.0

    def test_zero_equivalence_small(self):
        """Eq.-2-style disparity is 0 exactly when selection rates are equal."""
        rng = np.random.default_rng(9)
        for _ in range(1000):
            p = int(rng.integers(2, 8))
            if rng.random() < 0.5:
                base = rng.integers(1, 6, size=p)
                rate_num, rate_den = int(rng.integers(1, 4)), 4
                z = base * rate_den
                k = base * rate_num
            else:
                z = rng.integers(2, 25, size=p)
                k = np.maximum(rng.integers(0, 20, size=p) % z, 1)
            if z.sum() - k.sum() < 1:
                continue
            value = ddp_retrieval(k.tolist(), z.tolist()).value
            # exact rate equality via integer cross-multiplication
            cross = {int(k[i]) * int(z.sum()) - int(z[i]) * int(k.sum()) for i in range(p)}
            assert (value == 0.0) == (cross == {0})
