"""Tests for the shared data model."""

import numpy as np
import pytest

from flens.core import (
    TEST,
    TRAIN,
    EmbeddingMatrix,
    GroupLabels,
    split_masks,
)
from flens.errors import DataError

from .helpers import coded_column


class TestEmbeddingMatrix:
    def test_basic_shape(self):
        m = EmbeddingMatrix(np.arange(6.0).reshape(2, 3))
        assert m.values.shape == (2, 3)

    def test_rejects_empty(self):
        with pytest.raises(DataError, match="needs at least one row and one column"):
            EmbeddingMatrix(np.zeros((0, 3)))

    def test_immutable(self):
        m = EmbeddingMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    def test_widens_to_float64(self):
        m = EmbeddingMatrix(np.ones((1, 2), dtype=np.float32))
        assert m.values.dtype == np.float64


class TestGroupLabels:
    def test_counts(self):
        g = GroupLabels([0, 1, 0, 2], 3)
        assert g.counts().tolist() == [2, 1, 1]

    def test_out_of_range(self):
        with pytest.raises(DataError, match=r"group label outside \[0, group_count\)"):
            GroupLabels([0, 3], 2)

    def test_absent_group_allowed(self):
        assert GroupLabels([0, 0], 2).counts().tolist() == [2, 0]

    def test_names_length(self):
        with pytest.raises(DataError, match="group_names length must equal group_count"):
            GroupLabels([0, 1], 2, group_names=("only",))


class TestSplitTags:
    GROUPS = GroupLabels([0, 1, 0, 1, 0, 1], 2)

    def test_split_masks(self):
        train = split_masks(coded_column([TRAIN, TRAIN, TEST, TEST, TRAIN, TRAIN]), self.GROUPS)
        assert train.dtype == bool and train.tolist() == [True, True, False, False, True, True]
        assert not train.flags.writeable

    def test_group_absent_from_test_split_rejected(self):
        with pytest.raises(DataError, match="group 1 absent from the test split"):
            split_masks(coded_column([TRAIN, TRAIN, TRAIN, TRAIN, TEST, TRAIN]), self.GROUPS)

    def test_group_absent_from_train_split_rejected(self):
        with pytest.raises(DataError, match="group 0 absent from the train split"):
            split_masks(coded_column([TEST, TRAIN, TEST, TRAIN, TEST, TRAIN]), self.GROUPS)

    def test_one_table_check_matches_a_check_per_split(self):
        """The one bincount table names the group a check of each split in turn names."""
        rng = np.random.default_rng(0)
        for _ in range(300):
            n, p = int(rng.integers(1, 9)), int(rng.integers(2, 4))
            groups = GroupLabels(rng.integers(0, p, n), p)
            tags = [TRAIN if t else TEST for t in rng.random(n) < 0.5]
            expected = None
            for tag in (TRAIN, TEST):
                rows = [g for g, t in zip(groups.labels.tolist(), tags) if t == tag]
                missing = [g for g in range(p) if rows and g not in rows]
                if missing and expected is None:
                    expected = f"group {missing[0]} absent from the {tag} split"
            if expected is None:
                assert split_masks(coded_column(tags), groups).tolist() == [t == TRAIN for t in tags]
            else:
                with pytest.raises(DataError) as raised:
                    split_masks(coded_column(tags), groups)
                assert str(raised.value) == expected

    def test_default_split_is_all_test(self):
        train = split_masks(None, GroupLabels([0, 1], 2))
        assert train.tolist() == [False, False] and not train.flags.writeable
