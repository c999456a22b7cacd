"""Tests for the shared data model."""

import numpy as np
import pytest

from flens.core import (
    TEST,
    TRAIN,
    EmbeddingMatrix,
    GroupLabels,
    split_tags,
)
from flens.errors import DataError


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
        tags = split_tags(np.asarray([TRAIN, TRAIN, TRAIN, TRAIN, TEST, TEST]), self.GROUPS)
        assert np.count_nonzero(tags == TRAIN) == 4
        assert np.count_nonzero(tags == TEST) == 2
        assert not tags.flags.writeable

    def test_group_absent_from_test_split_rejected(self):
        with pytest.raises(DataError, match="group 1 absent from the test split"):
            split_tags(np.asarray([TRAIN, TRAIN, TRAIN, TRAIN, TEST, TRAIN]), self.GROUPS)

    def test_group_absent_from_train_split_rejected(self):
        with pytest.raises(DataError, match="group 0 absent from the train split"):
            split_tags(np.asarray([TEST, TRAIN, TEST, TRAIN, TEST, TRAIN]), self.GROUPS)

    def test_default_split_is_all_test(self):
        assert (split_tags(None, GroupLabels([0, 1], 2)) == TEST).all()
