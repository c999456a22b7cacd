"""Tests for the shared data model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flens.core import (
    TEST,
    TRAIN,
    BinaryLabels,
    EmbeddingMatrix,
    GroupLabels,
    LabeledDataset,
    partition_by_group,
)
from flens.errors import (
    DegenerateVector,
    EmptyGroup,
    InvalidSelection,
    ShapeError,
    ValidationError,
)


class TestEmbeddingMatrix:
    def test_basic_shape(self):
        m = EmbeddingMatrix(np.arange(6.0).reshape(2, 3))
        assert m.rows == 2
        assert m.dims == 3

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            EmbeddingMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            EmbeddingMatrix(np.array([[np.inf, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises((ValidationError, ShapeError)):
            EmbeddingMatrix(np.zeros((0, 3)))

    def test_immutable(self):
        m = EmbeddingMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    def test_widens_to_float64(self):
        m = EmbeddingMatrix(np.ones((1, 2), dtype=np.float32))
        assert m.values.dtype == np.float64

    def test_unit_rows_cached_and_read_only(self):
        m = EmbeddingMatrix(np.array([[3.0, 4.0], [0.0, -2.0]]))
        unit = m.unit_rows
        assert unit is m.unit_rows
        np.testing.assert_array_equal(unit, m.values / np.linalg.norm(m.values, axis=1)[:, None])
        with pytest.raises(ValueError):
            unit[0, 0] = 1.0

    def test_unit_rows_zero_norm_row_never_cached(self):
        m = EmbeddingMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        for _ in range(2):
            with pytest.raises(DegenerateVector, match="^row 1 has zero norm$"):
                m.unit_rows


class TestGroupLabels:
    def test_counts(self):
        g = GroupLabels([0, 1, 0, 2], 3)
        assert g.counts().tolist() == [2, 1, 1]

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            GroupLabels([0, 3], 2)

    def test_absent_group_allowed_until_required(self):
        g = GroupLabels([0, 0], 2)
        with pytest.raises(EmptyGroup):
            g.require_all_groups()

    def test_names_length(self):
        with pytest.raises(ValidationError):
            GroupLabels([0, 1], 2, group_names=("only",))


class TestBinaryLabels:
    def test_accepts_pm_one(self):
        b = BinaryLabels([1, -1, 1])
        assert b.positive_mask().tolist() == [True, False, True]

    @pytest.mark.parametrize("bad", [[0, 1], [2, -1], [1, -1, 3]])
    def test_rejects_other_values(self, bad):
        with pytest.raises(ValidationError):
            BinaryLabels(bad)


class TestLabeledDataset:
    def _dataset(self, split):
        return LabeledDataset(
            embeddings=EmbeddingMatrix(np.random.default_rng(0).normal(size=(6, 2))),
            protected=GroupLabels([0, 1, 0, 1, 0, 1], 2),
            split=np.asarray(split),
        )

    def test_split_masks(self):
        ds = self._dataset([TRAIN, TRAIN, TRAIN, TRAIN, TEST, TEST])
        assert ds.train_mask.sum() == 4
        assert ds.test_mask.sum() == 2

    def test_group_absent_from_test_split_rejected(self):
        with pytest.raises(EmptyGroup):
            self._dataset([TRAIN, TRAIN, TRAIN, TRAIN, TEST, TRAIN])

    def test_group_absent_from_train_split_rejected(self):
        with pytest.raises(EmptyGroup):
            self._dataset([TEST, TRAIN, TEST, TRAIN, TEST, TRAIN])

    def test_default_split_is_all_test(self):
        ds = LabeledDataset(
            embeddings=EmbeddingMatrix(np.ones((2, 2))),
            protected=GroupLabels([0, 1], 2),
        )
        assert ds.test_mask.all()

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            LabeledDataset(
                embeddings=EmbeddingMatrix(np.ones((3, 2))),
                protected=GroupLabels([0, 1], 2),
            )


class TestPartitionByGroup:
    def test_symmetric_split(self):
        part = partition_by_group([0, 1], GroupLabels([0, 1, 0, 1], 2))
        assert part.selected_per_group == (1, 1)
        assert part.population_per_group == (2, 2)

    def test_empty_selection(self):
        part = partition_by_group([], GroupLabels([0, 1], 2))
        assert part.selected_per_group == (0, 0)
        assert part.total_selected == 0

    def test_tally(self):
        part = partition_by_group([0, 1, 2], GroupLabels([0, 0, 1, 1, 2], 3))
        assert part.selected_per_group == (2, 1, 0)
        assert part.population_per_group == (2, 2, 1)

    def test_duplicate_rejected(self):
        with pytest.raises(InvalidSelection):
            partition_by_group([0, 0], GroupLabels([0, 1], 2))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidSelection):
            partition_by_group([5], GroupLabels([0, 1], 2))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_complement_property(self, data):
        n = data.draw(st.integers(min_value=2, max_value=40))
        p = data.draw(st.integers(min_value=2, max_value=5))
        labels = data.draw(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n)
        )
        groups = GroupLabels(labels, p)
        size = data.draw(st.integers(min_value=0, max_value=n))
        selected = data.draw(st.permutations(range(n)))[:size]
        complement = [i for i in range(n) if i not in set(selected)]
        a = partition_by_group(selected, groups)
        b = partition_by_group(complement, groups)
        combined = tuple(x + y for x, y in zip(a.selected_per_group, b.selected_per_group))
        assert combined == a.population_per_group

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_order_invariance(self, data):
        labels = [0, 1, 2, 0, 1, 2, 0]
        groups = GroupLabels(labels, 3)
        selected = data.draw(st.permutations(range(len(labels))))[:4]
        shuffled = data.draw(st.permutations(selected))
        assert partition_by_group(selected, groups) == partition_by_group(list(shuffled), groups)
