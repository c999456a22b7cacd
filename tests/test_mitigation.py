"""Mitigation transform tests: MI clipping and fair PCA."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flens import mitigation
from flens.core import BLOCK_ROWS, GroupLabels
from flens.errors import DataError
from flens.mitigation import (
    apply_fair_pca,
    apply_mi_clip,
    estimate_mi_per_dimension,
    fit_fair_pca,
    fit_mi_clip,
)
from flens.synth import SynthSpec, generate

from .helpers import run_debias_fit, train_rows
from .oracles import oracle_fit_fair_pca, oracle_mi_per_dimension


class TestMiEstimation:
    def test_binary_label_dimension_is_ln2(self):
        n = 1000
        labels = np.tile([0, 1], n // 2)
        values = np.where(labels == 0, -1.0, 1.0)[:, None] + np.zeros((n, 3))
        values[:, 1:] = np.random.default_rng(0).normal(size=(n, 2))
        mi = estimate_mi_per_dimension(values, GroupLabels(labels, 2))
        assert mi[0] == pytest.approx(math.log(2.0), abs=1e-9)

    def test_three_group_index_dimension_is_ln3(self):
        n = 999
        labels = np.tile([0, 1, 2], n // 3)
        values = np.column_stack([labels.astype(float), np.zeros(n)])
        values[:, 1] = np.random.default_rng(1).normal(size=n)
        mi = estimate_mi_per_dimension(values, GroupLabels(labels, 3))
        assert mi[0] == pytest.approx(math.log(3.0), abs=1e-9)

    def test_independent_dimension_near_zero(self):
        n = 10000
        rng = np.random.default_rng(2)
        labels = np.tile([0, 1], n // 2)
        values = rng.normal(size=(n, 1))
        mi = estimate_mi_per_dimension(values, GroupLabels(labels, 2))
        assert 0.0 <= mi[0] < 0.01

    def test_constant_dimension_is_zero(self):
        values = np.column_stack([np.full(64, 3.25), np.arange(64.0)])
        labels = np.tile([0, 1], 32)
        mi = estimate_mi_per_dimension(values, GroupLabels(labels, 2))
        assert mi[0] == 0.0

    def test_invalid_bins(self, tmp_path, capsys):
        values = np.random.default_rng(3).normal(size=(50, 2))
        labels = np.tile([0, 1], 25)
        for bins, message in [
            (1, "miclip.bins must be at least 2, got 1"),
            (51, "miclip.bins must be at most the item count 50, got 51"),
        ]:
            assert run_debias_fit(tmp_path, values, labels, "miclip", {"m": 1, "bins": bins}) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# Coarse grid: many ties, and both signs of zero.
GRID = [-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]


@st.composite
def mi_case(draw):
    """(values, labels, p, bins, block budget): tied, constant and ±0 columns, every group present."""
    p = draw(st.integers(2, 7))
    n = draw(st.integers(p, 90))
    bins = draw(st.integers(2, min(n, 64)))
    labels = np.array(draw(st.permutations([i % p for i in range(n)])), dtype=np.int64)
    columns = []
    kinds = st.sampled_from(["grid", "constant", "zeros", "wide"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=7)):
        if kind == "grid":
            column = draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n))
        elif kind == "constant":
            column = [draw(st.sampled_from(GRID))] * n
        elif kind == "zeros":
            column = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
        else:
            finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
            column = draw(st.lists(finite, min_size=n, max_size=n))
        columns.append(column)
    # Budget below n: one column per block; 2n + 1: two, so odd widths end in a short block.
    budget = draw(st.sampled_from([1, 2 * n + 1, 3 * n, 2**15]))
    return np.array(columns).T, labels, p, bins, budget


class TestMiEstimatorMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=mi_case())
    def test_bitwise_equal_to_per_column_oracle(self, case):
        values, labels, p, bins, budget = case
        with mock.patch.object(mitigation, "_MI_BLOCK_ELEMENTS", budget):
            scores = estimate_mi_per_dimension(
                values, GroupLabels(labels, p), bins=bins
            )
        assert bitwise_equal(scores, oracle_mi_per_dimension(values, labels, p, bins))

    @pytest.mark.parametrize("n, d, p", [(4200, 256, 4), (40_000, 3, 3)])
    def test_bitwise_equal_at_fit_and_long_shapes(self, n, d, p):
        rng = np.random.default_rng(n + d)
        values = rng.normal(size=(n, d))
        values[:, ::5] = np.round(values[:, ::5] * 4) / 4  # tied columns
        values[:, 1] = 0.0
        labels = rng.permutation(np.arange(n) % p)
        scores = estimate_mi_per_dimension(values, GroupLabels(labels, p))
        assert bitwise_equal(scores, oracle_mi_per_dimension(values, labels, p, 32))

    def test_scratch_memory_is_bounded_by_block(self):
        # Binning all 256 columns at once would hold several 8.6 MB n x d copies.
        rng = np.random.default_rng(31)
        n, d = 4200, 256
        train = rng.normal(size=(n, d))
        groups = GroupLabels(np.arange(n) % 4, 4)
        tracemalloc.start()
        try:
            estimate_mi_per_dimension(train, groups)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestMiClip:
    def _planted(self, n=1200, d=16, strength=6.0, seed=5):
        return generate(
            SynthSpec(n=n, d=d, p=2, bias_dims=(0, 1), bias_strength=strength, seed=seed)
        )

    def test_removes_planted_dimensions(self):
        ds = self._planted()
        _, details = fit_mi_clip(*train_rows(ds), m=ds.embeddings.values.shape[1] - 2)
        assert details["cut_dims"] == [0, 1]

    def test_boundary_removes_single_highest(self):
        ds = self._planted()
        transform, details = fit_mi_clip(*train_rows(ds), m=ds.embeddings.values.shape[1] - 1)
        scores = transform.mi_scores
        assert details["cut_dims"] == [int(np.argmax(scores))]

    def test_paper_scale_mask_sizes(self):
        # d = 512 with m in {400, 256} cuts 112 and 256 dimensions
        rng = np.random.default_rng(6)
        n, d = 640, 512
        labels = np.tile([0, 1], n // 2)
        values = rng.normal(size=(n, d))
        train, groups = values, GroupLabels(labels, 2)
        for m, expected_cut in ((400, 112), (256, 256)):
            transform, details = fit_mi_clip(train, groups, m=m)
            assert transform.output_dims == m
            assert len(details["cut_dims"]) == expected_cut

    def test_nested_masks(self):
        ds = self._planted()
        d = ds.embeddings.values.shape[1]
        masks = {m: fit_mi_clip(*train_rows(ds), m=m)[0].keep_mask for m in (2, 5, 9, 14, d - 1)}
        ms = sorted(masks)
        for small, large in zip(ms, ms[1:]):
            kept_small = set(np.flatnonzero(masks[small]))
            kept_large = set(np.flatnonzero(masks[large]))
            assert kept_small <= kept_large

    def test_invalid_m(self, tmp_path, capsys):
        values, protected = train_rows(self._planted())
        for m in (0, values.shape[1]):
            assert run_debias_fit(tmp_path, values, protected.labels, "miclip", {"m": m}) == 2
            err = capsys.readouterr().err
            assert err == f"config error: miclip.m must be in [1, d) = [1, 16), got {m}\n"

    def test_apply_keeps_column_order(self):
        ds = self._planted()
        transform, _ = fit_mi_clip(*train_rows(ds), m=ds.embeddings.values.shape[1] - 2)
        clipped = apply_mi_clip(transform, ds.embeddings.values)
        kept = np.flatnonzero(transform.keep_mask)
        assert np.array_equal(clipped, ds.embeddings.values[:, kept])

    def test_apply_dimension_mismatch(self):
        ds = self._planted()
        transform, _ = fit_mi_clip(*train_rows(ds), m=8)
        with pytest.raises(DataError, match="transform expects d=16, got d=5"):
            apply_mi_clip(transform, np.ones((3, 5)))

    def test_kept_mi_below_removed_mi(self):
        ds = self._planted()
        train, groups = train_rows(ds)
        transform, _ = fit_mi_clip(train, groups, m=10)
        re_scores = estimate_mi_per_dimension(train, groups)
        kept = re_scores[transform.keep_mask]
        removed = re_scores[~transform.keep_mask]
        assert kept.max() <= removed.min() + 1e-12


def demeaned_onehot(labels: np.ndarray, p: int) -> np.ndarray:
    onehot = np.zeros((labels.size, p))
    onehot[np.arange(labels.size), labels] = 1.0
    return onehot - onehot.mean(axis=0)


class TestFairPca:
    def test_matches_standard_pca_when_constraint_inactive(self):
        # stacking identical blocks per group makes group means exactly equal
        rng = np.random.default_rng(10)
        block = rng.normal(size=(80, 6))
        values = np.vstack([block, block])
        labels = np.repeat([0, 1], 80)
        train, groups = values, GroupLabels(labels, 2)
        r = 3
        transform, _ = fit_fair_pca(train, groups, target_dim=r)
        centered = values - values.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        standard = vt[:r].T
        # compare subspaces via projector difference (spectral norm = sin of largest angle)
        diff = transform.projection @ transform.projection.T - standard @ standard.T
        assert np.linalg.norm(diff, 2) < 1e-8

    def test_two_cluster_means_equalized(self):
        rng = np.random.default_rng(11)
        n = 400
        labels = np.tile([0, 1], n // 2)
        values = rng.normal(size=(n, 2))
        values[:, 0] += np.where(labels == 0, -4.0, 4.0)
        train, groups = values, GroupLabels(labels, 2)
        transform, _ = fit_fair_pca(train, groups, target_dim=1)
        projected = apply_fair_pca(transform, train)
        mean_gap = abs(projected[labels == 0].mean() - projected[labels == 1].mean())
        assert mean_gap < 1e-10

    @pytest.mark.parametrize("p", [2, 7])
    def test_uncorrelated_with_group_indicators(self, p):
        ds = generate(SynthSpec(n=2000, d=64, p=p, bias_dims=(0, 1, 2), bias_strength=4.0, seed=12))
        transform, _ = fit_fair_pca(*train_rows(ds))
        idx = np.flatnonzero(ds.train_mask)
        projected = apply_fair_pca(transform, ds.embeddings.values)[idx]
        indicators = demeaned_onehot(ds.protected.labels[idx], p)
        for dim in range(projected.shape[1]):
            for g in range(p):
                corr = np.corrcoef(projected[:, dim], indicators[:, g])[0, 1]
                assert abs(corr) < 1e-6

    def test_orthonormality(self):
        ds = generate(SynthSpec(n=500, d=16, p=3, bias_dims=(0,), bias_strength=3.0, seed=13))
        transform, _ = fit_fair_pca(*train_rows(ds))
        gram = transform.projection.T @ transform.projection
        assert np.max(np.abs(gram - np.eye(transform.projection.shape[1]))) < 1e-10

    def test_variance_optimality_among_feasible(self):
        rng = np.random.default_rng(14)
        ds = generate(SynthSpec(n=800, d=12, p=2, bias_dims=(0,), bias_strength=5.0, seed=15))
        r = 4
        transform, _ = fit_fair_pca(*train_rows(ds), target_dim=r)
        idx = np.flatnonzero(ds.train_mask)
        x = ds.embeddings.values[idx]
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (centered.shape[0] - 1)
        constraints = demeaned_onehot(ds.protected.labels[idx], 2).T @ centered
        _, sing, vt = np.linalg.svd(constraints, full_matrices=True)
        rank = int(np.sum(sing > 1e-10 * sing[0]))
        null_basis = vt[rank:].T
        fitted_variance = np.trace(transform.projection.T @ cov @ transform.projection)
        for _ in range(25):
            random_directions = rng.normal(size=(null_basis.shape[1], r))
            q, _ = np.linalg.qr(random_directions)
            candidate = null_basis @ q[:, :r]
            cand_variance = np.trace(candidate.T @ cov @ candidate)
            assert fitted_variance >= cand_variance - 1e-8

    def test_apply_is_deterministic_on_train(self):
        ds = generate(SynthSpec(n=300, d=8, p=2, bias_dims=(0,), bias_strength=4.0, seed=16))
        transform, _ = fit_fair_pca(*train_rows(ds))
        a = apply_fair_pca(transform, ds.embeddings.values)
        b = apply_fair_pca(transform, ds.embeddings.values)
        assert np.array_equal(a, b)

    def test_zero_vector_shows_centering(self):
        ds = generate(SynthSpec(n=300, d=8, p=2, bias_dims=(0,), bias_strength=4.0, seed=17))
        transform, _ = fit_fair_pca(*train_rows(ds))
        zero = np.zeros((1, 8))
        out = apply_fair_pca(transform, zero)[0]
        assert np.allclose(out, -transform.mean @ transform.projection, atol=1e-12)

    def test_projection_column_round_trip(self):
        ds = generate(SynthSpec(n=300, d=8, p=2, bias_dims=(0,), bias_strength=4.0, seed=18))
        transform, details = fit_fair_pca(*train_rows(ds))
        for j in (0, details["target_dim"] - 1):
            probe_vec = transform.mean + transform.projection[:, j]
            out = apply_fair_pca(transform, probe_vec[None, :])[0]
            expected = np.zeros(details["target_dim"])
            expected[j] = 1.0
            assert np.allclose(out, expected, atol=1e-10)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_target_dim_too_large(self, tmp_path, capsys):
        ds = generate(SynthSpec(n=300, d=8, p=3, bias_dims=(0,), bias_strength=4.0, seed=19))
        values, protected = train_rows(ds)
        code = run_debias_fit(tmp_path, values, protected.labels, "fairpca", {"target_dim": 7})
        assert code == 2  # max feasible is d - (p-1) = 6
        expected = "config error: fairpca.target_dim must be in [1, d-(p-1)] = [1, 6], got 7\n"
        assert capsys.readouterr().err == expected

    def test_warns_when_n_not_above_d(self):
        rng = np.random.default_rng(20)
        values = rng.normal(size=(24, 30))
        labels = np.tile([0, 1], 12)
        train, groups = values, GroupLabels(labels, 2)
        with pytest.warns(UserWarning):
            fit_fair_pca(train, groups, target_dim=2)

    def test_fewer_rows_than_dims_pads_the_basis(self):
        # n - 1 < r: PCA inside the feasible subspace yields only n - 1
        # variance directions; the rest of the basis comes from its null space.
        rng = np.random.default_rng(23)
        values = rng.normal(size=(10, 30))
        train, groups = values, GroupLabels(np.tile([0, 1], 5), 2)
        with pytest.warns(UserWarning):
            transform, details = fit_fair_pca(train, groups, target_dim=20)
        projection = transform.projection
        assert projection.shape == (30, 20)
        np.testing.assert_allclose(projection.T @ projection, np.eye(20), atol=1e-10)
        assert details["constraint_residual"] < 1e-8

    def test_large_n_fit_memory_is_linear_in_n(self):
        # A full-matrices SVD would build an n x n U here: 20 GB at n = 50 000. The
        # fit holds one centred n x d copy of the input, plus O(n p + d^2) more.
        rng = np.random.default_rng(24)
        n, d = 50_000, 64
        train, groups = rng.normal(size=(n, d)), GroupLabels(np.arange(n) % 3, 3)
        tracemalloc.start()
        try:
            _, details = fit_fair_pca(train, groups)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert details["target_dim"] == d - 2
        assert peak <= 1.25 * train.nbytes

    def test_eigengap_of_feasible_scatter(self):
        ds = generate(SynthSpec(n=800, d=12, p=2, bias_dims=(0,), bias_strength=5.0, seed=25))
        train, groups = train_rows(ds)
        assert fit_fair_pca(train, groups)[1]["eigengap"] is None  # r = d - 1: the whole subspace
        r = 4
        _, details = fit_fair_pca(train, groups, target_dim=r)
        centered = train - train.mean(axis=0)
        constraints = demeaned_onehot(groups.labels, 2).T @ centered
        null_basis = np.linalg.svd(constraints, full_matrices=True)[2][1:].T
        sing = np.linalg.svd(centered @ null_basis, compute_uv=False)
        top = np.linalg.svd(centered, compute_uv=False)[0]
        expected = (sing[r - 1] ** 2 - sing[r] ** 2) / top**2
        assert details["eigengap"] == pytest.approx(expected, rel=1e-9)

    def test_constant_rows_have_zero_eigengap(self):
        train = np.ones((40, 5))
        transform, details = fit_fair_pca(train, GroupLabels(np.arange(40) % 2, 2), target_dim=2)
        assert details["eigengap"] == 0.0
        np.testing.assert_allclose(apply_fair_pca(transform, train), 0.0, atol=1e-12)

    def test_apply_dimension_mismatch(self):
        ds = generate(SynthSpec(n=300, d=8, p=2, bias_dims=(0,), bias_strength=4.0, seed=21))
        transform, _ = fit_fair_pca(*train_rows(ds))
        with pytest.raises(DataError, match="transform expects d=8, got d=9"):
            apply_fair_pca(transform, np.ones((2, 9)))

    def test_apply_makes_no_centred_copy(self):
        rng = np.random.default_rng(26)
        n, d = 20_000, 64
        train = rng.normal(size=(n, d)) + 5.0
        groups = GroupLabels(np.arange(n) % 2, 2)
        transform, _ = fit_fair_pca(train, groups)
        tracemalloc.start()
        try:
            out = apply_fair_pca(transform, train)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The n x (d - 1) output and its one-byte-per-value finite scan; no n x d temporary.
        assert peak <= 1.25 * out.nbytes
        expected = (train - transform.mean) @ transform.projection
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_refit_on_permuted_rows_gives_the_same_columns(self):
        # The feasible subspace's SVD basis is any orthonormal basis of a degenerate
        # null space, so a row order's round-off rotates it; the sign rule reads the
        # projection's own columns and so does not flip with it.
        ds = generate(SynthSpec(n=2000, d=32, p=3, bias_dims=(0, 1), bias_strength=3.0, seed=3))
        values, labels = ds.embeddings.values, ds.protected.labels
        expected = fit_fair_pca(values, GroupLabels(labels, 3))[0].projection
        rng = np.random.default_rng(27)
        for _ in range(3):
            order = rng.permutation(labels.size)
            refit, _ = fit_fair_pca(values[order], GroupLabels(labels[order], 3))
            np.testing.assert_allclose(refit.projection, expected, rtol=0, atol=1e-9)


@st.composite
def fair_pca_case(draw, blocks=False):
    """(values, labels, p, r) with n <= d or n > d, r at or below the feasible dimension.

    In a "shared" case every group holds the same rows plus one of fewer than
    p shift vectors, so the constraint matrix is rank-deficient (zero when
    every group shares one shift). Columns get scales across four decades,
    and every row may get a +1e3 offset. With ``blocks`` the rows span two or
    three of the fit's row blocks, the last one partial.
    """
    p = draw(st.integers(2, 4))
    d = draw(st.integers(p, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = (BLOCK_ROWS + 1, 3 * BLOCK_ROWS - 1) if blocks else (p + 1, 30)
    if draw(st.booleans()):  # shared
        per_group = (-(-rows[0] // p), rows[1] // p) if blocks else (1, 6)
        block = rng.normal(size=(draw(st.integers(*per_group)), d))
        shifts = rng.normal(size=(draw(st.integers(1, p - 1)), d))
        owner = rng.integers(0, shifts.shape[0], size=p)
        labels = np.repeat(np.arange(p), block.shape[0])
        values = np.tile(block, (p, 1)) + shifts[owner[labels]]
    else:
        n = draw(st.integers(*rows))
        labels = rng.permutation(np.arange(n) % p)
        values = rng.normal(size=(n, d)) + rng.normal(size=(p, d))[labels]
    values = values * 10.0 ** rng.uniform(-2, 2, size=d)
    if draw(st.booleans()):
        values = values + 1e3
    r = draw(st.integers(1, d - (p - 1)))
    return values, labels, p, r


class TestFairPcaMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=fair_pca_case())
    def test_subspace_and_tolerances_against_svd_oracle(self, case):
        self._check_against_oracle(*case)

    @settings(max_examples=40, deadline=None)
    @given(case=fair_pca_case(blocks=True))
    def test_blocked_scatter_against_svd_oracle(self, case):
        self._check_against_oracle(*case)

    @staticmethod
    def _check_against_oracle(values, labels, p, r):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # n <= d
            transform, details = fit_fair_pca(values, GroupLabels(labels, p), r)
        projection = transform.projection
        assert np.max(np.abs(projection.T @ projection - np.eye(r))) <= 1e-10
        constraints = demeaned_onehot(labels, p).T @ (values - values.mean(axis=0))
        bound = 1e-8 * max(1.0, np.abs(constraints).max())
        assert np.max(np.abs(constraints @ projection)) <= bound
        gap = details["eigengap"]
        assert gap is None or 0.0 <= gap <= 1.0 + 1e-12
        if gap is None or gap >= 1e-6:
            mean, expected = oracle_fit_fair_pca(values, labels, p, r)
            assert np.array_equal(transform.mean, mean)
            # Sine of the largest principal angle between the two column spans.
            sine = np.linalg.norm(expected - projection @ (projection.T @ expected), 2)
            assert sine <= 1e-9
