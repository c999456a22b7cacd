"""Synthetic generator tests: determinism, balance, planted-signal recovery."""

import numpy as np
import pytest

from flens.core import TEST, TRAIN, split_tags
from flens.errors import ConfigError
from flens.mitigation import estimate_mi_per_dimension
from flens.probe import evaluate_probe, fit_probe
from flens.synth import SynthSpec, generate


class TestSpecValidation:
    def test_too_small(self):
        with pytest.raises(ConfigError, match=r"synth.n must be at least 2p = 6, got 5"):
            SynthSpec(n=5, d=4, p=3)

    def test_overlapping_dims(self):
        with pytest.raises(ConfigError):
            SynthSpec(n=100, d=8, p=2, bias_dims=(0, 1), concept_dims=(1, 2))

    def test_dim_out_of_range(self):
        with pytest.raises(ConfigError):
            SynthSpec(n=100, d=8, p=2, bias_dims=(8,))

    def test_negative_strength(self):
        with pytest.raises(ConfigError):
            SynthSpec(n=100, d=8, p=2, bias_strength=-1.0)


class TestGenerate:
    def test_same_seed_bit_identical(self):
        spec = SynthSpec(n=500, d=16, p=3, bias_dims=(0,), bias_strength=2.0, seed=99)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.embeddings.values, b.embeddings.values)
        assert np.array_equal(a.protected.labels, b.protected.labels)
        assert np.array_equal(a.split, b.split)
        assert np.array_equal(a.ground_truth.labels, b.ground_truth.labels)

    def test_different_seed_differs(self):
        base = SynthSpec(n=500, d=16, p=3, seed=1)
        other = SynthSpec(n=500, d=16, p=3, seed=2)
        assert not np.array_equal(generate(base).embeddings.values, generate(other).embeddings.values)

    def test_groups_balanced_within_one(self):
        ds = generate(SynthSpec(n=1001, d=4, p=3, seed=5))
        counts = ds.protected.counts()
        assert counts.max() - counts.min() <= 1

    def test_split_fractions(self):
        ds = generate(SynthSpec(n=1000, d=4, p=2, seed=6))
        train = int(ds.train_mask.sum())
        assert ds.embeddings.rows == 1000
        assert abs(train / 1000 - 0.7) < 0.01
        for tag in (TRAIN, TEST):
            mask = ds.split == tag
            present = np.unique(ds.protected.labels[mask])
            assert present.size == 2

    def test_split_is_valid_and_masks_partition_rows(self):
        ds = generate(SynthSpec(n=50, d=4, p=3, seed=3))
        assert np.array_equal(ds.train_mask, ~ds.test_mask)
        assert np.array_equal(split_tags(ds.split, ds.protected), ds.split)

    def test_no_bias_probe_near_chance(self):
        ds = generate(SynthSpec(n=5000, d=16, p=2, bias_strength=0.0, seed=7))
        train = np.flatnonzero(ds.train_mask)
        test = np.flatnonzero(ds.test_mask)
        model = fit_probe(ds.embeddings.take(train), ds.protected.take(train), max_iter=300)
        acc = evaluate_probe(model, ds.embeddings.take(test), ds.protected.take(test))
        assert abs(acc - 0.5) < 0.05

    def test_planted_bias_recovered_by_mi(self):
        ds = generate(SynthSpec(n=2000, d=16, p=2, bias_dims=(3, 8), bias_strength=6.0, seed=8))
        train = np.flatnonzero(ds.train_mask)
        scores = estimate_mi_per_dimension(ds.embeddings.take(train), ds.protected.take(train))
        assert set(np.argsort(-scores)[:2].tolist()) == {3, 8}

    def test_concept_balanced_within_groups(self):
        ds = generate(SynthSpec(n=992, d=4, p=2, seed=9))
        for g in range(2):
            mask = ds.protected.labels == g
            positives = np.count_nonzero(ds.ground_truth.labels[mask] == 1)
            assert abs(positives - mask.sum() / 2) <= 1

    def test_bias_separation_scale(self):
        ds = generate(SynthSpec(n=4000, d=8, p=2, bias_dims=(0,), bias_strength=6.0, seed=10))
        values = ds.embeddings.values[:, 0]
        gap = values[ds.protected.labels == 1].mean() - values[ds.protected.labels == 0].mean()
        assert gap == pytest.approx(6.0, abs=0.2)
        within = values[ds.protected.labels == 1].std()
        assert within == pytest.approx(1.0, abs=0.1)
