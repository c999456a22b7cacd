"""Synthetic generator tests: determinism, balance, planted-signal recovery."""

import json

import numpy as np
import pytest

from flens.cli import main
from flens.core import TEST, TRAIN, split_masks
from flens.mitigation import estimate_mi_per_dimension
from flens.probe import evaluate_probe, fit_probe
from flens.synth import SynthSpec, generate

from .helpers import coded_column


def run_synth(tmp_path, **spec):
    """Exit code of the synth command on ``spec``."""
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({
        "synth": spec,
        "output": {"embeddings": str(tmp_path / "s.femb"), "labels": str(tmp_path / "s.csv")},
    }))
    return main(["synth", "--config", str(cfg)])


class TestSpecValidation:
    """The synth spec's ranges, which the synth command checks before it generates."""

    def test_too_small(self, tmp_path, capsys):
        assert run_synth(tmp_path, n=5, d=4, p=3) == 2
        assert capsys.readouterr().err == "config error: synth.n must be at least 2p = 6, got 5\n"

    def test_overlapping_dims(self, tmp_path, capsys):
        assert run_synth(tmp_path, n=100, d=8, p=2, bias_dims=[0, 1], concept_dims=[1, 2]) == 2
        expected = "config error: synth.concept_dims shares dimension 1 with synth.bias_dims\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "s.femb").exists()

    def test_dim_out_of_range(self, tmp_path, capsys):
        assert run_synth(tmp_path, n=100, d=8, p=2, bias_dims=[8]) == 2
        expected = "config error: synth.bias_dims[0] must be in [0, 8), got 8\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("key", ["bias_dims", "concept_dims"])
    def test_repeated_dim(self, tmp_path, capsys, key):
        """A repeated dimension would get its offset once while the report listed it twice."""
        assert run_synth(tmp_path, n=100, d=8, p=2, **{key: [3, 0, 3]}) == 2
        expected = f"config error: synth.{key}[2] must be unique, got 3 again\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "s.femb").exists()

    def test_negative_strength(self, tmp_path, capsys):
        assert run_synth(tmp_path, n=100, d=8, p=2, bias_strength=-1.0) == 2
        expected = "config error: synth.bias_strength must be non-negative, got -1.0\n"
        assert capsys.readouterr().err == expected


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
        assert len(ds.embeddings.values) == 1000
        assert abs(train / 1000 - 0.7) < 0.01
        for tag in (TRAIN, TEST):
            mask = ds.split == tag
            present = np.unique(ds.protected.labels[mask])
            assert present.size == 2

    def test_split_is_valid_and_masks_partition_rows(self):
        ds = generate(SynthSpec(n=50, d=4, p=3, seed=3))
        assert np.array_equal(ds.train_mask, ~ds.test_mask)
        assert np.array_equal(split_masks(coded_column(ds.split), ds.protected), ds.train_mask)

    def test_no_bias_probe_near_chance(self):
        ds = generate(SynthSpec(n=5000, d=16, p=2, bias_strength=0.0, seed=7))
        train = np.flatnonzero(ds.train_mask)
        test = np.flatnonzero(ds.test_mask)
        model = fit_probe(ds.embeddings.values[train], ds.protected.take(train), max_iter=300)
        acc = evaluate_probe(model, ds.embeddings.values[test], ds.protected.take(test))
        assert abs(acc - 0.5) < 0.05

    def test_planted_bias_recovered_by_mi(self):
        ds = generate(SynthSpec(n=2000, d=16, p=2, bias_dims=(3, 8), bias_strength=6.0, seed=8))
        train = np.flatnonzero(ds.train_mask)
        scores = estimate_mi_per_dimension(ds.embeddings.values[train], ds.protected.take(train))
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
