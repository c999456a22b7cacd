"""Synthetic biased-embedding generator with known ground truth.

Gaussian unit-variance noise in every dimension; the protected group
shifts the mean along a chosen set of bias dimensions and a binary concept
label shifts the mean along a disjoint set of concept dimensions. Because
the planted directions are axis-aligned and orthogonal, expectations are
closed-form and tests can state exact recovery targets.

Randomness comes from a counter-based 64-bit generator (Philox), so a seed
fully determines the dataset within this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TEST, TRAIN, EmbeddingMatrix, GroupLabels


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic dataset.

    bias_strength and concept_strength are mean separations between
    adjacent groups / concept classes, in units of the within-group
    standard deviation. concept_strength defaults to bias_strength.
    cmd_synth checks p >= 2, n >= 2p, d >= 1, disjoint dimension tuples of
    ints in [0, d), and non-negative strengths and seed.
    """

    n: int
    d: int
    p: int
    bias_dims: tuple[int, ...] = ()
    bias_strength: float = 0.0
    concept_dims: tuple[int, ...] = ()
    concept_strength: float | None = None
    seed: int = 0

    @property
    def effective_concept_strength(self) -> float:
        return self.bias_strength if self.concept_strength is None else self.concept_strength

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "p": self.p,
            "bias_dims": list(self.bias_dims),
            "bias_strength": self.bias_strength,
            "concept_dims": list(self.concept_dims),
            "concept_strength": self.effective_concept_strength,
            "seed": self.seed,
        }


@dataclass(frozen=True, eq=False)
class SynthDataset:
    """One synthetic draw: embeddings, labels and split tags, row for row."""

    embeddings: EmbeddingMatrix
    protected: GroupLabels
    ground_truth: GroupLabels  # the concept: class 1 is positive
    split: np.ndarray

    @property
    def train_mask(self) -> np.ndarray:
        return self.split == TRAIN

    @property
    def test_mask(self) -> np.ndarray:
        return self.split == TEST


def generate(spec: SynthSpec) -> SynthDataset:
    """Draw one dataset from the spec; identical seeds give identical bytes.

    Groups are balanced to within one item and the concept label alternates
    within each group, keeping concept and group empirically independent.
    The 70/30 train/test split shuffles each group separately so both
    splits always contain every group.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    n, d, p = spec.n, spec.d, spec.p
    group = np.arange(n, dtype=np.int64) % p
    concept = (np.arange(n) // p + 1) % 2
    values = rng.standard_normal((n, d))
    if spec.bias_dims and spec.bias_strength > 0.0:
        with np.errstate(over="ignore"):  # an infinite offset fails the writer's float32 check
            offsets = spec.bias_strength * (group - (p - 1) / 2.0)
        values[:, list(spec.bias_dims)] += offsets[:, None]
    if spec.concept_dims and spec.effective_concept_strength > 0.0:
        offsets = spec.effective_concept_strength * (concept - 0.5)
        values[:, list(spec.concept_dims)] += offsets[:, None]
    split = np.full(n, TEST, dtype="<U5")
    for g in range(p):
        members = np.flatnonzero(group == g)
        members = members[rng.permutation(members.size)]
        # 70/30 per group; n >= 2p guarantees both sides are non-empty
        train_count = max((7 * members.size) // 10, 1)
        split[members[:train_count]] = TRAIN
    return SynthDataset(
        embeddings=EmbeddingMatrix(values),
        protected=GroupLabels(group, group_count=p),
        ground_truth=GroupLabels(concept, group_count=2),
        split=split,
    )
