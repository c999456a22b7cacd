"""flens: fairness auditing and debiasing for precomputed embedding spaces."""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    TEST,
    TRAIN,
    BinaryLabels,
    EmbeddingMatrix,
    GroupLabels,
    GroupPartition,
    LabeledDataset,
    partition_by_group,
)
from .metrics import (
    MetricResult,
    accuracy,
    ddp_classification,
    ddp_rep,
    ddp_retrieval,
    dtpr,
    precision_at_k,
    recall_at_k,
    skew_at_k,
)
from .mitigation import (
    FairPcaTransform,
    MiClipTransform,
    apply_fair_pca,
    apply_mi_clip,
    estimate_mi_per_dimension,
    fit_fair_pca,
    fit_mi_clip,
)
from .probe import ProbeModel, evaluate_probe, fit_probe
from .stats import (
    GroupSamples,
    TestResult,
    alexander_govern,
    chi_square_sf,
    per_query_similarity_tests,
)
from .synth import SynthSpec, generate
from .tasks import (
    RetrievalResult,
    TaxonomyTags,
    balanced_retrieval,
    cosine_similarity_matrix,
    infer_protected_attribute,
    top_k,
    zero_shot_classify,
)

__all__ = [
    "__version__",
    "TRAIN",
    "TEST",
    "EmbeddingMatrix",
    "GroupLabels",
    "BinaryLabels",
    "LabeledDataset",
    "GroupPartition",
    "partition_by_group",
    "MetricResult",
    "ddp_classification",
    "ddp_retrieval",
    "dtpr",
    "skew_at_k",
    "ddp_rep",
    "accuracy",
    "precision_at_k",
    "recall_at_k",
    "RetrievalResult",
    "TaxonomyTags",
    "cosine_similarity_matrix",
    "zero_shot_classify",
    "top_k",
    "balanced_retrieval",
    "infer_protected_attribute",
    "MiClipTransform",
    "FairPcaTransform",
    "estimate_mi_per_dimension",
    "fit_mi_clip",
    "apply_mi_clip",
    "fit_fair_pca",
    "apply_fair_pca",
    "GroupSamples",
    "TestResult",
    "alexander_govern",
    "chi_square_sf",
    "per_query_similarity_tests",
    "ProbeModel",
    "fit_probe",
    "evaluate_probe",
    "SynthSpec",
    "generate",
]
