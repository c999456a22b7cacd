"""Benchmark workloads: inputs generated from a seed, and the commands run on them.

Every input is made with flens's own generator (``flens.synth.generate``) and
file writers (``flens.io``); the benchmark adds only query rows drawn from a
seeded numpy generator. A workload's set-up writes the inputs into a working
directory and returns a ``Plan``: the commands run once during set-up and the
commands of one measured pass. All paths in configs are relative to the
working directory, so reports are byte-comparable across checkouts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from flens.core import EmbeddingMatrix
from flens.io import write_embeddings, write_label_table
from flens.synth import SynthSpec, generate


@dataclass(frozen=True)
class Step:
    """One CLI invocation: ``flens <command> --config <label>.config.json``.

    ``tasks`` is the task-record count the report must hold, ``artifacts``
    the files the command writes besides its report, and ``check`` the name
    of the content check in ``checks.CHECKS`` (with its arguments).
    """

    label: str
    command: str
    config: dict
    tasks: int
    artifacts: tuple[str, ...] = ()
    check: str | None = None
    check_args: dict = field(default_factory=dict)

    @property
    def config_path(self) -> str:
        return f"{self.label}.config.json"

    @property
    def report_path(self) -> str:
        return f"{self.label}.report.json"

    @property
    def argv(self) -> list[str]:
        return [self.command, "--config", self.config_path, "--out", self.report_path]

    @property
    def outputs(self) -> tuple[str, ...]:
        """Every file the step writes; all must be byte-identical across passes."""
        return (self.report_path,) + self.artifacts


@dataclass(frozen=True)
class Plan:
    setup: list[Step]
    passes: list[Step]

    def write(self, workdir: Path) -> None:
        for step in self.setup + self.passes:
            (workdir / step.config_path).write_text(json.dumps(step.config, indent=1))
        plan = [{"label": s.label, "argv": s.argv} for s in self.passes]
        (workdir / "plan.json").write_text(json.dumps(plan))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: dict
    build: Callable[[Path, int, dict], Plan]

    def setup(self, workdir: Path, seed: int, size: dict | None = None) -> Plan:
        """Write the inputs and configs for ``seed``; return the plan."""
        plan = self.build(workdir, seed, size or self.size)
        plan.write(workdir)
        return plan


def _spec(size: dict, seed: int, **overrides) -> SynthSpec:
    """Synthetic data with group bias in dims 0-1 and a binary concept in dims 4-5."""
    params = dict(
        n=size["n"], d=size["d"], p=size["p"], bias_dims=(0, 1), bias_strength=2.0,
        concept_dims=(4, 5), concept_strength=2.0, seed=seed,
    )
    params.update(overrides)
    return SynthSpec(**params)


def _write_dataset(workdir: Path, stem: str, spec: SynthSpec, reshape=None) -> int:
    """Write ``<stem>.femb`` and ``<stem>.csv``; return the test-split size."""
    dataset = generate(spec)
    values = dataset.embeddings.values
    write_embeddings(EmbeddingMatrix(reshape(values) if reshape else values), workdir / f"{stem}.femb")
    write_label_table(
        workdir / f"{stem}.csv",
        {
            "group": [str(int(g)) for g in dataset.protected.labels],
            "concept": [str((int(c) + 1) // 2) for c in dataset.ground_truth.labels],
            "split": [str(s) for s in dataset.split],
        },
    )
    return int(dataset.test_mask.sum())


def _write_rows(workdir: Path, name: str, values: np.ndarray) -> str:
    write_embeddings(EmbeddingMatrix(values), workdir / name)
    return name


def _data(stem: str) -> dict:
    return {"embeddings": f"{stem}.femb", "labels": f"{stem}.csv", "attribute": "group"}


def _tags(i: int) -> dict:
    """Spread tasks over every taxonomy cell, and some over none."""
    return {"human_centric": i % 8 != 7, "subjective": i % 2 == 0}


def _retrieval_queries(count: int) -> list[dict]:
    """Alternate independence queries with diversity queries that name relevance."""
    queries = []
    for i in range(count):
        spec = {"name": f"query{i:03d}", "row": i, **_tags(i)}
        if i % 2:
            spec.update(fairness_mode="diversity", relevant="concept")
        else:
            spec["fairness_mode"] = "independence"
        queries.append(spec)
    return queries


def _retrieve_step(data: dict, size: dict, k: list[int], transform: str | None) -> Step:
    config = {
        "data": data,
        "queries": "retrieval_queries.femb",
        "retrieval": {"k": k, "queries": _retrieval_queries(size["queries"])},
        "balanced": {"embeddings": "balanced_queries.femb"},
    }
    if transform:
        config["transform"] = transform
    return Step(
        "retrieve-audit", "retrieve-audit", config, tasks=size["queries"] * len(k),
        check="retrieval",
        check_args={"queries": size["queries"], "k": k, "p": size["p"]},
    )


def build_audit(workdir: Path, seed: int, size: dict) -> Plan:
    rng = np.random.default_rng([seed, 1])
    d, p = size["d"], size["p"]
    _write_dataset(workdir, "items", _spec(size, 2 * seed))
    # The transform is fitted on a separate, smaller draw of the same
    # distribution: fair PCA's cost grows with n_train squared, and the
    # audit commands only apply it.
    _write_dataset(workdir, "fit_items", _spec(size, 2 * seed + 1, n=size["fit_n"]))
    _write_rows(workdir, "class_queries.femb", rng.standard_normal((2 * size["tasks"], d)))
    _write_rows(workdir, "retrieval_queries.femb", rng.standard_normal((size["queries"], d)))
    _write_rows(workdir, "balanced_queries.femb", rng.standard_normal((size["queries"] * p, d)))
    fit = Step(
        "setup-fairpca", "debias-fit",
        {"data": _data("fit_items"), "method": "fairpca", "transform_out": "fpca.ftfm"},
        tasks=1, artifacts=("fpca.ftfm",), check="fairpca",
        check_args={"transform": "fpca.ftfm", "data": "fit_items"},
    )
    tasks = [
        {"name": f"task{i:03d}", "class_a": 2 * i, "class_b": 2 * i + 1,
         "ground_truth": "concept", **_tags(i)}
        for i in range(size["tasks"])
    ]
    classify = Step(
        "classify-audit", "classify-audit",
        {"data": _data("items"), "queries": "class_queries.femb", "transform": "fpca.ftfm",
         "tasks": tasks},
        tasks=size["tasks"],
    )
    retrieve = _retrieve_step(_data("items"), size, size["k"], "fpca.ftfm")
    return Plan(setup=[fit], passes=[classify, retrieve])


def build_fit(workdir: Path, seed: int, size: dict) -> Plan:
    rng = np.random.default_rng([seed, 2])
    _write_dataset(workdir, "items", _spec(size, 2 * seed))
    _write_rows(workdir, "prompts.femb", rng.standard_normal((size["p"], size["d"])))
    data = _data("items")
    miclip = {"m": size["miclip_m"]}
    steps = [
        Step("fairpca-fit", "debias-fit",
             {"data": data, "method": "fairpca", "transform_out": "fpca.ftfm"},
             tasks=1, artifacts=("fpca.ftfm",), check="fairpca",
             check_args={"transform": "fpca.ftfm", "data": "items"}),
        Step("miclip-fit", "debias-fit",
             {"data": data, "method": "miclip", "miclip": miclip, "transform_out": "miclip.ftfm"},
             tasks=1, artifacts=("miclip.ftfm",), check="miclip", check_args=miclip),
        Step("miclip-fit-inferred", "debias-fit",
             {"data": data, "method": "miclip", "miclip": miclip, "attribute_source": "inferred",
              "prompts": "prompts.femb", "transform_out": "miclip_inferred.ftfm"},
             tasks=1, artifacts=("miclip_inferred.ftfm",), check="miclip", check_args=miclip),
        Step("apply", "apply",
             {"input": "items.femb", "transform": "fpca.ftfm", "output": "items_fpca.femb"},
             tasks=1, artifacts=("items_fpca.femb",), check="apply",
             check_args={"input": "items.femb", "transform": "fpca.ftfm",
                         "output": "items_fpca.femb"}),
        Step("probe", "probe",
             {"data": data, "transform": "fpca.ftfm",
              "probe": {"attributes": ["group", "concept"], "max_iter": size["probe_max_iter"]}},
             tasks=2, check="probe"),
    ]
    return Plan(setup=[], passes=steps)


def three_level(values: np.ndarray, nonzero: int) -> np.ndarray:
    """Keep the sign of each row's ``nonzero`` largest-magnitude entries, zero the rest.

    With a square ``nonzero`` every row norm is exact, so every cosine is a
    multiple of 1/nonzero computed without rounding: ties are exact and
    independent of summation order.
    """
    top = np.argpartition(-np.abs(values), nonzero - 1, axis=1)[:, :nonzero]
    signs = np.where(np.take_along_axis(values, top, axis=1) < 0, -1.0, 1.0)
    out = np.zeros_like(values)
    np.put_along_axis(out, top, signs, axis=1)
    return out


def build_deep(workdir: Path, seed: int, size: dict) -> Plan:
    rng = np.random.default_rng([seed, 3])
    d, p, nonzero = size["d"], size["p"], size["nonzero"]
    spec = _spec(size, 2 * seed, bias_strength=1.0, concept_dims=(2, 3), concept_strength=1.0)
    n_test = _write_dataset(workdir, "items", spec, lambda v: three_level(v, nonzero))
    _write_rows(workdir, "retrieval_queries.femb",
                three_level(rng.standard_normal((size["queries"], d)), nonzero))
    _write_rows(workdir, "balanced_queries.femb",
                three_level(rng.standard_normal((size["queries"] * p, d)), nonzero))
    # k runs up to n_test - 1: demographic disparity needs one unselected item.
    k = sorted({min(k, n_test - 1) for k in size["k"]} | {n_test - 1})
    return Plan(setup=[], passes=[_retrieve_step(_data("items"), size, k, None)])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "audit",
            "many small per-task and per-query jobs over 20k items with a fair-PCA transform: "
            "label re-parse, per-call normalisation and ranking dominate",
            {"n": 20000, "d": 256, "p": 4, "fit_n": 4000, "tasks": 32, "queries": 64,
             "k": [10, 50, 100]},
            build_audit,
        ),
        Workload(
            "fit",
            "fair-PCA, MI-clip and probe solvers plus apply, with no ranking: "
            "solver time and the fair-PCA memory peak dominate",
            {"n": 6000, "d": 256, "p": 4, "miclip_m": 192, "probe_max_iter": 200},
            build_fit,
        ),
        Workload(
            "deep",
            "100k three-level items with exact cosine ties and k up to n_test: "
            "ranking at large k and the balanced-retrieval loop dominate",
            {"n": 100000, "d": 32, "p": 8, "nonzero": 16, "queries": 6,
             "k": [100, 1000, 10000]},
            build_deep,
        ),
    )
}
