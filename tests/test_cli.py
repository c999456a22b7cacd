"""End-to-end CLI tests over temp files: pipelines, determinism, exit codes."""

import csv
import functools
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flens.cli import _load_test_split, main
from flens.io import read_embeddings, read_report, write_embeddings
from flens.core import EmbeddingMatrix


def run(args):
    return main([str(a) for a in args])


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return path


def split_column(labels_path):
    with open(labels_path, newline="") as fh:
        return np.array([row["split"] for row in csv.DictReader(fh)])


@pytest.fixture
def workspace(tmp_path):
    """Synthetic dataset plus query files for the audit commands."""
    emb = tmp_path / "items.femb"
    labels = tmp_path / "labels.csv"
    synth_cfg = write_config(
        tmp_path / "synth.json",
        {
            "synth": {
                "n": 600,
                "d": 16,
                "p": 2,
                "bias_dims": [0, 1],
                "bias_strength": 6.0,
                "concept_dims": [4, 5],
                "seed": 11,
            },
            "output": {"embeddings": str(emb), "labels": str(labels)},
        },
    )
    assert run(["synth", "--config", synth_cfg, "--out", tmp_path / "synth-report.json"]) == 0

    # classification pair: row 0 aligned with the planted bias direction
    class_queries = np.zeros((4, 16))
    class_queries[0, [0, 1]] = 1.0
    class_queries[1, [0, 1]] = -1.0
    class_queries[2, [4, 5]] = 1.0  # concept-aligned pair for ground-truth tasks
    class_queries[3, [4, 5]] = -1.0
    queries_path = tmp_path / "queries.femb"
    write_embeddings(EmbeddingMatrix(class_queries), queries_path)

    balanced = np.zeros((4, 16))
    balanced[0, [0, 1]] = -1.0  # query 0, group 0
    balanced[1, [0, 1]] = 1.0   # query 0, group 1
    balanced[2, [0, 1]] = -1.0
    balanced[3, [0, 1]] = 1.0
    balanced_path = tmp_path / "balanced.femb"
    write_embeddings(EmbeddingMatrix(balanced), balanced_path)

    return {
        "dir": tmp_path,
        "embeddings": emb,
        "labels": labels,
        "queries": queries_path,
        "balanced": balanced_path,
        "data": {"embeddings": str(emb), "labels": str(labels), "attribute": "group"},
    }


class TestSynthCommand:
    def test_deterministic_outputs(self, workspace, tmp_path):
        emb2 = tmp_path / "again.femb"
        labels2 = tmp_path / "again.csv"
        cfg = write_config(
            tmp_path / "synth2.json",
            {
                "synth": {
                    "n": 600,
                    "d": 16,
                    "p": 2,
                    "bias_dims": [0, 1],
                    "bias_strength": 6.0,
                    "concept_dims": [4, 5],
                    "seed": 11,
                },
                "output": {"embeddings": str(emb2), "labels": str(labels2)},
            },
        )
        assert run(["synth", "--config", cfg, "--out", tmp_path / "r2.json"]) == 0
        assert emb2.read_bytes() == workspace["embeddings"].read_bytes()
        assert labels2.read_text() == workspace["labels"].read_text()

    def test_seed_override_changes_data(self, workspace, tmp_path):
        emb3 = tmp_path / "seeded.femb"
        cfg = write_config(
            tmp_path / "synth3.json",
            {
                "synth": {"n": 600, "d": 16, "p": 2, "seed": 11},
                "output": {"embeddings": str(emb3), "labels": str(tmp_path / "l3.csv")},
            },
        )
        assert run(["synth", "--config", cfg, "--seed", 999, "--out", tmp_path / "r3.json"]) == 0
        assert emb3.read_bytes() != workspace["embeddings"].read_bytes()

    def test_too_small_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "bad.json",
            {
                "synth": {"n": 3, "d": 4, "p": 2},
                "output": {"embeddings": str(tmp_path / "x.femb"), "labels": str(tmp_path / "x.csv")},
            },
        )
        assert run(["synth", "--config", cfg]) == 2

    def test_spec_echoed_in_report(self, workspace):
        report = read_report(workspace["dir"] / "synth-report.json")
        spec = report["tasks"][0]["details"]["spec"]
        assert spec["n"] == 600 and spec["seed"] == 11


class TestDebiasFit:
    def test_fairpca_fit_and_report(self, workspace, tmp_path):
        transform_path = tmp_path / "fpca.ftfm"
        cfg = write_config(
            tmp_path / "fit.json",
            {
                "data": workspace["data"],
                "method": "fairpca",
                "attribute_source": "groundTruth",
                "transform_out": str(transform_path),
            },
        )
        out = tmp_path / "fit-report.json"
        assert run(["debias-fit", "--config", cfg, "--out", out]) == 0
        report = read_report(out)
        details = report["tasks"][0]["details"]
        assert details["constraint_residual"] < 1e-8
        assert details["orthonormality_residual"] < 1e-10
        assert transform_path.exists()

    def test_miclip_cut_list(self, workspace, tmp_path):
        transform_path = tmp_path / "mi.ftfm"
        cfg = write_config(
            tmp_path / "fit-mi.json",
            {
                "data": workspace["data"],
                "method": "miclip",
                "miclip": {"m": 14},
                "transform_out": str(transform_path),
            },
        )
        out = tmp_path / "mi-report.json"
        assert run(["debias-fit", "--config", cfg, "--out", out]) == 0
        report = read_report(out)
        details = report["tasks"][0]["details"]
        assert details["retained_dims"] == 14
        assert sorted(details["cut_dims"]) == [0, 1]

    def test_inferred_requires_prompts(self, workspace, tmp_path):
        cfg = write_config(
            tmp_path / "fit-inf.json",
            {
                "data": workspace["data"],
                "method": "fairpca",
                "attribute_source": "inferred",
                "transform_out": str(tmp_path / "t.ftfm"),
            },
        )
        assert run(["debias-fit", "--config", cfg]) == 2

    def test_inferred_mode_with_prompts(self, workspace, tmp_path):
        prompts = np.zeros((2, 16))
        prompts[0, [0, 1]] = -1.0
        prompts[1, [0, 1]] = 1.0
        prompts_path = tmp_path / "prompts.femb"
        write_embeddings(EmbeddingMatrix(prompts), prompts_path)
        transform_path = tmp_path / "inf.ftfm"
        cfg = write_config(
            tmp_path / "fit-inf2.json",
            {
                "data": workspace["data"],
                "method": "fairpca",
                "attribute_source": "inferred",
                "prompts": str(prompts_path),
                "transform_out": str(transform_path),
            },
        )
        out = tmp_path / "inf-report.json"
        assert run(["debias-fit", "--config", cfg, "--out", out]) == 0
        report = read_report(out)
        assert report["transforms"][0]["metadata"]["attribute_source"] == "inferred"


@pytest.fixture
def fitted_transform(workspace, tmp_path):
    transform_path = tmp_path / "fitted.ftfm"
    cfg = write_config(
        tmp_path / "fit-main.json",
        {
            "data": workspace["data"],
            "method": "fairpca",
            "attribute_source": "groundTruth",
            "transform_out": str(transform_path),
        },
    )
    assert run(["debias-fit", "--config", cfg, "--out", tmp_path / "fit-main.json.out"]) == 0
    return transform_path


class TestClassifyAudit:
    def _config(self, workspace, tmp_path, transform=None, tasks=None):
        payload = {
            "data": workspace["data"],
            "queries": str(workspace["queries"]),
            "tasks": tasks
            if tasks is not None
            else [
                {"name": "bias-aligned", "class_a": 0, "class_b": 1, "subjective": True},
                {
                    "name": "concept-objective",
                    "class_a": 2,
                    "class_b": 3,
                    "subjective": False,
                    "ground_truth": "concept",
                },
            ],
        }
        if transform:
            payload["transform"] = str(transform)
        return write_config(tmp_path / "clf.json", payload)

    def test_planted_bias_detected_and_mitigated(self, workspace, fitted_transform, tmp_path):
        raw_out = tmp_path / "raw.json"
        cfg = self._config(workspace, tmp_path)
        assert run(["classify-audit", "--config", cfg, "--out", raw_out]) == 0
        raw = read_report(raw_out)
        by_name = {t["task_name"]: t for t in raw["tasks"]}
        assert by_name["bias-aligned"]["metrics"]["ddp_classification"]["value"] > 0.5
        assert by_name["concept-objective"]["performance"]["accuracy"] > 0.9
        assert "dtpr" in by_name["concept-objective"]["metrics"]

        mitigated_out = tmp_path / "mitigated.json"
        cfg2 = self._config(workspace, tmp_path, transform=fitted_transform)
        assert run(["classify-audit", "--config", cfg2, "--out", mitigated_out]) == 0
        mitigated = read_report(mitigated_out)
        by_name2 = {t["task_name"]: t for t in mitigated["tasks"]}
        raw_ddp = by_name["bias-aligned"]["metrics"]["ddp_classification"]["value"]
        new_ddp = by_name2["bias-aligned"]["metrics"]["ddp_classification"]["value"]
        assert new_ddp < raw_ddp
        assert new_ddp < 0.2

    def test_category_summary_has_exactly_four_cells(self, workspace, tmp_path):
        out = tmp_path / "cells.json"
        cfg = self._config(workspace, tmp_path)
        assert run(["classify-audit", "--config", cfg, "--out", out]) == 0
        report = read_report(out)
        assert sorted(report["category_summary"]) == sorted(
            [
                "human-centric/objective/independence",
                "human-centric/objective/diversity",
                "human-centric/subjective/independence",
                "human-centric/subjective/diversity",
            ]
        )
        cell = report["category_summary"]["human-centric/subjective/independence"]
        assert cell["tasks"] == ["bias-aligned"]
        assert "ddp_classification" in cell["metric_summary"]

    def test_empty_tasks_config_error(self, workspace, tmp_path):
        cfg = self._config(workspace, tmp_path, tasks=[])
        assert run(["classify-audit", "--config", cfg]) == 2

    def test_byte_identical_reports(self, workspace, tmp_path):
        cfg = self._config(workspace, tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["classify-audit", "--config", cfg, "--out", a]) == 0
        assert run(["classify-audit", "--config", cfg, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_embeddings_file_is_data_error(self, workspace, tmp_path):
        payload = {
            "data": dict(workspace["data"], embeddings=str(tmp_path / "missing.femb")),
            "queries": str(workspace["queries"]),
            "tasks": [{"name": "t", "class_a": 0, "class_b": 1}],
        }
        cfg = write_config(tmp_path / "missing.json", payload)
        assert run(["classify-audit", "--config", cfg]) == 3

    def test_unparsable_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["classify-audit", "--config", path]) == 2


class TestUndecodableInputs:
    """Bytes that no parser can read end as a typed error that names the file."""

    def _config(self, workspace, tmp_path, labels):
        payload = {
            "data": dict(workspace["data"], labels=str(labels)),
            "probe": {"attributes": ["group"]},
        }
        return write_config(tmp_path / "probe.json", payload)

    def _label_text(self, workspace):
        return workspace["labels"].read_text(encoding="utf-8")

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        assert run(["classify-audit", "--config", path]) == 2
        assert f"config error: config {path} is not UTF-8 text" in capsys.readouterr().err

    def test_config_nested_too_deeply(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert run(["classify-audit", "--config", path]) == 2
        assert f"config error: config {path} nests too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("extra_depth, code", [(99, 0), (100, 2), (600, 2)])
    def test_config_parses_but_nests_too_deeply_to_echo(self, tmp_path, capsys, extra_depth, code):
        """The report echoes the config, so nesting is bounded before any command runs."""
        payload = {
            "synth": {"n": 600, "d": 16, "p": 2},
            "output": {"embeddings": str(tmp_path / "e.femb"), "labels": str(tmp_path / "l.csv")},
        }
        path = tmp_path / "deep.json"
        nested = "[" * extra_depth + "]" * extra_depth
        path.write_text(json.dumps(payload)[:-1] + f', "x": {nested}}}')
        assert run(["synth", "--config", path, "--out", tmp_path / "r.json"]) == code
        if code:
            err = capsys.readouterr().err
            assert f"config error: config {path} nests deeper than 100 levels" in err

    def test_label_cell_not_utf8(self, workspace, tmp_path, capsys):
        labels = tmp_path / "latin1.csv"
        text = self._label_text(workspace)
        header, first, rest = text.split("\n", 2)
        cells = first.split(",")
        cells[-1] += "\xe9"
        labels.write_bytes(f"{header}\n{','.join(cells)}\n{rest}".encode("latin-1"))
        assert run(["probe", "--config", self._config(workspace, tmp_path, labels)]) == 3
        assert f"data error: {labels}: label file is not UTF-8 text" in capsys.readouterr().err

    def test_label_cell_over_field_limit(self, workspace, tmp_path, capsys):
        labels = tmp_path / "long.csv"
        header, rest = self._label_text(workspace).split("\n", 1)
        labels.write_text(f"{header}\n0,{'x' * 131_073}\n{rest}", encoding="utf-8")
        assert run(["probe", "--config", self._config(workspace, tmp_path, labels)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {labels}:2: field larger than field limit" in err


def test_cli_import_does_not_load_scipy_optimize():
    # scipy.optimize costs about a third of a second to import, on every CLI start
    import flens

    src = str(Path(flens.__file__).resolve().parents[1])
    code = "import sys, flens.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


class TestRetrieveAudit:
    def _config(self, workspace, tmp_path, k=(10,), balanced=True):
        payload = {
            "data": workspace["data"],
            "queries": str(workspace["queries"]),
            "retrieval": {
                "k": list(k),
                "queries": [
                    {"name": "independence-query", "row": 0, "fairness_mode": "independence"},
                    {"name": "diversity-query", "row": 1, "fairness_mode": "diversity",
                     "relevant": "concept"},
                ],
            },
        }
        if balanced:
            payload["balanced"] = {"embeddings": str(workspace["balanced"])}
        return write_config(tmp_path / "ret.json", payload)

    def test_full_audit_structure(self, workspace, tmp_path):
        out = tmp_path / "ret.json.out"
        cfg = self._config(workspace, tmp_path)
        assert run(["retrieve-audit", "--config", cfg, "--out", out]) == 0
        report = read_report(out)
        by_name = {t["task_name"]: t for t in report["tasks"]}
        assert "ddp_retrieval" in by_name["independence-query @ k=10"]["metrics"]
        diversity = by_name["diversity-query @ k=10"]
        assert "skew_at_k" in diversity["metrics"]
        assert "ddp_rep" in diversity["metrics"]
        assert "precision_at_k" in diversity["performance"]
        assert "independence-query" in report["similarity_tests"]
        test = report["similarity_tests"]["independence-query"]["test"]
        assert test["p_value"] <= 1.0

    def test_balanced_block_hits_zero_skew(self, workspace, tmp_path):
        out = tmp_path / "ret-bal.json"
        cfg = self._config(workspace, tmp_path, k=(10,))
        assert run(["retrieve-audit", "--config", cfg, "--out", out]) == 0
        report = read_report(out)
        blocks = {b["name"]: b for b in report["transforms"] if "name" in b}
        records = blocks["balanced-queries"]["records"]
        diversity = [r for r in records if r["task_name"].startswith("diversity")]
        assert diversity and diversity[0]["metrics"]["skew_at_k"]["value"] == 0.0

    def test_k_beyond_items_rejected_with_query_name(self, workspace, tmp_path, capsys):
        cfg = self._config(workspace, tmp_path, k=(10_000,), balanced=False)
        assert run(["retrieve-audit", "--config", cfg]) == 2
        assert "independence-query" in capsys.readouterr().err

    def test_byte_identical_reports(self, workspace, tmp_path):
        cfg = self._config(workspace, tmp_path)
        a, b = tmp_path / "ra.json", tmp_path / "rb.json"
        assert run(["retrieve-audit", "--config", cfg, "--out", a]) == 0
        assert run(["retrieve-audit", "--config", cfg, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def _records(self, workspace, tmp_path, k):
        out = tmp_path / "multi.json"
        cfg = self._config(workspace, tmp_path, k)
        assert run(["retrieve-audit", "--config", cfg, "--out", out]) == 0
        report = read_report(out)
        balanced = next(b for b in report["transforms"] if b.get("name") == "balanced-queries")
        return report["tasks"], balanced["records"]

    def test_k_list_matches_single_k_runs(self, workspace, tmp_path):
        k_list = (150, 2, 17)
        tasks, balanced = self._records(workspace, tmp_path, k_list)
        for k in k_list:
            single_tasks, single_balanced = self._records(workspace, tmp_path, (k,))
            assert [t for t in tasks if t["task_name"].endswith(f" @ k={k}")] == single_tasks
            assert [r for r in balanced if r["task_name"].endswith(f" @ k={k}")] == single_balanced

    def test_k_below_group_count_in_k_list(self, workspace, tmp_path, capsys):
        cfg = self._config(workspace, tmp_path, k=(10, 1, 20))
        assert run(["retrieve-audit", "--config", cfg]) == 2
        assert "k=1 must be at least the group-query count 2" in capsys.readouterr().err


class TestQualitativeTrends:
    def test_null_configuration_median_ddp_small(self, tmp_path):
        """Unbiased data and unbiased queries give near-zero disparities."""
        emb = tmp_path / "null.femb"
        labels = tmp_path / "null.csv"
        synth_cfg = write_config(
            tmp_path / "null-synth.json",
            {
                "synth": {"n": 3000, "d": 16, "p": 2, "seed": 42},
                "output": {"embeddings": str(emb), "labels": str(labels)},
            },
        )
        assert run(["synth", "--config", synth_cfg, "--out", tmp_path / "ns.json"]) == 0
        rng = np.random.default_rng(8)
        queries_path = tmp_path / "null-queries.femb"
        write_embeddings(EmbeddingMatrix(rng.normal(size=(20, 16))), queries_path)
        cfg = write_config(
            tmp_path / "null-audit.json",
            {
                "data": {"embeddings": str(emb), "labels": str(labels), "attribute": "group"},
                "queries": str(queries_path),
                "tasks": [
                    {"name": f"task-{i}", "class_a": 2 * i, "class_b": 2 * i + 1}
                    for i in range(10)
                ],
            },
        )
        out = tmp_path / "null-report.json"
        assert run(["classify-audit", "--config", cfg, "--out", out]) == 0
        report = read_report(out)
        cell = report["category_summary"]["human-centric/subjective/independence"]
        assert cell["metric_summary"]["ddp_classification"]["median"] < 0.05

    def test_skew_sweep_improves_under_fair_pca(self, workspace, fitted_transform, tmp_path):
        """Planted-bias retrieval: skew drops under fair PCA for every k."""

        def audit(transform):
            payload = {
                "data": workspace["data"],
                "queries": str(workspace["queries"]),
                "retrieval": {
                    "k": [10, 50, 100],
                    "queries": [
                        {"name": "biased", "row": 0, "fairness_mode": "diversity"}
                    ],
                },
            }
            if transform:
                payload["transform"] = str(transform)
            cfg = write_config(tmp_path / f"sweep-{bool(transform)}.json", payload)
            out = tmp_path / f"sweep-{bool(transform)}.out.json"
            assert run(["retrieve-audit", "--config", cfg, "--out", out]) == 0
            report = read_report(out)
            skews = {}
            for record in report["tasks"]:
                value = record["metrics"]["skew_at_k"]["value"]
                skews[record["task_name"]] = float(value) if value != "inf" else float("inf")
            return skews

        raw = audit(None)
        fair = audit(fitted_transform)
        for k in (10, 50, 100):
            name = f"biased @ k={k}"
            assert fair[name] < raw[name], (name, raw[name], fair[name])


class TestApplyAndProbe:
    def test_apply_writes_transformed_embeddings(self, workspace, fitted_transform, tmp_path):
        out_emb = tmp_path / "transformed.femb"
        cfg = write_config(
            tmp_path / "apply.json",
            {
                "input": str(workspace["embeddings"]),
                "transform": str(fitted_transform),
                "output": str(out_emb),
            },
        )
        assert run(["apply", "--config", cfg, "--out", tmp_path / "apply-report.json"]) == 0
        transformed = read_embeddings(out_emb)
        assert transformed.rows == 600
        assert transformed.dims == 15  # d - (p-1)

    def test_probe_before_after(self, workspace, fitted_transform, tmp_path):
        cfg = write_config(
            tmp_path / "probe.json",
            {
                "data": workspace["data"],
                "transform": str(fitted_transform),
                "probe": {"attributes": ["group", "concept"], "max_iter": 300},
            },
        )
        out = tmp_path / "probe-report.json"
        assert run(["probe", "--config", cfg, "--out", out]) == 0
        report = read_report(out)
        by_name = {t["task_name"]: t for t in report["tasks"]}
        group = by_name["probe:group"]["performance"]
        concept = by_name["probe:concept"]["performance"]
        assert group["accuracy_raw"] > 0.9
        assert group["accuracy_transformed"] < 0.65
        assert abs(concept["accuracy_transformed"] - concept["accuracy_raw"]) < 0.1

    def _probe_details(self, workspace, fitted_transform, tmp_path, max_iter):
        cfg = write_config(
            tmp_path / "probe.json",
            {
                "data": workspace["data"],
                "transform": str(fitted_transform),
                "probe": {"attributes": ["group", "concept"], "max_iter": max_iter},
            },
        )
        out = tmp_path / "probe-report.json"
        assert run(["probe", "--config", cfg, "--out", out]) == 0
        return {t["task_name"]: t["details"] for t in read_report(out)["tasks"]}

    def test_probe_reports_convergence(self, workspace, fitted_transform, tmp_path):
        details = self._probe_details(workspace, fitted_transform, tmp_path, 1000)
        for per_space in details.values():
            assert set(per_space) == {"raw", "transformed"}
            for fit in per_space.values():
                assert fit["converged"] is True
                assert fit["grad_max"] < 1e-6
                assert 0 <= fit["iterations"] < 1000

    def test_capped_probe_reports_not_converged(self, workspace, fitted_transform, tmp_path):
        details = self._probe_details(workspace, fitted_transform, tmp_path, 2)
        raw = details["probe:group"]["raw"]
        assert raw == {"converged": False, "grad_max": raw["grad_max"], "iterations": 2}
        assert raw["grad_max"] >= 1e-6

    def test_probe_requires_attributes(self, workspace, tmp_path):
        cfg = write_config(
            tmp_path / "probe-bad.json",
            {"data": workspace["data"], "probe": {"attributes": []}},
        )
        assert run(["probe", "--config", cfg]) == 2

    @pytest.mark.parametrize("tag, written", [("train", "training"), ("test", "testXY")])
    def test_split_tag_longer_than_a_known_one(self, workspace, tmp_path, capsys, tag, written):
        """A tag is compared in full: "training" is not read as "train"."""
        labels = tmp_path / "long-tags.csv"
        text = workspace["labels"].read_text(encoding="utf-8")
        labels.write_text(text.replace(f",{tag}\n", f",{written}\n"), encoding="utf-8")
        cfg = write_config(
            tmp_path / "probe.json",
            {"data": dict(workspace["data"], labels=str(labels)), "probe": {"attributes": ["group"]}},
        )
        assert run(["probe", "--config", cfg]) == 3
        assert f"data error: unknown split tag '{written}'" in capsys.readouterr().err


TASK ={"name": "t", "class_a": 0, "class_b": 1}
# 9999, not a small integer: a regression that opens an integer path opens that file descriptor
SWAPS = [None, True, 9999, 2.5, "x", [1], {"a": 1}]
JSON_TYPES = {
    type(None): "null",
    bool: "boolean",
    int: "number",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
}


def _json_fields(node, where=""):
    """(container, key, JSON path) of every value nested in a config."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, value in items:
        path = f"{where}[{key}]" if isinstance(node, list) else f"{where}.{key}" if where else key
        yield node, key, path
        if isinstance(value, (dict, list)):
            yield from _json_fields(value, path)


class TestConfigShapes:
    """A config value of the wrong JSON type exits 2 and the message names its JSON path."""

    @pytest.mark.parametrize(
        "command, patch, path",
        [
            ("classify-audit", {"tasks": [1]}, "tasks[0]"),
            ("retrieve-audit", {"retrieval": {"k": [10], "queries": [1]}}, "retrieval.queries[0]"),
            (
                "retrieve-audit",
                {"retrieval": {"k": ["x"], "queries": [{"name": "q", "row": 0}]}},
                "retrieval.k[0]",
            ),
            ("debias-fit", {"method": "miclip", "miclip": {"m": "x"}}, "miclip.m"),
            ("debias-fit", {"method": "fairpca", "fairpca": [1]}, "fairpca"),
            ("synth", {"synth": 5}, "synth"),
            ("classify-audit", {"data": {"embeddings": 5}}, "data.embeddings"),
            ("classify-audit", {"queries": 5}, "queries"),
            ("classify-audit", {"transform": 5}, "transform"),
            ("debias-fit", {"method": "fairpca", "transform_out": 5}, "transform_out"),
            (
                "debias-fit",
                {"method": "fairpca", "attribute_source": "inferred", "prompts": 5},
                "prompts",
            ),
            ("apply", {"input": 5, "transform": "t.ftfm", "output": "o.femb"}, "input"),
            (
                "synth",
                {"synth": {"n": 600, "d": 16, "p": 2}, "output": {"embeddings": 5, "labels": "l"}},
                "output.embeddings",
            ),
            ("classify-audit", {"data": {"attribute": ["group"]}}, "data.attribute"),
            ("classify-audit", {"data": {"split_column": ["split"]}}, "data.split_column"),
            # 5, not 0: a regression that reaches open() must not block on stdin
            ("classify-audit", {"data": {"labels": 5}}, "data.labels"),
            ("classify-audit", {"tasks": [{**TASK, "human_centric": "no"}]}, "tasks[0].human_centric"),
            (
                "retrieve-audit",
                {"retrieval": {"k": [5.7], "queries": [{"name": "q", "row": 0}]}},
                "retrieval.k[0]",
            ),
            ("probe", {"probe": {"attributes": ["group"], "tol": "nan"}}, "probe.tol"),
            (
                "retrieve-audit",
                {"retrieval": {"k": [10], "queries": [
                    {"name": "q", "row": 0, "fairness_mode": "fairness"}]}},
                "retrieval.queries[0].fairness_mode",
            ),
            (
                "synth",
                {"synth": {"n": 600, "d": 16, "p": 2, "seed": -1},
                 "output": {"embeddings": "e.femb", "labels": "l.csv"}},
                "synth.seed",
            ),
            # fails the size check before anything is allocated
            (
                "synth",
                {"synth": {"n": 100000000000000000000, "d": 16, "p": 2},
                 "output": {"embeddings": "e.femb", "labels": "l.csv"}},
                "synth.n",
            ),
        ],
        ids=[
            "task-not-object",
            "query-not-object",
            "k-not-number",
            "m-not-number",
            "fairpca-not-object",
            "synth-not-object",
            "embeddings-path-int",
            "queries-path-int",
            "transform-path-int",
            "transform-out-int",
            "prompts-path-int",
            "apply-input-int",
            "synth-output-int",
            "attribute-list",
            "split-column-list",
            "labels-path-int",
            "human-centric-string",
            "k-fraction",
            "tol-string",
            "fairness-mode-unknown",
            "synth-seed-negative",
            "synth-n-too-large",
        ],
    )
    def test_wrong_shape_is_config_error(self, workspace, tmp_path, capsys, command, patch, path):
        payload = {
            "queries": str(workspace["queries"]),
            "tasks": [TASK],
            "transform_out": str(tmp_path / "t.ftfm"),
            **patch,
            "data": {**workspace["data"], **patch.get("data", {})},
        }
        cfg = write_config(tmp_path / "shape.json", payload)
        assert run([command, "--config", cfg]) == 2
        assert f"config error: {path} " in capsys.readouterr().err

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "synth.json",
            {
                "synth": {"n": 600, "d": 16, "p": 2, "seed": 11},
                "output": {"embeddings": str(tmp_path / "e.femb"), "labels": str(tmp_path / "l.csv")},
            },
        )
        assert run(["synth", "--config", cfg, "--seed", -1]) == 2
        assert "config error: --seed " in capsys.readouterr().err
        assert not (tmp_path / "e.femb").exists()

    def test_integer_literal_too_long_for_json(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"k": ' + "9" * 5000 + "}")
        assert run(["classify-audit", "--config", path]) == 2

    @staticmethod
    def _valid_configs(workspace, transform):
        """One config per command in which every key present is a key the command reads."""
        d = workspace["dir"]
        data = {**workspace["data"], "split_column": "split"}
        prompts = np.zeros((2, 16))
        prompts[:, 0] = [-1.0, 1.0]
        write_embeddings(EmbeddingMatrix(prompts), d / "prompts.femb")
        return {
            "synth": {
                "synth": {"n": 40, "d": 8, "p": 2, "bias_dims": [0], "bias_strength": 1.5,
                          "concept_dims": [2, 3], "concept_strength": 1.0, "seed": 3},
                "output": {"embeddings": str(d / "s.femb"), "labels": str(d / "s.csv")},
            },
            "debias-fit": {
                "data": data, "method": "miclip", "attribute_source": "inferred",
                "prompts": str(d / "prompts.femb"), "miclip": {"m": 12, "bins": 8},
                "transform_out": str(d / "mi.ftfm"),
            },
            "apply": {"input": str(workspace["embeddings"]), "transform": str(transform),
                      "output": str(d / "applied.femb")},
            "classify-audit": {
                "data": data, "queries": str(workspace["queries"]), "transform": str(transform),
                "tasks": [{**TASK, "human_centric": True, "subjective": False,
                           "ground_truth": "concept"}],
            },
            "retrieve-audit": {
                "data": data, "queries": str(workspace["queries"]), "transform": str(transform),
                "retrieval": {"k": [4, 10], "queries": [
                    {"name": "q", "row": 1, "fairness_mode": "diversity", "relevant": "concept",
                     "human_centric": True, "subjective": True}]},
                "balanced": {"embeddings": str(workspace["balanced"])},
            },
            "probe": {
                "data": data, "transform": str(transform),
                "probe": {"attributes": ["group"], "l2": 0.001, "max_iter": 5, "tol": 1e-6},
            },
        }

    def test_valid_configs_run(self, workspace, fitted_transform):
        for command, cfg in self._valid_configs(workspace, fitted_transform).items():
            path = write_config(workspace["dir"] / "valid.json", cfg)
            assert run([command, "--config", path]) == 0, command

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.data())
    def test_any_field_of_another_json_type_exits_2(
        self, workspace, fitted_transform, capsys, data
    ):
        configs = self._valid_configs(workspace, fitted_transform)
        command = data.draw(st.sampled_from(sorted(configs)))
        cfg = configs[command]
        parent, key, path = data.draw(st.sampled_from(list(_json_fields(cfg))))
        other = [v for v in SWAPS if JSON_TYPES[type(v)] != JSON_TYPES[type(parent[key])]]
        parent[key] = data.draw(st.sampled_from(other))
        capsys.readouterr()
        assert run([command, "--config", write_config(workspace["dir"] / "swap.json", cfg)]) == 2
        assert f"config error: {path} " in capsys.readouterr().err

    def test_threads_flag_is_gone(self, workspace, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"data": workspace["data"]})
        with pytest.raises(SystemExit) as exc:
            run(["classify-audit", "--config", cfg, "--threads", 2])
        assert exc.value.code == 2


def test_stdout_report_matches_out_file(workspace, tmp_path, capsysbinary):
    cfg = write_config(
        tmp_path / "clf.json",
        {
            "data": workspace["data"],
            "queries": str(workspace["queries"]),
            "tasks": [{"name": "t", "class_a": 2, "class_b": 3, "ground_truth": "concept"}],
        },
    )
    out = tmp_path / "report.json"
    assert run(["classify-audit", "--config", cfg, "--out", out]) == 0
    capsysbinary.readouterr()
    assert run(["classify-audit", "--config", cfg]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


class TestOneLabelParse:
    """Each command parses the label CSV once, however many columns its config names."""

    @pytest.fixture
    def parses(self, monkeypatch):
        import flens.cli
        import flens.io

        calls = []
        parse = flens.io.read_label_table

        def counting(path):
            calls.append(path)
            return parse(path)

        monkeypatch.setattr(flens.cli, "read_label_table", counting)
        monkeypatch.setattr(flens.io, "read_label_table", counting)
        return calls

    def _run(self, workspace, tmp_path, command, payload):
        cfg = write_config(tmp_path / f"{command}.json", {"data": workspace["data"], **payload})
        assert run([command, "--config", cfg, "--out", tmp_path / f"{command}.out"]) == 0

    def test_classify_with_ground_truth_tasks(self, workspace, tmp_path, parses):
        tasks = [
            {"name": f"t{i}", "class_a": 2, "class_b": 3, "ground_truth": "concept"}
            for i in range(3)
        ]
        payload = {"queries": str(workspace["queries"]), "tasks": tasks}
        self._run(workspace, tmp_path, "classify-audit", payload)
        assert len(parses) == 1

    def test_retrieve_with_relevance(self, workspace, tmp_path, parses):
        queries = [
            {"name": f"q{i}", "row": i, "fairness_mode": "diversity", "relevant": "concept"}
            for i in range(2)
        ]
        payload = {
            "queries": str(workspace["queries"]),
            "retrieval": {"k": [10], "queries": queries},
        }
        self._run(workspace, tmp_path, "retrieve-audit", payload)
        assert len(parses) == 1

    def test_probe_with_two_attributes(self, workspace, tmp_path, parses):
        payload = {"probe": {"attributes": ["group", "concept"], "max_iter": 20}}
        self._run(workspace, tmp_path, "probe", payload)
        assert len(parses) == 1

    def test_debias_fit(self, workspace, tmp_path, parses):
        payload = {"method": "fairpca", "transform_out": str(tmp_path / "t.ftfm")}
        self._run(workspace, tmp_path, "debias-fit", payload)
        assert len(parses) == 1


class TestOnePassAudit:
    """An audit normalises its test items once, scores every query row in one
    similarity pass and ranks each row once, at max(k)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import flens.cli

        calls = {"unit_rows": [], "cosine_similarity_matrix": 0, "top_k": 0}
        calls["balanced_retrieval"] = 0
        unit_rows = EmbeddingMatrix.unit_rows.func

        def counting_unit_rows(matrix):
            calls["unit_rows"].append(matrix.rows)
            return unit_rows(matrix)

        prop = functools.cached_property(counting_unit_rows)
        prop.__set_name__(EmbeddingMatrix, "unit_rows")
        monkeypatch.setattr(EmbeddingMatrix, "unit_rows", prop)
        for name in ("cosine_similarity_matrix", "top_k", "balanced_retrieval"):

            def counting(*args, _name=name, _original=getattr(flens.cli, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(flens.cli, name, counting)
        return calls

    def _run(self, workspace, tmp_path, command, payload):
        cfg = write_config(tmp_path / f"{command}.json", {"data": workspace["data"], **payload})
        out = tmp_path / f"{command}.out"
        assert run([command, "--config", cfg, "--out", out]) == 0
        return read_report(out)["dataset"]["test_items"]

    def test_classify_with_several_tasks(self, workspace, tmp_path, calls):
        tasks = [{"name": f"t{i}", "class_a": i % 2, "class_b": 2 + i % 2} for i in range(4)]
        payload = {"queries": str(workspace["queries"]), "tasks": tasks}
        n_test = self._run(workspace, tmp_path, "classify-audit", payload)
        assert calls["unit_rows"].count(n_test) == 1
        assert calls["cosine_similarity_matrix"] == 1

    def test_ranked_lists_skip_np_unique(self, workspace, tmp_path, monkeypatch):
        # partition_by_group's bincount is the one duplicate check on the CLI path
        sizes = []
        unique = np.unique

        def recording(array, *args, **kwargs):
            sizes.append(np.size(array))
            return unique(array, *args, **kwargs)

        monkeypatch.setattr(np, "unique", recording)
        queries = [{"name": "q", "row": 2, "fairness_mode": "diversity", "relevant": "concept"}]
        payload = {
            "queries": str(workspace["queries"]),
            "retrieval": {"k": [10, 40, 20], "queries": queries},
            "balanced": {"embeddings": str(workspace["balanced"])},
        }
        self._run(workspace, tmp_path, "retrieve-audit", payload)
        assert sizes and not {10, 20, 40} & set(sizes)

    def test_retrieve_with_balanced_and_three_k(self, workspace, tmp_path, calls):
        queries = [{"name": f"q{i}", "row": i} for i in range(2)]
        payload = {
            "queries": str(workspace["queries"]),
            "retrieval": {"k": [10, 40, 20], "queries": queries},
            "balanced": {"embeddings": str(workspace["balanced"])},
        }
        n_test = self._run(workspace, tmp_path, "retrieve-audit", payload)
        assert calls["unit_rows"].count(n_test) == 1
        assert calls["cosine_similarity_matrix"] == calls["top_k"] == 1
        assert calls["balanced_retrieval"] == len(queries)

    def test_transform_reads_test_and_named_rows_only(
        self, workspace, fitted_transform, tmp_path, monkeypatch
    ):
        import flens.cli

        rows = []
        apply = flens.cli.apply_fair_pca

        def recording(transform, embeddings):
            rows.append(embeddings.rows)
            return apply(transform, embeddings)

        monkeypatch.setattr(flens.cli, "apply_fair_pca", recording)
        tasks = [{"name": n, "class_a": a, "class_b": 4 - a} for n, a in (("t", 3), ("u", 1))]
        payload = {"queries": str(workspace["queries"]), "transform": str(fitted_transform)}
        n_test = self._run(workspace, tmp_path, "classify-audit", {**payload, "tasks": tasks})
        assert rows == [n_test, 2]
        rows.clear()
        retrieval = {"k": [10], "queries": [{"name": "q", "row": 2}]}
        balanced = {"embeddings": str(workspace["balanced"])}
        self._run(workspace, tmp_path, "retrieve-audit",
                  {**payload, "retrieval": retrieval, "balanced": balanced})
        assert rows == [n_test, 1, 2]


class TestAuditRows:
    """Audits read only the test rows, and only the query rows a task or query names."""

    @pytest.fixture
    def query_files(self, workspace, tmp_path):
        # rows 5 and 7 of the class file, row 3 of the query file and the rows
        # past the two balanced blocks are zero-norm
        classes = np.vstack([read_embeddings(workspace["queries"]).values, np.eye(4, 16)])
        classes[[5, 7]] = 0.0
        queries = np.eye(4, 16)
        queries[3] = 0.0
        balanced = np.vstack([read_embeddings(workspace["balanced"]).values, np.zeros((2, 16))])
        paths = {}
        for name, values in (("classes", classes), ("queries", queries), ("balanced", balanced)):
            paths[name] = tmp_path / f"{name}.femb"
            write_embeddings(EmbeddingMatrix(values), paths[name])
        return paths

    def _classify(self, workspace, tmp_path, query_files, class_b, transform=None):
        payload = {
            "data": workspace["data"],
            "queries": str(query_files["classes"]),
            "tasks": [{"name": "t", "class_a": 2, "class_b": class_b, "ground_truth": "concept"}],
        }
        if transform:
            payload["transform"] = str(transform)
        cfg = write_config(tmp_path / "classify.json", payload)
        return run(["classify-audit", "--config", cfg, "--out", tmp_path / "classify.out"])

    def _retrieve(self, workspace, tmp_path, query_files, rows, balanced, transform=None):
        payload = {
            "data": workspace["data"],
            "queries": str(query_files["queries"]),
            "retrieval": {
                "k": [10, 30],
                "queries": [
                    {"name": f"q{row}", "row": row, "fairness_mode": "diversity",
                     "relevant": "concept"}
                    for row in rows
                ],
            },
            "balanced": {"embeddings": str(balanced)},
        }
        if transform:
            payload["transform"] = str(transform)
        cfg = write_config(tmp_path / "retrieve.json", payload)
        return run(["retrieve-audit", "--config", cfg, "--out", tmp_path / "retrieve.out"])

    def test_zero_norm_class_row_named_by_file_row(self, workspace, tmp_path, query_files, capsys):
        assert self._classify(workspace, tmp_path, query_files, class_b=7) == 3
        assert f"class row 7 of {query_files['classes']} has zero norm" in capsys.readouterr().err

    def test_zero_norm_query_row_named_by_file_row(self, workspace, tmp_path, query_files, capsys):
        code = self._retrieve(workspace, tmp_path, query_files, [0, 3], workspace["balanced"])
        assert code == 3
        assert f"query row 3 of {query_files['queries']} has zero norm" in capsys.readouterr().err

    def test_zero_norm_balanced_row_named_by_file_row(
        self, workspace, tmp_path, query_files, capsys
    ):
        balanced = read_embeddings(workspace["balanced"]).values.copy()
        balanced[2] = 0.0
        path = tmp_path / "balanced_zero.femb"
        write_embeddings(EmbeddingMatrix(balanced), path)
        assert self._retrieve(workspace, tmp_path, query_files, [0, 1], path) == 3
        assert f"balanced row 2 of {path} has zero norm" in capsys.readouterr().err

    def _audit(self, command, workspace, tmp_path, query_files):
        if command == "classify-audit":
            return self._classify(workspace, tmp_path, query_files, class_b=3)
        return self._retrieve(workspace, tmp_path, query_files, [0, 1], query_files["balanced"])

    @pytest.mark.parametrize("command", ["classify-audit", "retrieve-audit"])
    def test_zero_norm_item_row_named_by_file_row(
        self, workspace, tmp_path, query_files, capsys, command
    ):
        test_rows = np.flatnonzero(split_column(workspace["labels"]) == "test")
        row = int(test_rows[-1])
        assert row != test_rows.size - 1  # its file row is not its place in the test split
        values = read_embeddings(workspace["embeddings"]).values.copy()
        values[row] = 0.0
        write_embeddings(EmbeddingMatrix(values), workspace["embeddings"])
        assert self._audit(command, workspace, tmp_path, query_files) == 3
        expected = f"item row {row} of {workspace['embeddings']} has zero norm"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify-audit", "retrieve-audit"])
    def test_nan_in_a_train_row_is_data_error(
        self, workspace, tmp_path, query_files, capsys, command
    ):
        """Audits widen only test rows, but every row of the file is checked."""
        row = int(np.flatnonzero(split_column(workspace["labels"]) == "train")[-1])
        data = bytearray(workspace["embeddings"].read_bytes())
        offset = 23 + row * 16 * 4
        data[offset : offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
        workspace["embeddings"].write_bytes(bytes(data))
        assert self._audit(command, workspace, tmp_path, query_files) == 3
        expected = f"data error: {workspace['embeddings']}: payload contains NaN or Inf"
        assert expected in capsys.readouterr().err

    def test_header_claiming_huge_n_is_data_error(self, workspace, tmp_path, query_files, capsys):
        header = struct.pack("<8sHQIB", b"FLENSEMB", 1, 2**40, 16, 1)
        workspace["embeddings"].write_bytes(header + bytes(64))
        assert self._audit("classify-audit", workspace, tmp_path, query_files) == 3
        expected = f"{workspace['embeddings']}: payload has 64 of {2**40 * 64} bytes"
        assert expected in capsys.readouterr().err

    def test_zero_norm_rows_nothing_names_are_not_read(self, workspace, tmp_path, query_files):
        assert self._classify(workspace, tmp_path, query_files, class_b=4) == 0
        code = self._retrieve(workspace, tmp_path, query_files, [0, 1], query_files["balanced"])
        assert code == 0

    @pytest.mark.parametrize("transformed", [False, True], ids=["raw", "transformed"])
    def test_train_rows_do_not_change_reports(
        self, workspace, fitted_transform, tmp_path, query_files, transformed
    ):
        transform = fitted_transform if transformed else None
        outs = [tmp_path / "classify.out", tmp_path / "retrieve.out"]

        def reports():
            assert self._classify(workspace, tmp_path, query_files, 3, transform) == 0
            balanced = query_files["balanced"]
            code = self._retrieve(workspace, tmp_path, query_files, [0, 1], balanced, transform)
            assert code == 0
            return [out.read_bytes() for out in outs]

        before = reports()
        values = read_embeddings(workspace["embeddings"]).values.copy()
        train = split_column(workspace["labels"]) == "train"
        assert train.any() and not train.all()
        values[train] = np.random.default_rng(5).normal(size=(int(train.sum()), values.shape[1]))
        write_embeddings(EmbeddingMatrix(values), workspace["embeddings"])
        assert reports() == before


class TestInputFaultOrder:
    """Every check of the label table runs before the embeddings file is read."""

    @pytest.mark.parametrize("command", ["classify-audit", "debias-fit", "probe"])
    def test_label_fault_reported_before_embeddings_fault(
        self, workspace, tmp_path, capsys, command
    ):
        labels = tmp_path / "bad-tags.csv"
        text = workspace["labels"].read_text(encoding="utf-8")
        labels.write_text(text.replace(",train\n", ",training\n", 1), encoding="utf-8")
        workspace["embeddings"].write_bytes(workspace["embeddings"].read_bytes()[:-1])
        payload = {
            "classify-audit": {"queries": str(workspace["queries"]), "tasks": [TASK]},
            "debias-fit": {"method": "fairpca", "transform_out": str(tmp_path / "t.ftfm")},
            "probe": {"probe": {"attributes": ["group"]}},
        }[command]
        data = dict(workspace["data"], labels=str(labels))
        cfg = write_config(tmp_path / "faults.json", {"data": data, **payload})
        assert run([command, "--config", cfg]) == 3
        assert "data error: unknown split tag 'training'" in capsys.readouterr().err


def test_test_split_read_memory(tmp_path):
    """An audit's read holds the float32 payload and the widened test rows, not n x d float64."""
    paths = {"embeddings": str(tmp_path / "big.femb"), "labels": str(tmp_path / "big.csv")}
    synth = {"synth": {"n": 20_000, "d": 256, "p": 2, "seed": 5}, "output": paths}
    assert run(["synth", "--config", write_config(tmp_path / "synth.json", synth)]) == 0
    cfg = {"data": {**paths, "attribute": "group"}}
    tracemalloc.start()
    try:
        (_, items, rows), groups, _, provenance = _load_test_split(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert items.rows == rows.size == len(groups) == provenance["test_items"] == 6000
    # 20.5 MB float32 payload + 12.3 MB of widened test rows + the mask and label table
    assert peak < 48e6
