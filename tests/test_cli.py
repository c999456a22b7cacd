"""End-to-end CLI tests over temp files: pipelines, determinism, exit codes."""

import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flens.cli import _load_labels, _query_similarities, main
from flens.core import BLOCK_ROWS, EmbeddingMatrix, GroupLabels
from flens.io import (
    decode_labels,
    open_kept_rows,
    read_embeddings,
    read_label_table,
    read_transform,
    write_embeddings,
    write_label_table,
    write_transform,
)
from flens.metrics import ddp_classification, ddp_retrieval
from flens.errors import DataError, NumericError
from flens.mitigation import FairPcaTransform, MiClipTransform, apply_mi_clip, fit_fair_pca
from flens.probe import evaluate_probe, fit_probe
from flens.stats import per_query_similarity_tests
from flens.tasks import zero_shot_classify

from .helpers import cosine_similarity_matrix, label_cells, read_report
from .oracles import oracle_render_json


def run(args):
    return main([str(a) for a in args])


def _as_json(value):
    """A result as a report holds it once written and read back."""
    return json.loads(oracle_render_json(value))


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return path


def split_column(labels_path):
    with open(labels_path, newline="") as fh:
        return np.array([row["split"] for row in csv.DictReader(fh)])


@pytest.fixture
def workspace(tmp_path):
    """Synthetic dataset plus query files for the audit commands."""
    return make_workspace(tmp_path, 600)


def make_workspace(tmp_path, n):
    """An n-row synthetic dataset (d = 16) plus query files for the audit commands."""
    emb = tmp_path / "items.femb"
    labels = tmp_path / "labels.csv"
    synth_cfg = write_config(
        tmp_path / "synth.json",
        {
            "synth": {
                "n": n,
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

    def test_another_seed_changes_data(self, tmp_path):
        """Configs that differ only in synth.seed give different data; reports echo each seed."""
        written = []
        for seed in (11, 999):
            emb = tmp_path / f"seeded-{seed}.femb"
            synth = {
                "synth": {"n": 600, "d": 16, "p": 2, "seed": seed},
                "output": {"embeddings": str(emb), "labels": str(tmp_path / f"l-{seed}.csv")},
            }
            cfg = write_config(tmp_path / f"synth-{seed}.json", synth)
            out = tmp_path / f"r-{seed}.json"
            assert run(["synth", "--config", cfg, "--out", out]) == 0
            report = read_report(out)
            assert report["config"]["synth"]["seed"] == seed
            assert report["tasks"][0]["details"]["spec"]["seed"] == seed
            written.append(emb.read_bytes())
        assert written[0] != written[1]

    def test_labels_file_bytes_pinned(self, tmp_path):
        """The label table holds only integers and Philox-drawn split tags, so its bytes
        do not depend on BLAS: group g, concept 1 (positive) or 0, train or test."""
        labels = tmp_path / "labels.csv"
        synth = {
            "synth": {"n": 40, "d": 8, "p": 3, "bias_dims": [0], "bias_strength": 2.0,
                      "concept_dims": [1], "seed": 5},
            "output": {"embeddings": str(tmp_path / "items.femb"), "labels": str(labels)},
        }
        assert run(["synth", "--config", write_config(tmp_path / "synth.json", synth)]) == 0
        digest = hashlib.sha256(labels.read_bytes()).hexdigest()
        assert digest == "dc947e1d49b73afb8ca22650efef5d02d3bb613b035a861f649d4fc85fa184a7"

    @pytest.mark.parametrize("strength", [1e308, 1.7e308])
    def test_values_past_float32_exit_3(self, tmp_path, capsys, strength):
        """The writer rejects them, also when 1.7e308 times a group offset of 1.5 is inf."""
        files = {"embeddings": str(tmp_path / "x.femb"), "labels": str(tmp_path / "x.csv")}
        params = {"n": 40, "d": 4, "p": 4, "bias_dims": [0], "bias_strength": strength}
        cfg = write_config(tmp_path / "huge.json", {"synth": params, "output": files})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would print ahead of the message
            assert run(["synth", "--config", cfg]) == 3
        assert capsys.readouterr().err == "data error: values overflow 32-bit floats\n"
        assert not Path(files["embeddings"]).exists()

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

    @pytest.mark.parametrize("method", ["fairpca", "miclip"])
    def test_fit_requires_train_split(self, workspace, tmp_path, capsys, method):
        labels = tmp_path / "all-test.csv"
        text = workspace["labels"].read_text(encoding="utf-8")
        labels.write_text(text.replace(",train\n", ",test\n"), encoding="utf-8")
        cfg = write_config(
            tmp_path / "fit-no-train.json",
            {
                "data": dict(workspace["data"], labels=str(labels)),
                "method": method,
                "miclip": {"m": 8},
                "transform_out": str(tmp_path / "t.ftfm"),
            },
        )
        assert run(["debias-fit", "--config", cfg]) == 3
        assert "data error: train split is empty; nothing to fit on" in capsys.readouterr().err

    @staticmethod
    def _fit_inferred(workspace, tmp_path, prompts, method="miclip"):
        prompts_path = tmp_path / "prompts.femb"
        write_embeddings(EmbeddingMatrix(prompts), prompts_path)
        cfg = write_config(
            tmp_path / "fit-inf3.json",
            {
                "data": workspace["data"],
                "method": method,
                "miclip": {"m": 8},
                "attribute_source": "inferred",
                "prompts": str(prompts_path),
                "transform_out": str(tmp_path / "inf3.ftfm"),
            },
        )
        return run(["debias-fit", "--config", cfg]), prompts_path

    def test_inferred_zero_item_named_by_file_row(self, workspace, tmp_path, capsys):
        train_rows = np.flatnonzero(split_column(workspace["labels"]) == "train")
        row = int(train_rows[-1])
        assert row != train_rows.size - 1  # its file row is not its place in the train split
        values = read_embeddings(workspace["embeddings"])
        values[row] = 0.0
        write_embeddings(EmbeddingMatrix(values), workspace["embeddings"])
        prompts = np.zeros((2, 16))
        prompts[:, 0] = [-1.0, 1.0]
        code, _ = self._fit_inferred(workspace, tmp_path, prompts)
        assert code == 3
        expected = f"item row {row} of {workspace['embeddings']} has zero norm"
        assert expected in capsys.readouterr().err

    def test_inferred_zero_prompt_named_by_file_row(self, workspace, tmp_path, capsys):
        prompts = np.zeros((3, 16))
        prompts[[0, 2], 0] = [-1.0, 1.0]
        code, prompts_path = self._fit_inferred(workspace, tmp_path, prompts)
        assert code == 3
        assert f"prompt row 1 of {prompts_path} has zero norm" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["fairpca", "miclip"])
    def test_inferred_empty_group_named(self, workspace, tmp_path, capsys, method):
        # Two identical prompts: ties go to the first, so no item is labelled group 1.
        prompts = np.zeros((2, 16))
        prompts[:, 0] = 1.0
        code, _ = self._fit_inferred(workspace, tmp_path, prompts, method)
        assert code == 3
        err = capsys.readouterr().err
        assert "data error: inferred group 1 is empty: no train item is nearest to its prompt" in err


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


def _run_python(*args):
    """Run the interpreter in a fresh process, with this checkout's flens on the path."""
    import flens

    src = str(Path(flens.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_import_loads_no_scipy():
    # scipy.special alone costs about 26 MB of resident memory and 0.3 s on every start
    for module in ("flens", "flens.cli"):
        code = f"import sys, {module}; print([m for m in sys.modules if m.startswith('scipy')])"
        out = _run_python("-c", code)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]", module


def test_commands_import_no_numpy_ma(workspace, tmp_path):
    # np.unique and np.quantile import numpy.ma on first use: tens of ms in every run
    queries = str(workspace["queries"])
    retrieval = {"k": [10], "queries": [
        {"name": "q", "row": 1, "fairness_mode": "diversity", "relevant": "concept"}]}
    configs = {
        "classify-audit": {"data": workspace["data"], "queries": queries, "tasks": [TASK]},
        "retrieve-audit": {"data": workspace["data"], "queries": queries, "retrieval": retrieval},
        "probe": {"data": workspace["data"], "probe": {"attributes": ["group", "concept"]}},
    }
    argvs = [
        [command, "--config", str(write_config(tmp_path / f"{command}.json", cfg)),
         "--out", str(tmp_path / f"{command}.report.json")]
        for command, cfg in configs.items()
    ]
    code = (
        "import contextlib, io, sys; from flens.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules)"
    )
    out = _run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 0, 0] False"


@pytest.mark.parametrize("module", ["flens", "flens.cli"])
def test_python_m_flens_prints_version(module):
    from flens import __version__

    out = _run_python("-m", module, "--version")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["flens", __version__]


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

    def test_k_beyond_items_rejected_with_its_path(self, workspace, tmp_path, capsys):
        cfg = self._config(workspace, tmp_path, k=(10_000,), balanced=False)
        assert run(["retrieve-audit", "--config", cfg]) == 2
        assert "config error: retrieval.k[0] must be in [1, " in capsys.readouterr().err

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

    def test_k_of_every_test_item(self, workspace, tmp_path, capsys):
        """k = n_test passes with diversity queries alone. With an independence query it is a
        config error, raised before the items file is opened."""
        diversity = {"name": "d", "row": 1, "fairness_mode": "diversity", "relevant": "concept"}
        payload = {"data": workspace["data"], "queries": str(workspace["queries"]),
                   "retrieval": {"k": [180], "queries": [diversity]}}
        out = tmp_path / "diversity.json"
        cfg = write_config(tmp_path / "k-diversity.json", payload)
        assert run(["retrieve-audit", "--config", cfg, "--out", out]) == 0
        assert read_report(out)["dataset"]["test_items"] == 180
        payload["retrieval"]["queries"].append(QUERY)
        payload["data"] = dict(workspace["data"], embeddings=str(tmp_path / "missing.femb"))
        cfg = write_config(tmp_path / "k-independence.json", payload)
        assert run(["retrieve-audit", "--config", cfg]) == 2
        expected = "config error: retrieval.k[0] must be below 180 for an independence query, got 180\n"
        assert capsys.readouterr().err == expected

    def test_no_retrieved_positive_leaves_out_ddp_rep(self, workspace, tmp_path):
        """ddp_rep is scored only when the selection holds a relevant item."""
        query = {"name": "anti", "row": 3, "fairness_mode": "diversity", "relevant": "concept"}
        payload = {"data": workspace["data"], "queries": str(workspace["queries"]),
                   "retrieval": {"k": [10], "queries": [query]}}
        out = tmp_path / "no-hits.json"
        assert run(["retrieve-audit", "--config", write_config(tmp_path / "anti.json", payload),
                    "--out", out]) == 0
        (record,) = read_report(out)["tasks"]
        assert set(record["metrics"]) == {"skew_at_k"}
        assert record["performance"]["precision_at_k"] == 0.0

    def test_k_below_group_count_in_k_list(self, workspace, tmp_path, capsys):
        cfg = self._config(workspace, tmp_path, k=(10, 1, 20))
        assert run(["retrieve-audit", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "retrieval.k[1] must be at least the group-query count 2, got 1" in err


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
        assert transformed.shape == (600, 15)  # d - (p-1) columns

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

    @pytest.mark.parametrize("column", ["fold", "item_id"])
    def test_named_split_column_must_be_in_the_table(self, workspace, tmp_path, capsys, column):
        """A split column the config names but the table lacks exits 3: its rows are not
        all read as test rows."""
        payload = {"data": dict(workspace["data"], split_column=column),
                   "queries": str(workspace["queries"]), "tasks": [TASK]}
        assert run(["classify-audit", "--config", write_config(tmp_path / "a.json", payload)]) == 3
        expected = f"data error: {workspace['labels']}: no column named {column!r}\n"
        assert capsys.readouterr().err == expected

    def test_unnamed_split_column_may_be_absent(self, workspace, tmp_path, capsys):
        """A table with no "split" column is all test rows, unless the config names it."""
        labels = tmp_path / "no-split.csv"
        columns = label_cells(read_label_table(workspace["labels"]))
        del columns["split"]
        write_label_table(labels, columns)
        payload = {"data": dict(workspace["data"], labels=str(labels)),
                   "queries": str(workspace["queries"]), "tasks": [TASK]}
        out = tmp_path / "a.out"
        assert run(["classify-audit", "--config", write_config(tmp_path / "a.json", payload),
                    "--out", out]) == 0
        assert read_report(out)["dataset"]["test_items"] == len(columns["group"])
        payload["data"]["split_column"] = "split"
        assert run(["classify-audit", "--config", write_config(tmp_path / "b.json", payload)]) == 3
        assert capsys.readouterr().err == f"data error: {labels}: no column named 'split'\n"


@pytest.fixture
def miclip_transform(workspace, tmp_path):
    """An MI-clip transform fitted through the CLI: it keeps 14 of the 16 dimensions."""
    transform_path = tmp_path / "miclip.ftfm"
    cfg = write_config(
        tmp_path / "fit-miclip.json",
        {
            "data": workspace["data"],
            "method": "miclip",
            "miclip": {"m": 14},
            "transform_out": str(transform_path),
        },
    )
    assert run(["debias-fit", "--config", cfg, "--out", tmp_path / "fit-miclip.json.out"]) == 0
    return transform_path


class TestMiClipTransform:
    """Each command that reads an MI-clip .ftfm agrees with apply_mi_clip and the
    library call on the same rows."""

    def _test_split(self, workspace, transform_path):
        """The transformed test items and their protected groups, read without the CLI."""
        transform, _ = read_transform(transform_path)
        items = apply_mi_clip(transform, read_embeddings(workspace["embeddings"]))
        test_rows = np.flatnonzero(split_column(workspace["labels"]) == "test")
        labels = workspace["labels"]
        groups = decode_labels(read_label_table(labels), "group", "group", labels)
        return transform, items[test_rows], groups.take(test_rows)

    def _report(self, tmp_path, command, payload):
        cfg = write_config(tmp_path / f"{command}-miclip.json", payload)
        out = tmp_path / f"{command}-miclip.out"
        assert run([command, "--config", cfg, "--out", out]) == 0
        return read_report(out)

    def test_apply(self, workspace, miclip_transform, tmp_path):
        out = tmp_path / "clipped.femb"
        payload = {"input": str(workspace["embeddings"]), "transform": str(miclip_transform),
                   "output": str(out)}
        report = self._report(tmp_path, "apply", payload)
        transform, _ = read_transform(miclip_transform)
        expected = tmp_path / "expected.femb"
        clipped = apply_mi_clip(transform, read_embeddings(workspace["embeddings"]))
        write_embeddings(EmbeddingMatrix(clipped), expected)
        assert out.read_bytes() == expected.read_bytes()
        assert report["tasks"][0]["details"]["output_shape"] == [600, 14]
        assert report["transforms"][0]["kind"] == "MiClipTransform"

    def test_classify_audit(self, workspace, miclip_transform, tmp_path):
        payload = {"data": workspace["data"], "queries": str(workspace["queries"]),
                   "transform": str(miclip_transform),
                   "tasks": [{"name": "concept", "class_a": 2, "class_b": 3}]}
        report = self._report(tmp_path, "classify-audit", payload)
        transform, items, groups = self._test_split(workspace, miclip_transform)
        # rows 0 and 1 lie in the two cut dimensions, so they would have zero norm
        classes = apply_mi_clip(transform, read_embeddings(workspace["queries"])[[2, 3]])
        sims = cosine_similarity_matrix(items, classes)
        expected = ddp_classification(zero_shot_classify(sims[0], sims[1]), groups)
        assert report["tasks"][0]["metrics"]["ddp_classification"] == _as_json(expected)

    def test_retrieve_audit(self, workspace, miclip_transform, tmp_path):
        retrieval = {"k": [10, 40], "queries": [{"name": "q", "row": 2}]}
        payload = {"data": workspace["data"], "queries": str(workspace["queries"]),
                   "transform": str(miclip_transform), "retrieval": retrieval}
        report = self._report(tmp_path, "retrieve-audit", payload)
        transform, items, groups = self._test_split(workspace, miclip_transform)
        query = apply_mi_clip(transform, read_embeddings(workspace["queries"])[[2]])
        sims = cosine_similarity_matrix(items, query)
        order = np.argsort(-sims[0], kind="stable")
        by_name = {t["task_name"]: t for t in report["tasks"]}
        for k in (10, 40):
            selected = np.bincount(groups.labels[order[:k]], minlength=groups.group_count)
            expected = ddp_retrieval(selected, groups.counts())
            assert by_name[f"q @ k={k}"]["metrics"]["ddp_retrieval"] == _as_json(expected)
        expected_test = _as_json(per_query_similarity_tests(sims, groups)[0])
        assert report["similarity_tests"]["q"] == expected_test

    def test_probe(self, workspace, miclip_transform, tmp_path):
        payload = {"data": workspace["data"], "transform": str(miclip_transform),
                   "probe": {"attributes": ["group"], "max_iter": 300}}
        report = self._report(tmp_path, "probe", payload)
        transform, _ = read_transform(miclip_transform)
        items = apply_mi_clip(transform, read_embeddings(workspace["embeddings"]))
        split = split_column(workspace["labels"])
        train, test = np.flatnonzero(split == "train"), np.flatnonzero(split == "test")
        labels = workspace["labels"]
        groups = decode_labels(read_label_table(labels), "group", "group", labels)
        model = fit_probe(items[train], groups.take(train), max_iter=300)
        performance = report["tasks"][0]["performance"]
        assert performance["training_loss_transformed"] == model.training_loss
        expected = evaluate_probe(model, items[test], groups.take(test))
        assert performance["accuracy_transformed"] == expected
        # the two planted bias dimensions are the ones cut
        assert performance["accuracy_transformed"] < performance["accuracy_raw"]


@pytest.mark.parametrize(
    "fixture, body_offset, kind",
    [
        ("fitted_transform", 8 + 16 * 8, "fair-pca"),  # the projection's first value
        ("miclip_transform", 8 + 16, "mi-clip"),  # the first MI score
    ],
)
def test_non_finite_transform_body_exits_3(
    workspace, tmp_path, capsys, request, fixture, body_offset, kind
):
    """A NaN in a .ftfm body under a valid checksum is a data error naming the transform."""
    path = request.getfixturevalue(fixture)
    data = bytearray(path.read_bytes())
    (meta_len,) = struct.unpack_from("<I", data, 11)  # after the magic, version and kind
    start = 15 + meta_len + body_offset
    data[start : start + 8] = struct.pack("<d", float("nan"))
    data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[8:-4])))
    path.write_bytes(bytes(data))
    cfg = write_config(tmp_path / "apply-nan.json", {
        "input": str(workspace["embeddings"]), "transform": str(path),
        "output": str(tmp_path / "out.femb"),
    })
    assert run(["apply", "--config", cfg]) == 3
    assert f"data error: {kind} payload holds non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify-audit", "retrieve-audit", "debias-fit", "apply",
                                     "probe"])
def test_text_embeddings_twin(workspace, fitted_transform, tmp_path, capsys, command):
    """A comma-separated items file is not read: one data error line, exit 3, no output file.

    An empty file and other bytes without the magic take the same way.
    """
    text_items = tmp_path / "items.txt"
    np.savetxt(text_items, read_embeddings(workspace["embeddings"]), fmt="%.9g", delimiter=",")
    data = dict(workspace["data"], embeddings=str(text_items))
    queries = str(workspace["queries"])
    output = tmp_path / f"{command}.out.bin"
    payload = {
        "classify-audit": {"data": data, "queries": queries, "tasks": [TASK],
                           "transform": str(fitted_transform)},
        "retrieve-audit": {"data": data, "queries": queries,
                           "retrieval": {"k": [10], "queries": [{"name": "q", "row": 0}]},
                           "transform": str(fitted_transform)},
        "debias-fit": {"data": data, "method": "fairpca", "transform_out": str(output)},
        "apply": {"input": str(text_items), "transform": str(fitted_transform),
                  "output": str(output)},
        "probe": {"data": data, "transform": str(fitted_transform),
                  "probe": {"attributes": ["group"], "max_iter": 50}},
    }[command]
    cfg = write_config(tmp_path / f"{command}.json", payload)
    out = tmp_path / f"{command}.report.json"
    for content in (text_items.read_bytes(), b"", b"\x00\x01\xff not embeddings"):
        text_items.write_bytes(content)
        assert run([command, "--config", cfg, "--out", out]) == 3
        expected = f"data error: {text_items}: not a .femb embeddings file\n"
        assert capsys.readouterr().err == expected
        written = [p.name for p in tmp_path.iterdir() if p.name.startswith(command)]
        assert written == [f"{command}.json"]


TASK ={"name": "t", "class_a": 0, "class_b": 1}
QUERY = {"name": "q", "row": 0}
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
            ("probe", {"probe": {"attributes": ["group"], "l2": -1}}, "probe.l2"),
            ("probe", {"probe": {"attributes": ["group"], "max_iter": -3}}, "probe.max_iter"),
            ("probe", {"probe": {"attributes": ["group"], "tol": -1e-6}}, "probe.tol"),
            *(
                ("synth", {"synth": {"n": 600, "d": 8, "p": 2, **spec},
                           "output": {"embeddings": "e.femb", "labels": "l.csv"}}, path)
                for spec, path in [
                    ({"p": 1}, "synth.p must be at least 2, got 1"),
                    ({"n": 5, "p": 3}, "synth.n must be at least 2p = 6, got 5"),
                    ({"d": 0}, "synth.d must be at least 1, got 0"),
                    ({"bias_strength": -1}, "synth.bias_strength must be non-negative, got -1.0"),
                    (
                        {"concept_strength": -2},
                        "synth.concept_strength must be non-negative, got -2.0",
                    ),
                    ({"bias_dims": [9]}, "synth.bias_dims[0] must be in [0, 8), got 9"),
                    (
                        {"bias_dims": [0, 1], "concept_dims": [1, 2]},
                        "synth.concept_dims shares dimension 1 with synth.bias_dims",
                    ),
                ]
            ),
            # out of range, where the range depends on the data
            ("retrieve-audit", {"retrieval": {"k": [0], "queries": [QUERY]}}, "retrieval.k[0]"),
            (
                "retrieve-audit",
                {"retrieval": {"k": [5, 10_000], "queries": [QUERY]}},
                "retrieval.k[1]",
            ),
            # an independence query compares the selection with the unselected items
            (
                "retrieve-audit",
                {"retrieval": {"k": [5, 180], "queries": [QUERY]}},
                "retrieval.k[1] must be below 180 for an independence query, got 180",
            ),
            (
                "retrieve-audit",
                {"retrieval": {"k": [5], "queries": [QUERY, {"name": "r", "row": 4}]}},
                "retrieval.queries[1].row",
            ),
            ("classify-audit", {"tasks": [{**TASK, "class_a": 4}]}, "tasks[0].class_a"),
            (
                "classify-audit",
                {"tasks": [TASK, {**TASK, "name": "u", "class_b": -1}]},
                "tasks[1].class_b",
            ),
            *(
                ("debias-fit", {"method": "miclip", "miclip": {"m": m}},
                 f"miclip.m must be in [1, d) = [1, 16), got {m}")
                for m in (0, 16)
            ),
            (
                "debias-fit",
                {"method": "miclip", "miclip": {"m": 8, "bins": 1}},
                "miclip.bins must be at least 2, got 1",
            ),
            (
                "debias-fit",
                {"method": "miclip", "miclip": {"m": 8, "bins": 10**6}},
                "miclip.bins must be at most the item count 420, got 1000000",
            ),
            *(
                ("debias-fit", {"method": "fairpca", "fairpca": {"target_dim": r}},
                 f"fairpca.target_dim must be in [1, d-(p-1)] = [1, 15], got {r}")
                for r in (0, 16)
            ),
            ("debias-fit", {"method": "pca"}, "method must be 'miclip' or 'fairpca', got 'pca'"),
            (
                "debias-fit",
                {"method": "fairpca", "attribute_source": "guess"},
                "attribute_source must be 'groundTruth' or 'inferred'",
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
            "probe-l2-negative",
            "probe-max-iter-negative",
            "probe-tol-negative",
            "synth-p-one",
            "synth-n-below-2p",
            "synth-d-zero",
            "synth-bias-strength-negative",
            "synth-concept-strength-negative",
            "synth-bias-dim-outside",
            "synth-dims-overlap",
            "k-zero",
            "k-beyond-items",
            "k-all-test-items-independence",
            "query-row",
            "class-a",
            "class-b",
            "miclip-m-zero",
            "miclip-m-d",
            "miclip-bins-one",
            "miclip-bins-beyond-items",
            "fairpca-target-dim-zero",
            "fairpca-target-dim-beyond-rank",
            "method-unknown",
            "attribute-source-unknown",
        ],
    )
    def test_wrong_shape_is_config_error(self, workspace, tmp_path, capsys, command, patch, path):
        """``path`` is the JSON path that starts the message, or the whole message."""
        cfg = write_config(tmp_path / "shape.json", self._payload(workspace, tmp_path, patch))
        assert run([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        if " " in path:
            assert err == f"config error: {path}\n"
        else:
            assert f"config error: {path} " in err

    @staticmethod
    def _payload(workspace, tmp_path, patch):
        return {
            "queries": str(workspace["queries"]),
            "tasks": [TASK],
            "transform_out": str(tmp_path / "t.ftfm"),
            **patch,
            "data": {**workspace["data"], **patch.get("data", {})},
        }

    @pytest.mark.parametrize(
        "command, patch, path",
        [
            ("classify-audit", {"tasks": [TASK, {**TASK, "class_a": 2}]}, "tasks[1].name"),
            (
                "retrieve-audit",
                {"retrieval": {"k": [5], "queries": [QUERY, {**QUERY, "row": 1}]}},
                "retrieval.queries[1].name",
            ),
            ("probe", {"probe": {"attributes": ["group", "concept", "group"]}}, "probe.attributes[2]"),
            ("retrieve-audit", {"retrieval": {"k": [5, 5], "queries": [QUERY]}}, "retrieval.k[1]"),
        ],
        ids=["task", "query", "probe-attribute", "k"],
    )
    def test_repeated_name_is_config_error(self, workspace, tmp_path, capsys, command, patch, path):
        """A repeated name would write indistinguishable records, or overwrite one."""
        cfg = write_config(tmp_path / "repeat.json", self._payload(workspace, tmp_path, patch))
        out = tmp_path / "report.json"
        assert run([command, "--config", cfg, "--out", out]) == 2
        assert f"config error: {path} must be unique, got " in capsys.readouterr().err
        assert not out.exists()

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "list.json", [1])
        assert run(["classify-audit", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: config {cfg} must hold a JSON object\n"

    def test_balanced_rows_overrun(self, workspace, tmp_path, capsys):
        """Four balanced rows serve two queries of p = 2 rows each; the third overruns."""
        queries = [QUERY, {"name": "r", "row": 1}, {"name": "s", "row": 2}]
        patch = {"retrieval": {"k": [5], "queries": queries},
                 "balanced": {"embeddings": str(workspace["balanced"])}}
        cfg = write_config(tmp_path / "overrun.json", self._payload(workspace, tmp_path, patch))
        assert run(["retrieve-audit", "--config", cfg]) == 2
        expected = "config error: balanced embeddings need 2 rows per query, query 's' overruns\n"
        assert capsys.readouterr().err == expected

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


def _relabelled(workspace, name, change):
    """The workspace's data block over a copy of its label table, with ``change`` applied."""
    table = label_cells(read_label_table(workspace["labels"]))
    change(table)
    path = workspace["dir"] / name
    write_label_table(path, table)
    return {**workspace["data"], "labels": str(path)}


def _one_class_on_train(table):
    table["solo"] = ["a" if tag == "train" else "b" for tag in table["split"]]


def _all_train(table):
    table["split"] = ["train"] * len(table["split"])


def _truth_in_group_0_only(table):
    table["truth"] = ["1" if g == "0" else "0" for g in table["group"]]


def _one_test_item_in_group_1(table):
    rows = [i for i, (g, tag) in enumerate(zip(table["group"], table["split"]))
            if g == "1" and tag == "test"]
    for i in rows[1:]:
        table["split"][i] = "train"


class TestDataErrorsThroughMain:
    """A data fault that a command reaches exits 3 with its whole message on stderr."""

    @pytest.fixture
    def small(self, tmp_path):
        """A 40-row, d = 16 workspace plus d = 8 queries and transforms and a one-row prompt file."""
        workspace = make_workspace(tmp_path, 40)
        d = workspace["dir"]
        write_embeddings(EmbeddingMatrix(np.eye(2, 8)), d / "queries8.femb")
        write_embeddings(EmbeddingMatrix(np.eye(1, 16)), d / "prompt.femb")
        write_transform(MiClipTransform(np.arange(8) < 4, np.zeros(8)), d / "miclip.ftfm")
        write_transform(FairPcaTransform(np.zeros(8), np.eye(8, 3)), d / "fairpca.ftfm")
        return workspace

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            (
                "classify-audit",
                lambda w: {"data": w["data"], "queries": str(w["dir"] / "queries8.femb"),
                           "tasks": [TASK]},
                "dimension mismatch: items d=16, queries d=8",
            ),
            *(
                (
                    "probe",
                    lambda w, kind=kind: {"data": w["data"],
                                          "transform": str(w["dir"] / f"{kind}.ftfm"),
                                          "probe": {"attributes": ["group"]}},
                    "transform expects d=8, got d=16",
                )
                for kind in ("miclip", "fairpca")
            ),
            *(
                (
                    "apply",
                    lambda w, kind=kind: {"input": str(w["embeddings"]),
                                          "transform": str(w["dir"] / f"{kind}.ftfm"),
                                          "output": str(w["dir"] / "out.femb")},
                    "transform expects d=8, got d=16",
                )
                for kind in ("miclip", "fairpca")
            ),
            (
                "debias-fit",
                lambda w: {"data": w["data"], "method": "fairpca", "attribute_source": "inferred",
                           "prompts": str(w["dir"] / "prompt.femb"),
                           "transform_out": str(w["dir"] / "t.ftfm")},
                "need at least two attribute prompts",
            ),
            (
                "probe",
                lambda w: {"data": _relabelled(w, "solo.csv", _one_class_on_train),
                           "probe": {"attributes": ["solo"]}},
                "training labels contain fewer than two classes",
            ),
            (
                "probe",
                lambda w: {"data": _relabelled(w, "train.csv", _all_train),
                           "probe": {"attributes": ["group"]}},
                "probe audit needs non-empty train and test splits",
            ),
            (
                "classify-audit",
                lambda w: {"data": _relabelled(w, "truth.csv", _truth_in_group_0_only),
                           "queries": str(w["queries"]),
                           "tasks": [{**TASK, "ground_truth": "truth"}]},
                "group 1 has no ground-truth positives",
            ),
            # Pins today's behaviour: a group with one test item fails the AG test.
            (
                "retrieve-audit",
                lambda w: {"data": _relabelled(w, "single.csv", _one_test_item_in_group_1),
                           "queries": str(w["queries"]),
                           "retrieval": {"k": [2], "queries": [QUERY]}},
                "group 1 has fewer than 2 observations",
            ),
            (
                "retrieve-audit",
                lambda w: {"data": w["data"], "queries": str(w["queries"]),
                           "balanced": {"embeddings": str(w["dir"] / "queries8.femb")},
                           "retrieval": {"k": [2], "queries": [QUERY]}},
                "dimension mismatch: queries d=16, balanced d=8",
            ),
        ],
        ids=[
            "classify-query-d",
            "probe-miclip-d",
            "probe-fairpca-d",
            "apply-miclip-d",
            "apply-fairpca-d",
            "inferred-one-prompt",
            "probe-one-train-class",
            "probe-no-test-rows",
            "classify-no-positives-in-group-1",
            "retrieve-single-test-item-group",
            "retrieve-balanced-d",
        ],
    )
    def test_data_error_exits_3(self, small, capsys, command, payload, message):
        cfg = write_config(small["dir"] / "cfg.json", payload(small))
        assert run([command, "--config", cfg]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"

    @pytest.mark.parametrize("command", ["probe", "debias-fit"])
    def test_item_id_is_not_a_label_column(self, small, capsys, command):
        """item_id numbers the rows: a config naming it as a label column exits 3."""
        payload = {
            "probe": {"data": small["data"], "probe": {"attributes": ["item_id"]}},
            "debias-fit": {"data": {**small["data"], "attribute": "item_id"}, "method": "fairpca",
                           "transform_out": str(small["dir"] / "t.ftfm")},
        }[command]
        cfg = write_config(small["dir"] / "cfg.json", payload)
        assert run([command, "--config", cfg]) == 3
        expected = f"data error: {small['data']['labels']}: no column named 'item_id'\n"
        assert capsys.readouterr().err == expected

    def test_numeric_failure_exits_4(self, small, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise NumericError("fair PCA constraint residual 1.000e+00 too large")

        monkeypatch.setattr("flens.cli.fit_fair_pca", failing)
        payload = {"data": small["data"], "method": "fairpca",
                   "transform_out": str(small["dir"] / "t.ftfm")}
        cfg = write_config(small["dir"] / "cfg.json", payload)
        assert run(["debias-fit", "--config", cfg]) == 4
        expected = "numeric failure: fair PCA constraint residual 1.000e+00 too large\n"
        assert capsys.readouterr().err == expected


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


@pytest.mark.parametrize(
    "command, payload",
    [
        ("classify-audit", {"tasks": [{**TASK, "ground_truth": "concept"}]}),
        ("retrieve-audit", {"retrieval": {"k": [10], "queries": [{"name": "q", "row": 0}]}}),
        ("probe", {"probe": {"attributes": ["group"], "max_iter": 20}}),
        ("debias-fit", {"method": "fairpca"}),
        ("debias-fit", {"method": "miclip", "miclip": {"m": 8}}),
    ],
)
def test_split_tags_checked_once(workspace, tmp_path, monkeypatch, command, payload):
    """The split is checked once, on the full label table, and not again on the kept rows."""
    import flens.cli
    import flens.core

    calls = []
    check = flens.core.split_masks

    def counting(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(flens.cli, "split_masks", counting)
    monkeypatch.setattr(flens.core, "split_masks", counting)
    payload = {"data": workspace["data"], "queries": str(workspace["queries"]),
               "transform_out": str(tmp_path / "t.ftfm"), **payload}
    cfg = write_config(tmp_path / f"{command}.json", payload)
    assert run([command, "--config", cfg, "--out", tmp_path / f"{command}.out"]) == 0
    assert len(calls) == 1


def test_report_keys_are_pinned(workspace, tmp_path):
    """Report keys, spelled out: a result field rename cannot change the schema unseen."""
    metric_keys = {"value", "arg_pair", "per_group_rates"}
    record_keys = {"task_name", "taxonomy", "cell", "metrics", "performance"}
    classify = {"data": workspace["data"], "queries": str(workspace["queries"]),
                "tasks": [{**TASK, "ground_truth": "concept"}]}
    cfg = write_config(tmp_path / "classify.json", classify)
    assert run(["classify-audit", "--config", cfg, "--out", tmp_path / "classify.out"]) == 0
    (record,) = read_report(tmp_path / "classify.out")["tasks"]
    assert set(record) == record_keys
    assert set(record["taxonomy"]) == {"human_centric", "subjective", "fairness_mode"}
    assert set(record["metrics"]) == {"ddp_classification", "dtpr"}
    assert all(set(metric) == metric_keys for metric in record["metrics"].values())
    assert set(record["performance"]) == {"accuracy"}

    # row 0 follows the planted bias, so its top 10 hold one group: skew is infinite
    queries = [{"name": name, "row": row, "fairness_mode": "diversity", "relevant": "concept"}
               for name, row in (("biased", 0), ("concept", 2))]
    retrieve = {"data": workspace["data"], "queries": str(workspace["queries"]),
                "retrieval": {"k": [10], "queries": queries}}
    cfg = write_config(tmp_path / "retrieve.json", retrieve)
    assert run(["retrieve-audit", "--config", cfg, "--out", tmp_path / "retrieve.out"]) == 0
    report = read_report(tmp_path / "retrieve.out")
    record = {t["task_name"]: t for t in report["tasks"]}["concept @ k=10"]
    assert set(record) == record_keys
    assert set(record["metrics"]) == {"skew_at_k", "ddp_rep"}
    assert all(set(metric) == metric_keys for metric in record["metrics"].values())
    assert set(record["performance"]) == {"precision_at_k"}
    comparison = report["similarity_tests"]["biased"]
    assert set(comparison) == {"test", "group_mean_similarity", "abs_mean_diff_x100"}
    assert set(comparison["test"]) == {"statistic", "p_value", "degrees_of_freedom"}
    cell = report["category_summary"]["human-centric/subjective/diversity"]
    assert set(cell) == {"tasks", "metric_summary"}
    skew = cell["metric_summary"]["skew_at_k"]
    assert set(skew) == {"count", "non_finite", "min", "q1", "median", "q3", "max", "mean", "std"}
    assert (skew["count"], skew["non_finite"]) == (2, 1)

    fit_keys = {"train_items", "target_dim", "constraint_residual", "orthonormality_residual",
                "eigengap"}
    for target_dim in (None, 5):  # d - (p - 1) = 15 leaves no eigenvalue after the last kept
        fit = {"data": workspace["data"], "method": "fairpca",
               "transform_out": str(tmp_path / "t.ftfm")}
        if target_dim:
            fit["fairpca"] = {"target_dim": target_dim}
        cfg = write_config(tmp_path / "fit.json", fit)
        assert run(["debias-fit", "--config", cfg, "--out", tmp_path / "fit.out"]) == 0
        (record,) = read_report(tmp_path / "fit.out")["tasks"]
        assert set(record) == record_keys | {"details"}
        assert set(record["details"]) == fit_keys
        gap = record["details"]["eigengap"]
        assert gap is None if target_dim is None else 0.0 < gap <= 1.0
    fit = {"data": workspace["data"], "method": "miclip", "miclip": {"m": 14},
           "transform_out": str(tmp_path / "t.ftfm")}
    cfg = write_config(tmp_path / "fit.json", fit)
    assert run(["debias-fit", "--config", cfg, "--out", tmp_path / "fit.out"]) == 0
    (record,) = read_report(tmp_path / "fit.out")["tasks"]
    assert set(record["details"]) == {"train_items", "retained_dims", "cut_dims"}


class TestOnePassAudit:
    """An audit maps, normalises and scores each test item once, a read block at a
    time, takes each query file's rows once and ranks each row once, at max(k)."""

    @pytest.fixture
    def workspace(self, tmp_path):
        # about 9 000 test items: two full blocks and a partial third
        return make_workspace(tmp_path, 30_000)

    @pytest.fixture
    def calls(self, monkeypatch):
        import flens.cli
        import flens.core
        import flens.mitigation

        calls = {"normed": [], "scored": [], "top_k": 0, "balanced_retrieval": 0}
        norms, score = flens.core.row_norms, flens.cli.score_blocks

        def counting_norms(values):
            calls["normed"].append(len(values))
            return norms(values)

        def counting_score(queries, blocks, n):
            def seen():
                for values, block_norms in blocks:
                    calls["scored"].append(len(values))
                    yield values, block_norms

            return score(queries, seen(), n)

        # row_norms is counted in every module that binds it, so a second pass anywhere shows
        for module in (flens.core, flens.cli, flens.mitigation):
            monkeypatch.setattr(module, "row_norms", counting_norms)
        monkeypatch.setattr(flens.cli, "score_blocks", counting_score)
        for name in ("top_k", "balanced_retrieval"):

            def counting(*args, _name=name, _original=getattr(flens.cli, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(flens.cli, name, counting)
        return calls

    @staticmethod
    def _check_blocks(blocks, n_test):
        """Every test item once, one block per read block of the file that holds test rows."""
        assert len(blocks) >= 3
        assert sum(blocks) == n_test
        assert all(0 < size <= BLOCK_ROWS for size in blocks)

    def _run(self, workspace, tmp_path, command, payload):
        cfg = write_config(tmp_path / f"{command}.json", {"data": workspace["data"], **payload})
        out = tmp_path / f"{command}.out"
        assert run([command, "--config", cfg, "--out", out]) == 0
        return read_report(out)["dataset"]["test_items"]

    def test_classify_with_several_tasks(self, workspace, tmp_path, calls):
        tasks = [{"name": f"t{i}", "class_a": i % 2, "class_b": 2 + i % 2} for i in range(4)]
        payload = {"queries": str(workspace["queries"]), "tasks": tasks}
        n_test = self._run(workspace, tmp_path, "classify-audit", payload)
        self._check_blocks(calls["scored"], n_test)
        # the four class rows the tasks name are normed once, then each item block once
        assert calls["normed"] == [4, *calls["scored"]]

    def test_ranked_lists_skip_np_unique(self, workspace, tmp_path, monkeypatch):
        # ranked lists hold distinct items by construction, so nothing checks them
        # for duplicates, and the report's quartiles need no np.unique either
        # (it imports numpy.ma)
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
        assert sizes == []
        assert np.unique([3, 3]).size == 1 and sizes == [2]  # the recorder is in place

    def test_retrieve_with_balanced_and_three_k(self, workspace, tmp_path, calls):
        queries = [{"name": f"q{i}", "row": i} for i in range(2)]
        payload = {
            "queries": str(workspace["queries"]),
            "retrieval": {"k": [10, 40, 20], "queries": queries},
            "balanced": {"embeddings": str(workspace["balanced"])},
        }
        n_test = self._run(workspace, tmp_path, "retrieve-audit", payload)
        self._check_blocks(calls["scored"], n_test)
        # the query rows, the balanced rows, then each item block, each normed once
        assert calls["normed"] == [len(queries), 2 * len(queries), *calls["scored"]]
        assert calls["top_k"] == 1
        assert calls["balanced_retrieval"] == len(queries)

    def test_inferred_fit_norms_each_row_once(self, workspace, tmp_path, calls):
        prompts = np.zeros((2, 16))
        prompts[:, 0] = [-1.0, 1.0]
        write_embeddings(EmbeddingMatrix(prompts), tmp_path / "prompts.femb")
        payload = {
            "method": "miclip", "miclip": {"m": 8}, "attribute_source": "inferred",
            "prompts": str(tmp_path / "prompts.femb"), "transform_out": str(tmp_path / "t.ftfm"),
        }
        cfg = write_config(tmp_path / "fit.json", {"data": workspace["data"], **payload})
        assert run(["debias-fit", "--config", cfg, "--out", tmp_path / "fit.out"]) == 0
        # the prompts, then the train rows, each normed once
        assert calls["normed"] == [2, read_report(tmp_path / "fit.out")["dataset"]["train_items"]]

    def test_population_counted_once_per_audit(self, workspace, tmp_path, monkeypatch):
        """More queries and cutoffs add metric records, but no group population count."""
        counted = []
        counts = GroupLabels.counts

        def recording(labels):
            counted.append(len(labels))
            return counts(labels)

        monkeypatch.setattr(GroupLabels, "counts", recording)
        tallies = []
        for k, query_count in (([10], 1), ([10, 40, 20], 2)):
            queries = [{"name": f"q{i}", "row": i} for i in range(query_count)]
            payload = {
                "queries": str(workspace["queries"]),
                "retrieval": {"k": k, "queries": queries},
                "balanced": {"embeddings": str(workspace["balanced"])},
            }
            counted.clear()
            self._run(workspace, tmp_path, "retrieve-audit", payload)
            tallies.append(len(counted))
        assert tallies[0] == tallies[1] >= 1

    def test_transform_reads_test_and_named_rows_only(
        self, workspace, fitted_transform, tmp_path, monkeypatch
    ):
        """Through a folding fair-PCA transform, apply sees the named query rows, then only
        the test rows whose folded norm would cancel, and each block of test items is
        scored once."""
        import flens.cli
        import flens.mitigation

        applied, scored = [], []
        apply, score = flens.mitigation.apply_fair_pca, flens.cli.score_blocks

        def recording(transform, embeddings):
            applied.append(embeddings.copy())
            return apply(transform, embeddings)

        def counting_score(queries, blocks, n):
            return score(queries, (scored.append(len(block[0])) or block for block in blocks), n)

        monkeypatch.setattr(flens.mitigation, "apply_fair_pca", recording)
        monkeypatch.setattr(flens.cli, "score_blocks", counting_score)
        transform, _ = read_transform(fitted_transform)
        assert transform.folds(2) and transform.folds(3)
        test = split_column(workspace["labels"]) == "test"
        items = read_embeddings(workspace["embeddings"], test)
        centred = items - transform.mean
        off = centred @ transform.complement
        removed = np.einsum("ij,ij->i", off, off)
        guard = items[removed > 0.5 * np.einsum("ij,ij->i", centred, centred)]
        assert 0 < len(guard) < len(items)

        def check_guard_rows(calls):
            assert all(len(rows) <= BLOCK_ROWS for rows in calls)
            assert np.array_equal(np.concatenate(calls), guard)

        tasks = [{"name": n, "class_a": a, "class_b": 4 - a} for n, a in (("t", 3), ("u", 1))]
        payload = {"queries": str(workspace["queries"]), "transform": str(fitted_transform)}
        n_test = self._run(workspace, tmp_path, "classify-audit", {**payload, "tasks": tasks})
        assert n_test == len(items)
        # the named query rows first, then guard rows only
        assert len(applied[0]) == 2
        check_guard_rows(applied[1:])
        self._check_blocks(scored, n_test)
        applied.clear()
        scored.clear()
        retrieval = {"k": [10], "queries": [{"name": "q", "row": 2}]}
        balanced = {"embeddings": str(workspace["balanced"])}
        self._run(workspace, tmp_path, "retrieve-audit",
                  {**payload, "retrieval": retrieval, "balanced": balanced})
        assert [len(rows) for rows in applied[:2]] == [1, 2]
        check_guard_rows(applied[2:])
        self._check_blocks(scored, n_test)

    def test_projecting_transform_applies_each_item_block_once(
        self, workspace, fitted_transform, tmp_path, monkeypatch
    ):
        """Through a fair-PCA transform made not to fold, as its rule decides at a smaller r."""
        import flens.mitigation

        rows = []
        apply = flens.mitigation.apply_fair_pca

        def recording(transform, embeddings):
            rows.append(len(embeddings))
            return apply(transform, embeddings)

        monkeypatch.setattr(flens.mitigation, "apply_fair_pca", recording)
        monkeypatch.setattr(FairPcaTransform, "folds", lambda self, queries: False)
        tasks = [{"name": n, "class_a": a, "class_b": 4 - a} for n, a in (("t", 3), ("u", 1))]
        payload = {"queries": str(workspace["queries"]), "transform": str(fitted_transform)}
        n_test = self._run(workspace, tmp_path, "classify-audit", {**payload, "tasks": tasks})
        # the named query rows first, then each block of test items once
        assert rows[0] == 2
        self._check_blocks(rows[1:], n_test)
        rows.clear()
        retrieval = {"k": [10], "queries": [{"name": "q", "row": 2}]}
        balanced = {"embeddings": str(workspace["balanced"])}
        self._run(workspace, tmp_path, "retrieve-audit",
                  {**payload, "retrieval": retrieval, "balanced": balanced})
        assert rows[:2] == [1, 2]
        self._check_blocks(rows[2:], n_test)


class TestAuditRows:
    """Audits read only the test rows, and only the query rows a task or query names."""

    @pytest.fixture
    def query_files(self, workspace, tmp_path):
        # rows 5 and 7 of the class file, row 3 of the query file and the rows
        # past the two balanced blocks are zero-norm
        classes = np.vstack([read_embeddings(workspace["queries"]), np.eye(4, 16)])
        classes[[5, 7]] = 0.0
        queries = np.eye(4, 16)
        queries[3] = 0.0
        balanced = np.vstack([read_embeddings(workspace["balanced"]), np.zeros((2, 16))])
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
        balanced = read_embeddings(workspace["balanced"])
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
        values = read_embeddings(workspace["embeddings"])
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
        values = read_embeddings(workspace["embeddings"])
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

    @pytest.mark.parametrize(
        "command, tag, message",
        [
            ("classify-audit", "train", "no test items to evaluate"),
            ("debias-fit", "test", "train split is empty; nothing to fit on"),
            ("probe", "test", "probe audit needs non-empty train and test splits"),
        ],
        ids=["classify-audit", "debias-fit", "probe"],
    )
    def test_empty_split_reported_before_embeddings_fault(
        self, workspace, tmp_path, capsys, command, tag, message
    ):
        """A split the command needs is checked non-empty before the embeddings are read."""
        def one_split(table):
            table["split"] = [tag] * len(table["split"])

        data = _relabelled(workspace, f"all-{tag}.csv", one_split)
        workspace["embeddings"].write_bytes(workspace["embeddings"].read_bytes()[:-1])
        payload = {
            "classify-audit": {"queries": str(workspace["queries"]), "tasks": [TASK]},
            "debias-fit": {"method": "fairpca", "transform_out": str(tmp_path / "t.ftfm")},
            "probe": {"probe": {"attributes": ["group"]}},
        }[command]
        cfg = write_config(tmp_path / "empty.json", {"data": data, **payload})
        assert run([command, "--config", cfg]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"

    @pytest.mark.parametrize("command", ["classify-audit", "retrieve-audit", "debias-fit", "probe"])
    def test_label_rows_differ_from_embedding_rows(self, workspace, tmp_path, capsys, command):
        """Every command reads through a mask over the label rows: one check, one message."""
        short = tmp_path / "short.femb"
        write_embeddings(EmbeddingMatrix(read_embeddings(workspace["embeddings"])[:599]), short)
        payload = {
            "classify-audit": {"queries": str(workspace["queries"]), "tasks": [TASK]},
            "retrieve-audit": {"queries": str(workspace["queries"]),
                               "retrieval": {"k": [5], "queries": [QUERY]}},
            "debias-fit": {"method": "fairpca", "transform_out": str(tmp_path / "t.ftfm")},
            "probe": {"probe": {"attributes": ["group"]}},
        }[command]
        data = dict(workspace["data"], embeddings=str(short))
        cfg = write_config(tmp_path / "short.json", {"data": data, **payload})
        assert run([command, "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {short} has 599 rows, but the label table has 600\n"

    @pytest.mark.parametrize(
        "command, payload, path",
        [
            ("classify-audit", {"tasks": [dict(TASK, class_a=99)]}, "tasks[0].class_a"),
            ("retrieve-audit", {"retrieval": {"k": [9999], "queries": [QUERY]}}, "retrieval.k[0]"),
        ],
        ids=["classify-audit", "retrieve-audit"],
    )
    def test_query_fault_reported_before_items_fault(
        self, workspace, tmp_path, capsys, command, payload, path
    ):
        """An audit checks its query rows and k before it opens the items file."""
        workspace["embeddings"].write_bytes(workspace["embeddings"].read_bytes()[:-1])
        payload = {"data": workspace["data"], "queries": str(workspace["queries"]), **payload}
        assert run([command, "--config", write_config(tmp_path / "faults.json", payload)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path} must be ")


def test_test_split_read_memory(tmp_path):
    """A split read holds the widened test rows and one float32 piece, not the payload."""
    paths = {"embeddings": str(tmp_path / "big.femb"), "labels": str(tmp_path / "big.csv")}
    synth = {"synth": {"n": 20_000, "d": 256, "p": 2, "seed": 5}, "output": paths}
    assert run(["synth", "--config", write_config(tmp_path / "synth.json", synth)]) == 0
    cfg = {"data": {**paths, "attribute": "group"}}
    tracemalloc.start()
    try:
        [(mask, groups, _)], provenance = _load_labels(cfg, ("test",))
        items = read_embeddings(paths["embeddings"], mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(items) == np.count_nonzero(mask) == len(groups) == provenance["test_items"] == 6000
    # 12.3 MB of widened test rows + a 0.5 MB float32 piece + the mask and label table;
    # holding the 20.5 MB float32 payload as well reads about 40 MB
    assert peak < 24e6


def test_probe_labels_hold_no_strings(tmp_path):
    """The split leaves _load_labels as masks: per row, only masks and codes stay allocated."""
    n = 100_000
    rng = np.random.default_rng(3)
    labels = tmp_path / "labels.csv"
    write_label_table(labels, {
        "group": rng.integers(0, 3, n).astype(str).tolist(),
        "race": rng.choice(["a", "b", "c", "d"], n).tolist(),
        "split": np.where(rng.random(n) < 0.7, "train", "test").tolist(),
    })
    cfg = {"data": {"embeddings": "unread.femb", "labels": str(labels), "attribute": "group"}}
    tracemalloc.start()
    try:
        selections, provenance = _load_labels(cfg, ("train", "test"), [("race", "group")])
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = [array for mask, groups, columns in selections
              for array in (mask, groups.labels, *(c.labels for c in columns.values()))]
    assert len(arrays) == 6 and all(array.dtype.kind != "U" for array in arrays)
    assert sum(len(mask) for mask, *_ in selections) == 2 * n
    assert provenance["train_items"] + provenance["test_items"] == n
    # two n-byte masks, and the int64 groups and column at each split's rows: 18 B a row;
    # 20 B a row of split tags on top read 38 B a row
    assert retained < 18 * n + 64 * 1024


def test_probe_drops_each_full_matrix_once_its_rows_are_taken(tmp_path):
    """probe holds about two n x d float64 matrices: two spaces' train and test rows."""
    n, d = 8000, 64
    paths = {"embeddings": str(tmp_path / "big.femb"), "labels": str(tmp_path / "big.csv")}
    synth = {"synth": {"n": n, "d": d, "p": 2, "seed": 5}, "output": paths}
    assert run(["synth", "--config", write_config(tmp_path / "synth.json", synth)]) == 0
    data = {**paths, "attribute": "group"}
    fit = {"data": data, "method": "fairpca", "transform_out": str(tmp_path / "t.ftfm")}
    assert run(["debias-fit", "--config", write_config(tmp_path / "fit.json", fit)]) == 0
    probe = {
        "data": data,
        "transform": fit["transform_out"],
        "probe": {"attributes": ["group"], "max_iter": 3},
    }
    cfg = write_config(tmp_path / "probe.json", probe)
    tracemalloc.start()
    try:
        assert run(["probe", "--config", cfg, "--out", tmp_path / "probe.report.json"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 2.2 full matrices; transforming the full matrix before the takes is 3.1
    assert peak < 2.5 * n * d * 8


def test_probe_reads_its_split_rows_straight_from_the_file(tmp_path):
    """probe without a transform holds its float64 train and test rows once, with no full matrix."""
    n, d = 8000, 64
    paths = {"embeddings": str(tmp_path / "big.femb"), "labels": str(tmp_path / "big.csv")}
    synth = {"synth": {"n": n, "d": d, "p": 2, "seed": 5}, "output": paths}
    assert run(["synth", "--config", write_config(tmp_path / "synth.json", synth)]) == 0
    probe = {"data": {**paths, "attribute": "group"},
             "probe": {"attributes": ["group"], "max_iter": 3}}
    cfg = write_config(tmp_path / "probe.json", probe)
    tracemalloc.start()
    try:
        assert run(["probe", "--config", cfg, "--out", tmp_path / "probe.report.json"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the full matrix beside the train and test rows taken from it is twice the rows
    assert peak < 1.5 * n * d * 8


def test_probe_opens_its_items_file_once(workspace, tmp_path, monkeypatch):
    """probe with no transform reads its train and test rows in one pass over the items file."""
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(Path(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr("flens.io.open", counting_open, raising=False)
    probe = {"data": workspace["data"], "probe": {"attributes": ["group"], "max_iter": 3}}
    cfg = write_config(tmp_path / "probe.json", probe)
    assert run(["probe", "--config", cfg, "--out", tmp_path / "probe.report.json"]) == 0
    assert opened.count(Path(workspace["embeddings"])) == 1


@pytest.fixture
def block_workspace(tmp_path):
    """A synthetic dataset of 9 192 rows: two full read blocks and a partial third."""
    paths = {"embeddings": str(tmp_path / "items.femb"), "labels": str(tmp_path / "items.csv")}
    synth = {"synth": {"n": 2 * BLOCK_ROWS + 1000, "d": 8, "p": 2, "bias_dims": [0],
                       "bias_strength": 3.0, "seed": 4}, "output": paths}
    assert run(["synth", "--config", write_config(tmp_path / "synth.json", synth)]) == 0
    return {**paths, "attribute": "group"}


class TestBlockedCommands:
    """The reader, apply and the fair-PCA fit at block boundaries, through the CLI."""

    @staticmethod
    def _fit(tmp_path, data, method):
        out = tmp_path / f"{method}.ftfm"
        fit = {"data": data, "method": method, "miclip": {"m": 5}, "transform_out": str(out)}
        assert run(["debias-fit", "--config", write_config(tmp_path / "fit.json", fit)]) == 0
        return out

    @staticmethod
    def _apply(tmp_path, source, transform, out):
        payload = {"input": str(source), "transform": str(transform), "output": str(out)}
        report = tmp_path / "apply.report.json"
        code = run(["apply", "--config", write_config(tmp_path / "apply.json", payload),
                    "--out", report])
        return code, report

    @pytest.mark.parametrize("method", ["miclip", "fairpca"])
    def test_streaming_apply_equals_whole_matrix_apply(self, block_workspace, tmp_path, method):
        transform_path = self._fit(tmp_path, block_workspace, method)
        out = tmp_path / "out.femb"
        code, report = self._apply(tmp_path, block_workspace["embeddings"], transform_path, out)
        assert code == 0
        transform, _ = read_transform(transform_path)
        whole = transform.apply(read_embeddings(block_workspace["embeddings"]))
        expected = whole.astype(np.float32)
        written = read_embeddings(out).astype(np.float32)
        if method == "miclip":  # a column selection: exact
            assert written.tobytes() == expected.tobytes()
        else:  # a row's last float64 bits depend on the rows sharing its matmul
            assert written.shape == expected.shape
            assert np.all(np.abs(written - expected) <= np.spacing(np.abs(expected)))
        shapes = read_report(report)["tasks"][0]["details"]
        assert shapes == {"input_shape": [9192, 8], "output_shape": list(whole.shape)}

    def test_failed_apply_leaves_no_output_file(self, block_workspace, tmp_path, capsys):
        transform_path = self._fit(tmp_path, block_workspace, "fairpca")
        source = Path(block_workspace["embeddings"])
        data = bytearray(source.read_bytes())
        data[-4:] = np.array([np.inf], dtype="<f4").tobytes()  # the last block's last value
        bad = tmp_path / "bad.femb"
        bad.write_bytes(bytes(data))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, report = self._apply(tmp_path, bad, transform_path, out_dir / "out.femb")
        assert code == 3
        assert f"data error: {bad}: payload contains NaN or Inf" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []
        assert not report.exists()

    def test_nan_in_a_dropped_row_of_the_last_partial_block(self, block_workspace, tmp_path,
                                                            capsys):
        """debias-fit keeps train rows only; a NaN in a test row of the last block still exits 3."""
        row = int(np.flatnonzero(split_column(block_workspace["labels"]) == "test")[-1])
        assert row >= 2 * BLOCK_ROWS
        path = Path(block_workspace["embeddings"])
        data = bytearray(path.read_bytes())
        offset = 23 + (row * 8 + 3) * 4
        data[offset : offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        fit = {"data": block_workspace, "method": "fairpca", "transform_out": str(tmp_path / "t")}
        assert run(["debias-fit", "--config", write_config(tmp_path / "fit.json", fit)]) == 3
        assert f"data error: {path}: payload contains NaN or Inf" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()


@pytest.fixture
def streamed_set(tmp_path):
    """13 522 rows of d = 8 in four read blocks, the last partial; 7 378 of them are test rows.

    Read block 0 is all test rows, block 1 all train rows, block 2
    alternates and block 3 is all test rows, so the scorer's second matrix
    product takes its items from the last two read blocks.
    """
    n, d = 3 * BLOCK_ROWS + 1234, 8
    rng = np.random.default_rng(9)
    groups = np.arange(n) % 2
    values = rng.normal(size=(n, d)) + 2.0 * groups[:, None] * np.eye(d)[0]
    split = np.full(n, "test", dtype="<U5")
    split[BLOCK_ROWS : 2 * BLOCK_ROWS] = "train"
    split[2 * BLOCK_ROWS : 3 * BLOCK_ROWS : 2] = "train"
    paths = {"embeddings": tmp_path / "items.femb", "labels": tmp_path / "items.csv",
             "queries": tmp_path / "queries.femb"}
    write_embeddings(EmbeddingMatrix(values), paths["embeddings"])
    write_label_table(paths["labels"], {"group": [str(g) for g in groups],
                                        "split": split.tolist()})
    write_embeddings(EmbeddingMatrix(rng.normal(size=(4, d))), paths["queries"])
    data = {"embeddings": str(paths["embeddings"]), "labels": str(paths["labels"]),
            "attribute": "group"}
    return {**paths, "data": data, "test": split == "test"}


class TestStreamedScoring:
    """Audits score their test items a block at a time, straight from the file."""

    @staticmethod
    def _streamed(streamed_set, transform_path=None):
        path, mask = str(streamed_set["embeddings"]), streamed_set["test"]
        queries = read_embeddings(streamed_set["queries"])
        sources = [("query", str(streamed_set["queries"]), queries, np.array([0, 2, 3]))]
        sims, _ = _query_similarities(transform_path, (path, mask, int(mask.sum())), sources)
        return sims, read_embeddings(path, mask), queries[np.array([0, 2, 3])]

    def test_blocks_of_test_rows(self, streamed_set):
        mask = streamed_set["test"]
        assert mask.size % BLOCK_ROWS and not mask[BLOCK_ROWS : 2 * BLOCK_ROWS].any()
        with open_kept_rows(streamed_set["embeddings"], mask) as blocks:
            seen = [(rows, values.copy()) for rows, values in blocks]
        # one block per read block holding a test row: the second holds none
        assert [len(rows) for rows, _ in seen] == [BLOCK_ROWS, BLOCK_ROWS // 2, 1234]
        np.testing.assert_array_equal(np.concatenate([rows for rows, _ in seen]),
                                      np.flatnonzero(mask))
        whole = read_embeddings(streamed_set["embeddings"])[mask]
        assert np.array_equal(np.vstack([values for _, values in seen]), whole)

    def test_no_transform_is_bitwise_the_whole_matrix_pass(self, streamed_set):
        sims, items, queries = self._streamed(streamed_set)
        assert sims.tobytes() == cosine_similarity_matrix(items, queries).tobytes()

    def test_fair_pca_transform_matches_the_whole_matrix_pass(self, streamed_set, tmp_path):
        train = ~streamed_set["test"]
        labels = GroupLabels(np.arange(train.size)[train] % 2, 2)
        transform, _ = fit_fair_pca(read_embeddings(streamed_set["embeddings"], train), labels)
        write_transform(transform, tmp_path / "t.ftfm")
        sims, items, queries = self._streamed(streamed_set, str(tmp_path / "t.ftfm"))
        expected = cosine_similarity_matrix(transform.apply(items), transform.apply(queries))
        assert np.max(np.abs(sims - expected)) <= 1e-12

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 24), data=st.data())
    def test_folded_cosines_match_the_explicit_path(self, tmp_path, seed, d, data):
        """Folded or not, cosines are within 1e-12 of projecting every row.

        The transform folds as its rule decides or as the draw makes it. With
        a fold, some rows lie within 1e-6 of mean + span(C), C the directions
        the projection drops, and one may equal the mean, which exits naming its
        row. Such a row's transformed row is tiny, so its cosine follows the last
        bits of the product that projects it: the fold projects its guard rows in
        one product, and the reference projects them in one product too.
        """
        r = data.draw(st.integers(1, d), label="r")
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
        mean = rng.normal(size=d).astype(np.float32).astype(float)  # a row can equal it
        transform = FairPcaTransform(mean, basis[:, :r])
        made = data.draw(st.sampled_from([None, False, True]), label="made to fold")
        folds = transform.folds(3) if made is None else made
        near = data.draw(st.integers(0, 4), label="near") if folds and r < d else 0
        items = mean + rng.normal(size=(20 + near, d))
        items[20:] = (mean + rng.normal(size=(near, d - r)) @ basis[:, r:].T
                      + 1e-6 * rng.normal(size=(near, r)) @ basis[:, :r].T)
        at_mean = folds and data.draw(st.booleans(), label="a row at the mean")
        if at_mean:
            items[data.draw(st.integers(0, len(items) - 1), label="its row")] = mean
        items = items.astype(np.float32).astype(float)
        queries = rng.normal(size=(3, d)).astype(np.float32).astype(float)
        paths = {name: tmp_path / f"{name}.femb" for name in ("items", "queries")}
        write_embeddings(EmbeddingMatrix(items), paths["items"])
        write_embeddings(EmbeddingMatrix(queries), paths["queries"])
        write_transform(transform, tmp_path / "t.ftfm")
        args = (str(tmp_path / "t.ftfm"),
                (str(paths["items"]), np.ones(len(items), bool), len(items)),
                [("query", str(paths["queries"]), queries, np.arange(3))])
        at_mean_rows = np.flatnonzero((items == mean).all(axis=1))
        with mock.patch.object(FairPcaTransform, "folds", lambda self, queries: folds):
            if at_mean_rows.size:
                with pytest.raises(DataError) as caught:
                    _query_similarities(*args)
                expected = f"item row {at_mean_rows[0]} of {paths['items']} has zero norm"
                assert str(caught.value) == expected
                return
            sims, _ = _query_similarities(*args)
        transform, _ = read_transform(tmp_path / "t.ftfm")  # C-ordered, as audits read it
        projected = transform.apply(items)
        if folds:
            centred = items - mean
            off = centred @ transform.complement
            guard = np.einsum("ij,ij->i", off, off) > 0.5 * np.einsum("ij,ij->i", centred, centred)
            if guard.any():
                projected[guard] = transform.apply(items[guard])
            assert guard[20:].all()
        expected = cosine_similarity_matrix(projected, transform.apply(queries))
        if folds:
            assert np.max(np.abs(sims - expected)) <= 1e-12
        else:  # the items are projected as one block, as the reference projects them
            assert sims.tobytes() == expected.tobytes()

    @staticmethod
    def _classify(streamed_set, tmp_path):
        cfg = {"data": streamed_set["data"], "queries": str(streamed_set["queries"]),
               "tasks": [{"name": "t", "class_a": 0, "class_b": 1}]}
        return run(["classify-audit", "--config", write_config(tmp_path / "c.json", cfg)])

    @staticmethod
    def _overwrite(path, row, value):
        data = bytearray(path.read_bytes())
        offset = 23 + row * 8 * 4
        data[offset : offset + 32] = np.full(8, value, dtype="<f4").tobytes()
        path.write_bytes(bytes(data))

    def test_zero_norm_item_in_a_later_block_named_by_file_row(
        self, streamed_set, tmp_path, capsys
    ):
        row = 3 * BLOCK_ROWS + 100
        assert streamed_set["test"][row]
        self._overwrite(streamed_set["embeddings"], row, 0.0)
        assert self._classify(streamed_set, tmp_path) == 3
        expected = f"item row {row} of {streamed_set['embeddings']} has zero norm"
        assert expected in capsys.readouterr().err

    def test_nan_in_a_dropped_row_of_a_later_block(self, streamed_set, tmp_path, capsys):
        row = 3 * BLOCK_ROWS - 2
        assert not streamed_set["test"][row]
        self._overwrite(streamed_set["embeddings"], row, np.nan)
        assert self._classify(streamed_set, tmp_path) == 3
        expected = f"data error: {streamed_set['embeddings']}: payload contains NaN or Inf"
        assert expected in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify-audit", "retrieve-audit"])
def test_audits_hold_no_copy_of_the_test_items(tmp_path, command):
    """An audit holds its similarity matrix and a few blocks, never its n_test x d items.

    12 288 test rows of d = 256: 25.2 MB as float64. Streamed, the peak is a
    float32 read block, a float64 block and its unit rows, about 21 MB.
    """
    n, d = 3 * BLOCK_ROWS, 256
    rng = np.random.default_rng(6)
    paths = {"embeddings": str(tmp_path / "x.femb"), "labels": str(tmp_path / "x.csv")}
    write_embeddings(EmbeddingMatrix(rng.normal(size=(n, d))), paths["embeddings"])
    write_label_table(paths["labels"], {"group": [str(g) for g in np.arange(n) % 2]})
    write_embeddings(EmbeddingMatrix(rng.normal(size=(4, d))), tmp_path / "q.femb")
    payload = {
        "classify-audit": {"tasks": [{"name": "t", "class_a": 0, "class_b": 1},
                                     {"name": "u", "class_a": 2, "class_b": 3}]},
        "retrieve-audit": {"retrieval": {"k": [10], "queries": [{"name": "q", "row": 0},
                                                                {"name": "r", "row": 1}]},
                           "balanced": {"embeddings": str(tmp_path / "q.femb")}},
    }[command]
    cfg = {"data": {**paths, "attribute": "group"}, "queries": str(tmp_path / "q.femb"),
           **payload}
    cfg_path = write_config(tmp_path / "audit.json", cfg)
    tracemalloc.start()
    try:
        assert run([command, "--config", cfg_path, "--out", tmp_path / "audit.out"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert read_report(tmp_path / "audit.out")["dataset"]["test_items"] == n
    assert peak < 8 * n * d


class TestFairPcaDimensions:
    """d - (p - 1) < 1: a data fault when target_dim is defaulted, a config fault when set."""

    @pytest.fixture
    def one_dim(self, tmp_path):
        paths = {"embeddings": str(tmp_path / "x.femb"), "labels": str(tmp_path / "x.csv")}
        synth = {"synth": {"n": 40, "d": 1, "p": 2, "seed": 2}, "output": paths}
        assert run(["synth", "--config", write_config(tmp_path / "synth.json", synth)]) == 0
        return {**paths, "attribute": "group"}

    def test_defaulted_target_dim_is_data_error(self, one_dim, tmp_path, capsys):
        fit = {"data": one_dim, "method": "fairpca", "transform_out": str(tmp_path / "t.ftfm")}
        assert run(["debias-fit", "--config", write_config(tmp_path / "fit.json", fit)]) == 3
        err = capsys.readouterr().err
        assert "data error: fair PCA needs d > p-1 dimensions for p=2 groups, got d=1" in err

    def test_explicit_target_dim_is_config_error(self, one_dim, tmp_path, capsys):
        fit = {"data": one_dim, "method": "fairpca", "fairpca": {"target_dim": 1},
               "transform_out": str(tmp_path / "t.ftfm")}
        assert run(["debias-fit", "--config", write_config(tmp_path / "fit.json", fit)]) == 2
        err = capsys.readouterr().err
        assert "config error: fairpca.target_dim must be in [1, d-(p-1)] = [1, 0], got 1" in err


def test_label_table_shorter_than_embeddings(workspace, tmp_path, capsys):
    """80 embedding rows against 60 label rows: the message names the file and both counts."""
    paths = {"embeddings": str(tmp_path / "x.femb"), "labels": str(tmp_path / "x.csv")}
    synth = {"synth": {"n": 80, "d": 16, "p": 2, "seed": 2}, "output": paths}
    assert run(["synth", "--config", write_config(tmp_path / "synth.json", synth)]) == 0
    lines = Path(paths["labels"]).read_text().splitlines()
    Path(paths["labels"]).write_text("\n".join(lines[:61]) + "\n")
    cfg = {"data": {**paths, "attribute": "group"}, "queries": str(workspace["queries"]),
           "tasks": [TASK]}
    assert run(["classify-audit", "--config", write_config(tmp_path / "c.json", cfg)]) == 3
    err = capsys.readouterr().err
    assert f"data error: {paths['embeddings']} has 80 rows, but the label table has 60" in err


_VMHWM_CHILD = """
import sys
from flens.cli import main

def vmhwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

before = vmhwm()
code = main(sys.argv[1:])
print(code, before, vmhwm())
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM from /proc")
def test_fits_and_apply_hold_their_kept_rows_and_blocks(tmp_path):
    """Each command's peak rise in a fresh process: its kept float64 rows plus a fixed allowance.

    VmHWM, not ru_maxrss, which a child inherits from a larger parent. The
    allowance covers the read, transform and write blocks, the fair-PCA
    scatter, the label table and BLAS scratch. A second n x d copy of the
    100 000 x 128 input (51 MB as float32, 102 MB as float64) breaks it.
    """
    n, d = 100_000, 128
    paths = {"embeddings": str(tmp_path / "x.femb"), "labels": str(tmp_path / "x.csv")}
    synth = {"synth": {"n": n, "d": d, "p": 4, "bias_dims": [0, 1], "seed": 3}, "output": paths}
    assert run(["synth", "--config", write_config(tmp_path / "synth.json", synth)]) == 0
    train_bytes = int(np.count_nonzero(split_column(paths["labels"]) == "train")) * d * 8
    data = {**paths, "attribute": "group"}
    configs = {
        "fairpca": ("debias-fit", {"data": data, "method": "fairpca",
                                   "transform_out": str(tmp_path / "f.ftfm")}, train_bytes),
        "miclip": ("debias-fit", {"data": data, "method": "miclip", "miclip": {"m": 100},
                                  "transform_out": str(tmp_path / "m.ftfm")}, train_bytes),
        "apply": ("apply", {"input": paths["embeddings"], "transform": str(tmp_path / "f.ftfm"),
                            "output": str(tmp_path / "out.femb")}, 0),
    }
    allowance = 40 * 2**20
    for name, (command, payload, kept_bytes) in configs.items():
        cfg = write_config(tmp_path / f"{name}.json", payload)
        out = _run_python("-c", _VMHWM_CHILD, command, "--config", str(cfg),
                          "--out", str(tmp_path / f"{name}.report.json"))
        assert out.returncode == 0, out.stderr
        code, before, after = map(int, out.stdout.split())
        assert code == 0, out.stderr
        assert after - before < kept_bytes + allowance, (name, (after - before) / 2**20)


class TestBoundaryOwners:
    """Each input rule is checked where the input enters, for every command that reads it.

    io checks every block of an embeddings file for NaN/Inf, split_masks checks
    that each split holds every group, and a fair-PCA transform checks its offset
    when it is read; the library behind them does not check again.
    """

    @staticmethod
    def _with_nan(path, tmp_path):
        """A copy of the .femb at path whose last value is NaN."""
        data = bytearray(Path(path).read_bytes())
        data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        copy = tmp_path / f"nan-{Path(path).name}"
        copy.write_bytes(bytes(data))
        return copy

    @staticmethod
    def _prompts(tmp_path):
        prompts = np.zeros((2, 16))
        prompts[:, 0] = [-1.0, 1.0]
        path = tmp_path / "prompts.femb"
        write_embeddings(EmbeddingMatrix(prompts), path)
        return path

    @pytest.mark.parametrize(
        "command, role",
        [
            ("classify-audit", "queries"),
            ("retrieve-audit", "queries"),
            ("retrieve-audit", "balanced"),
            ("debias-fit", "prompts"),
            ("apply", "input"),
            ("probe", "items"),
        ],
    )
    def test_nan_in_any_embeddings_file_exits_3(
        self, workspace, tmp_path, capsys, request, command, role
    ):
        files = {
            "queries": workspace["queries"],
            "balanced": workspace["balanced"],
            "prompts": self._prompts(tmp_path),
            "input": workspace["embeddings"],
            "items": workspace["embeddings"],
        }
        files[role] = bad = self._with_nan(files[role], tmp_path)
        data = dict(workspace["data"], embeddings=str(files["items"]))
        retrieval = {"k": [10], "queries": [QUERY]}
        payload = {
            "classify-audit": {"data": data, "queries": str(files["queries"]), "tasks": [TASK]},
            "retrieve-audit": {"data": data, "queries": str(files["queries"]),
                               "retrieval": retrieval,
                               "balanced": {"embeddings": str(files["balanced"])}},
            "debias-fit": {"data": data, "method": "miclip", "miclip": {"m": 8},
                           "attribute_source": "inferred", "prompts": str(files["prompts"]),
                           "transform_out": str(tmp_path / "t.ftfm")},
            "apply": {"input": str(files["input"]), "output": str(tmp_path / "out.femb"),
                      "transform": str(request.getfixturevalue("fitted_transform"))},
            "probe": {"data": data, "probe": {"attributes": ["group"], "max_iter": 5}},
        }[command]
        assert run([command, "--config", write_config(tmp_path / "nan.json", payload)]) == 3
        assert capsys.readouterr().err == f"data error: {bad}: payload contains NaN or Inf\n"

    @pytest.mark.parametrize("split, group", [("test", 1), ("train", 0)])
    @pytest.mark.parametrize("command", ["classify-audit", "retrieve-audit", "debias-fit", "probe"])
    def test_split_without_a_group_exits_3(
        self, workspace, tmp_path, capsys, command, split, group
    ):
        """Every command that reads the label table checks both splits before anything else."""
        with open(workspace["labels"], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        other = "train" if split == "test" else "test"
        for row in rows:
            if row["group"] == str(group) and row["split"] == split:
                row["split"] = other
        labels = tmp_path / f"no-{group}-in-{split}.csv"
        columns = [key for key in rows[0] if key != "item_id"]
        write_label_table(labels, {key: [row[key] for row in rows] for key in columns})
        data = dict(workspace["data"], labels=str(labels))
        payload = {
            "classify-audit": {"queries": str(workspace["queries"]), "tasks": [TASK]},
            "retrieve-audit": {"queries": str(workspace["queries"]),
                               "retrieval": {"k": [10], "queries": [QUERY]}},
            "debias-fit": {"method": "fairpca", "transform_out": str(tmp_path / "t.ftfm")},
            "probe": {"probe": {"attributes": ["group"]}},
        }[command]
        cfg = write_config(tmp_path / "absent.json", {"data": data, **payload})
        assert run([command, "--config", cfg]) == 3
        assert capsys.readouterr().err == f"data error: group {group} absent from the {split} split\n"

    @pytest.mark.parametrize("command", ["apply", "classify-audit", "retrieve-audit", "probe"])
    def test_fair_pca_offset_that_overflows_exits_3(
        self, workspace, fitted_transform, tmp_path, capsys, command
    ):
        """A finite mean whose product with the projection overflows is rejected on reading."""
        transform, _ = read_transform(fitted_transform)
        # each mean entry at the float64 limit, signed like the first projection column
        mean = np.finfo(np.float64).max * np.sign(transform.projection[:, 0])
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(mean @ transform.projection))
        data = bytearray(fitted_transform.read_bytes())
        (meta_len,) = struct.unpack_from("<I", data, 11)  # after the magic, version and kind
        start = 15 + meta_len + 8  # the body's mean follows its d and r
        assert struct.unpack_from("<16d", data, start) == tuple(transform.mean)
        data[start : start + 16 * 8] = mean.astype("<f8").tobytes()
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[8:-4])))
        fitted_transform.write_bytes(bytes(data))
        payload = {
            "apply": {"input": str(workspace["embeddings"]), "output": str(tmp_path / "o.femb")},
            "classify-audit": {"data": workspace["data"], "queries": str(workspace["queries"]),
                               "tasks": [TASK]},
            "retrieve-audit": {"data": workspace["data"], "queries": str(workspace["queries"]),
                               "retrieval": {"k": [10], "queries": [QUERY]}},
            "probe": {"data": workspace["data"], "probe": {"attributes": ["group"]}},
        }[command]
        payload["transform"] = str(fitted_transform)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would print ahead of the message
            code = run([command, "--config", write_config(tmp_path / "offset.json", payload)])
        assert code == 3
        expected = "data error: fair-pca offset (mean @ projection) overflows\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "o.femb").exists()
