"""The error surface: every failure is one of three exception types, one per exit code."""

import ast
import builtins
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flens.cli import main
from flens.core import EmbeddingMatrix
from flens.io import write_embeddings

SOURCE = Path(__file__).resolve().parents[1] / "src" / "flens"
FAMILIES = {"ConfigError", "DataError", "NumericError"}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_errors_module_defines_only_the_families():
    tree = _parse(SOURCE / "errors.py")
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes == ["FlensError", *sorted(FAMILIES)]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_families_are_raised_or_defined(path):
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ClassDef) and path.name != "errors.py":
            for base in node.bases:
                name = base.id if isinstance(base, ast.Name) else None
                builtin = getattr(builtins, name or "", None)
                is_exception = isinstance(builtin, type) and issubclass(builtin, BaseException)
                assert not is_exception and name not in FAMILIES | {"FlensError"}, (
                    f"{path.name}:{node.lineno}: exception class {node.name}"
                )
        if isinstance(node, ast.Raise):
            raised = ast.unparse(node.exc) if node.exc else "bare raise"
            if path.name == "cli.py" and raised == "SystemExit(main())":
                continue
            call = node.exc
            assert isinstance(call, ast.Call) and isinstance(call.func, ast.Name), raised
            assert call.func.id in FAMILIES, f"{path.name}:{node.lineno}: raise {raised}"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SOURCE.glob("*.py") if p.name not in ("cli.py", "errors.py")),
    ids=lambda p: p.name,
)
def test_only_cli_names_config_error(path):
    """One config validation layer: cli raises every ConfigError, and no other module names it."""
    for node in ast.walk(_parse(path)):
        names = (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else []
        )
        assert "ConfigError" not in names, f"{path.name}:{node.lineno}: ConfigError"


def _write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def fuzz_set(tmp_path_factory):
    """An 80 x 8 synth set, a query file, a fitted fair-PCA transform and one config per command."""
    d = tmp_path_factory.mktemp("fuzz")
    files = {
        "femb": d / "items.femb",
        "csv": d / "labels.csv",
        "queries": d / "queries.femb",
        "ftfm": d / "fpca.ftfm",
    }
    synth = {
        "synth": {"n": 80, "d": 8, "p": 2, "bias_dims": [0], "bias_strength": 2.0,
                  "concept_dims": [2], "seed": 5},
        "output": {"embeddings": str(files["femb"]), "labels": str(files["csv"])},
    }
    assert main(["synth", "--config", str(_write_config(d / "synth.json", synth))]) == 0
    write_embeddings(EmbeddingMatrix(np.eye(4, 8) - 0.25), files["queries"])
    data = {"embeddings": str(files["femb"]), "labels": str(files["csv"]), "attribute": "group"}
    configs = {
        "classify-audit": {
            "data": data, "queries": str(files["queries"]), "transform": str(files["ftfm"]),
            "tasks": [{"name": "t", "class_a": 0, "class_b": 1, "ground_truth": "concept"}],
        },
        "retrieve-audit": {
            "data": data, "queries": str(files["queries"]),
            "retrieval": {"k": [3, 10], "queries": [
                {"name": "q", "row": 2, "fairness_mode": "diversity", "relevant": "concept"}]},
        },
        "probe": {
            "data": data, "transform": str(files["ftfm"]),
            "probe": {"attributes": ["group", "concept"], "max_iter": 20},
        },
        "debias-fit": {
            "data": data, "method": "miclip", "miclip": {"m": 6, "bins": 8},
            "transform_out": str(d / "fitted.ftfm"),
        },
        "apply": {
            "input": str(files["femb"]), "transform": str(files["ftfm"]),
            "output": str(d / "applied.femb"),
        },
    }
    fit = {"data": data, "method": "fairpca", "transform_out": str(files["ftfm"])}
    assert main(["debias-fit", "--config", str(_write_config(d / "fit.json", fit))]) == 0
    for command, cfg in configs.items():
        assert main([command, "--config", str(_write_config(d / "ok.json", cfg))]) == 0, command
    return d, files, configs


# Each target file, and the commands that read it. A config is mutated only for
# commands whose config names no output file, so a mutated path can only be read.
READERS = {
    "femb": ["classify-audit", "retrieve-audit", "probe", "debias-fit", "apply"],
    "queries": ["classify-audit", "retrieve-audit"],
    "ftfm": ["classify-audit", "probe", "apply"],
    "csv": ["classify-audit", "retrieve-audit", "probe", "debias-fit"],
    "config": ["classify-audit", "retrieve-audit", "probe"],
}


def _point_at(cfg, target, path):
    """A copy of cfg that reads its target file from path."""
    cfg = json.loads(json.dumps(cfg))
    if target == "queries":
        cfg["queries"] = path
    elif target == "ftfm":
        cfg["transform"] = path
    elif "input" in cfg:
        cfg["input"] = path
    else:
        cfg["data"]["embeddings" if target == "femb" else "labels"] = path
    return cfg


def _mutate(blob, data):
    kind = data.draw(st.sampled_from(["flip", "truncate", "insert", "delete"]))
    at = data.draw(st.integers(0, len(blob) - 1))
    if kind == "flip":
        return blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) + blob[at + 1 :]
    if kind == "truncate":
        return blob[:at]
    if kind == "insert":
        return blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at:]
    return blob[:at] + blob[at + 1 :]


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_input_exits_with_a_code(fuzz_set, capsys, data):
    """A byte flipped, cut, inserted or deleted in any input file ends as exit 0, 2, 3 or 4."""
    d, files, configs = fuzz_set
    target = data.draw(st.sampled_from(sorted(READERS)))
    command = data.draw(st.sampled_from(READERS[target]))
    cfg_path = d / "mutated.json"
    if target == "config":
        blob = json.dumps(configs[command], indent=1).encode("utf-8")
        cfg_path.write_bytes(_mutate(blob, data))
    else:
        mutated = d / f"mutated{files[target].suffix}"
        mutated.write_bytes(_mutate(files[target].read_bytes(), data))
        _write_config(cfg_path, _point_at(configs[command], target, str(mutated)))
    code = main([command, "--config", str(cfg_path), "--out", str(d / "report.json")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    assert (code == 0) == (err == ""), err
