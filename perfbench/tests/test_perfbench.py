"""The benchmark at tiny sizes: metric names and units, checks, failure paths."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._load_flens()

import checks  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "audit": {"n": 400, "d": 16, "p": 4, "fit_n": 200, "tasks": 4, "queries": 4, "k": [5, 10]},
    "fit": {"n": 400, "d": 16, "p": 4, "miclip_m": 12, "probe_max_iter": 20},
    "deep": {"n": 800, "d": 32, "p": 8, "nonzero": 16, "queries": 2, "k": [10, 50]},
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_of_each(monkeypatch):
    monkeypatch.setattr(run, "SETUP_MIN_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_MIN_SECONDS", 0.0)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_TRACED_PASSES", 1)


def _run(name: str, trace: bool, workdir: Path) -> tuple[dict, list[str]]:
    lines: list[str] = []
    result = run.run_benchmark(workloads.WORKLOADS[name], 7, 0, trace, workdir,
                               size=TINY[name], emit=lines.append)
    return result, lines


def _assert_declared(result: dict, lines: list[str], section: str) -> None:
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    for name, unit in declared.items():
        assert printed[name] == unit


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_printed_and_checks_pass(name, tmp_path):
    result, lines = _run(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    _assert_declared(result, lines, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_printed_and_traced_bytes_match(tmp_path):
    result, lines = _run("fit", True, tmp_path)
    assert result["correct"], lines
    _assert_declared(result, lines, "per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["probe.fit_probe.calls"] == 4
    assert metrics["probe.loss_evals"] > 4 * TINY["fit"]["probe_max_iter"] / 2
    assert metrics["mitigation.fit_fair_pca.calls"] == 1
    assert metrics["mitigation.fairpca_u_bytes"] == 8 * 280**2
    assert metrics["cli.self_s"] <= metrics["cli.s"]


def test_broken_check_raises_ops_failed(tmp_path, monkeypatch):
    reference = checks._reference_metrics
    monkeypatch.setattr(checks, "_reference_metrics",
                        lambda *args: {k: v + 1.0 for k, v in reference(*args).items()})
    result, lines = _run("deep", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    share = float(next(line for line in lines if line.startswith("ops_failed")).split()[1])
    assert share > 0


def test_three_level_rows_have_exact_norm():
    rng = checks.np.random.default_rng(0)
    rows = workloads.three_level(rng.standard_normal((50, 32)), 16)
    assert set(checks.np.unique(rows)) == {-1.0, 0.0, 1.0}
    assert (checks.np.count_nonzero(rows, axis=1) == 16).all()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
