"""Output checks, done from outside flens with numpy and the documented file formats.

Every check raises ``CheckFailed`` with a reason. The generic checks apply
to every step: the report is strict JSON and holds the expected number of
task records. A step may name one content check from ``CHECKS``.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

# The tolerances flens.mitigation states for a fitted fair-PCA projection.
ORTHONORMALITY_TOL = 1e-10
CONSTRAINT_TOL = 1e-8
# Retrieval metrics are ratios of integer tallies; equal tallies give equal floats.
METRIC_RTOL = 1e-12


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_femb(path: Path) -> np.ndarray:
    """The .femb layout: <8sHQIB header (magic, version, n, d, dtype 1) then f4 LE rows."""
    data = path.read_bytes()
    magic, version, n, d, dtype = struct.unpack_from("<8sHQIB", data)
    _require(magic == b"FLENSEMB" and version == 1 and dtype == 1, f"{path.name}: bad header")
    _require(len(data) == 23 + 4 * n * d, f"{path.name}: payload size")
    return np.frombuffer(data, dtype="<f4", offset=23).reshape(n, d).astype(np.float64)


def read_ftfm(path: Path) -> dict:
    """The .ftfm layout: magic, <HBI (version, kind, metadata length), metadata, body, CRC32."""
    data = path.read_bytes()
    _require(data[:8] == b"FLENSTFM", f"{path.name}: bad magic")
    _require(zlib.crc32(data[8:-4]) == struct.unpack("<I", data[-4:])[0], f"{path.name}: CRC")
    _, kind, meta_len = struct.unpack_from("<HBI", data, 8)
    body = data[15 + meta_len : -4]
    d, r = struct.unpack_from("<II", body)
    if kind == 1:
        mask = np.frombuffer(body, dtype=np.uint8, count=d, offset=8).astype(bool)
        return {"kind": "miclip", "mask": mask, "retained": r}
    _require(kind == 2, f"{path.name}: unknown kind {kind}")
    mean = np.frombuffer(body, dtype="<f8", count=d, offset=8)
    projection = np.frombuffer(body, dtype="<f8", count=d * r, offset=8 + 8 * d).reshape(d, r)
    return {"kind": "fairpca", "mean": mean, "projection": projection}


def read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def dense_codes(cells: list[str]) -> np.ndarray:
    """Category indices in first-appearance order, as flens assigns them."""
    order: dict[str, int] = {}
    return np.array([order.setdefault(c, len(order)) for c in cells], dtype=np.int64)


def strict_json(path: Path) -> dict:
    def reject(token: str):
        raise CheckFailed(f"{path.name}: non-standard JSON constant {token}")

    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def check_report(workdir: Path, step) -> dict:
    report = strict_json(workdir / step.report_path)
    _require(report.get("command") == step.command, f"{step.label}: wrong command")
    count = len(report.get("tasks", []))
    _require(count == step.tasks, f"{step.label}: {count} task records, expected {step.tasks}")
    return report


class Inputs:
    """Parsed input files of one working directory, read once per run."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self._cache: dict = {}

    def _get(self, key, load):
        if key not in self._cache:
            self._cache[key] = load()
        return self._cache[key]

    def embeddings(self, name: str) -> np.ndarray:
        return self._get(("femb", name), lambda: read_femb(self.workdir / name))

    def columns(self, stem: str) -> dict:
        return self._get(("csv", stem), lambda: read_columns(self.workdir / f"{stem}.csv"))

    def transform(self, name: str) -> dict:
        return read_ftfm(self.workdir / name)  # rewritten by passes; never cached


def check_fairpca(inputs: Inputs, report: dict, transform: str, data: str) -> None:
    """Orthonormal columns and zero covariance with every demeaned group indicator."""
    fitted = inputs.transform(transform)
    _require(fitted["kind"] == "fairpca", f"{transform}: not a fair-PCA transform")
    columns = inputs.columns(data)
    train = np.array(columns["split"]) == "train"
    x = inputs.embeddings(f"{data}.femb")[train]
    groups = dense_codes(columns["group"])[train]
    projection = fitted["projection"]
    ortho = np.max(np.abs(projection.T @ projection - np.eye(projection.shape[1])))
    _require(ortho <= ORTHONORMALITY_TOL, f"{transform}: orthonormality residual {ortho:.3e}")
    onehot = np.eye(groups.max() + 1)[groups]
    constraints = (onehot - onehot.mean(axis=0)).T @ (x - x.mean(axis=0))
    residual = np.max(np.abs(constraints @ projection))
    bound = CONSTRAINT_TOL * max(1.0, float(np.abs(constraints).max()))
    _require(residual <= bound, f"{transform}: constraint residual {residual:.3e} > {bound:.3e}")


def check_miclip(inputs: Inputs, report: dict, m: int) -> None:
    retained = report["tasks"][0]["details"]["retained_dims"]
    _require(retained == m, f"mi-clip retained {retained} dims, expected {m}")


def check_apply(inputs: Inputs, report: dict, input: str, transform: str, output: str) -> None:
    fitted = inputs.transform(transform)
    expected = (inputs.embeddings(input) - fitted["mean"]) @ fitted["projection"]
    written = read_femb(inputs.workdir / output)
    _require(written.shape == expected.shape, f"{output}: shape {written.shape}")
    _require(np.allclose(written, expected, rtol=1e-6, atol=1e-6), f"{output}: values differ")


def check_probe(inputs: Inputs, report: dict) -> None:
    record = {t["task_name"]: t for t in report["tasks"]}["probe:group"]["performance"]
    _require(record["accuracy_raw"] > record["majority_rate"],
             f"group probe accuracy {record['accuracy_raw']} <= majority {record['majority_rate']}")


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _reference_metrics(ranked, groups, p, mode, relevant, k) -> dict:
    """Metric values of one ranked list, from the formulas in flens's docs."""
    counts = np.bincount(groups[ranked], minlength=p)
    values = {}
    if mode == "independence":
        population = np.bincount(groups, minlength=p)
        z = groups.size
        rates = counts / k - (population - counts) / (z - k)
        values["ddp_retrieval"] = rates.max() - rates.min()
    else:
        values["skew_at_k"] = (math.inf if counts.min() == 0
                               else float(np.max(np.abs(np.log(counts / k / (1.0 / p))))))
        if relevant is not None:
            hits = ranked[relevant[ranked]]
            if hits.size:
                shares = np.bincount(groups[hits], minlength=p) / hits.size
                values["ddp_rep"] = shares.max() - shares.min()
            values["precision_at_k"] = hits.size / k
    return values


def _balanced(unit_items: np.ndarray, group_queries: np.ndarray, k: int) -> np.ndarray:
    """Round-robin picks over p group queries, skipping items already claimed."""
    p = group_queries.shape[0]
    sims = np.clip(_unit(group_queries) @ unit_items.T, -1.0, 1.0)
    orders = [np.argsort(-sims[g], kind="stable") for g in range(p)]
    quotas = [k // p + (g < k % p) for g in range(p)]
    cursors, claimed, picks = [0] * p, set(), []
    for rank in range(max(quotas)):
        for g in range(p):
            if rank < quotas[g]:
                while orders[g][cursors[g]] in claimed:
                    cursors[g] += 1
                claimed.add(orders[g][cursors[g]])
                picks.append(orders[g][cursors[g]])
    return np.array(picks, dtype=np.int64)


def _compare(where: str, recorded: dict, reference: dict) -> None:
    for name, expected in reference.items():
        section = "performance" if name == "precision_at_k" else "metrics"
        got = recorded[section].get(name)
        if isinstance(got, dict):
            got = got["value"]
        got = math.inf if got == "inf" else got
        _require(got is not None and math.isclose(got, expected, rel_tol=METRIC_RTOL,
                                                  abs_tol=METRIC_RTOL),
                 f"{where}: {name} {got} differs from reference {expected}")


def check_retrieval(inputs: Inputs, report: dict, queries: int, k: list, p: int) -> None:
    """A sample of queries re-ranked with a stable numpy argsort, plain and balanced."""
    config = report["config"]
    data = config["data"]
    stem = data["labels"][: -len(".csv")]
    columns = inputs.columns(stem)
    test = np.flatnonzero(np.array(columns["split"]) == "test")
    groups = dense_codes(columns["group"])[test]
    matrices = [inputs.embeddings(data["embeddings"]), inputs.embeddings(config["queries"]),
                inputs.embeddings(config["balanced"]["embeddings"])]
    if config.get("transform"):
        fitted = inputs.transform(config["transform"])
        matrices = [(m - fitted["mean"]) @ fitted["projection"] for m in matrices]
    items, query_rows, balanced_rows = matrices
    unit_items = _unit(items[test])
    specs = config["retrieval"]["queries"]
    sims = np.clip(_unit(query_rows[[s["row"] for s in specs]]) @ unit_items.T, -1.0, 1.0)
    plain = {t["task_name"]: t for t in report["tasks"]}
    balanced_block = [b for b in report["transforms"] if b.get("name") == "balanced-queries"]
    _require(len(balanced_block) == 1, "no balanced-queries block")
    balanced = {t["task_name"]: t for t in balanced_block[0]["records"]}
    _require(len(balanced) == queries * len(k), f"{len(balanced)} balanced records")
    # an odd stride samples about eight queries of both fairness modes
    for position in range(0, len(specs), max(1, len(specs) // 8) | 1):
        spec = specs[position]
        mode = spec.get("fairness_mode", "independence")
        rel = None
        if spec.get("relevant"):  # a binary column: "1" or "+1" marks relevant items
            rel = np.isin(np.array(columns[spec["relevant"]])[test], ("1", "+1"))
        order = np.argsort(-sims[position], kind="stable")
        group_rows = balanced_rows[position * p : (position + 1) * p]
        for cutoff in k:
            name = f"{spec['name']} @ k={cutoff}"
            _compare(name, plain[name],
                     _reference_metrics(order[:cutoff], groups, p, mode, rel, cutoff))
            picks = _balanced(unit_items, group_rows, cutoff)
            _compare(f"balanced {name}", balanced[name],
                     _reference_metrics(picks, groups, p, mode, rel, cutoff))


CHECKS = {
    "fairpca": check_fairpca,
    "miclip": check_miclip,
    "apply": check_apply,
    "probe": check_probe,
    "retrieval": check_retrieval,
}
