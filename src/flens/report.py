"""Audit report assembly.

Reports are plain dictionaries rendered to canonical JSON so identical
inputs always produce identical bytes. Commands hand over records that hold
result objects (metrics, tests, similarity comparisons, taxonomy tags), and
build_report assembles them as they are: io.render_json makes the report
JSON-safe as it writes it, in one walk.

Category summaries are keyed by taxonomy cell. Exactly four cells are ever
evaluated: human-centric tasks crossed with objective/subjective and
independence/diversity. The non-human-centric subjective cell is out of
scope and never emitted; non-human-centric objective tasks carry
performance metrics only and appear in per-task records, not in a cell.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from . import __version__
from .core import lerp
from .tasks import TaxonomyTags

SCHEMA_VERSION = 1

EVALUATED_CELLS = (
    "human-centric/objective/independence",
    "human-centric/objective/diversity",
    "human-centric/subjective/independence",
    "human-centric/subjective/diversity",
)


def cell_key(tags: TaxonomyTags | None) -> str | None:
    """Taxonomy cell for a task, or None when the task has no fairness cell."""
    if tags is None or not tags.human_centric:
        return None
    consistency = "subjective" if tags.subjective else "objective"
    return f"human-centric/{consistency}/{tags.fairness_mode}"


_QUARTILE_LEVELS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def _quartiles(values: np.ndarray) -> np.ndarray:
    """``np.quantile(values, [0, .25, .5, .75, 1])`` for finite values, to the last bit.

    The same partition at the same indexes and the same "linear" interpolation
    as numpy, so even a zero's sign matches, but without np.quantile's
    ``np.unique`` call, whose first use in a process imports ``numpy.ma``.
    """
    n = values.size
    h = (n - 1) * _QUARTILE_LEVELS
    low = np.floor(h)
    last = h >= n - 1
    low[last] = -1.0  # numpy reads the last value here, with weight h + 1
    high = np.where(last, -1.0, low + 1.0).astype(np.intp)
    t = h - low
    low = low.astype(np.intp)
    ordered = np.partition(values, sorted({0, -1, *low.tolist(), *high.tolist()}))
    return lerp(ordered[low], ordered[high], t)


def five_number_summary(values: Iterable[float]) -> dict:
    """Box-plot data as a quartile record; infinities are excluded up front."""
    arr = np.asarray([v for v in values], dtype=np.float64)
    finite = arr[np.isfinite(arr)]
    record: dict[str, Any] = {"count": int(arr.size), "non_finite": int(arr.size - finite.size)}
    if finite.size:
        q = _quartiles(finite)
        record.update(
            min=q[0], q1=q[1], median=q[2], q3=q[3], max=q[4],
            mean=finite.mean(), std=float(np.std(finite)),
        )
    return record


def category_summary(task_records: list[dict]) -> dict:
    """Aggregate per-task metric values into the four evaluated taxonomy cells."""
    summary: dict[str, dict] = {}
    for key in EVALUATED_CELLS:
        tasks = [t for t in task_records if t["cell"] == key]
        metric_values: dict[str, list[float]] = {}
        for task in tasks:
            for name, result in task["metrics"].items():
                metric_values.setdefault(name, []).append(result.value)
        summary[key] = {
            "tasks": sorted(t["task_name"] for t in tasks),
            "metric_summary": {
                name: five_number_summary(vals) for name, vals in sorted(metric_values.items())
            },
        }
    return summary


def complete_records(records: Iterable[dict]) -> list[dict]:
    """Records in task-name order, each with its defaults filled and its taxonomy cell."""
    full = [{"taxonomy": None, "metrics": {}, "performance": {}, **r} for r in records]
    for record in full:
        record["cell"] = cell_key(record["taxonomy"])
    return sorted(full, key=lambda r: r["task_name"])


def build_report(
    command: str,
    config: dict,
    task_records: list[dict],
    transform_blocks: list[dict] | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble the full report, ordered by task name, for io.render_json to write."""
    tasks = complete_records(task_records)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "config": config,
        "tasks": tasks,
        "transforms": transform_blocks or [],
        "category_summary": category_summary(tasks),
        **(extra or {}),
    }
