"""Command-line front end.

Subcommands: classify-audit, retrieve-audit, debias-fit, apply, probe,
synth. Every command reads a single declarative JSON config, echoes it
verbatim into the report, and writes the report as canonical JSON. The
config and the files it names are a run's only inputs, so a run is fully
reproducible from its report alone. Identical inputs and config produce
byte-identical reports.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, get_args, get_origin

import numpy as np

from . import __version__
from .core import TEST, TRAIN, GroupLabels, row_norms, split_masks
from .errors import ConfigError, DataError, FlensError, NumericError
from .io import (
    decode_labels,
    open_kept_rows,
    read_embeddings,
    read_label_table,
    read_transform,
    render_json,
    write_embeddings,
    write_label_table,
    write_report,
    write_transform,
)
from .metrics import (
    MetricResult,
    accuracy,
    ddp_classification,
    ddp_rep,
    ddp_retrieval,
    dtpr,
    skew_at_k,
)
from .mitigation import Transform, fit_fair_pca, fit_mi_clip
from .probe import DEFAULT_L2, DEFAULT_MAX_ITER, DEFAULT_TOL, evaluate_probe, fit_probe
from .report import build_report, complete_records
from .stats import per_query_similarity_tests
from .synth import SynthSpec, generate
from .tasks import (
    DIVERSITY,
    INDEPENDENCE,
    TaxonomyTags,
    balanced_retrieval,
    infer_protected_attribute,
    score_blocks,
    top_k,
    zero_shot_classify,
)

GROUND_TRUTH = "groundTruth"
INFERRED = "inferred"
_EMPTY_SPLIT = {(TEST,): "no test items to evaluate", (TRAIN,): "train split is empty; nothing to fit on",
                (TRAIN, TEST): "probe audit needs non-empty train and test splits"}

REQUIRED = object()
# Configs nest a few levels deep. The report echoes the config recursively, with at
# least one stack frame per level, so deeper nesting must stop before any command runs.
MAX_CONFIG_NESTING = 100
_JSON_TYPES = {
    str: "a string",
    int: "an integer",
    float: "a finite number",
    bool: "true or false",
    dict: "a JSON object",
    list: "a non-empty list",
}


def _field(obj: dict | list, key: str | int, kind: Any, where: str, default: Any = REQUIRED) -> Any:
    """Read one config value, checked to be of JSON type ``kind``.

    kind is str, int, float, bool, dict, list or list[<kind>]. A bool is not an
    int, an int is widened to float, a float must be finite and a list non-empty.
    A missing key gives ``default``, or is an error without one. ``where`` is the
    JSON path of ``obj`` ("" at the root); errors name the value's own path.
    """
    path = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}" if where else key
    if isinstance(obj, dict) and key not in obj:
        if default is REQUIRED:
            raise ConfigError(f"{path}: missing required key")
        return default
    value = obj[key]
    base = get_origin(kind) or kind
    if base is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)  # a number written as 2 is echoed in reports as 2.0
    # json.loads builds exact builtin types, so `type(value) is` keeps bools out of int
    if type(value) is not base or (base is float and not math.isfinite(value)) or value == []:
        raise ConfigError(f"{path} must be {_JSON_TYPES[base]}, got {json.dumps(value)}")
    if base is list and kind is not list:
        (item_kind,) = get_args(kind)
        return [_field(value, i, item_kind, path) for i in range(len(value))]
    return value


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    try:
        cfg = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply to parse") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if _nesting(cfg) > MAX_CONFIG_NESTING:
        raise ConfigError(f"config {path} nests deeper than {MAX_CONFIG_NESTING} levels")
    return cfg


def _nesting(value: Any) -> int:
    """How many arrays and objects deep a parsed JSON value nests, counted without recursion."""
    depth, level = 0, [value]
    while level := [v for v in level if isinstance(v, (dict, list))]:
        depth += 1
        level = [child for v in level for child in (v.values() if isinstance(v, dict) else v)]
    return depth


def _tags(spec: dict, where: str, fairness_mode: str = INDEPENDENCE) -> TaxonomyTags:
    """Taxonomy tags of a task or query spec; both flags default to true."""
    return TaxonomyTags(
        human_centric=_field(spec, "human_centric", bool, where, True),
        subjective=_field(spec, "subjective", bool, where, True),
        fairness_mode=fairness_mode,
    )


def _unique(names: Sequence, path: str) -> None:
    """Reject a repeated name or value; ``path`` is its JSON path with ``{}`` for the index."""
    seen = set()
    for i, name in enumerate(names):
        if name in seen:
            raise ConfigError(f"{path.format(i)} must be unique, got {json.dumps(name)} again")
        seen.add(name)


def _check_row(row: int, path: str, rows: int) -> None:
    """Reject a query-file row number outside [0, rows), naming its JSON path."""
    if not 0 <= row < rows:
        raise ConfigError(f"{path} must be a query file row in [0, {rows}), got {row}")


def _load_labels(
    cfg: dict, splits: tuple[str, ...], label_columns: Iterable[tuple[str, str]] = ()
) -> tuple[list[tuple[np.ndarray, GroupLabels, dict]], dict]:
    """Parse the label table exactly once and select the rows of each of ``splits``.

    Besides the protected attribute and the split, each (column, kind) in
    ``label_columns`` is decoded, so the parsed table is freed on return.
    Every label check, the split's and the non-empty ``splits`` included,
    runs here, on the full table. Returns one (mask, groups, columns) per
    split: the boolean mask of its rows, one entry per label row, and the
    protected groups and decoded columns at those rows; then the report's
    provenance block: attribute, groups, sizes. The embeddings are read
    through a mask, so io checks its length, the label table's row count,
    against the embeddings file's.
    """
    data = _field(cfg, "data", dict, "")
    _field(data, "embeddings", str, "data")  # checked here, read by the callers
    labels_path = _field(data, "labels", str, "data")
    attribute = _field(data, "attribute", str, "data")
    split_column = _field(data, "split_column", str, "data", "split")
    table = read_label_table(labels_path)
    protected = decode_labels(table, attribute, "group", labels_path)
    columns = {key: decode_labels(table, *key, labels_path) for key in dict.fromkeys(label_columns)}
    train = split_masks(table.get(split_column), protected)
    del table  # freed before the embeddings are read
    train_items = int(np.count_nonzero(train))
    provenance = {
        "attribute": attribute,
        "group_names": list(protected.group_names or []),
        "group_count": protected.group_count,
        "items": len(protected),
        "train_items": train_items,
        "test_items": len(protected) - train_items,
    }
    if not all(provenance[f"{name}_items"] for name in splits):
        raise DataError(_EMPTY_SPLIT[splits])

    def select(mask: np.ndarray) -> tuple[np.ndarray, GroupLabels, dict]:
        rows = np.flatnonzero(mask)
        return mask, protected.take(rows), {key: c.take(rows) for key, c in columns.items()}

    return [select(train if name == TRAIN else ~train) for name in splits], provenance


def _transform_block(path: str, transform: Transform, meta: dict) -> dict:
    """Report block naming a transform file, its kind and its metadata."""
    return {"path": path, "kind": type(transform).__name__, "metadata": meta}


def _maybe_transform(path: str | None) -> tuple[Callable[[np.ndarray], np.ndarray], list[dict]]:
    """The transform at path as a function on row arrays, and its report blocks (0 or 1).

    With no path the function is the identity. The file is read once, here.
    """
    if not path:
        return (lambda matrix: matrix), []
    transform, meta = read_transform(path)
    return transform.apply, [_transform_block(path, transform, meta)]


def _normed(
    kind: str, path: str, values: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``values`` and their row norms, as score_blocks takes them.

    A zero norm raises DataError naming its row in its own file.
    """
    norms = row_norms(values)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"{kind} row {int(rows[zero[0]])} of {path} has zero norm")
    return values, norms


def _query_similarities(
    transform_path: str | None,
    items: tuple[str, np.ndarray, int],
    sources: Sequence[tuple[str, str, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, list[dict]]:
    """Score the named rows of each query file against the test items, a block at a time.

    ``items`` is (embeddings file path, mask of its test rows, test item
    count). Each source is (kind, file path, query file, row numbers in that
    file). The transform at ``transform_path``, if any, is read once and
    applied to those query rows, which are checked for zero norms; only then
    is the items file opened, with open_kept_rows. Each file block of test
    items is transformed, checked and handed to score_blocks with the query
    rows, and it scores the block into one q x n_test matrix, so no copy of
    all the test items exists. No name holds a transformed block while the
    next one is made. The similarity rows follow the sources in order. A
    zero-norm row, query rows first, is reported by its kind and its row
    number in its own file.
    """
    items_path, mask, n_test = items
    transform, transform_blocks = _maybe_transform(transform_path)
    sides = [
        _normed(kind, path, transform(matrix[rows]), rows) for kind, path, matrix, rows in sources
    ]
    query_side = (np.concatenate([q for q, _ in sides]), np.concatenate([n for _, n in sides]))
    with open_kept_rows(items_path, mask) as blocks:
        items = (_normed("item", items_path, transform(values), rows) for rows, values in blocks)
        return score_blocks(query_side, items, n_test), transform_blocks


def cmd_classify_audit(cfg: dict) -> dict:
    """Zero-shot classification audit: DDP always, DTPR/accuracy with ground truth."""
    tasks = []
    for i, task in enumerate(_field(cfg, "tasks", list[dict], "")):
        where = f"tasks[{i}]"
        tasks.append(
            (
                _field(task, "name", str, where),
                _field(task, "class_a", int, where),
                _field(task, "class_b", int, where),
                _tags(task, where),
                _field(task, "ground_truth", str, where, None),
            )
        )
    _unique([name for name, *_ in tasks], "tasks[{}].name")
    queries_path = _field(cfg, "queries", str, "")
    transform_path = _field(cfg, "transform", str, "", None)
    [(mask, groups, columns)], provenance = _load_labels(
        cfg, (TEST,), [(t, "binary") for *_, t in tasks if t]
    )
    queries = read_embeddings(queries_path)
    for i, (_, a, b, *_) in enumerate(tasks):
        _check_row(a, f"tasks[{i}].class_a", len(queries))
        _check_row(b, f"tasks[{i}].class_b", len(queries))
    # Only the class rows the tasks name are transformed and scored, each once.
    class_rows = np.array(sorted({row for _, a, b, *_ in tasks for row in (a, b)}))
    sims, transform_blocks = _query_similarities(
        transform_path,
        (cfg["data"]["embeddings"], mask, len(groups)),  # checked by _load_labels
        [("class", queries_path, queries, class_rows)],
    )
    position = {int(row): i for i, row in enumerate(class_rows)}

    records = []
    for name, a, b, tags, truth_column in tasks:
        predictions = zero_shot_classify(sims[position[a]], sims[position[b]])
        record = {
            "task_name": name,
            "taxonomy": tags,
            "metrics": {"ddp_classification": ddp_classification(predictions, groups)},
            "performance": {},
        }
        if truth_column:
            truth = columns[truth_column, "binary"]
            record["metrics"]["dtpr"] = dtpr(predictions, truth, groups)
            record["performance"]["accuracy"] = accuracy(predictions, truth)
        records.append(record)
    return build_report(
        "classify-audit",
        cfg,
        records,
        transform_blocks,
        extra={"dataset": provenance},
    )


def _retrieval_metrics(
    retrieved: np.ndarray,
    groups: GroupLabels,
    population: np.ndarray,
    tags: TaxonomyTags,
    relevant: np.ndarray | None,
    k: int,
) -> dict:
    """Metric block for one query at one k, routed by fairness mode.

    ``retrieved`` holds k distinct item indices, as top_k and balanced_retrieval
    return them; ``population`` is ``groups.counts()``. ``relevant``, when
    given, is a boolean mask over the items, true for each relevant one.
    """
    selected = np.bincount(groups.labels[retrieved], minlength=groups.group_count)
    metrics: dict[str, MetricResult] = {}
    performance: dict[str, float] = {}
    if tags.fairness_mode == INDEPENDENCE:
        metrics["ddp_retrieval"] = ddp_retrieval(selected, population)
    else:
        metrics["skew_at_k"] = skew_at_k(selected)
        if relevant is not None:
            hits = retrieved[relevant[retrieved]]
            if hits.size:
                per_group = np.bincount(groups.labels[hits], minlength=groups.group_count)
                metrics["ddp_rep"] = ddp_rep(per_group)
            performance["precision_at_k"] = hits.size / k
    return {"metrics": metrics, "performance": performance}


def cmd_retrieve_audit(cfg: dict) -> dict:
    """Top-k retrieval audit with per-query equal-means similarity tests."""
    retrieval = _field(cfg, "retrieval", dict, "")
    k_list = _field(retrieval, "k", list[int], "retrieval")
    _unique(k_list, "retrieval.k[{}]")
    query_specs = []
    for i, spec in enumerate(_field(retrieval, "queries", list[dict], "retrieval")):
        where = f"retrieval.queries[{i}]"
        mode = _field(spec, "fairness_mode", str, where, INDEPENDENCE)
        if mode not in (INDEPENDENCE, DIVERSITY):
            expected = f"{INDEPENDENCE!r} or {DIVERSITY!r}"
            raise ConfigError(f"{where}.fairness_mode must be {expected}, got {json.dumps(mode)}")
        query_specs.append(
            (
                _field(spec, "name", str, where),
                _field(spec, "row", int, where),
                _tags(spec, where, mode),
                _field(spec, "relevant", str, where, None),
            )
        )
    _unique([name for name, *_ in query_specs], "retrieval.queries[{}].name")
    queries_path = _field(cfg, "queries", str, "")
    balanced = _field(cfg, "balanced", dict, "", None)
    balanced_path = _field(balanced, "embeddings", str, "balanced") if balanced else None
    transform_path = _field(cfg, "transform", str, "", None)
    [(mask, groups, columns)], provenance = _load_labels(
        cfg, (TEST,), [(c, "binary") for *_, c in query_specs if c]
    )
    n_test, p = len(groups), groups.group_count
    query_file = read_embeddings(queries_path)
    balanced_file = read_embeddings(balanced_path) if balanced_path is not None else None
    for i, k in enumerate(k_list):
        path = f"retrieval.k[{i}]"
        if not 1 <= k <= n_test:
            raise ConfigError(f"{path} must be in [1, test items] = [1, {n_test}], got {k}")
        if balanced_file is not None and k < p:
            raise ConfigError(f"{path} must be at least the group-query count {p}, got {k}")

    queries = []
    for i, (name, row, tags, relevant_column) in enumerate(query_specs):
        _check_row(row, f"retrieval.queries[{i}].row", len(query_file))
        relevant = columns[relevant_column, "binary"] if relevant_column else None
        queries.append((name, tags, relevant))
    # The query rows, then p group-specific balanced rows per query in the order
    # queries are listed: one similarity pass scores them all.
    query_rows = np.array([row for _, row, _, _ in query_specs])
    sources = [("query", queries_path, query_file, query_rows)]
    if balanced_file is not None:
        if len(balanced_file) < len(queries) * p:
            name = queries[len(balanced_file) // p][0]
            raise ConfigError(
                f"balanced embeddings need {p} rows per query, query {name!r} overruns"
            )
        sources.append(("balanced", balanced_path, balanced_file, np.arange(len(queries) * p)))
    # demographic disparity compares the selected items with at least one unselected item
    if n_test in k_list and any(tags.fairness_mode == INDEPENDENCE for _, tags, _ in queries):
        path = f"retrieval.k[{k_list.index(n_test)}]"
        raise ConfigError(f"{path} must be below {n_test} for an independence query, got {n_test}")
    items = (cfg["data"]["embeddings"], mask, n_test)  # checked by _load_labels
    sims, blocks = _query_similarities(transform_path, items, sources)

    q, max_k = len(queries), max(k_list)
    # Each row is ranked once, at max(k); each smaller k reads a prefix.
    ranked_lists = top_k(sims[:q], max_k)
    comparisons = per_query_similarity_tests(sims[:q], groups)
    population = groups.counts()
    records, balanced_records, similarity_tests = [], [], {}
    for position, (name, tags, relevant) in enumerate(queries):
        ranked = ranked_lists[position]
        balanced_ranked = None
        if balanced_file is not None:
            group_sims = sims[q + position * p : q + (position + 1) * p]
            balanced_ranked = balanced_retrieval(group_sims, max_k)
        for k in k_list:
            head = {"task_name": f"{name} @ k={k}", "taxonomy": tags}
            block = _retrieval_metrics(ranked[:k], groups, population, tags, relevant, k)
            records.append({**head, **block})
            if balanced_ranked is not None:
                block = _retrieval_metrics(
                    balanced_ranked[:k], groups, population, tags, relevant, k
                )
                balanced_records.append({**head, **block})
        similarity_tests[name] = comparisons[position]
    if balanced_records:
        blocks.append(
            {
                "name": "balanced-queries",
                "records": complete_records(balanced_records),
            }
        )
    extra = {
        "dataset": provenance,
        "similarity_tests": similarity_tests,
    }
    return build_report("retrieve-audit", cfg, records, blocks, extra)


class _TrainRows(np.ndarray):
    """A view of rows that all belong to the train split; ``train_mask`` says so.

    The fits read only the rows. ``train_mask`` is there for callers that
    size a fit by its train rows, as perfbench's fair-PCA hook does.
    """

    @property
    def train_mask(self) -> np.ndarray:
        return np.ones(len(self), dtype=bool)


def cmd_debias_fit(cfg: dict) -> dict:
    """Fit a debiasing transform on the train split and serialize it."""
    # method -> its fit function and integer parameters with their defaults. Built
    # per call, so a rebound fit function (a tracer, a test double) is the one run.
    methods = {
        "miclip": (fit_mi_clip, {"m": REQUIRED, "bins": 32}),
        "fairpca": (fit_fair_pca, {"target_dim": None}),
    }
    method = _field(cfg, "method", str, "")
    if method not in methods:
        raise ConfigError(f"method must be 'miclip' or 'fairpca', got {method!r}")
    source = _field(cfg, "attribute_source", str, "", GROUND_TRUTH)
    if source not in (GROUND_TRUTH, INFERRED):
        raise ConfigError(f"attribute_source must be {GROUND_TRUTH!r} or {INFERRED!r}")
    prompts_path = _field(cfg, "prompts", str, "", None) if source == INFERRED else None
    if source == INFERRED and not prompts_path:
        raise ConfigError("inferred attribute_source requires a prompts embeddings file")
    out_path = _field(cfg, "transform_out", str, "")
    method_cfg = _field(cfg, method, dict, "", {})
    fit, defaults = methods[method]
    params = {key: _field(method_cfg, key, int, method, value) for key, value in defaults.items()}
    [(mask, protected, _)], provenance = _load_labels(cfg, (TRAIN,))
    train_items = read_embeddings(cfg["data"]["embeddings"], mask)
    if prompts_path:
        prompts = read_embeddings(prompts_path)
        prompt_side = _normed("prompt", prompts_path, prompts, np.arange(len(prompts)))
        item_side = _normed("item", cfg["data"]["embeddings"], train_items, np.flatnonzero(mask))
        protected = infer_protected_attribute(item_side, prompt_side)
        empty = np.flatnonzero(protected.counts() == 0)
        if empty.size:
            raise DataError(
                f"inferred group {empty[0]} is empty: no train item is nearest to its prompt"
            )
    # The parameter ranges depend on d, the train item count and p, an inferred p included.
    n, d = train_items.shape
    p = protected.group_count
    max_rank = d - (p - 1)  # fair PCA's largest output dimension
    if method == "miclip":
        m, bins = params["m"], params["bins"]
        if not 1 <= m < d:
            raise ConfigError(f"miclip.m must be in [1, d) = [1, {d}), got {m}")
        if bins < 2:
            raise ConfigError(f"miclip.bins must be at least 2, got {bins}")
        if n < bins:
            raise ConfigError(f"miclip.bins must be at most the item count {n}, got {bins}")
    elif (r := params["target_dim"]) is None and max_rank < 1:
        raise DataError(f"fair PCA needs d > p-1 dimensions for p={p} groups, got d={d}")
    elif r is not None and not 1 <= r <= max_rank:
        raise ConfigError(f"fairpca.target_dim must be in [1, d-(p-1)] = [1, {max_rank}], got {r}")
    transform, fit_details = fit(train_items.view(_TrainRows), protected, **params)
    details = {"train_items": len(train_items), **fit_details}
    # A fitted value stands in for a defaulted parameter: fair PCA's target_dim.
    metadata = {"method": method, "attribute_source": source}
    metadata.update({key: details.get(key, value) for key, value in params.items()})
    write_transform(transform, out_path, metadata)
    record = {"task_name": f"debias-fit:{method}", "details": details}
    block = _transform_block(out_path, transform, metadata)
    return build_report("debias-fit", cfg, [record], [block], extra={"dataset": provenance})


def cmd_apply(cfg: dict) -> dict:
    """Apply a serialized transform to an embeddings file, one block of rows at a time.

    Each file block of BLOCK_ROWS rows is read in pieces, checked, widened,
    transformed whole and written before the next is read, so the command
    never holds its whole input or output.
    """
    transform_path = _field(cfg, "transform", str, "")
    out_path = _field(cfg, "output", str, "")
    with open_kept_rows(_field(cfg, "input", str, "")) as blocks:
        transform, meta = read_transform(transform_path)
        out_shape = write_embeddings((transform.apply(values) for _, values in blocks), out_path)
    # apply checked every block's width against the transform's
    shapes = {"input_shape": [out_shape[0], transform.input_dims], "output_shape": list(out_shape)}
    record = {"task_name": "apply", "details": shapes}
    return build_report("apply", cfg, [record], [_transform_block(transform_path, transform, meta)])


def cmd_probe(cfg: dict) -> dict:
    """Linear-probe audit: per-attribute accuracy, before and after a transform.

    The train rows and the test rows are read from the file in one pass,
    a piece at a time, each piece's rows going to the array of their split
    mask, so the command reads the payload once and holds no full n x d
    matrix and no copy taken from one: at most the raw and the transformed
    train and test rows. The probe fits on whole arrays. Both splits are
    checked non-empty, with every label check, before the file is read.
    """
    probe_cfg = _field(cfg, "probe", dict, "")
    attributes = _field(probe_cfg, "attributes", list[str], "probe")
    _unique(attributes, "probe.attributes[{}]")
    params = {
        "l2": _field(probe_cfg, "l2", float, "probe", DEFAULT_L2),
        "max_iter": _field(probe_cfg, "max_iter", int, "probe", DEFAULT_MAX_ITER),
        "tol": _field(probe_cfg, "tol", float, "probe", DEFAULT_TOL),
    }
    for key, value in params.items():
        if value < 0:
            raise ConfigError(f"probe.{key} must be non-negative, got {value}")
    transform_path = _field(cfg, "transform", str, "", None)
    selections, provenance = _load_labels(cfg, (TRAIN, TEST), [(a, "group") for a in attributes])
    (train_mask, _, train_columns), (test_mask, _, test_columns) = selections
    # Each space's train and test rows serve every attribute, and the transform,
    # if any, maps those rows only.
    rows = {"raw": read_embeddings(cfg["data"]["embeddings"], (train_mask, test_mask))}
    transform, transform_blocks = _maybe_transform(transform_path)
    if transform_blocks:
        rows["transformed"] = tuple(map(transform, rows["raw"]))

    records = []
    for attribute in attributes:
        train_labels, test_labels = (c[attribute, "group"] for c in (train_columns, test_columns))
        counts = test_labels.counts()
        performance = {"majority_rate": float(counts.max() / counts.sum())}
        details = {}
        for space, (train_rows, test_rows) in rows.items():
            model = fit_probe(train_rows, train_labels, **params)
            performance[f"accuracy_{space}"] = evaluate_probe(model, test_rows, test_labels)
            performance[f"training_loss_{space}"] = model.training_loss
            details[space] = {
                "iterations": model.iterations,
                "grad_max": model.grad_max,
                "converged": model.converged,
            }
        records.append(
            {"task_name": f"probe:{attribute}", "performance": performance,
             "probe_config": params, "details": details}
        )
    return build_report(
        "probe",
        cfg,
        records,
        transform_blocks,
        extra={"dataset": provenance},
    )


def cmd_synth(cfg: dict) -> dict:
    """Generate a synthetic dataset and write its embedding and label files."""
    params = _field(cfg, "synth", dict, "")
    spec = SynthSpec(
        n=_field(params, "n", int, "synth"),
        d=_field(params, "d", int, "synth"),
        p=_field(params, "p", int, "synth"),
        bias_dims=tuple(_field(params, "bias_dims", list[int], "synth", [])),
        bias_strength=_field(params, "bias_strength", float, "synth", 0.0),
        concept_dims=tuple(_field(params, "concept_dims", list[int], "synth", [])),
        concept_strength=_field(params, "concept_strength", float, "synth", None),
        seed=_field(params, "seed", int, "synth", 0),
    )
    if spec.p < 2:
        raise ConfigError(f"synth.p must be at least 2, got {spec.p}")
    if spec.n < 2 * spec.p:
        raise ConfigError(f"synth.n must be at least 2p = {2 * spec.p}, got {spec.n}")
    if spec.d < 1:  # before max_n below divides by it
        raise ConfigError(f"synth.d must be at least 1, got {spec.d}")
    for key in ("bias_dims", "concept_dims"):
        for i, dim in enumerate(getattr(spec, key)):
            if not 0 <= dim < spec.d:
                raise ConfigError(f"synth.{key}[{i}] must be in [0, {spec.d}), got {dim}")
        _unique(getattr(spec, key), f"synth.{key}[{{}}]")
    shared = sorted(set(spec.bias_dims) & set(spec.concept_dims))
    if shared:
        raise ConfigError(f"synth.concept_dims shares dimension {shared[0]} with synth.bias_dims")
    for key in ("bias_strength", "concept_strength"):
        value = getattr(spec, key)
        if value is not None and value < 0.0:
            raise ConfigError(f"synth.{key} must be non-negative, got {value}")
    if spec.seed < 0:
        raise ConfigError(f"synth.seed must be a non-negative integer, got {spec.seed}")
    # numpy cannot address an n x d float64 array of more bytes than intp can count
    max_n = np.iinfo(np.intp).max // (8 * spec.d)
    if spec.n > max_n:
        raise ConfigError(f"synth.n must be at most {max_n} for d={spec.d}, got {spec.n}")
    output = _field(cfg, "output", dict, "")
    embeddings_path = _field(output, "embeddings", str, "output")
    labels_path = _field(output, "labels", str, "output")
    dataset = generate(spec)
    write_embeddings(dataset.embeddings, embeddings_path)
    write_label_table(
        labels_path,
        {
            "group": [str(int(g)) for g in dataset.protected.labels],
            "concept": [str(int(c)) for c in dataset.ground_truth.labels],
            "split": [str(s) for s in dataset.split],
        },
    )
    details = {
        "spec": spec.to_dict(),
        "train_items": int(dataset.train_mask.sum()),
        "test_items": int(dataset.test_mask.sum()),
        "files": {"embeddings": embeddings_path, "labels": labels_path},
    }
    return build_report("synth", cfg, [{"task_name": "synth", "details": details}])


COMMANDS: dict[str, Callable[[dict], dict]] = {
    "classify-audit": cmd_classify_audit,
    "retrieve-audit": cmd_retrieve_audit,
    "debias-fit": cmd_debias_fit,
    "apply": cmd_apply,
    "probe": cmd_probe,
    "synth": cmd_synth,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flens",
        description="Fairness audits and debiasing for precomputed embedding spaces",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="declarative JSON config file")
        cmd.add_argument("--out", default=None, help="report destination (JSON)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        report = COMMANDS[args.command](cfg)
        if args.out:
            write_report(report, args.out)
        else:
            sys.stdout.write(render_json(report).decode("utf-8"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (FlensError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
