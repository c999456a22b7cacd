"""Command-line front end.

Subcommands: classify-audit, retrieve-audit, debias-fit, apply, probe,
synth. Every command reads a single declarative JSON config, echoes it
verbatim into the report, and writes the report as canonical JSON, so a
run is fully reproducible from its report alone. Identical inputs and
config produce byte-identical reports.

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
from .core import (
    TEST,
    TRAIN,
    BinaryLabels,
    EmbeddingMatrix,
    GroupLabels,
    LabeledDataset,
    partition_by_group,
    split_tags,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateVector,
    FlensError,
    InvalidK,
    NumericError,
)
from .io import (
    decode_labels,
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
    accuracy,
    ddp_classification,
    ddp_rep,
    ddp_retrieval,
    dtpr,
    skew_at_k,
)
from .mitigation import (
    FairPcaTransform,
    MiClipTransform,
    apply_fair_pca,
    apply_mi_clip,
    fit_fair_pca,
    fit_mi_clip,
)
from .probe import DEFAULT_L2, DEFAULT_MAX_ITER, DEFAULT_TOL, evaluate_probe, fit_probe
from .report import (
    build_report,
    cell_key,
    comparison_record,
    metric_record,
    sanitize,
    taxonomy_record,
)
from .stats import per_query_similarity_tests
from .synth import SynthSpec, generate
from .tasks import (
    DIVERSITY,
    INDEPENDENCE,
    TaxonomyTags,
    balanced_retrieval,
    cosine_similarity_matrix,
    infer_protected_attribute,
    top_k,
    zero_shot_classify,
)

GROUND_TRUTH = "groundTruth"
INFERRED = "inferred"
_EMPTY_SPLIT = {TEST: "no test items to evaluate", TRAIN: "train split is empty; nothing to fit on"}

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


def _load_dataset(
    cfg: dict, label_columns: Iterable[tuple[str, str]] = (), keep: str | None = None
) -> tuple[
    LabeledDataset, np.ndarray, dict[tuple[str, str], GroupLabels | BinaryLabels], dict
]:
    """Parse the label table exactly once, then read the embeddings rows of split ``keep``.

    Besides the protected attribute and the split, each (column, kind) in
    ``label_columns`` is decoded, so the parsed string table is freed on
    return. Every label check runs on the full table before the embeddings
    are read; then only the rows of split ``keep`` (every row when None) are
    widened. Returns the dataset of those rows, their row numbers in the
    embeddings file, the decoded columns at those rows, and the report's
    provenance block: attribute, groups, sizes.
    """
    data = _field(cfg, "data", dict, "")
    embeddings_path = _field(data, "embeddings", str, "data")
    labels_path = _field(data, "labels", str, "data")
    attribute = _field(data, "attribute", str, "data")
    split_column = _field(data, "split_column", str, "data", "split")
    table = read_label_table(labels_path)
    protected = decode_labels(table, attribute, "group", labels_path)
    columns = {key: decode_labels(table, *key, labels_path) for key in dict.fromkeys(label_columns)}
    split = split_tags(np.asarray(table[split_column]) if split_column in table else None, protected)
    del table  # freed before the embeddings are read
    provenance = {
        "attribute": attribute,
        "group_names": list(protected.group_names or []),
        "group_count": protected.group_count,
        "items": len(protected),
        "train_items": int(np.count_nonzero(split == TRAIN)),
        "test_items": int(np.count_nonzero(split == TEST)),
    }
    if keep is None:
        dataset = LabeledDataset(read_embeddings(embeddings_path), protected, split=split)
        return dataset, np.arange(dataset.n), columns, provenance
    mask = split == keep
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise DataError(_EMPTY_SPLIT[keep])
    embeddings = read_embeddings(embeddings_path, mask)
    dataset = LabeledDataset(embeddings, protected.take(rows), split=split[rows])
    return dataset, rows, {key: labels.take(rows) for key, labels in columns.items()}, provenance


def _apply_transform(
    transform: MiClipTransform | FairPcaTransform, embeddings: EmbeddingMatrix
) -> EmbeddingMatrix:
    if isinstance(transform, MiClipTransform):
        return apply_mi_clip(transform, embeddings)
    return apply_fair_pca(transform, embeddings)


def _transform_block(path: str, transform: MiClipTransform | FairPcaTransform, meta: dict) -> dict:
    """Report block naming a transform file, its kind and its metadata."""
    return {"path": path, "kind": type(transform).__name__, "metadata": meta}


def _maybe_transform(
    path: str | None, *matrices: EmbeddingMatrix
) -> tuple[tuple[EmbeddingMatrix, ...], dict | None]:
    """Apply the transform at path, if any, to every matrix (single shared map)."""
    if not path:
        return matrices, None
    transform, meta = read_transform(path)
    transformed = tuple(_apply_transform(transform, m) for m in matrices)
    return transformed, _transform_block(path, transform, meta)


def _load_test_split(
    cfg: dict, label_columns: Iterable[tuple[str, str]] = ()
) -> tuple[
    tuple[str, EmbeddingMatrix, np.ndarray],
    GroupLabels,
    dict[tuple[str, str], GroupLabels | BinaryLabels],
    dict,
]:
    """The evaluation (test) split: (embeddings file path, its raw test rows,
    their row numbers in that file), its protected labels and decoded
    ``label_columns``, plus the report's provenance block. Audits read no
    train row: only the test rows are widened to float64.
    """
    dataset, rows, columns, provenance = _load_dataset(cfg, label_columns, keep=TEST)
    items = (cfg["data"]["embeddings"], dataset.embeddings, rows)  # checked by _load_dataset
    return items, dataset.protected, columns, provenance


def _require_nonzero(kind: str, path: str, block: EmbeddingMatrix, rows: np.ndarray) -> None:
    """Raise DegenerateVector naming block's first zero-norm row by its row in its own file.

    The unit rows are cached, so the similarity pass reuses them.
    """
    try:
        block.unit_rows
    except DegenerateVector:
        zero = np.flatnonzero(np.linalg.norm(block.values, axis=1) == 0.0)
        raise DegenerateVector(f"{kind} row {int(rows[zero[0]])} of {path} has zero norm") from None


def _query_similarities(
    transform_path: str | None,
    items: tuple[str, EmbeddingMatrix, np.ndarray],
    sources: Sequence[tuple[str, str, EmbeddingMatrix, np.ndarray]],
) -> tuple[np.ndarray, dict | None]:
    """Score the named rows of each query file against the test items in one pass.

    ``items`` is (embeddings file path, test rows, their row numbers in that
    file). Each source is (kind, file path, query file, row numbers in that
    file); the transform at ``transform_path``, if any, is applied to the test
    items and to those rows only. The similarity rows follow the sources in
    order. A zero-norm row, query rows first, is reported by its kind and its
    row number in its own file.
    """
    items_path, test_items, item_rows = items
    (test_items, *blocks), transform_block = _maybe_transform(
        transform_path, test_items, *(matrix.take(rows) for _, _, matrix, rows in sources)
    )
    for block, (kind, path, _, rows) in zip(blocks, sources):
        _require_nonzero(kind, path, block, rows)
    _require_nonzero("item", items_path, test_items, item_rows)
    queries = EmbeddingMatrix(np.vstack([block.values for block in blocks]), finite=True)
    return cosine_similarity_matrix(test_items, queries), transform_block


def _untagged_record(task_name: str, **fields: Any) -> dict:
    """Report record for a task outside the audit taxonomy: fits, applies, probes, synth."""
    base = {"task_name": task_name, "taxonomy": None, "cell": None, "metrics": {}, "performance": {}}
    return {**base, **fields}


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
    queries_path = _field(cfg, "queries", str, "")
    transform_path = _field(cfg, "transform", str, "", None)
    items, groups, columns, provenance = _load_test_split(
        cfg, [(t, "binary") for *_, t in tasks if t]
    )
    queries = read_embeddings(queries_path)
    for name, a, b, *_ in tasks:
        if not (0 <= a < queries.rows and 0 <= b < queries.rows):
            raise ConfigError(f"task {name!r}: class row outside the query file")
    # Only the class rows the tasks name are transformed and scored, each once.
    class_rows = np.unique([row for _, a, b, *_ in tasks for row in (a, b)])
    sims, transform_block = _query_similarities(
        transform_path, items, [("class", queries_path, queries, class_rows)]
    )
    position = {int(row): i for i, row in enumerate(class_rows)}

    records = []
    for name, a, b, tags, truth_column in tasks:
        predictions = zero_shot_classify(sims[position[a]], sims[position[b]])
        record = {
            "task_name": name,
            "taxonomy": taxonomy_record(tags),
            "cell": cell_key(tags),
            "metrics": {"ddp_classification": metric_record(ddp_classification(predictions, groups))},
            "performance": {},
        }
        if truth_column:
            truth = columns[truth_column, "binary"]
            record["metrics"]["dtpr"] = metric_record(dtpr(predictions, truth, groups))
            record["performance"]["accuracy"] = accuracy(predictions, truth)
        records.append(record)
    return build_report(
        "classify-audit",
        cfg,
        records,
        [transform_block] if transform_block else [],
        extra={"dataset": provenance},
    )


def _retrieval_metrics(
    retrieved: np.ndarray,
    groups: GroupLabels,
    tags: TaxonomyTags,
    relevant: np.ndarray | None,
    k: int,
) -> dict:
    """Metric block for one query at one k, routed by fairness mode."""
    partition = partition_by_group(retrieved, groups)
    metrics: dict[str, dict] = {}
    performance: dict[str, float] = {}
    if tags.fairness_mode == INDEPENDENCE:
        metrics["ddp_retrieval"] = metric_record(ddp_retrieval(partition))
    else:
        metrics["skew_at_k"] = metric_record(skew_at_k(partition))
        if relevant is not None:
            hits = retrieved[np.isin(retrieved, relevant)]
            if hits.size:
                per_group = np.bincount(groups.labels[hits], minlength=groups.group_count)
                metrics["ddp_rep"] = metric_record(
                    ddp_rep(tuple(int(c) for c in per_group), int(hits.size))
                )
            # partition_by_group has checked `retrieved` for duplicates
            performance["precision_at_k"] = hits.size / k
    return {"metrics": metrics, "performance": performance}


def cmd_retrieve_audit(cfg: dict) -> dict:
    """Top-k retrieval audit with per-query equal-means similarity tests."""
    retrieval = _field(cfg, "retrieval", dict, "")
    k_list = _field(retrieval, "k", list[int], "retrieval")
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
    queries_path = _field(cfg, "queries", str, "")
    balanced = _field(cfg, "balanced", dict, "", None)
    balanced_path = _field(balanced, "embeddings", str, "balanced") if balanced else None
    transform_path = _field(cfg, "transform", str, "", None)
    items, groups, columns, provenance = _load_test_split(
        cfg, [(c, "binary") for *_, c in query_specs if c]
    )
    n_test, p = len(groups), groups.group_count
    query_file = read_embeddings(queries_path)
    balanced_file = read_embeddings(balanced_path) if balanced_path is not None else None

    queries = []
    for name, row, tags, relevant_column in query_specs:
        if not 0 <= row < query_file.rows:
            raise ConfigError(f"query {name!r}: row outside the query file")
        relevant = None
        if relevant_column:
            relevant = np.flatnonzero(columns[relevant_column, "binary"].labels == 1)
        for k in k_list:
            if not 1 <= k <= n_test:
                raise InvalidK(f"k={k} outside [1, {n_test}] for query {name!r}")
        queries.append((name, tags, relevant))
    # The query rows, then p group-specific balanced rows per query in the order
    # queries are listed: one similarity pass scores them all.
    query_rows = np.array([row for _, row, _, _ in query_specs])
    sources = [("query", queries_path, query_file, query_rows)]
    if balanced_file is not None:
        for k in k_list:
            if k < p:
                raise InvalidK(f"k={k} must be at least the group-query count {p}")
        if balanced_file.rows < len(queries) * p:
            name = queries[balanced_file.rows // p][0]
            raise ConfigError(
                f"balanced embeddings need {p} rows per query, query {name!r} overruns"
            )
        sources.append(("balanced", balanced_path, balanced_file, np.arange(len(queries) * p)))
    sims, transform_block = _query_similarities(transform_path, items, sources)

    q, max_k = len(queries), max(k_list)
    # Each row is ranked once, at max(k); each smaller k reads a prefix.
    ranked_lists = top_k(sims[:q], max_k)
    comparisons = per_query_similarity_tests(sims[:q], groups)
    records, balanced_records, similarity_tests = [], [], {}
    for position, (name, tags, relevant) in enumerate(queries):
        ranked = ranked_lists[position].ranked_indices
        balanced_ranked = None
        if balanced_file is not None:
            group_sims = sims[q + position * p : q + (position + 1) * p]
            balanced_ranked = balanced_retrieval(group_sims, max_k).ranked_indices
        for k in k_list:
            head = {
                "task_name": f"{name} @ k={k}",
                "taxonomy": taxonomy_record(tags),
                "cell": cell_key(tags),
            }
            block = _retrieval_metrics(ranked[:k], groups, tags, relevant, k)
            records.append({**head, **block})
            if balanced_ranked is not None:
                block = _retrieval_metrics(balanced_ranked[:k], groups, tags, relevant, k)
                balanced_records.append({**head, **block})
        similarity_tests[name] = comparison_record(comparisons[position])
    blocks = []
    if transform_block:
        blocks.append(transform_block)
    if balanced_records:
        blocks.append(
            {
                "name": "balanced-queries",
                "records": sorted(balanced_records, key=lambda r: r["task_name"]),
            }
        )
    extra = {
        "dataset": provenance,
        "similarity_tests": {k: similarity_tests[k] for k in sorted(similarity_tests)},
    }
    return build_report("retrieve-audit", cfg, records, blocks, extra)


def cmd_debias_fit(cfg: dict) -> dict:
    """Fit a debiasing transform on the train split and serialize it."""
    method = _field(cfg, "method", str, "")
    if method not in ("miclip", "fairpca"):
        raise ConfigError(f"method must be 'miclip' or 'fairpca', got {method!r}")
    source = _field(cfg, "attribute_source", str, "", GROUND_TRUTH)
    if source not in (GROUND_TRUTH, INFERRED):
        raise ConfigError(f"attribute_source must be {GROUND_TRUTH!r} or {INFERRED!r}")
    prompts_path = _field(cfg, "prompts", str, "", None) if source == INFERRED else None
    if source == INFERRED and not prompts_path:
        raise ConfigError("inferred attribute_source requires a prompts embeddings file")
    out_path = _field(cfg, "transform_out", str, "")
    method_cfg = _field(cfg, method, dict, "", {})
    if method == "miclip":
        params = {"m": _field(method_cfg, "m", int, method)}
        params["bins"] = _field(method_cfg, "bins", int, method, 32)
    else:
        params = {"target_dim": _field(method_cfg, "target_dim", int, method, None)}
    fit_dataset, _, _, provenance = _load_dataset(cfg, keep=TRAIN)
    if prompts_path:
        train_items = fit_dataset.embeddings
        protected = infer_protected_attribute(train_items, read_embeddings(prompts_path))
        fit_dataset = LabeledDataset(train_items, protected, split=fit_dataset.split)

    metadata = {"method": method, "attribute_source": source}
    details: dict[str, Any] = {"train_items": fit_dataset.n}
    if method == "miclip":
        transform = fit_mi_clip(fit_dataset, **params)
        details.update(
            retained_dims=transform.output_dims,
            cut_dims=[int(i) for i in transform.removed_dims],
        )
        metadata.update(params)
    else:
        transform = fit_fair_pca(fit_dataset, **params)
        details.update(
            target_dim=transform.target_dim,
            constraint_residual=transform.constraint_residual,
            orthonormality_residual=transform.orthonormality_residual,
        )
        metadata.update(target_dim=transform.target_dim)
    write_transform(transform, out_path, metadata)
    record = _untagged_record(f"debias-fit:{method}", details=sanitize(details))
    block = _transform_block(out_path, transform, metadata)
    return build_report("debias-fit", cfg, [record], [block], extra={"dataset": provenance})


def cmd_apply(cfg: dict) -> dict:
    """Apply a serialized transform to an embeddings file."""
    transform_path = _field(cfg, "transform", str, "")
    out_path = _field(cfg, "output", str, "")
    source = read_embeddings(_field(cfg, "input", str, ""))
    transform, meta = read_transform(transform_path)
    transformed = _apply_transform(transform, source)
    write_embeddings(transformed, out_path)
    shapes = {
        "input_shape": [source.rows, source.dims],
        "output_shape": [transformed.rows, transformed.dims],
    }
    record = _untagged_record("apply", details=shapes)
    return build_report("apply", cfg, [record], [_transform_block(transform_path, transform, meta)])


def cmd_probe(cfg: dict) -> dict:
    """Linear-probe audit: per-attribute accuracy, before and after a transform."""
    probe_cfg = _field(cfg, "probe", dict, "")
    attributes = _field(probe_cfg, "attributes", list[str], "probe")
    params = {
        "l2": _field(probe_cfg, "l2", float, "probe", DEFAULT_L2),
        "max_iter": _field(probe_cfg, "max_iter", int, "probe", DEFAULT_MAX_ITER),
        "tol": _field(probe_cfg, "tol", float, "probe", DEFAULT_TOL),
    }
    transform_path = _field(cfg, "transform", str, "", None)
    dataset, _, columns, provenance = _load_dataset(cfg, [(a, "group") for a in attributes])
    (items,), transform_block = _maybe_transform(transform_path, dataset.embeddings)
    train_idx = np.flatnonzero(dataset.train_mask)
    test_idx = np.flatnonzero(dataset.test_mask)
    if train_idx.size == 0 or test_idx.size == 0:
        raise DataError("probe audit needs non-empty train and test splits")
    # Each space's train and test rows are taken once and serve every attribute.
    spaces = {"raw": dataset.embeddings}
    if transform_block is not None:
        spaces["transformed"] = items
    rows = {space: (m.take(train_idx), m.take(test_idx)) for space, m in spaces.items()}

    records = []
    for attribute in attributes:
        labels = columns[attribute, "group"]
        train_labels, test_labels = labels.take(train_idx), labels.take(test_idx)
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
        record = _untagged_record(
            f"probe:{attribute}", performance=performance, probe_config=params, details=details
        )
        records.append(record)
    return build_report(
        "probe",
        cfg,
        records,
        [transform_block] if transform_block else [],
        extra={"dataset": provenance},
    )


def cmd_synth(cfg: dict, seed_override: int | None = None) -> dict:
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
        seed=_field(params, "seed", int, "synth", 0) if seed_override is None else seed_override,
    )
    if spec.seed < 0:
        source = "synth.seed" if seed_override is None else "--seed"
        raise ConfigError(f"{source} must be a non-negative integer, got {spec.seed}")
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
            "concept": [str((int(c) + 1) // 2) for c in dataset.ground_truth.labels],
            "split": [str(s) for s in dataset.split],
        },
    )
    details = {
        "spec": spec.to_dict(),
        "train_items": int(dataset.train_mask.sum()),
        "test_items": int(dataset.test_mask.sum()),
        "files": {"embeddings": embeddings_path, "labels": labels_path},
    }
    record = _untagged_record("synth", details=details)
    return build_report("synth", cfg, [record])


COMMANDS: dict[str, Callable[..., dict]] = {
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
        if name == "synth":
            cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.command == "synth":
            report = cmd_synth(cfg, seed_override=args.seed)
        else:
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
