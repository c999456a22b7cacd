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
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .core import (
    TRAIN,
    BinaryLabels,
    EmbeddingMatrix,
    GroupLabels,
    LabeledDataset,
    partition_by_group,
)
from .errors import ConfigError, DataError, FlensError, InvalidK, NumericError
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
    precision_at_k,
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


def _object(value: Any, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a JSON object")
    return value


def _require(cfg: Any, key: str, context: str = "config") -> Any:
    if key not in _object(cfg, context):
        raise ConfigError(f"{context}: missing required key {key!r}")
    return cfg[key]


def _require_list(cfg: Any, key: str, context: str = "config") -> list:
    value = _require(cfg, key, context)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{context}: {key} must be a non-empty list")
    return value


def _number(cast: Callable[[Any], Any], value: Any, context: str) -> Any:
    """Cast a config value with int or float; a non-number is a ConfigError."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{context}: expected a number, got {value!r}") from None


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _label_columns(cfg: dict) -> list[tuple[str, str]]:
    """(column, kind) of each label column named by tasks, retrieval queries or probe.

    Entries that are not JSON objects are skipped; the command's own loop
    rejects them.
    """
    specs = _require_list(cfg, "tasks") if "tasks" in cfg else []
    named = [(spec.get("ground_truth"), "binary") for spec in specs if isinstance(spec, dict)]
    if "retrieval" in cfg:
        specs = _require_list(cfg["retrieval"], "queries", "retrieval")
        named += [(spec.get("relevant"), "binary") for spec in specs if isinstance(spec, dict)]
    named = [(str(column), kind) for column, kind in named if column]
    if "probe" in cfg:
        attributes = _require_list(cfg["probe"], "attributes", "probe")
        named += [(str(attribute), "group") for attribute in attributes]
    return list(dict.fromkeys(named))


def _load_dataset(
    cfg: dict,
) -> tuple[LabeledDataset, dict[tuple[str, str], GroupLabels | BinaryLabels]]:
    """Read the embeddings and parse the label table exactly once.

    Besides the protected attribute and the split, every label column the
    config names is decoded here, keyed by (column, kind), so the parsed
    string table is freed on return.
    """
    data = _require(cfg, "data")
    embeddings = read_embeddings(_require(data, "embeddings", "data"))
    labels_path = _require(data, "labels", "data")
    table = read_label_table(labels_path)
    protected = decode_labels(table, _require(data, "attribute", "data"), "group", labels_path)
    split_column = data.get("split_column", "split")
    split = np.asarray(table[split_column]) if split_column in table else None
    columns = {key: decode_labels(table, *key, labels_path) for key in _label_columns(cfg)}
    dataset = LabeledDataset(embeddings=embeddings, protected=protected, split=split)
    return dataset, columns


def _apply_transform(
    transform: MiClipTransform | FairPcaTransform, embeddings: EmbeddingMatrix
) -> EmbeddingMatrix:
    if isinstance(transform, MiClipTransform):
        return apply_mi_clip(transform, embeddings)
    return apply_fair_pca(transform, embeddings)


def _maybe_transform(
    cfg: dict, *matrices: EmbeddingMatrix
) -> tuple[tuple[EmbeddingMatrix, ...], dict | None]:
    """Apply the configured transform, if any, to every matrix (single shared map)."""
    path = cfg.get("transform")
    if not path:
        return matrices, None
    transform, meta = read_transform(path)
    block = {"path": path, "kind": type(transform).__name__, "metadata": meta}
    return tuple(_apply_transform(transform, m) for m in matrices), block


def _test_view(dataset: LabeledDataset) -> tuple[np.ndarray, GroupLabels]:
    """Indices and protected labels of the evaluation (test) split."""
    idx = np.flatnonzero(dataset.test_mask)
    if idx.size == 0:
        raise DataError("no test items to evaluate")
    return idx, dataset.protected.take(idx)


def _untagged_record(task_name: str, **fields: Any) -> dict:
    """Report record for a task outside the audit taxonomy: fits, applies, probes, synth."""
    base = {"task_name": task_name, "taxonomy": None, "cell": None, "metrics": {}, "performance": {}}
    return {**base, **fields}


def _dataset_block(dataset: LabeledDataset, cfg: dict) -> dict:
    """Provenance echo: attribute name, its category-to-index mapping, sizes."""
    return {
        "attribute": cfg["data"]["attribute"],
        "group_names": list(dataset.protected.group_names or []),
        "group_count": dataset.protected.group_count,
        "items": dataset.n,
        "train_items": int(dataset.train_mask.sum()),
        "test_items": int(dataset.test_mask.sum()),
    }


def cmd_classify_audit(cfg: dict) -> dict:
    """Zero-shot classification audit: DDP always, DTPR/accuracy with ground truth."""
    dataset, columns = _load_dataset(cfg)
    queries = read_embeddings(_require(cfg, "queries"))
    tasks = _require_list(cfg, "tasks")
    (items, queries), transform_block = _maybe_transform(cfg, dataset.embeddings, queries)
    test_idx, groups = _test_view(dataset)
    test_items = items.take(test_idx)

    records = []
    for task in tasks:
        name = str(_require(task, "name", "task"))
        context = f"task {name!r}"
        a = _number(int, _require(task, "class_a", context), context)
        b = _number(int, _require(task, "class_b", context), context)
        if not (0 <= a < queries.rows and 0 <= b < queries.rows):
            raise ConfigError(f"task {name!r}: class row outside the query file")
        tags = TaxonomyTags(
            human_centric=bool(task.get("human_centric", True)),
            subjective=bool(task.get("subjective", True)),
            fairness_mode=INDEPENDENCE,
        )
        predictions = zero_shot_classify(test_items, queries.row(a), queries.row(b))
        record = {
            "task_name": name,
            "taxonomy": taxonomy_record(tags),
            "cell": cell_key(tags),
            "metrics": {"ddp_classification": metric_record(ddp_classification(predictions, groups))},
            "performance": {},
        }
        truth_column = task.get("ground_truth")
        if truth_column:
            truth = columns[str(truth_column), "binary"].take(test_idx)
            record["metrics"]["dtpr"] = metric_record(dtpr(predictions, truth, groups))
            record["performance"]["accuracy"] = accuracy(predictions, truth)
        records.append(record)
    return build_report(
        "classify-audit",
        cfg,
        records,
        [transform_block] if transform_block else [],
        extra={"dataset": _dataset_block(dataset, cfg)},
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
            performance["precision_at_k"] = precision_at_k(retrieved, relevant, k)
    return {"metrics": metrics, "performance": performance}


def cmd_retrieve_audit(cfg: dict) -> dict:
    """Top-k retrieval audit with per-query equal-means similarity tests."""
    dataset, columns = _load_dataset(cfg)
    retrieval = _require(cfg, "retrieval")
    k_list = [_number(int, k, "retrieval") for k in _require_list(retrieval, "k", "retrieval")]
    query_specs = _require_list(retrieval, "queries", "retrieval")
    query_matrix = read_embeddings(_require(cfg, "queries"))
    matrices = [dataset.embeddings, query_matrix]
    balanced_cfg = cfg.get("balanced")
    if balanced_cfg:
        matrices.append(read_embeddings(_require(balanced_cfg, "embeddings", "balanced")))
    transformed, transform_block = _maybe_transform(cfg, *matrices)
    items, query_matrix = transformed[0], transformed[1]
    balanced_matrix = transformed[2] if balanced_cfg else None
    test_idx, groups = _test_view(dataset)
    test_items = items.take(test_idx)
    n_test = test_items.rows
    p = groups.group_count

    queries = []
    for spec in query_specs:
        name = str(_require(spec, "name", "query"))
        row = _number(int, _require(spec, "row", f"query {name!r}"), f"query {name!r}")
        if not 0 <= row < query_matrix.rows:
            raise ConfigError(f"query {name!r}: row outside the query file")
        tags = TaxonomyTags(
            human_centric=bool(spec.get("human_centric", True)),
            subjective=bool(spec.get("subjective", True)),
            fairness_mode=str(spec.get("fairness_mode", INDEPENDENCE)),
        )
        relevant = None
        if spec.get("relevant"):
            relevance = columns[str(spec["relevant"]), "binary"].take(test_idx)
            relevant = np.flatnonzero(relevance.labels == 1)
        for k in k_list:
            if not 1 <= k <= n_test:
                raise InvalidK(f"k={k} outside [1, {n_test}] for query {name!r}")
        queries.append((name, row, tags, relevant))
    if balanced_matrix is not None:
        for k in k_list:
            if k < p:
                raise InvalidK(f"k={k} must be at least the group-query count {p}")
    max_k = max(k_list)
    query_rows = EmbeddingMatrix(query_matrix.values[[row for _, row, _, _ in queries]])
    sims = cosine_similarity_matrix(test_items, query_rows)

    records, balanced_records, similarity_tests = [], [], {}
    for position, (name, _, tags, relevant) in enumerate(queries):
        row_sims = sims[position][None, :]
        # Both rankings are made once at max(k); each smaller k reads a prefix.
        ranked = top_k(row_sims, max_k)[0].ranked_indices
        balanced_ranked = None
        if balanced_matrix is not None:
            # p group-specific rows per query, in the order queries are listed
            group_rows = balanced_matrix.values[position * p : (position + 1) * p]
            if group_rows.shape[0] != p:
                raise ConfigError(
                    f"balanced embeddings need {p} rows per query, query {name!r} overruns"
                )
            balanced_ranked = balanced_retrieval(
                test_items, EmbeddingMatrix(group_rows), max_k
            ).ranked_indices
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
        comparison = per_query_similarity_tests(row_sims, groups)[0]
        similarity_tests[name] = comparison_record(comparison)
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
        "dataset": _dataset_block(dataset, cfg),
        "similarity_tests": {k: similarity_tests[k] for k in sorted(similarity_tests)},
    }
    return build_report("retrieve-audit", cfg, records, blocks, extra)


def cmd_debias_fit(cfg: dict) -> dict:
    """Fit a debiasing transform on the train split and serialize it."""
    dataset, _ = _load_dataset(cfg)
    method = _require(cfg, "method")
    if method not in ("miclip", "fairpca"):
        raise ConfigError(f"method must be 'miclip' or 'fairpca', got {method!r}")
    source = cfg.get("attribute_source", GROUND_TRUTH)
    if source not in (GROUND_TRUTH, INFERRED):
        raise ConfigError(f"attribute_source must be {GROUND_TRUTH!r} or {INFERRED!r}")
    out_path = _require(cfg, "transform_out")

    train_idx = np.flatnonzero(dataset.train_mask)
    if train_idx.size == 0:
        raise DataError("train split is empty; nothing to fit on")
    train_items = dataset.embeddings.take(train_idx)
    if source == INFERRED:
        prompts_path = cfg.get("prompts")
        if not prompts_path:
            raise ConfigError("inferred attribute_source requires a prompts embeddings file")
        prompts = read_embeddings(prompts_path)
        protected = infer_protected_attribute(train_items, prompts)
    else:
        protected = dataset.protected.take(train_idx)
    fit_dataset = LabeledDataset(
        embeddings=train_items,
        protected=protected,
        split=np.full(train_items.rows, TRAIN, dtype="<U5"),
    )

    metadata = {"method": method, "attribute_source": source}
    details: dict[str, Any] = {"train_items": int(train_idx.size)}
    if method == "miclip":
        params = cfg.get("miclip", {})
        m = _number(int, _require(params, "m", "miclip"), "miclip")
        bins = _number(int, params.get("bins", 32), "miclip")
        transform = fit_mi_clip(fit_dataset, m=m, bins=bins)
        details.update(
            retained_dims=transform.output_dims,
            cut_dims=[int(i) for i in transform.removed_dims],
        )
        metadata.update(m=m, bins=bins)
    else:
        target_dim = _object(cfg.get("fairpca", {}), "fairpca").get("target_dim")
        if target_dim is not None:
            target_dim = _number(int, target_dim, "fairpca")
        transform = fit_fair_pca(fit_dataset, target_dim)
        details.update(
            target_dim=transform.target_dim,
            constraint_residual=transform.constraint_residual,
            orthonormality_residual=transform.orthonormality_residual,
        )
        metadata.update(target_dim=transform.target_dim)
    write_transform(transform, out_path, metadata)
    record = _untagged_record(f"debias-fit:{method}", details=sanitize(details))
    block = {"path": str(out_path), "kind": type(transform).__name__, "metadata": metadata}
    return build_report(
        "debias-fit", cfg, [record], [block], extra={"dataset": _dataset_block(dataset, cfg)}
    )


def cmd_apply(cfg: dict) -> dict:
    """Apply a serialized transform to an embeddings file."""
    source = read_embeddings(_require(cfg, "input"))
    transform, meta = read_transform(_require(cfg, "transform"))
    out_path = _require(cfg, "output")
    transformed = _apply_transform(transform, source)
    write_embeddings(transformed, out_path)
    shapes = {
        "input_shape": [source.rows, source.dims],
        "output_shape": [transformed.rows, transformed.dims],
    }
    record = _untagged_record("apply", details=shapes)
    block = {"path": cfg["transform"], "kind": type(transform).__name__, "metadata": meta}
    return build_report("apply", cfg, [record], [block])


def cmd_probe(cfg: dict) -> dict:
    """Linear-probe audit: per-attribute accuracy, before and after a transform."""
    dataset, columns = _load_dataset(cfg)
    probe_cfg = _require(cfg, "probe")
    attributes = _require_list(probe_cfg, "attributes", "probe")
    l2 = _number(float, probe_cfg.get("l2", DEFAULT_L2), "probe")
    max_iter = _number(int, probe_cfg.get("max_iter", DEFAULT_MAX_ITER), "probe")
    tol = _number(float, probe_cfg.get("tol", DEFAULT_TOL), "probe")
    (items,), transform_block = _maybe_transform(cfg, dataset.embeddings)
    train_idx = np.flatnonzero(dataset.train_mask)
    test_idx = np.flatnonzero(dataset.test_mask)
    if train_idx.size == 0 or test_idx.size == 0:
        raise DataError("probe audit needs non-empty train and test splits")

    records = []
    for attribute in (str(a) for a in attributes):
        labels = columns[attribute, "group"]
        train_labels, test_labels = labels.take(train_idx), labels.take(test_idx)
        counts = test_labels.counts()
        majority = float(counts.max() / counts.sum())
        raw_model = fit_probe(
            dataset.embeddings.take(train_idx), train_labels, l2=l2, max_iter=max_iter, tol=tol
        )
        raw_acc = evaluate_probe(raw_model, dataset.embeddings.take(test_idx), test_labels)
        performance = {
            "majority_rate": majority,
            "accuracy_raw": raw_acc,
            "training_loss_raw": raw_model.training_loss,
        }
        probe_config = {"l2": l2, "max_iter": max_iter, "tol": tol}
        record = _untagged_record(
            f"probe:{attribute}", performance=performance, probe_config=probe_config
        )
        if transform_block is not None:
            model = fit_probe(items.take(train_idx), train_labels, l2=l2, max_iter=max_iter, tol=tol)
            record["performance"]["accuracy_transformed"] = evaluate_probe(
                model, items.take(test_idx), test_labels
            )
            record["performance"]["training_loss_transformed"] = model.training_loss
        records.append(record)
    return build_report(
        "probe",
        cfg,
        records,
        [transform_block] if transform_block else [],
        extra={"dataset": _dataset_block(dataset, cfg)},
    )


def cmd_synth(cfg: dict, seed_override: int | None = None) -> dict:
    """Generate a synthetic dataset and write its embedding and label files."""
    params = dict(_object(_require(cfg, "synth"), "synth"))
    if seed_override is not None:
        params["seed"] = seed_override
    try:
        spec = SynthSpec(
            n=int(_require(params, "n", "synth")),
            d=int(_require(params, "d", "synth")),
            p=int(_require(params, "p", "synth")),
            bias_dims=tuple(params.get("bias_dims", ())),
            bias_strength=float(params.get("bias_strength", 0.0)),
            concept_dims=tuple(params.get("concept_dims", ())),
            concept_strength=params.get("concept_strength"),
            seed=int(params.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid synth parameters: {exc}") from exc
    dataset = generate(spec)
    output = _require(cfg, "output")
    embeddings_path = _require(output, "embeddings", "output")
    labels_path = _require(output, "labels", "output")
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
        "files": {"embeddings": str(embeddings_path), "labels": str(labels_path)},
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
