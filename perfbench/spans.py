"""Outside-in span tracing of flens's layers.

``install`` replaces each traced function, in every loaded ``flens.*``
module namespace that holds it (or on its class, for methods), with a
wrapper that records a span ``(layer, start, end, parent)`` in memory.
Hooks that compute counters at a layer boundary run on a clock that
excludes them, so they add to the traced wall time but to no span. A
layer's self time is its spans' duration minus their child spans.

Functions missing from the installed flens are skipped with a note: their
layer then reports zero calls.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

import numpy as np


def _arg(fn: Callable, args: tuple, kwargs: dict, name: str):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _rows_parsed(tracer, fn, args, kwargs, result, state):
    tracer.add("io.label_rows_parsed", len(result.get("item_id", ())))


def _file_bytes(counter: str):
    def hook(tracer, fn, args, kwargs, result, state):
        tracer.add(counter, os.path.getsize(_arg(fn, args, kwargs, "path")))
    return hook


def _similarity_flops(tracer, fn, args, kwargs, result, state):
    items, queries = _arg(fn, args, kwargs, "items"), _arg(fn, args, kwargs, "queries")
    tracer.add("tasks.similarity_flops", 2 * items.rows * queries.rows * items.dims)


def _take_bytes(tracer, fn, args, kwargs, result, state):
    array = getattr(result, "values", None)
    tracer.add("core.take.bytes", (array if array is not None else result.labels).nbytes)


def peak_rss_mb() -> float:
    """This process's peak resident set size, from VmHWM.

    ``ru_maxrss`` is not used: a child started by a large parent inherits
    the parent's high-water mark across fork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _fairpca_before(tracer, fn, args, kwargs):
    return peak_rss_mb()


def _fairpca_after(tracer, fn, args, kwargs, result, state):
    train = _arg(fn, args, kwargs, "train")
    n_train = int(np.count_nonzero(train.train_mask))
    # the full-matrices SVD of the n_train x d' projected data builds an n_train^2 U
    tracer.add("mitigation.fairpca_u_bytes", 8 * n_train * n_train)
    tracer.maximum("mitigation.fit_fair_pca.rss_rise_mb", peak_rss_mb() - state)


def probe_grad_max(weights, bias, x, labels, l2: float) -> float:
    """Max-norm of the probe objective's gradient at (weights, bias), from scratch.

    Objective: mean softmax cross-entropy over classes with the last class's
    logit pinned at zero, plus 0.5 * l2 * |weights|^2.
    """
    y = np.asarray(labels.labels)
    if not hasattr(labels, "group_count"):
        y = (y + 1) // 2
    n = x.shape[0]
    logits = np.concatenate([x @ weights.T + bias, np.zeros((n, 1))], axis=1)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(n), y] -= 1.0
    free = probs[:, : weights.shape[0]]
    grad_w = free.T @ x / n + l2 * weights
    grad_b = free.sum(axis=0) / n
    return float(max(np.abs(grad_w).max(), np.abs(grad_b).max()))


def _probe_grad(tracer, fn, args, kwargs, result, state):
    train = _arg(fn, args, kwargs, "train")
    grad = probe_grad_max(
        result.weights, result.bias, train.values, _arg(fn, args, kwargs, "labels"),
        float(_arg(fn, args, kwargs, "l2")),
    )
    tracer.maximum("probe.grad_max", grad)


# (layer, module, attribute, before hook, after hook). "cli" spans are opened
# by the pass runner around each flens.cli.main call.
TARGETS = (
    ("io.read_label_table", "flens.io", "read_label_table", None, _rows_parsed),
    ("io.read_labels", "flens.io", "read_labels", None, None),
    ("io.read_embeddings", "flens.io", "read_embeddings", None,
     _file_bytes("io.read_embeddings.bytes")),
    ("io.read_transform", "flens.io", "read_transform", None, None),
    ("io.write", "flens.io", "write_embeddings", None, _file_bytes("io.write.bytes")),
    ("io.write", "flens.io", "write_transform", None, _file_bytes("io.write.bytes")),
    ("io.write", "flens.io", "write_label_table", None, _file_bytes("io.write.bytes")),
    ("io.write_report", "flens.io", "write_report", None, _file_bytes("report.bytes")),
    ("tasks.cosine_similarity_matrix", "flens.tasks", "cosine_similarity_matrix", None,
     _similarity_flops),
    ("tasks.top_k", "flens.tasks", "top_k", None, None),
    ("tasks.balanced_retrieval", "flens.tasks", "balanced_retrieval", None, None),
    ("tasks.zero_shot_classify", "flens.tasks", "zero_shot_classify", None, None),
    ("tasks.infer_protected_attribute", "flens.tasks", "infer_protected_attribute", None, None),
    ("metrics", "flens.metrics", "ddp_classification", None, None),
    ("metrics", "flens.metrics", "ddp_retrieval", None, None),
    ("metrics", "flens.metrics", "dtpr", None, None),
    ("metrics", "flens.metrics", "skew_at_k", None, None),
    ("metrics", "flens.metrics", "ddp_rep", None, None),
    ("metrics", "flens.metrics", "accuracy", None, None),
    ("metrics", "flens.metrics", "precision_at_k", None, None),
    ("metrics", "flens.metrics", "recall_at_k", None, None),
    ("core.partition_by_group", "flens.core", "partition_by_group", None, None),
    ("core.take", "flens.core", "EmbeddingMatrix.take", None, _take_bytes),
    ("core.take", "flens.core", "GroupLabels.take", None, _take_bytes),
    ("core.take", "flens.core", "BinaryLabels.take", None, _take_bytes),
    ("stats.per_query_similarity_tests", "flens.stats", "per_query_similarity_tests", None, None),
    ("mitigation.fit_fair_pca", "flens.mitigation", "fit_fair_pca", _fairpca_before,
     _fairpca_after),
    ("mitigation.fit_mi_clip", "flens.mitigation", "fit_mi_clip", None, None),
    ("mitigation.estimate_mi_per_dimension", "flens.mitigation", "estimate_mi_per_dimension",
     None, None),
    ("mitigation.apply", "flens.mitigation", "apply_mi_clip", None, None),
    ("mitigation.apply", "flens.mitigation", "apply_fair_pca", None, None),
    ("probe.fit_probe", "flens.probe", "fit_probe", None, _probe_grad),
    ("probe.loss_and_gradient", "flens.probe", "loss_and_gradient", None, None),
    ("probe.evaluate_probe", "flens.probe", "evaluate_probe", None, None),
    ("report.build_report", "flens.report", "build_report", None, None),
)

LAYERS = ("cli",) + tuple(dict.fromkeys(t[0] for t in TARGETS))

# Counters recorded by hooks: name -> unit. "computed" marks values derived
# from array sizes rather than measured.
COUNTERS = {
    "io.label_rows_parsed": "count",
    "io.read_embeddings.bytes": "B",
    "io.write.bytes": "B",
    "report.bytes": "B",
    "tasks.similarity_flops": "flop-computed",
    "core.take.bytes": "B-computed",
    "mitigation.fairpca_u_bytes": "B-computed",
    "mitigation.fit_fair_pca.rss_rise_mb": "MB",
    "probe.grad_max": "max-abs",
    "probe.loss_evals": "count",
}


class Tracer:
    """In-memory span recorder on a clock that stops while hooks run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self._stack: list[int] = []
        self._excluded = 0.0
        self.counters: dict[str, float] = defaultdict(float)
        self.notes: list[str] = []

    def clock(self) -> float:
        return time.perf_counter() - self._excluded

    def add(self, name: str, value: float) -> None:
        self.counters[name] += value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters[name], value)

    def _open(self, layer: str) -> int:
        index = len(self.spans)
        self.spans.append([layer, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str):
        index = self._open(layer)
        try:
            yield
        finally:
            self._close(index)

    def _hook(self, hook: Callable, *args):
        start = time.perf_counter()
        try:
            return hook(self, *args)
        except Exception as exc:  # a hook must never change the traced program's outcome
            self.notes.append(f"hook {hook.__name__} failed: {exc!r}")
            return None
        finally:
            self._excluded += time.perf_counter() - start

    def wrap(self, layer: str, fn: Callable, before: Callable | None, after: Callable | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._hook(before, fn, args, kwargs) if before else None
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after:
                self._hook(after, fn, args, kwargs, result, state)
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer calls, inclusive seconds and self seconds, plus counters."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in LAYERS}
        for index, (layer, start, end, parent) in enumerate(self.spans):
            stats = layers[layer]
            stats["calls"] += 1
            stats["self_s"] += (end - start) - child_time[index]
            while parent >= 0 and self.spans[parent][0] != layer:
                parent = self.spans[parent][3]
            if parent < 0:  # count only the outermost span of a layer in its inclusive time
                stats["s"] += end - start
        self.counters["probe.loss_evals"] = layers["probe.loss_and_gradient"]["calls"]
        counters = {name: float(self.counters.get(name, 0.0)) for name in COUNTERS}
        return {"layers": layers, "counters": counters, "spans": len(self.spans),
                "notes": self.notes}


def install(tracer: Tracer) -> None:
    """Rebind every target in all loaded flens modules to a traced wrapper."""
    import flens.cli  # noqa: F401  (loads every module the commands use)

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "flens" or name.startswith("flens."))]
    for layer, module_name, attribute, before, after in TARGETS:
        owner = sys.modules.get(module_name)
        owner_name, _, name = attribute.rpartition(".")
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            tracer.notes.append(f"{module_name}.{attribute} not found; layer {layer} untraced")
            continue
        traced = tracer.wrap(layer, original, before, after)
        if owner_name:
            setattr(owner, name, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
