"""Acceptance suite: one test per release criterion, with stated tolerances.

Each test prints a PASS line once its assertions hold (visible with
``pytest -s`` or in the captured output), so the suite doubles as a
checklist. Budgeted criteria assert their own wall-clock limits.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import alexandergovern as scipy_alexandergovern

from flens.cli import main
from flens.core import EmbeddingMatrix, GroupLabels
from flens.errors import DataError
from flens.io import (
    deserialize_transform,
    read_embeddings,
    read_label_table,
    serialize_transform,
    write_embeddings,
    write_label_table,
    write_report,
)
from flens.metrics import (
    ddp_classification,
    ddp_rep,
    ddp_retrieval,
    dtpr,
    skew_at_k,
)
from flens.mitigation import (
    apply_fair_pca,
    apply_mi_clip,
    fit_fair_pca,
    fit_mi_clip,
)
from flens.probe import evaluate_probe, fit_probe, loss_and_gradient
from flens.stats import alexander_govern
from flens.synth import SynthSpec, generate
from flens.tasks import balanced_retrieval

from .helpers import cosine_similarity_matrix, read_report, train_rows
from .oracles import (
    oracle_ddp_classification,
    oracle_ddp_rep,
    oracle_ddp_retrieval,
    oracle_dtpr,
    oracle_skew,
)


def _pass(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def test_metric_oracle_suite():
    """All five disparity metrics match standalone oracles to 1e-12 on
    1000 random instances each (p in 2..7, n <= 200), in under 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        p = int(rng.integers(2, 8))
        sizes = rng.integers(1, max(2, 200 // p), size=p)
        n = int(sizes.sum())
        groups = np.repeat(np.arange(p), sizes)
        rng.shuffle(groups)
        predictions = rng.choice([-1, 1], size=n)

        ours = ddp_classification(predictions == 1, GroupLabels(groups, p)).value
        ref = oracle_ddp_classification(predictions.tolist(), groups.tolist(), p)
        assert abs(ours - ref) <= 1e-12

        truth = np.where(rng.random(n) < 0.6, 1, -1)
        for g in range(p):
            truth[np.flatnonzero(groups == g)[0]] = 1
        ours = dtpr(predictions == 1, truth == 1, GroupLabels(groups, p)).value
        ref = oracle_dtpr(predictions.tolist(), truth.tolist(), groups.tolist(), p)
        assert abs(ours - ref) <= 1e-12

        z = rng.integers(2, 200 // p + 2, size=p)
        k = np.minimum(rng.integers(0, 200 // p + 1, size=p), z - 1)
        if k.sum() == 0:
            k[int(rng.integers(p))] = 1
        ours = ddp_retrieval(k, z).value
        ref = oracle_ddp_retrieval(k.tolist(), z.tolist())
        assert abs(ours - ref) <= 1e-12

        ours = skew_at_k(k).value
        ref = oracle_skew(k.tolist(), [1.0 / p] * p)
        if math.isinf(ref):
            assert math.isinf(ours)
        else:
            assert abs(ours - ref) <= 1e-12

        pos = rng.integers(0, 40, size=p)
        if pos.sum() == 0:
            pos[0] = 1
        ours = ddp_rep(pos.tolist()).value
        ref = oracle_ddp_rep(pos.tolist())
        assert abs(ours - ref) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"metric oracle suite took {elapsed:.1f}s"
    _pass(f"metric-oracle suite (5x1000 instances, {elapsed:.1f}s)")


def test_zero_equivalence_property():
    """Retrieval disparity is 0 exactly when per-group selection rates are
    equal, over 10000 random partitions with every group selected."""
    rng = np.random.default_rng(7)
    checked_zero = checked_nonzero = 0
    for trial in range(10000):
        p = int(rng.integers(2, 8))
        if trial % 2 == 0:
            # constructed proportional selection: rate = a/b for every group
            b = int(rng.integers(2, 6))
            a = int(rng.integers(1, b))
            scale = rng.integers(1, 7, size=p)
            z = scale * b
            k = scale * a
        else:
            z = rng.integers(2, 40, size=p)
            k = rng.integers(1, z + 1)
            if k.sum() == z.sum():
                k[int(rng.integers(p))] -= 1
                if k.min() == 0:
                    continue
        assert k.min() >= 1
        value = ddp_retrieval(k, z).value
        # independent check via exact integer cross-multiplication
        k_total, z_total = int(k.sum()), int(z.sum())
        equal_rates = all(int(k[i]) * z_total == int(z[i]) * k_total for i in range(p))
        # the classification-form disparity on selection indicators
        indicator_preds = np.concatenate([np.arange(z[g]) < k[g] for g in range(p)])
        indicator_groups = np.repeat(np.arange(p), z)
        eq1 = ddp_classification(indicator_preds, GroupLabels(indicator_groups, p)).value
        assert (value == 0.0) == equal_rates, (k, z)
        assert (eq1 == 0.0) == equal_rates, (k, z)
        checked_zero += equal_rates
        checked_nonzero += not equal_rates
    assert checked_zero > 1000 and checked_nonzero > 1000
    _pass(
        f"zero-equivalence on 10000 partitions ({checked_zero} zero, {checked_nonzero} nonzero)"
    )


@pytest.mark.parametrize("p", [2, 7])
def test_fair_pca_constraint(p):
    """Projected train data decorrelated from every demeaned group indicator
    (<1e-6) with orthonormal projection (<1e-10), n=2000, d=64, under 5 s."""
    start = time.perf_counter()
    ds = generate(
        SynthSpec(n=2000, d=64, p=p, bias_dims=(0, 1, 2), bias_strength=5.0, seed=31 + p)
    )
    transform, _ = fit_fair_pca(*train_rows(ds))
    idx = np.flatnonzero(ds.train_mask)
    projected = apply_fair_pca(transform, ds.embeddings.values)[idx]
    onehot = np.zeros((idx.size, p))
    onehot[np.arange(idx.size), ds.protected.labels[idx]] = 1.0
    indicators = onehot - onehot.mean(axis=0)
    proj_std = (projected - projected.mean(axis=0)) / projected.std(axis=0)
    ind_std = indicators / indicators.std(axis=0)
    corr = proj_std.T @ ind_std / idx.size
    assert np.max(np.abs(corr)) < 1e-6
    gram = transform.projection.T @ transform.projection
    assert np.max(np.abs(gram - np.eye(transform.projection.shape[1]))) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"fair PCA criterion took {elapsed:.1f}s"
    _pass(f"fair PCA constraint p={p} (max |corr|={np.max(np.abs(corr)):.2e}, {elapsed:.1f}s)")


def test_linear_probe_analog():
    """Planted bias (strength 6): protected probe >0.95 raw and <0.55 after
    fair PCA; concept probe moves by <0.05. Under 30 s."""
    start = time.perf_counter()
    ds = generate(
        SynthSpec(
            n=4000, d=64, p=2, bias_dims=(0, 1), bias_strength=6.0,
            concept_dims=(4, 5), seed=17,
        )
    )
    train = np.flatnonzero(ds.train_mask)
    test = np.flatnonzero(ds.test_mask)
    transform, _ = fit_fair_pca(*train_rows(ds))
    projected = apply_fair_pca(transform, ds.embeddings.values)

    def probe_accuracy(features, labels):
        model = fit_probe(features[train], labels.take(train), max_iter=500)
        return evaluate_probe(model, features[test], labels.take(test))

    protected_raw = probe_accuracy(ds.embeddings.values, ds.protected)
    protected_fair = probe_accuracy(projected, ds.protected)
    concept_raw = probe_accuracy(ds.embeddings.values, ds.ground_truth)
    concept_fair = probe_accuracy(projected, ds.ground_truth)
    assert protected_raw > 0.95
    assert protected_fair < 0.55
    assert abs(concept_fair - concept_raw) < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"probe analog took {elapsed:.1f}s"
    _pass(
        "probe analog (protected {:.3f}->{:.3f}, concept {:.3f}->{:.3f}, {:.1f}s)".format(
            protected_raw, protected_fair, concept_raw, concept_fair, elapsed
        )
    )


def test_mi_clip_trend_analog():
    """Cutting the 8 planted dims of 64 drives the protected probe below 0.6
    while the concept probe stays above 0.9; masks nest across all m pairs."""
    bias_dims = tuple(range(8))
    concept_dims = tuple(range(8, 16))
    ds = generate(
        SynthSpec(
            n=4000, d=64, p=2, bias_dims=bias_dims, bias_strength=6.0,
            concept_dims=concept_dims, seed=23,
        )
    )
    fit_rows = train_rows(ds)
    transform, details = fit_mi_clip(*fit_rows, m=64 - 8)
    assert details["cut_dims"] == list(bias_dims)
    clipped = apply_mi_clip(transform, ds.embeddings.values)
    train = np.flatnonzero(ds.train_mask)
    test = np.flatnonzero(ds.test_mask)

    protected_model = fit_probe(clipped[train], ds.protected.take(train), max_iter=500)
    protected_acc = evaluate_probe(protected_model, clipped[test], ds.protected.take(test))
    concept_model = fit_probe(clipped[train], ds.ground_truth.take(train), max_iter=500)
    concept_acc = evaluate_probe(concept_model, clipped[test], ds.ground_truth.take(test))
    assert protected_acc < 0.6
    assert concept_acc > 0.9

    m_grid = [4, 8, 16, 24, 32, 40, 48, 56, 63]
    masks = {m: fit_mi_clip(*fit_rows, m=m)[0].keep_mask for m in m_grid}
    for small in m_grid:
        for large in m_grid:
            if small < large:
                kept_small = set(np.flatnonzero(masks[small]))
                kept_large = set(np.flatnonzero(masks[large]))
                assert kept_small <= kept_large, (small, large)
    _pass(
        f"MI-clip trend analog (protected {protected_acc:.3f}, concept {concept_acc:.3f}, "
        f"nested over {len(m_grid)} masks)"
    )


def test_alexander_govern_reference_and_calibration():
    """Matches the independent reference to 1e-8 on 100 seeded instances and
    rejects at 0.05 +/- 0.02 under the unequal-variance null. Under 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(1994)
    for _ in range(100):
        p = int(rng.integers(2, 7))
        samples = [
            rng.normal(
                loc=rng.normal(scale=2.0),
                scale=rng.uniform(0.3, 4.0),
                size=int(rng.integers(3, 60)),
            )
            for _ in range(p)
        ]
        ours = alexander_govern(samples)
        ref = scipy_alexandergovern(*samples)
        assert abs(ours.statistic - ref.statistic) <= 1e-8
        assert abs(ours.p_value - ref.pvalue) <= 1e-8

    sims = 10000
    scales = np.array([1.0, 2.0, 4.0])
    draws = rng.standard_normal(size=(sims, 3, 50)) * scales[None, :, None]
    rejections = 0
    for s in range(sims):
        result = alexander_govern([draws[s, 0], draws[s, 1], draws[s, 2]])
        rejections += result.p_value < 0.05
    rate = rejections / sims
    assert abs(rate - 0.05) <= 0.02, f"null rejection rate {rate:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"AG criterion took {elapsed:.1f}s"
    _pass(f"Alexander-Govern (100 oracle matches, null rate {rate:.4f}, {elapsed:.1f}s)")


def test_balanced_retrieval_zero_skew():
    """Skew@k is exactly 0 whenever k is divisible by p and every group query
    has enough own-group candidates; 100 random instances."""
    rng = np.random.default_rng(77)
    for _ in range(100):
        p = int(rng.integers(2, 6))
        per_round = int(rng.integers(1, 7))
        k = p * per_round
        group_sizes = rng.integers(per_round, per_round + 12, size=p)
        n = int(group_sizes.sum())
        labels = np.repeat(np.arange(p), group_sizes)
        values = rng.normal(scale=0.2, size=(n, p))
        values[np.arange(n), labels] += 10.0
        queries = np.eye(p)
        sims = cosine_similarity_matrix(values, queries)
        selected = np.bincount(labels[balanced_retrieval(sims, k)], minlength=p)
        assert selected.tolist() == [per_round] * p
        assert skew_at_k(selected).value == 0.0
    _pass("balanced retrieval zero skew on 100 instances")


def test_probe_gradient_check():
    """Analytic gradient matches central differences to relative 1e-5 at 20
    random parameter points."""
    rng = np.random.default_rng(55)
    for point in range(20):
        n = int(rng.integers(20, 60))
        d = int(rng.integers(2, 6))
        classes = int(rng.integers(2, 5))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, classes, size=n)
        l2 = float(rng.uniform(0.0, 0.1))
        w = rng.normal(size=(classes - 1, d))
        b = rng.normal(size=classes - 1)
        _, _, grad_w, grad_b = loss_and_gradient(w, b, x, y, classes, l2)
        h = 1e-6
        flat = list(np.ndindex(w.shape)) + [("b", j) for j in range(classes - 1)]
        for coord in flat:
            if coord[0] == "b":
                bump = np.zeros_like(b)
                bump[coord[1]] = h
                up = loss_and_gradient(w, b + bump, x, y, classes, l2)[0]
                down = loss_and_gradient(w, b - bump, x, y, classes, l2)[0]
                analytic = grad_b[coord[1]]
            else:
                bump = np.zeros_like(w)
                bump[coord] = h
                up = loss_and_gradient(w + bump, b, x, y, classes, l2)[0]
                down = loss_and_gradient(w - bump, b, x, y, classes, l2)[0]
                analytic = grad_w[coord]
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(analytic - numeric) / denom < 1e-5
    _pass("probe gradient check at 20 random points")


def test_io_round_trips(tmp_path):
    """Write/read/write is bit-identical for every format; corrupted headers
    are rejected."""
    rng = np.random.default_rng(3)
    matrix = EmbeddingMatrix(rng.normal(size=(20, 6)).astype(np.float32))
    emb_a, emb_b = tmp_path / "a.femb", tmp_path / "b.femb"
    write_embeddings(matrix, emb_a)
    write_embeddings(EmbeddingMatrix(read_embeddings(emb_a)), emb_b)
    assert emb_a.read_bytes() == emb_b.read_bytes()

    labels_a, labels_b = tmp_path / "a.csv", tmp_path / "b.csv"
    columns = {"group": ["x", "y", "x"], "split": ["train", "test", "test"]}
    write_label_table(labels_a, columns)
    table = read_label_table(labels_a)
    del table["item_id"]
    write_label_table(labels_b, table)
    assert labels_a.read_bytes() == labels_b.read_bytes()

    ds = generate(SynthSpec(n=300, d=10, p=2, bias_dims=(0,), bias_strength=4.0, seed=4))
    for transform, _ in (fit_fair_pca(*train_rows(ds)), fit_mi_clip(*train_rows(ds), m=6)):
        blob = serialize_transform(transform, {"attribute_source": "groundTruth"})
        back, meta = deserialize_transform(blob)
        assert serialize_transform(back, meta) == blob

    report = {"schema_version": 1, "tasks": [{"task_name": "t", "value": 0.5}]}
    rep_a, rep_b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(report, rep_a)
    write_report(read_report(rep_a), rep_b)
    assert rep_a.read_bytes() == rep_b.read_bytes()

    corrupted = bytearray(emb_a.read_bytes())
    corrupted[0] = 0x00
    bad_path = tmp_path / "bad.femb"
    bad_path.write_bytes(bytes(corrupted))
    with pytest.raises(DataError, match="neither binary embeddings nor text"):
        read_embeddings(bad_path)

    blob = bytearray(serialize_transform(fit_mi_clip(*train_rows(ds), m=6)[0]))
    blob[0] ^= 0xFF
    with pytest.raises(DataError, match="bad transform magic"):
        deserialize_transform(bytes(blob))
    blob = bytearray(serialize_transform(fit_mi_clip(*train_rows(ds), m=6)[0]))
    blob[-1] ^= 0xFF
    with pytest.raises(DataError, match="transform container failed its checksum"):
        deserialize_transform(bytes(blob))

    versioned = bytearray(emb_a.read_bytes())
    versioned[8] = 9
    bad_version = tmp_path / "v.femb"
    bad_version.write_bytes(bytes(versioned))
    with pytest.raises(DataError, match="unsupported version 9"):
        read_embeddings(bad_version)
    _pass("IO round trips bit-identical; corrupted headers rejected")


def test_cli_determinism(tmp_path):
    """Any CLI command run twice on identical inputs yields byte-identical
    reports."""
    emb = tmp_path / "items.femb"
    labels = tmp_path / "labels.csv"
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(
        json.dumps(
            {
                "synth": {
                    "n": 400, "d": 12, "p": 2, "bias_dims": [0, 1],
                    "bias_strength": 6.0, "seed": 5,
                },
                "output": {"embeddings": str(emb), "labels": str(labels)},
            }
        )
    )
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["synth", "--config", str(synth_cfg), "--out", str(s1)]) == 0
    assert main(["synth", "--config", str(synth_cfg), "--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()

    queries = np.zeros((2, 12))
    queries[0, [0, 1]] = 1.0
    queries[1, [0, 1]] = -1.0
    queries_path = tmp_path / "q.femb"
    write_embeddings(EmbeddingMatrix(queries), queries_path)
    audit_cfg = tmp_path / "audit.json"
    audit_cfg.write_text(
        json.dumps(
            {
                "data": {"embeddings": str(emb), "labels": str(labels), "attribute": "group"},
                "queries": str(queries_path),
                "tasks": [{"name": "pair", "class_a": 0, "class_b": 1}],
            }
        )
    )
    fit_cfg = tmp_path / "fit.json"
    fit_cfg.write_text(
        json.dumps(
            {
                "data": {"embeddings": str(emb), "labels": str(labels), "attribute": "group"},
                "method": "miclip",
                "miclip": {"m": 8},
                "transform_out": str(tmp_path / "t.ftfm"),
            }
        )
    )
    for command, cfg in (("classify-audit", audit_cfg), ("debias-fit", fit_cfg)):
        a, b = tmp_path / f"{command}-1.json", tmp_path / f"{command}-2.json"
        assert main([command, "--config", str(cfg), "--out", str(a)]) == 0
        assert main([command, "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), command
    _pass("CLI determinism: byte-identical reports")
