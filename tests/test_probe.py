"""Linear probe tests: fitting, evaluation, gradients, reference oracle."""

import numpy as np
import pytest

from flens.core import GroupLabels
from flens.errors import DataError
from flens.mitigation import apply_fair_pca, fit_fair_pca
from flens.probe import LOSS_BLOCK_ROWS, evaluate_probe, fit_probe, loss_and_gradient
from flens.synth import SynthSpec, generate

from .oracles import oracle_probe_loss


def two_clusters(n=200, d=6, gap=8.0, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.tile([0, 1], n // 2)
    values = rng.normal(size=(n, d))
    values[:, 0] += np.where(labels == 0, -gap / 2, gap / 2)
    return values, GroupLabels(labels, 2)


class TestFitProbe:
    def test_separable_data_perfect_train_accuracy(self):
        embeddings, labels = two_clusters()
        model = fit_probe(embeddings, labels, l2=1e-4)
        assert evaluate_probe(model, embeddings, labels) == 1.0

    def test_no_signal_near_majority(self):
        rng = np.random.default_rng(1)
        n = 1200
        train = rng.normal(size=(n, 8))
        test = rng.normal(size=(400, 8))
        train_labels = GroupLabels(rng.permutation(np.tile([0, 1], n // 2)), 2)
        test_labels = GroupLabels(np.tile([0, 1], 200), 2)
        model = fit_probe(train, train_labels)
        acc = evaluate_probe(model, test, test_labels)
        assert abs(acc - 0.5) < 0.05

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(2)
        n, d, classes = 160, 5, 3
        x = rng.normal(size=(n, d))
        y = rng.integers(0, classes, size=n)
        y[:classes] = np.arange(classes)
        x[np.arange(n), y % d] += 1.5
        # the oracle is steepest descent: it needs thousands of steps to reach tol
        model = fit_probe(x, GroupLabels(y, classes), l2=1e-3, max_iter=3000, tol=1e-8)
        assert model.converged
        reference = oracle_probe_loss(x, y, classes, l2=1e-3, max_iter=3000, tol=1e-8)
        assert model.training_loss == pytest.approx(reference, abs=1e-6)

    def test_converges_to_tol(self):
        embeddings, labels = two_clusters(n=120, seed=9)
        model = fit_probe(embeddings, labels, tol=1e-7)
        assert model.converged
        assert model.grad_max < 1e-7
        assert 0 < model.iterations < 1000
        x, y = embeddings, labels.labels
        grad_w, grad_b = loss_and_gradient(model.weights, model.bias, x, y, 2, 1e-4)[2:]
        assert max(np.abs(grad_w).max(), np.abs(grad_b).max()) == model.grad_max

    def test_capped_fit_reports_not_converged(self):
        embeddings, labels = two_clusters(n=120, seed=9)
        model = fit_probe(embeddings, labels, max_iter=3)
        assert (model.iterations, model.converged) == (3, False)
        assert model.grad_max >= 1e-6

    def test_fewer_loss_evaluations_than_gradient_descent(self, monkeypatch):
        import flens.probe

        evaluations = []

        def counting(*args):
            evaluations.append(1)
            return loss_and_gradient(*args)

        monkeypatch.setattr(flens.probe, "loss_and_gradient", counting)
        ds = generate(SynthSpec(n=1000, d=24, p=3, bias_dims=(0, 1), bias_strength=3.0, seed=4))
        train = np.flatnonzero(ds.train_mask)
        model = fit_probe(ds.embeddings.values[train], ds.protected.take(train), max_iter=200)
        # steepest descent with the same line search ends these 200 steps at max-norm 6.7e-3
        assert model.converged
        assert len(evaluations) < 200

    def test_stagnation_stops_the_fit_unconverged(self, monkeypatch):
        """A tol float64 cannot reach ends the fit once a step no longer lowers the objective."""
        import flens.probe

        evaluations = []

        def counting(*args):
            evaluations.append(1)
            return loss_and_gradient(*args)

        monkeypatch.setattr(flens.probe, "loss_and_gradient", counting)
        ds = generate(SynthSpec(n=300, d=8, p=3, seed=5))
        model = fit_probe(ds.embeddings.values, ds.protected, tol=0.0, max_iter=300)
        # without the stop, this fit runs all 300 iterations in 3 730 evaluations
        assert not model.converged
        assert model.iterations < 300
        assert len(evaluations) < 100

    def test_single_class_rejected(self):
        embeddings, _ = two_clusters(n=10)
        with pytest.raises(DataError, match="training labels contain fewer than two classes"):
            fit_probe(embeddings, GroupLabels(np.ones(10, dtype=int), 2))

    def test_deterministic(self):
        embeddings, labels = two_clusters(seed=3)
        a = fit_probe(embeddings, labels)
        b = fit_probe(embeddings, labels)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.training_loss == b.training_loss

    def test_monotone_descent(self):
        # zero init makes a k-iteration fit a prefix of a longer fit
        embeddings, labels = two_clusters(n=60, seed=4)
        losses = []
        for max_iter in range(1, 25):
            model = fit_probe(embeddings, labels, max_iter=max_iter, tol=0.0)
            objective = model.training_loss + 0.5 * 1e-4 * float(np.sum(model.weights**2))
            losses.append(objective)
        assert all(a >= b - 1e-15 for a, b in zip(losses, losses[1:]))


def whole_array_objective(w, b, x, y, classes, l2):
    """The probe objective over all rows at once: (objective, data term, grad_w, grad_b)."""
    n = x.shape[0]
    logits = np.vstack([w @ x.T + b[:, None], np.zeros((1, n))])
    log_probs = logits - logits.max(axis=0)
    log_probs -= np.log(np.exp(log_probs).sum(axis=0))
    data_loss = -log_probs[y, np.arange(n)].mean()
    residual = np.exp(log_probs)
    residual[y, np.arange(n)] -= 1.0
    grad_w = residual[: classes - 1] @ x / n + l2 * w
    grad_b = residual[: classes - 1].sum(axis=1) / n
    return data_loss + 0.5 * l2 * np.sum(w * w), data_loss, grad_w, grad_b


B = LOSS_BLOCK_ROWS


class TestGradient:
    @pytest.mark.parametrize("classes", [2, 4, 8])
    @pytest.mark.parametrize("n", [B - 1, B, 2 * B, 3 * B + 17])
    def test_blocked_objective_matches_whole_array(self, n, classes):
        """Every block counts, the last partial one too, and the data term is one mean over n."""
        rng = np.random.default_rng(n * classes)
        d = 7
        x = rng.normal(size=(n, d))
        # the data term of each block differs, so a per-block mean differs from the whole mean
        x[: n // 3] *= 4.0
        y = rng.integers(0, classes, size=n)
        w = rng.normal(size=(classes - 1, d))
        b = rng.normal(size=classes - 1)
        got = loss_and_gradient(w, b, x, y, classes, 1e-3)
        want = whole_array_objective(w, b, x, y, classes, 1e-3)
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0)
        for got_grad, want_grad in zip(got[2:], want[2:]):
            assert got_grad.shape == want_grad.shape
            np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12, atol=0)

    def test_gradient_matches_central_differences(self):
        self.check_central_differences(n=40)

    def test_gradient_matches_central_differences_across_blocks(self):
        self.check_central_differences(n=3 * B + 17)

    @staticmethod
    def check_central_differences(n):
        rng = np.random.default_rng(5)
        d, classes = 4, 3
        x = rng.normal(size=(n, d))
        y = rng.integers(0, classes, size=n)
        for _ in range(5):
            w = rng.normal(size=(classes - 1, d))
            b = rng.normal(size=classes - 1)
            _, _, grad_w, grad_b = loss_and_gradient(w, b, x, y, classes, l2=1e-3)
            h = 1e-6
            for index in np.ndindex(w.shape):
                bump = np.zeros_like(w)
                bump[index] = h
                up = loss_and_gradient(w + bump, b, x, y, classes, 1e-3)[0]
                down = loss_and_gradient(w - bump, b, x, y, classes, 1e-3)[0]
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(grad_w[index]), 1e-8)
                assert abs(grad_w[index] - numeric) / denom < 1e-5
            for j in range(classes - 1):
                bump = np.zeros_like(b)
                bump[j] = h
                up = loss_and_gradient(w, b + bump, x, y, classes, 1e-3)[0]
                down = loss_and_gradient(w, b - bump, x, y, classes, 1e-3)[0]
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(grad_b[j]), 1e-8)
                assert abs(grad_b[j] - numeric) / denom < 1e-5


class TestEvaluateProbe:
    def test_constant_features_predict_one_class(self):
        embeddings, labels = two_clusters(n=100, seed=6)
        model = fit_probe(embeddings, labels)
        constant = np.zeros((40, embeddings.shape[1]))
        eval_labels = GroupLabels(np.tile([0, 1], 20), 2)
        acc = evaluate_probe(model, constant, eval_labels)
        predictions = model.predict(constant)
        assert np.unique(predictions).size == 1
        frequency = np.mean(eval_labels.labels == predictions[0])
        assert acc == pytest.approx(frequency)

    def test_fair_pca_drives_protected_probe_to_chance(self):
        ds = generate(SynthSpec(n=3000, d=32, p=2, bias_dims=(0, 1), bias_strength=6.0, seed=7))
        train = np.flatnonzero(ds.train_mask)
        test = np.flatnonzero(ds.test_mask)
        transform, _ = fit_fair_pca(ds.embeddings.values[train], ds.protected.take(train))
        projected = apply_fair_pca(transform, ds.embeddings.values)
        model = fit_probe(projected[train], ds.protected.take(train))
        acc = evaluate_probe(model, projected[test], ds.protected.take(test))
        assert abs(acc - 0.5) < 0.05

    def test_multiclass_predictions(self):
        rng = np.random.default_rng(8)
        n, p = 300, 3
        labels = np.tile(np.arange(p), n // p)
        values = rng.normal(size=(n, 4))
        values[np.arange(n), labels] += 6.0
        model = fit_probe(values, GroupLabels(labels, p))
        assert evaluate_probe(model, values, GroupLabels(labels, p)) > 0.98


class TestFairPcaMonotonicity:
    def test_probe_accuracy_never_increases_after_fair_pca(self):
        # planted bias makes the drop strict on every instance
        for seed in range(50):
            ds = generate(
                SynthSpec(n=400, d=10, p=2, bias_dims=(0,), bias_strength=3.0, seed=seed)
            )
            train = np.flatnonzero(ds.train_mask)
            test = np.flatnonzero(ds.test_mask)
            raw = fit_probe(ds.embeddings.values[train], ds.protected.take(train), max_iter=200)
            raw_acc = evaluate_probe(raw, ds.embeddings.values[test], ds.protected.take(test))
            transform, _ = fit_fair_pca(ds.embeddings.values[train], ds.protected.take(train))
            projected = apply_fair_pca(transform, ds.embeddings.values)
            fair = fit_probe(projected[train], ds.protected.take(train), max_iter=200)
            fair_acc = evaluate_probe(fair, projected[test], ds.protected.take(test))
            assert fair_acc < raw_acc, seed


class TestFairPcaProbeInvariant:
    """Fair PCA fit on the train rows leaves a linear probe of the same attribute nothing.

    The transformed train rows have zero mean and zero covariance with every
    demeaned group indicator, so the probe loss's weight gradient is zero at
    zero weights whatever the bias: the fit keeps zero weights and predicts
    one class, a train-majority one, for every row.
    """

    @pytest.mark.parametrize("unequal", [False, True])
    @pytest.mark.parametrize("n, d, p", [(2000, 16, 3), (1001, 8, 2), (3000, 32, 5)])
    def test_zero_weights_and_one_majority_class(self, n, d, p, unequal):
        for seed in range(5):
            spec = SynthSpec(n=n, d=d, p=p, bias_dims=(0, 1), bias_strength=4.0, seed=seed)
            ds = generate(spec)
            train = np.flatnonzero(ds.train_mask)
            if unequal:  # drop about 40 % of group 0's train rows
                keep = np.random.default_rng(seed).random(train.size) >= 0.4
                train = train[keep | (ds.protected.labels[train] != 0)]
            groups = ds.protected.take(train)
            transform, _ = fit_fair_pca(ds.embeddings.values[train], groups)
            projected = apply_fair_pca(transform, ds.embeddings.values)
            model = fit_probe(projected[train], groups)
            assert np.max(np.abs(model.weights)) <= 1e-9, seed
            predictions = model.predict(projected[ds.test_mask])
            counts = groups.counts()
            assert np.unique(predictions).size == 1, seed
            assert counts[predictions[0]] == counts.max(), seed
