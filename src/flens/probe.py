"""Linear probes: logistic-regression classifiers on frozen embeddings.

A probe measures how much attribute information a representation retains,
so fitting must be reproducible: deterministic full-batch L-BFGS (Liu and
Nocedal 1989) from zero initialization, with an Armijo backtracking line
search. No stochasticity anywhere.

Multiclass probes use reference coding: one weight vector per class with
the last class pinned at zero logits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import GroupLabels
from .errors import DataError, NumericError

DEFAULT_L2 = 1e-4
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 1000

_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60
_HISTORY = 10  # (s, y) pairs kept for the L-BFGS direction


@dataclass(frozen=True, eq=False)
class ProbeModel:
    """Fitted probe: (classes-1) x d weights, per-class bias, final data loss.

    iterations is the number of L-BFGS steps taken, grad_max the objective's
    gradient max-norm where the fit stopped, and converged whether that
    max-norm fell below the fit's tol.
    """

    weights: np.ndarray
    bias: np.ndarray
    classes: int
    training_loss: float
    iterations: int
    grad_max: float
    converged: bool

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):  # a fit that diverged
            raise DataError("probe parameters must be finite")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        """Argmax class index per row; ties go to the lowest class index."""
        if embeddings.shape[1] != self.weights.shape[1]:
            raise DataError(f"probe expects d={self.weights.shape[1]}, got d={embeddings.shape[1]}")
        return np.argmax(_logits(embeddings, self.weights, self.bias), axis=0)


def _logits(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """classes x n logit matrix; the reference class's last row stays zero."""
    logits = np.zeros((w.shape[0] + 1, x.shape[0]))
    np.matmul(w, x.T, out=logits[:-1])
    logits[:-1] += b[:, None]
    return logits


def loss_and_gradient(
    w: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    classes: int,
    l2: float,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Objective value, data term, and gradients for the probe.

    Objective: mean cross-entropy plus 0.5 * l2 * sum(w**2). The bias is
    not penalized. Returns (objective, mean cross-entropy, grad_w, grad_b).
    """
    n = x.shape[0]
    columns = np.arange(n)
    log_probs = _logits(x, w, b)
    log_probs -= log_probs.max(axis=0)
    log_probs -= np.log(np.sum(np.exp(log_probs), axis=0))
    data_loss = float(-np.mean(log_probs[y, columns]))
    objective = data_loss + 0.5 * l2 * float(np.sum(w * w))
    residual = np.exp(log_probs, out=log_probs)
    residual[y, columns] -= 1.0
    free = residual[: classes - 1]
    grad_w = free @ x / n + l2 * w
    grad_b = free.sum(axis=1) / n
    return objective, data_loss, grad_w, grad_b


def _lbfgs_direction(grad: np.ndarray, pairs: deque) -> np.ndarray:
    """-H grad, for H the L-BFGS inverse-Hessian estimate from (s, y, 1/sᵀy) pairs.

    The two-loop recursion, with the initial estimate scaled by sᵀy/yᵀy of
    the newest pair; with no pairs it is the steepest-descent direction.
    """
    q = -grad
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        _, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return q


def fit_probe(
    train: np.ndarray,
    labels: GroupLabels,
    l2: float = DEFAULT_L2,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> ProbeModel:
    """Fit by full-batch L-BFGS with a backtracking line search; l2 is non-negative.

    Starts from zero parameters and stops when the gradient max-norm drops
    below tol, when max_iter L-BFGS steps were taken, or when the step the
    line search accepts does not strictly lower the objective, which leaves
    the fit where it was and unconverged.
    A (s, y) pair of non-positive curvature is not stored; a direction that
    does not descend is replaced by steepest descent, with the pairs dropped.
    """
    y, classes = labels.labels, labels.group_count
    n, d = train.shape
    if y.size != n:
        raise DataError("labels length differs from embedding rows")
    if y.min() == y.max():
        raise DataError("training labels contain fewer than two classes")
    split = (classes - 1) * d  # theta holds w row-major, then b

    def evaluate(theta: np.ndarray) -> tuple[float, float, np.ndarray]:
        w = theta[:split].reshape(classes - 1, d)
        value, data_loss, grad_w, grad_b = loss_and_gradient(w, theta[split:], train, y, classes, l2)
        return value, data_loss, np.concatenate([grad_w.ravel(), grad_b])

    theta = np.zeros(split + classes - 1)
    value, data_loss, grad = evaluate(theta)
    grad_max = float(np.max(np.abs(grad)))
    pairs: deque = deque(maxlen=_HISTORY)
    iterations = 0
    while iterations < max_iter and grad_max >= tol:
        direction = _lbfgs_direction(grad, pairs)
        slope = float(grad @ direction)
        if not slope < 0.0:
            pairs.clear()
            direction = -grad
            slope = -float(grad @ grad)
        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            trial_theta = theta + step * direction
            trial = evaluate(trial_theta)
            if trial[0] <= value + _ARMIJO_C1 * step * slope:
                break
            step *= _BACKTRACK
        else:
            raise NumericError("no descent step found; gradient may be inconsistent")
        if not trial[0] < value:
            break  # stagnated: float64 cannot lower the objective any further
        s = trial_theta - theta
        grad_change = trial[2] - grad
        curvature = float(s @ grad_change)
        if curvature > 0.0:
            pairs.append((s, grad_change, 1.0 / curvature))
        theta = trial_theta
        value, data_loss, grad = trial
        grad_max = float(np.max(np.abs(grad)))
        iterations += 1
    return ProbeModel(
        weights=theta[:split].reshape(classes - 1, d),
        bias=theta[split:],
        classes=classes,
        training_loss=data_loss,
        iterations=iterations,
        grad_max=grad_max,
        converged=grad_max < tol,
    )


def evaluate_probe(model: ProbeModel, test: np.ndarray, labels: GroupLabels) -> float:
    """Argmax-class accuracy of the probe on held-out data."""
    y = labels.labels
    if labels.group_count != model.classes:
        raise DataError(f"model has {model.classes} classes, labels imply {labels.group_count}")
    if y.size != len(test):
        raise DataError("labels length differs from embedding rows")
    predictions = model.predict(test)
    return float(np.count_nonzero(predictions == y) / y.size)
