"""Discriminative-feature training pieces: the island loss (center loss
plus a pairwise center-cosine penalty) with its analytic gradients and
center maintenance, and the one-vs-rest linear SVM used by both fusion
paths.

The island loss over a batch (x_i, y_i) with per-class centers c_j is

    0.5 * sum_i ||x_i - c_{y_i}||^2
    + lambda1 * sum_j sum_{k != j} (cos(c_k, c_j) + 1)

with the double sum running over ordered pairs, so every unordered pair
is counted twice.
"""

from dataclasses import dataclass

import numpy as np

from .core import (N_CLASSES, ROW_BLOCK, check_count, check_labels, check_real, check_shape,
                   read_model, require_key)


class ZeroNormCenter(ValueError):
    pass


class SingleClass(ValueError):
    pass


@dataclass(frozen=True)
class LinearSvmModel:
    W: np.ndarray  # (7, D)
    b: np.ndarray  # (7,)
    C: float

    def __post_init__(self):
        object.__setattr__(self, "W", check_shape(self.W, (N_CLASSES, None), "weights"))
        object.__setattr__(self, "b", check_shape(self.b, (N_CLASSES,), "bias"))
        object.__setattr__(self, "C", check_real(self.C, "C", positive=True))


def _island(X, y, centers, lambda1):
    """One checked pass over a batch: lambda1, labels, x - c_y, the island loss, each
    center's summed pull sum(c_y - x), and lambda1 times the pairwise term's
    center gradient (0.0 when lambda1 is 0), to which each unordered pair adds
    d cos(c_k, c_j) / d c_j = c_k / (|c_k||c_j|) - cos(c_k, c_j) c_j / |c_j|^2 twice."""
    lambda1 = check_real(lambda1, "lambda1")
    centers = check_shape(centers, (None, None), "centers")
    X = check_shape(X, (None, centers.shape[1]), "batch")
    y = check_labels(y, n=len(X), classes=len(centers))
    diffs = X - centers[y]
    loss = 0.5 * np.sum(diffs ** 2)
    pull = np.zeros_like(centers)  # starts at +0 and never holds -0, so + 0.0 changes no bit
    np.add.at(pull, y, -diffs)
    pair = 0.0
    if lambda1 != 0:
        norms = np.linalg.norm(centers, axis=1)
        if np.any(norms == 0):
            raise ZeroNormCenter("the pairwise cosine term needs centers with nonzero norm")
        unit = centers / norms[:, None]
        cosines = unit @ unit.T
        n = centers.shape[0]
        loss += lambda1 * (cosines.sum() - np.trace(cosines) + n * (n - 1))
        cos_sum = cosines.sum(axis=1) - np.diag(cosines)
        pair = lambda1 * (2.0 * (unit.sum(axis=0) - unit - cos_sum[:, None] * unit)
                          / norms[:, None])
    return y, diffs, float(loss), pull, pair


def island_loss(X, y, centers, lambda1):
    """Island loss of a batch: center term plus pairwise cosine term."""
    return _island(X, y, centers, lambda1)[2]


def island_loss_grad(X, y, centers, lambda1):
    """Analytic gradients of the island loss w.r.t. the batch and centers."""
    _, diffs, _, pull, pair = _island(X, y, centers, lambda1)
    return diffs, pull + pair


def update_centers(X, y, centers, alpha, lambda1=0.0):
    """One damped center-maintenance step; returns the new centers.

    The center term moves c_j by the summed pull of its batch samples
    damped by 1 + n_j (n_j = batch count of class j); the pairwise term
    contributes its loss gradient scaled by lambda1.
    """
    alpha = check_real(alpha, "alpha", positive=True, high=1)
    y, _, _, pull, pair = _island(X, y, centers, lambda1)
    damped = pull / (1.0 + np.bincount(y, minlength=len(pull)))[:, None]
    return np.asarray(centers, dtype=np.float64) - alpha * (damped + pair)


def svm_train(X, y, C=1.0, epochs=30, seed=0):
    """One-vs-rest L2-regularized hinge loss via the deterministic
    Pegasos schedule.

    Each of the 7 binary problems shares the epoch-wise sample order
    drawn from the seed; step t uses learning rate eta = 1/(lambda_reg * t)
    with lambda_reg = 1/(C*n).  The bias rides along as a constant
    feature.  Identical inputs and seed give identical models.

    Each step works only on the rows whose hinge is active: after the
    margins and the shrink by 1 - eta*lambda_reg, the own-class row is
    violated when m < 1 (as -m > -1; negation is exact) and any other
    row when m > -1; the own row adds eta*x, other violated rows subtract
    it.  Bit for bit, that is adding (violated * s * eta) ⊗ x to W, s the
    ±1 class signs: a - b is exactly a + (-b); W starts at +0 and the
    first shrink, 1 - fl(fl(1/lambda_reg)*lambda_reg), is never negative,
    so no weight is -0 (short of underflow below the least subnormal) and
    a skipped ±0 add changes no bit.  Speed rests on few violated rows per
    step: all 7 take 7 row-update calls.  Samples are gathered
    ``ROW_BLOCK`` at a time, in epoch order, into a buffer whose last
    column is the bias's 1, so every dgemv gets the same contiguous row in
    the same order.  eta*x is taken once per gathered block, in one
    multiply, into its eta-scaled twin: per entry the same IEEE product as
    per step, eta exact in the bias column.  Memory: those two buffers and
    one gather temporary.
    """
    C = check_real(C, "C", positive=True)
    epochs, seed = check_count(epochs, "epochs"), check_count(seed, "seed", least=0)
    X = check_shape(X, (None, None), "features")
    y = check_labels(y, n=len(X))
    n, dim = X.shape
    n_found = np.count_nonzero(np.bincount(y, minlength=N_CLASSES))  # np.unique loads numpy.ma
    if n_found < 2:
        raise SingleClass(f"training labels hold {n_found} classes; at least 2 are needed")
    lam = 1.0 / (C * n)
    block = np.ones((min(ROW_BLOCK, n), dim + 1))  # gathered samples; the bias's 1 last
    scaled = np.empty_like(block)  # each gathered sample times its step's eta
    W = np.zeros((N_CLASSES, dim + 1))
    xs, steps_x, w_rows = list(block), list(scaled), list(W)  # their rows as (D+1,) views
    margin = np.empty(N_CLASSES)
    w_dot, multiply, add, subtract = W.dot, np.multiply, np.add, np.subtract
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        order = rng.permutation(n)
        eta = 1.0 / (lam * np.arange(epoch * n + 1, epoch * n + n + 1))
        # zip takes left to right, so zip(xs, steps_x, steps) stops at a block's end
        steps = zip(y[order].tolist(), (1.0 - eta * lam).tolist())
        for b0 in range(0, n, ROW_BLOCK):
            block[:n - b0, :dim] = X[order[b0:b0 + ROW_BLOCK]]
            multiply(block[:n - b0], eta[b0:b0 + ROW_BLOCK, None], scaled[:n - b0])
            for x, step, (own, shrink) in zip(xs, steps_x, steps):
                ms = w_dot(x, margin).tolist()
                ms[own] = -ms[own]
                multiply(W, shrink, W)
                for k, m in enumerate(ms):
                    if m > -1.0:
                        (add if k == own else subtract)(w_rows[k], step, w_rows[k])
    return LinearSvmModel(W=W[:, :dim].copy(), b=W[:, dim].copy(), C=C)


def svm_predict_batch(model, X):
    """Predicted labels for rows of an n×D matrix: the argmax of the
    scores W x + b, ties broken toward the lowest index."""
    X = check_shape(X, (None, model.W.shape[1]), "features")
    return np.argmax(X @ model.W.T + model.b, axis=1)


def svm_files(model, path, epochs, seed):
    """The model as a ``(path, kind, tensors, fields)`` save spec."""
    return (path, "linear_svm", {"weights": model.W, "bias": model.b},
            {"C": model.C, "shapes": {"weights": list(model.W.shape), "bias": list(model.b.shape)},
             "epochs": int(epochs), "seed": int(seed)})


def load_svm(path):
    """Read a model saved from :func:`svm_files`; errors name the file."""
    return read_model(path, "linear_svm", lambda doc, tensor: LinearSvmModel(
        W=tensor("weights"), b=tensor("bias"), C=require_key(doc, "C")))
