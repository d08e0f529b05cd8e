"""Discriminative-feature training pieces: the island loss (center loss
plus a pairwise center-cosine penalty) with its analytic gradients,
center maintenance, a small softmax probe that demonstrates the loss on
toy data, and the one-vs-rest linear SVM used by both fusion paths.

The island loss over a batch (x_i, y_i) with per-class centers c_j is

    0.5 * sum_i ||x_i - c_{y_i}||^2
    + lambda1 * sum_j sum_{k != j} (cos(c_k, c_j) + 1)

with the double sum running over ordered pairs, so every unordered pair
is counted twice.
"""

from dataclasses import dataclass

import numpy as np

from .core import (N_CLASSES, check_count, check_labels, check_real, check_shape, read_model,
                   require_key, write_models)


class ZeroNormCenter(ValueError):
    pass


class SingleClass(ValueError):
    pass


class DegenerateInput(ValueError):
    pass


@dataclass(frozen=True)
class IslandLossParams:
    lambda1: float = 10.0  # weight of the pairwise center term inside the island loss
    lam: float = 0.01      # weight of the island loss against the softmax loss
    alpha: float = 0.5     # center learning rate

    def __post_init__(self):
        check_real(self.lambda1, "lambda1")
        check_real(self.lam, "lam")
        check_real(self.alpha, "alpha", positive=True, high=1)


@dataclass(frozen=True)
class LinearSvmModel:
    W: np.ndarray  # (7, D)
    b: np.ndarray  # (7,)
    C: float

    def __post_init__(self):
        object.__setattr__(self, "W", check_shape(self.W, (N_CLASSES, None), "weights"))
        object.__setattr__(self, "b", check_shape(self.b, (N_CLASSES,), "bias"))
        object.__setattr__(self, "C", check_real(self.C, "C", positive=True))


def _check_batch(X, y, centers):
    centers = check_shape(centers, (None, None), "centers")
    X = check_shape(X, (None, centers.shape[1]), "batch")
    return X, check_labels(y, n=len(X), classes=len(centers)), centers


def _unit_rows(centers):
    norms = np.linalg.norm(centers, axis=1)
    if np.any(norms == 0):
        raise ZeroNormCenter("the pairwise cosine term needs centers with nonzero norm")
    return centers / norms[:, None], norms


def island_loss(X, y, centers, lambda1):
    """Island loss of a batch: center term plus pairwise cosine term."""
    X, y, centers = _check_batch(X, y, centers)
    loss = 0.5 * np.sum((X - centers[y]) ** 2)
    if lambda1 != 0:
        unit, _ = _unit_rows(centers)
        cosines = unit @ unit.T
        n = centers.shape[0]
        loss += lambda1 * (cosines.sum() - np.trace(cosines) + n * (n - 1))
    return float(loss)


def _pairwise_center_grad(centers):
    """Gradient of sum_j sum_{k != j} (cos(c_k, c_j) + 1) w.r.t. each c_j.

    d cos(c_k, c_j) / d c_j = c_k / (|c_k||c_j|) - cos(c_k, c_j) c_j / |c_j|^2,
    and every unordered pair contributes from both orderings.
    """
    unit, norms = _unit_rows(centers)
    cosines = unit @ unit.T
    cos_sum = cosines.sum(axis=1) - np.diag(cosines)
    cross = unit.sum(axis=0) - unit
    return 2.0 * (cross - cos_sum[:, None] * unit) / norms[:, None]


def island_loss_grad(X, y, centers, lambda1):
    """Analytic gradients of the island loss w.r.t. the batch and centers."""
    X, y, centers = _check_batch(X, y, centers)
    diffs = X - centers[y]
    dX = diffs.copy()
    dC = np.zeros_like(centers)
    np.add.at(dC, y, -diffs)
    if lambda1 != 0:
        dC += lambda1 * _pairwise_center_grad(centers)
    return dX, dC


def update_centers(X, y, centers, alpha, lambda1=0.0):
    """One damped center-maintenance step; returns the new centers.

    The center term moves c_j by the summed pull of its batch samples
    damped by 1 + n_j (n_j = batch count of class j); the pairwise term
    contributes its loss gradient scaled by lambda1.
    """
    alpha = check_real(alpha, "alpha", positive=True, high=1)
    X, y, centers = _check_batch(X, y, centers)
    pull = np.zeros_like(centers)
    np.add.at(pull, y, centers[y] - X)
    counts = np.bincount(y, minlength=centers.shape[0])
    delta = pull / (1.0 + counts)[:, None]
    if lambda1 != 0:
        delta = delta + lambda1 * _pairwise_center_grad(centers)
    return centers - alpha * delta


@dataclass(frozen=True)
class SoftmaxProbe:
    W: np.ndarray        # (n_classes, d)
    b: np.ndarray        # (n_classes,)
    centers: np.ndarray  # (n_classes, n_classes), centers in logit space
    trace: np.ndarray    # per-epoch total loss


def softmax_probe_train(X, y, params=None, epochs=400, seed=0, lr=0.02):
    """Train a linear softmax classifier with island-loss regularization.

    The probe's logits z = Wx + b act as the feature layer: the island
    loss is evaluated on them and its centers live in logit space, so a
    positive ``params.lam`` pulls same-class logits toward their center
    while the pairwise term pushes centers apart.  With ``lam == 0`` the
    probe reduces to plain softmax regression (centers still track the
    class means of z, so clustering ratios stay comparable).  Fully
    deterministic given the seed.
    """
    params = params or IslandLossParams()
    lr = check_real(lr, "lr", positive=True)
    epochs = check_count(epochs, "epochs")
    seed = check_count(seed, "seed", least=0)
    X = check_shape(X, (None, None), "features")
    y = check_labels(y, n=len(X))
    m, d = X.shape
    n_classes = int(y.max(initial=0)) + 1
    if m < n_classes:
        raise DegenerateInput(f"{m} samples cannot cover {n_classes} classes")
    rng = np.random.default_rng(seed)
    W = 0.01 * rng.standard_normal((n_classes, d))
    b = np.zeros(n_classes)
    # Unit-scale center init: the pairwise cosine gradient scales with
    # 1/|c_j|, so near-zero centers would blow up the first updates.
    centers = rng.standard_normal((n_classes, n_classes))
    onehot = np.eye(n_classes)[y]
    island_active = params.lam > 0
    trace = np.empty(epochs)
    for epoch in range(epochs):
        z = X @ W.T + b
        shifted = z - z.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1))
        ce = float(np.mean(log_norm - shifted[np.arange(m), y]))
        total = ce
        if island_active:
            total += params.lam * island_loss(z, y, centers, params.lambda1)
        trace[epoch] = total
        probs = np.exp(shifted - log_norm[:, None])
        dz = (probs - onehot) / m
        if island_active:
            dz = dz + params.lam * (z - centers[y])
        W -= lr * (dz.T @ X)
        b -= lr * dz.sum(axis=0)
        centers = update_centers(z, y, centers, params.alpha,
                                 params.lambda1 if island_active else 0.0)
    return SoftmaxProbe(W=W, b=b, centers=centers, trace=trace)


def probe_features(probe, X):
    """The probe's feature-layer output (its logits) for a batch."""
    return check_shape(X, (None, probe.W.shape[1]), "features") @ probe.W.T + probe.b


def clustering_ratio(features, y, centers):
    """Mean intra-class distance over mean inter-center distance.

    Intra-class distance is the mean pairwise distance among same-class
    feature vectors (averaged over classes with at least two samples);
    inter-center distance is the mean pairwise distance among centers.
    """
    features, y, centers = _check_batch(features, y, centers)
    intra_terms = []
    for j in range(centers.shape[0]):
        grp = features[y == j]
        if grp.shape[0] < 2:
            continue
        dists = np.linalg.norm(grp[:, None, :] - grp[None, :, :], axis=2)
        intra_terms.append(dists.sum() / (grp.shape[0] * (grp.shape[0] - 1)))
    if not intra_terms:
        raise DegenerateInput("no class has two samples to measure intra-class distance")
    center_dists = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    n = centers.shape[0]
    inter = center_dists.sum() / (n * (n - 1))
    return float(np.mean(intra_terms) / inter)


def svm_train(X, y, C=1.0, epochs=30, seed=0):
    """One-vs-rest L2-regularized hinge loss via the deterministic
    Pegasos schedule.

    Each of the 7 binary problems shares the epoch-wise sample order
    drawn from the seed; step t uses learning rate 1/(lambda_reg * t)
    with lambda_reg = 1/(C*n).  The bias rides along as a constant
    feature.  Identical inputs and seed give identical models.

    Each step makes one dense update of all 7 rows into buffers
    allocated once, from rates computed per epoch: W shrinks by
    1 - eta*lambda_reg, then gains (violated * s * eta) ⊗ x, where s
    holds the sample's ±1 class signs.  The margin test s*m < 1 is
    m > -1 on the rows where s = -1 and m < 1 on the own-class row,
    exact because negation is.  The outer product is a (7,1)·(1,D+1)
    matrix product, one multiply per entry.  Its zeros (±0 on rows whose
    margin holds, +0 where BLAS adds a -0 product to 0) leave W's bits
    alone, since W starts at +0 and a sum is -0 only when both terms
    are.  So the model is byte-identical to updating only the violated
    rows.  Bound ``W.dot`` and ``coef_column.dot`` and positional ``out``
    arguments skip only numpy's Python-level dispatch: the same dgemv and
    dgemm run on the same operands in the same order, so no bit changes.
    """
    C = check_real(C, "C", positive=True)
    epochs = check_count(epochs, "epochs")
    seed = check_count(seed, "seed", least=0)
    X = check_shape(X, (None, None), "features")
    y = check_labels(y, n=len(X))
    n, dim = X.shape
    if np.unique(y).size < 2:
        raise SingleClass(f"training labels hold {np.unique(y).size} classes; at least 2 "
                          "are needed")
    lam = 1.0 / (C * n)
    Xa = np.hstack([X, np.ones((n, 1))])
    rows = Xa[:, None, :]  # each sample as a (1, D+1) row for the outer product
    signs = np.where(y[:, None] == np.arange(N_CLASSES)[None, :], 1.0, -1.0)
    W = np.zeros((N_CLASSES, dim + 1))
    margin = np.empty(N_CLASSES)
    violated = np.empty(N_CLASSES, dtype=bool)
    coef = np.empty(N_CLASSES)
    coef_column = coef[:, None]  # a view of coef, shaped for the outer product
    update = np.empty_like(W)
    w_dot, coef_dot = W.dot, coef_column.dot
    greater, multiply, add = np.greater, np.multiply, np.add
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        order = rng.permutation(n)
        eta = 1.0 / (lam * np.arange(epoch * n + 1, epoch * n + n + 1))
        rates = signs[order] * eta[:, None]
        for i, own, rate, shrink in zip(order.tolist(), y[order].tolist(), rates,
                                        (1.0 - eta * lam).tolist()):
            w_dot(Xa[i], margin)
            greater(margin, -1.0, violated)
            violated[own] = margin[own] < 1.0
            multiply(rate, violated, coef)
            multiply(W, shrink, W)
            coef_dot(rows[i], update)
            add(W, update, W)
    return LinearSvmModel(W=W[:, :dim].copy(), b=W[:, dim].copy(), C=C)


def svm_predict_batch(model, X):
    """Predicted labels for rows of an n×D matrix: the argmax of the
    scores W x + b, ties broken toward the lowest index."""
    X = check_shape(X, (None, model.W.shape[1]), "features")
    return np.argmax(X @ model.W.T + model.b, axis=1)


def svm_files(model, path, epochs=None, seed=None):
    """The model :func:`save_svm` saves, as ``core.write_models`` takes it."""
    return (path, "linear_svm", {"weights": model.W, "bias": model.b},
            {"C": model.C, "shapes": {"weights": list(model.W.shape), "bias": list(model.b.shape)},
             **{key: int(v) for key, v in (("epochs", epochs), ("seed", seed)) if v is not None}})


def save_svm(model, path, epochs=None, seed=None):
    write_models(svm_files(model, path, epochs, seed))


def load_svm(path):
    """Read a model written by :func:`save_svm`; errors name the file."""
    return read_model(path, "linear_svm", lambda doc, tensor: LinearSvmModel(
        W=tensor("weights"), b=tensor("bias"), C=require_key(doc, "C")))
