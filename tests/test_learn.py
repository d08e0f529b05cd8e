import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from avfusion import learn
from avfusion.core import (CHANNELS, N_CLASSES, DimensionMismatch, MissingKey, UnknownLabel,
                           read_tensor_array, write_models, write_tensor_array)
from avfusion.features import normalize_apply, normalize_fit
from avfusion.learn import (LinearSvmModel, SingleClass, ZeroNormCenter, island_loss,
                            island_loss_grad, load_svm, svm_files, svm_predict_batch, svm_train,
                            update_centers)
from avfusion.synth import BASELINE_INFORMATIVENESS, SynthConfig, synth_dataset, synth_generate


def gaussian_blobs(n_per_class, seed):
    """Toy 2-D blobs of the 7 classes: unit-noise Gaussians whose means lie
    evenly spaced on a circle of radius 3."""
    labels = np.repeat(np.arange(7), n_per_class)
    angles = 2.0 * np.pi * np.arange(7) / 7
    means = 3.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    return means[labels] + np.random.default_rng(seed).standard_normal((labels.size, 2)), labels


def island_loss_reference(X, y, centers, lambda1):
    """Independent scalar-arithmetic evaluator of the loss."""
    total = 0.0
    for i in range(len(X)):
        diff = [X[i][j] - centers[y[i]][j] for j in range(len(X[i]))]
        total += 0.5 * sum(v * v for v in diff)
    if lambda1:
        n = len(centers)
        for j in range(n):
            for k in range(n):
                if k == j:
                    continue
                dot = sum(centers[k][t] * centers[j][t] for t in range(len(centers[j])))
                nk = math.sqrt(sum(v * v for v in centers[k]))
                nj = math.sqrt(sum(v * v for v in centers[j]))
                total += lambda1 * (dot / (nk * nj) + 1.0)
    return total


def test_island_loss_orthogonal_centers():
    centers = np.eye(7) * 2.0
    X = centers.copy()
    y = np.arange(7)
    # 42 ordered pairs, each contributing cos 0 + 1
    assert island_loss(X, y, centers, 1.0) == pytest.approx(42.0, abs=1e-12)


def test_island_loss_hand_case():
    X = np.array([[1.0, 0.0]])
    centers = np.array([[1.0, 1.0]])
    assert island_loss(X, [0], centers, 0.0) == pytest.approx(0.5)


def test_island_loss_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        nc = int(rng.integers(3, 6))
        m = int(rng.integers(1, 9))
        X = rng.standard_normal((m, d))
        y = rng.integers(0, nc, m)
        centers = rng.standard_normal((nc, d)) + 0.3
        lambda1 = float(rng.choice([0.0, 1.0, 10.0]))
        ours = island_loss(X, y, centers, lambda1)
        ref = island_loss_reference(X.tolist(), y.tolist(), centers.tolist(), lambda1)
        assert ours == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))


def test_island_loss_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        X = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, 6)
        centers = rng.standard_normal((3, 4)) + 0.2
        assert island_loss(X, y, centers, rng.random() * 10) >= 0.0


def test_island_loss_rotation_invariant():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = 5
        X = rng.standard_normal((8, d))
        y = rng.integers(0, 4, 8)
        centers = rng.standard_normal((4, d)) + 0.3
        rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
        before = island_loss(X, y, centers, 3.0)
        after = island_loss(X @ rot, y, centers @ rot, 3.0)
        assert after == pytest.approx(before, abs=1e-9 * max(1.0, before))


def test_island_loss_zero_norm_center():
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ZeroNormCenter):
        island_loss(np.ones((1, 2)), [1], centers, 1.0)
    # no pairwise term, no error
    island_loss(np.ones((1, 2)), [1], centers, 0.0)


def test_island_batch_errors():
    centers = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    X = np.ones((2, 2))
    nan_X, nan_centers = X.copy(), centers.copy()
    nan_X[1, 0] = np.nan
    nan_centers[2, 1] = np.nan
    calls = (lambda X, y, c: island_loss(X, y, c, 1.0),
             lambda X, y, c: island_loss_grad(X, y, c, 1.0),
             lambda X, y, c: update_centers(X, y, c, 0.5, 1.0))
    for call in calls:
        with pytest.raises(ValueError):
            call(nan_X, [0, 1], centers)
        with pytest.raises(ValueError):
            call(X, [0, 1], nan_centers)
        with pytest.raises(ValueError):
            call(X, [0, 1.5], centers)  # not a center-row index
        with pytest.raises(ValueError):
            call(X, [0, 3], centers)
        with pytest.raises(DimensionMismatch):
            call(X, [0], centers)
        with pytest.raises(DimensionMismatch):
            call(np.ones((2, 3)), [0, 1], centers)


@pytest.mark.parametrize("lambda1", [math.nan, -1.0, math.inf, True])
def test_island_functions_refuse_a_bad_lambda1(lambda1):
    """The loss, its gradients and the center step share one lambda1 check."""
    calls = (lambda: island_loss(np.eye(2), [0, 1], np.eye(2), lambda1),
             lambda: island_loss_grad(np.eye(2), [0, 1], np.eye(2), lambda1),
             lambda: update_centers(np.eye(2), [0, 1], np.eye(2), 0.5, lambda1))
    for call in calls:
        with pytest.raises(ValueError, match=r"^lambda1 must be a real number in \[0, inf\), "
                                             rf"got {lambda1!r}$"):
            call()


def test_grad_at_stationary_point():
    centers = np.arange(12, dtype=float).reshape(3, 4) + 1.0
    y = np.array([0, 1, 2, 0])
    X = centers[y]
    dX, dC = island_loss_grad(X, y, centers, 0.0)
    assert np.allclose(dX, 0.0)
    assert np.allclose(dC, 0.0)


def test_grad_parallel_centers():
    # parallel pair: cosine at maximum, tangential gradient vanishes
    centers = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, -1.0]])
    _, dC = island_loss_grad(np.zeros((0, 2)), np.zeros(0, dtype=int), centers, 1.0)
    # isolate the (0,1) pair contribution by removing the third center's effect
    pair_only = np.array([[1.0, 1.0], [2.0, 2.0]])
    _, dC2 = island_loss_grad(np.zeros((0, 2)), np.zeros(0, dtype=int), pair_only, 1.0)
    assert np.allclose(dC2, 0.0, atol=1e-12)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(30):
        d = int(rng.integers(2, 17))
        nc = int(rng.integers(3, 8))
        m = int(rng.integers(2, 10))
        lambda1 = float(rng.choice([0.0, 1.0, 10.0]))
        X = rng.standard_normal((m, d))
        y = rng.integers(0, nc, m)
        centers = rng.standard_normal((nc, d)) + 0.5
        dX, dC = island_loss_grad(X, y, centers, lambda1)
        for arr, grad, tag in ((X, dX, "x"), (centers, dC, "c")):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                lp = island_loss(X, y, centers, lambda1)
                flat[idx] = orig - h
                lm = island_loss(X, y, centers, lambda1)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(gflat[idx]), 1e-8)
                assert abs(fd - gflat[idx]) / denom < 1e-4, (tag, idx)


def test_update_centers_no_samples():
    centers = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = update_centers(np.zeros((0, 2)), np.zeros(0, dtype=int), centers, 1.0, 0.0)
    assert np.array_equal(out, centers)


def test_update_centers_single_sample_halfway():
    centers = np.array([[0.0, 0.0], [5.0, 5.0]])
    x = np.array([[2.0, 4.0]])
    out = update_centers(x, [0], centers, 1.0, 0.0)
    assert np.allclose(out[0], [1.0, 2.0])  # moved halfway toward x
    assert np.array_equal(out[1], centers[1])


def test_update_centers_converges_to_class_mean():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 3)) + 2.0
    y = rng.integers(0, 3, 30)
    centers = rng.standard_normal((3, 3))
    for _ in range(200):
        centers = update_centers(X, y, centers, 0.5, 0.0)
    means = np.stack([X[y == j].mean(axis=0) for j in range(3)])
    assert np.max(np.abs(centers - means)) < 1e-6


@pytest.mark.parametrize("alpha", [0.0, 1.5, math.nan])
def test_update_centers_rejects_alpha_outside_unit_interval(alpha):
    centers = np.array([[0.0, 0.0], [5.0, 5.0]])
    with pytest.raises(ValueError,
                       match=rf"^alpha must be a real number in \(0, 1\], got {alpha}$"):
        update_centers(np.array([[2.0, 4.0]]), [0], centers, alpha)


def softmax_probe_reference(X, y, lam, lambda1, alpha, epochs, seed, lr):
    """A linear softmax classifier whose logits z = Wx + b act as the feature
    layer of the island loss, written with the public island_loss and
    update_centers: one softmax step, then one center step, per epoch.  The
    centers live in logit space; at lam 0 the loop is plain softmax
    regression, and its centers still track the class means of z, so
    clustering ratios stay comparable.  Returns W, b, the centers and the
    per-epoch total loss."""
    m, d = X.shape
    n_classes = int(y.max()) + 1
    rng = np.random.default_rng(seed)
    W = 0.01 * rng.standard_normal((n_classes, d))
    b = np.zeros(n_classes)
    # Unit-scale centers: the pairwise cosine gradient scales with 1/|c_j|.
    centers = rng.standard_normal((n_classes, n_classes))
    onehot = np.eye(n_classes)[y]
    active = lam > 0
    trace = np.empty(epochs)
    for epoch in range(epochs):
        z = X @ W.T + b
        shifted = z - z.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1))
        total = float(np.mean(log_norm - shifted[np.arange(m), y]))
        if active:
            total += lam * island_loss(z, y, centers, lambda1)
        trace[epoch] = total
        dz = (np.exp(shifted - log_norm[:, None]) - onehot) / m
        if active:
            dz = dz + lam * (z - centers[y])
        W -= lr * (dz.T @ X)
        b -= lr * dz.sum(axis=0)
        centers = update_centers(z, y, centers, alpha, lambda1 if active else 0.0)
    return W, b, centers, trace


def clustering_ratio(features, y, centers):
    """Mean intra-class distance over mean inter-center distance.

    Intra-class distance is the mean pairwise distance among same-class
    feature vectors (averaged over classes with at least two samples);
    inter-center distance is the mean pairwise distance among centers.
    """
    def mean_distance(rows):
        k = rows.shape[0]
        return np.linalg.norm(rows[:, None, :] - rows[None, :, :], axis=2).sum() / (k * (k - 1))

    groups = (features[y == j] for j in range(centers.shape[0]))
    return float(np.mean([mean_distance(g) for g in groups if g.shape[0] >= 2])
                 / mean_distance(centers))


def test_probe_plain_softmax_separable():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 2)) + [5, 0]
    b = rng.standard_normal((30, 2)) + [-5, 0]
    X = np.vstack([a, b])
    y = np.array([0] * 30 + [1] * 30)
    W, b, _, _ = softmax_probe_reference(X, y, lam=0.0, lambda1=10.0, alpha=0.5, epochs=600,
                                         seed=0, lr=0.2)
    assert np.mean(np.argmax(X @ W.T + b, axis=1) == y) == 1.0


def test_probe_loss_trace_decreases_with_small_steps():
    X, y = gaussian_blobs(20, seed=2)
    *_, trace = softmax_probe_reference(X, y, lam=0.0, lambda1=10.0, alpha=0.5, epochs=200,
                                        seed=0, lr=0.01)
    assert np.all(np.diff(trace) <= 1e-12)


def test_trainers_check_epochs_before_features():
    """svm_train checks epochs, then seed, then features, then labels."""
    bad_features = np.full((4, 2), np.nan)
    with pytest.raises(ValueError, match="^epochs must be an integer >= 1"):
        svm_train(bad_features, [0, 1, 0, 1], epochs=0, seed=-1)
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        svm_train(bad_features, [0, 1, 0, 1], epochs=1, seed=-1)
    with pytest.raises(ValueError, match="^features: contains non-finite values"):
        svm_train(bad_features, [0, 9], epochs=1)


@pytest.mark.parametrize("seed", [2.5, -1, True, "0", None, np.float64(1.0)])
def test_trainers_reject_bad_seed(seed):
    X, y = gaussian_blobs(3, seed=0)
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        svm_train(X, y, epochs=1, seed=seed)


def test_trainers_take_numpy_integer_seeds():
    X, y = gaussian_blobs(3, seed=0)
    assert np.array_equal(svm_train(X, y, epochs=2, seed=np.int64(4)).W,
                          svm_train(X, y, epochs=2, seed=4).W)
    assert np.array_equal(svm_train(X, y, epochs=2, seed=np.uint8(0)).W,
                          svm_train(X, y, epochs=2, seed=0).W)


@pytest.mark.parametrize("C", [0, -1.0, np.nan, np.inf])
def test_svm_rejects_bad_c(C):
    X = np.random.default_rng(12).standard_normal((20, 3))
    with pytest.raises(ValueError, match=rf"^C must be a real number in \(0, inf\), got {C}$"):
        svm_train(X, np.arange(20) % 7, C=C, epochs=1)


@pytest.mark.parametrize("epochs", [0, -3, 2.5, True])
def test_svm_rejects_bad_epochs(epochs):
    X = np.random.default_rng(13).standard_normal((20, 3))
    with pytest.raises(ValueError, match="epochs must be an integer >= 1"):
        svm_train(X, np.arange(20) % 7, epochs=epochs)


def test_svm_separable_blobs():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((60, 2)) + [4, 0]
    b = rng.standard_normal((60, 2)) + [-4, 0]
    X = np.vstack([a, b])
    y = np.array([0] * 60 + [1] * 60)
    model = svm_train(X, y, C=1.0, epochs=30, seed=0)
    assert np.mean(svm_predict_batch(model, X) == y) == 1.0


def test_svm_duplicate_points_same_decisions():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((60, 2)) + [4, 0]
    b = rng.standard_normal((60, 2)) + [-4, 0]
    X = np.vstack([a, b])
    y = np.array([0] * 60 + [1] * 60)
    m1 = svm_train(X, y, C=1.0, epochs=120, seed=0)
    m2 = svm_train(np.vstack([X, X]), np.hstack([y, y]), C=1.0, epochs=120, seed=0)
    # probe points spanning the data range; the averaged objective is
    # duplication-invariant, so decisions agree everywhere but in a
    # vanishing band around the boundary that the unit grid step avoids
    gx, gy = np.meshgrid(np.linspace(-8, 8, 17), np.linspace(-3, 3, 7))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    assert np.array_equal(svm_predict_batch(m1, grid), svm_predict_batch(m2, grid))


def test_svm_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 5))
    y = rng.integers(0, 3, 40)
    for run in range(2):
        model = svm_train(X, y, C=2.0, epochs=10, seed=9)
        write_models(svm_files(model, tmp_path / f"m{run}.json", epochs=10, seed=9))
    w0 = (tmp_path / "m0.weights.fvt").read_bytes()
    w1 = (tmp_path / "m1.weights.fvt").read_bytes()
    assert w0 == w1


def test_svm_predict_tie_breaks():
    model = LinearSvmModel(W=np.zeros((7, 3)), b=np.zeros(7), C=1.0)
    assert np.array_equal(svm_predict_batch(model, np.ones((4, 3))), np.zeros(4))
    bias = np.zeros(7)
    bias[5] = 1.0
    model = LinearSvmModel(W=np.zeros((7, 3)), b=bias, C=1.0)
    assert np.array_equal(svm_predict_batch(model, np.ones((4, 3))), np.full(4, 5))


def test_svm_predict_matches_direct_computation():
    rng = np.random.default_rng(9)
    W = rng.standard_normal((7, 4))
    b = rng.standard_normal(7)
    model = LinearSvmModel(W=W, b=b, C=1.0)
    X = rng.standard_normal((20, 4))
    labels = svm_predict_batch(model, X)
    for x, label in zip(X, labels):
        direct = np.array([np.dot(W[c], x) + b[c] for c in range(7)])
        assert label == int(np.argmax(direct))


def test_svm_predict_scale_invariant_label():
    rng = np.random.default_rng(10)
    W = rng.standard_normal((7, 4))
    b = rng.standard_normal(7)
    X = rng.standard_normal((20, 4))
    l1 = svm_predict_batch(LinearSvmModel(W=W, b=b, C=1.0), X)
    l2 = svm_predict_batch(LinearSvmModel(W=3.5 * W, b=3.5 * b, C=1.0), X)
    assert np.array_equal(l1, l2)


def test_svm_errors():
    with pytest.raises(SingleClass):
        svm_train(np.zeros((4, 2)), [1, 1, 1, 1])
    with pytest.raises(SingleClass, match=r"^training labels hold 1 classes; at least 2 are needed$"):
        svm_train(np.zeros((3, 2)), [6, 6, 6])
    with pytest.raises(SingleClass, match=r"^training labels hold 0 classes; at least 2 are needed$"):
        svm_train(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(UnknownLabel):
        svm_train(np.zeros((20, 2)), np.arange(20) % 9)
    X = np.zeros((4, 3))
    X[2, 1] = np.nan
    with pytest.raises(ValueError):
        svm_train(X, [0, 1, 0, 1])
    model = LinearSvmModel(W=np.zeros((7, 3)), b=np.zeros(7), C=1.0)
    with pytest.raises(ValueError):
        svm_predict_batch(model, X)
    with pytest.raises(DimensionMismatch):
        svm_predict_batch(model, np.zeros((2, 4)))
    with pytest.raises(DimensionMismatch):
        svm_predict_batch(model, np.zeros(3))


def test_svm_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((30, 4))
    y = rng.integers(0, 4, 30)
    model = svm_train(X, y, C=0.5, epochs=8, seed=1)
    write_models(svm_files(model, tmp_path / "svm.json", epochs=8, seed=1))
    loaded = load_svm(tmp_path / "svm.json")
    assert loaded.C == 0.5
    assert np.allclose(loaded.W, model.W, atol=1e-6)
    assert np.array_equal(svm_predict_batch(loaded, X), svm_predict_batch(model, X))


def test_training_loads_no_numpy_ma(tmp_path):
    """Neither svm_train nor the train-svm stage imports numpy.ma (np.unique
    would).  A fresh interpreter, since an earlier test may have loaded it."""
    manifest = synth_generate(SynthConfig(n_clips=21, seed=0), tmp_path / "data")
    code = ("import sys, numpy as np, avfusion\n"
            "from avfusion import cli, learn\n"
            "learn.svm_train(np.eye(14, 3), np.arange(14) % 7, epochs=2)\n"
            f"assert cli.main(['train-svm', '--manifest', {str(manifest)!r}, '--channel', 'audio',"
            f" '--out', {str(tmp_path / 'audio.json')!r}, '--epochs', '2']) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    src = str(Path(learn.__file__).resolve().parents[1])  # the avfusion under test
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def svm_train_reference(X, y, C, epochs, seed):
    """The per-row Pegasos loop: only the violated rows get an update.
    Returns W, b and the number of steps that violated no margin."""
    n, dim = X.shape
    lam = 1.0 / (C * n)
    Xa = np.hstack([X, np.ones((n, 1))])
    signs = np.where(y[:, None] == np.arange(N_CLASSES)[None, :], 1.0, -1.0)
    W = np.zeros((N_CLASSES, dim + 1))
    rng = np.random.default_rng(seed)
    t = quiet = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            xi = Xa[i]
            violated = signs[i] * (W @ xi) < 1.0
            W *= 1.0 - eta * lam
            if violated.any():
                W[violated] += np.outer(eta * signs[i, violated], xi)
            else:
                quiet += 1
    return W[:, :dim], W[:, dim], quiet


def _assert_matches_reference(X, y, C, epochs, seed):
    model = svm_train(X, y, C=C, epochs=epochs, seed=seed)
    W, b, quiet = svm_train_reference(X, y, C, epochs, seed)
    assert model.W.tobytes() == W.tobytes()
    assert model.b.tobytes() == b.tobytes()
    return quiet


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("C", [1.0, 0.5])
def test_svm_train_matches_reference_loop(seed, C):
    """svm_train's per-row step trains the reference loop's model, bit for
    bit, on every synthetic channel, the normalized joint vector, its
    Fortran-ordered copy, a strided column slice of the joint matrix,
    signed zeros, and a worst case whose steps violate all 7 margins."""
    data = synth_dataset(SynthConfig(n_clips=400, informativeness=BASELINE_INFORMATIVENESS,
                                     seed=seed))
    joint = np.hstack([data.features[ch] for ch in CHANNELS])
    inputs = [data.features[ch] for ch in CHANNELS]
    inputs.append(normalize_apply(normalize_fit(joint), joint))
    inputs.append(np.asfortranarray(inputs[-1]))
    inputs.append(joint[:, 20:170:3])  # a view: neither C- nor Fortran-contiguous
    assert inputs[-2].flags.f_contiguous and not inputs[-2].flags.c_contiguous
    assert not (inputs[-1].flags.c_contiguous or inputs[-1].flags.f_contiguous)
    signed_zeros = data.features["audio"].copy()
    signed_zeros[:, 3] = 0.0
    signed_zeros[::3, 5] = -0.0
    signed_zeros[:, 7] = -0.0
    inputs.append(signed_zeros)
    for X in inputs:
        _assert_matches_reference(X, data.labels, C, epochs=3, seed=seed)
    # C·n <= 0.5 and |x_j| < 0.05 hold every |margin| below 1: all 7 rows violated every step
    _assert_matches_reference(0.01 * signed_zeros, data.labels, C / (2 * len(signed_zeros)),
                              epochs=3, seed=seed)
    X, y = gaussian_blobs(30, seed=seed)
    assert _assert_matches_reference(X, y, C, epochs=10, seed=seed) > 0


@pytest.mark.parametrize("C", [0.01, 0.5, 1, 7, 100])
def test_first_pegasos_shrink_is_never_negative(C):
    """svm_train's first shrink, 1 - eta*lam at t = 1, is +0 or more for
    every n up to 5000, so it never turns W's +0 start into -0: skipping
    the add of a ±0 to a row that holds its margin then changes no bit."""
    for n in range(1, 5001):
        lam = 1.0 / (C * n)
        shrink = 1.0 - (1.0 / (lam * 1)) * lam
        assert shrink >= 0 and math.copysign(1.0, shrink) > 0, (n, shrink)


@pytest.mark.parametrize("block", [1, 7, 97, learn.ROW_BLOCK, 256])
def test_svm_train_matches_reference_across_block_edges(monkeypatch, block):
    """Gathering the epoch's order a block at a time, and scaling it by
    eta a block at a time, trains the per-row loop's model, bit for bit,
    whatever the block size (256 was the default before 128): n below it,
    a multiple of it, and one row past a multiple (400 = 57·7 + 1)."""
    monkeypatch.setattr(learn, "ROW_BLOCK", block)
    data = synth_dataset(SynthConfig(n_clips=400, informativeness=BASELINE_INFORMATIVENESS,
                                     seed=1))
    joint = np.hstack([data.features[ch] for ch in CHANNELS])
    inputs = [data.features[ch] for ch in CHANNELS]
    inputs.append(normalize_apply(normalize_fit(joint), joint))
    for n in (400, 200, 194):
        for X in inputs:
            _assert_matches_reference(X[:n], data.labels[:n], 1.0, epochs=2, seed=1)


def test_svm_train_memory_does_not_grow_with_epochs():
    """Per-epoch buffers only: nothing in svm_train is sized n·epochs."""
    rng = np.random.default_rng(31)
    X, y = rng.standard_normal((2000, 50)), np.arange(2000) % N_CLASSES
    peaks = []
    for epochs in (2, 40):
        tracemalloc.start()
        try:
            svm_train(X, y, epochs=epochs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("n, budget", [(2000, 0.28), (8000, 0.15)])
def test_svm_train_memory_stays_below_the_input(n, budget):
    """No copy of the input sized n·D: on a joint-width matrix the peak
    is a block of gathered rows, its eta-scaled twin, one gather
    temporary and per-sample vectors, so its share of the input falls as
    n grows.  The one (n, D+1) bias-augmented copy alone is more than the
    input."""
    rng = np.random.default_rng(32)
    X, y = rng.standard_normal((n, 269)), np.arange(n) % N_CLASSES
    svm_train(X[:50], y[:50], epochs=1)  # first-call allocations happen here
    tracemalloc.start()
    try:
        svm_train(X, y, epochs=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget * X.nbytes


def _saved_svm(tmp_path):
    rng = np.random.default_rng(12)
    model = svm_train(rng.standard_normal((30, 4)), rng.integers(0, 7, 30), epochs=2)
    write_models(svm_files(model, tmp_path / "svm.json", epochs=2, seed=0))
    return tmp_path / "svm.json"


@pytest.mark.parametrize("name, shape", [("weights", (6, 4)), ("weights", (28,)),
                                          ("bias", (1,)), ("bias", (7, 1))])
def test_load_svm_checks_shapes(tmp_path, name, shape):
    path = _saved_svm(tmp_path)
    tensor = tmp_path / f"svm.{name}.fvt"
    values = read_tensor_array(tensor).reshape(-1)
    write_tensor_array(tensor, np.resize(values, shape))
    with pytest.raises(DimensionMismatch, match=f"svm.json: {name}"):
        load_svm(path)


@pytest.mark.parametrize("drop", ["C", "tensors", "weights", "bias"])
def test_load_svm_missing_key(tmp_path, drop):
    path = _saved_svm(tmp_path)
    doc = json.loads(path.read_text())
    del (doc["tensors"] if drop in ("weights", "bias") else doc)[drop]
    path.write_text(json.dumps(doc))
    with pytest.raises(MissingKey, match=f"svm.json: missing key '{drop}'"):
        load_svm(path)


@pytest.mark.parametrize("W, b, name", [(np.ones((6, 3)), np.zeros(6), "weights"),
                                        (np.ones(21), np.zeros(7), "weights"),
                                        (np.ones((7, 3)), np.zeros(6), "bias")])
def test_svm_model_checks_shapes(W, b, name):
    """A hand-built model with fewer than 7 rows would predict only some
    classes; it fails when built."""
    with pytest.raises(DimensionMismatch, match=f"^{name}: expected shape"):
        LinearSvmModel(W=W, b=b, C=1.0)


@pytest.mark.parametrize("key, value, error", [
    ("C", [1], ValueError), ("C", {"a": 1}, ValueError), ("tensors", ["x"], MissingKey),
    ("tensors", {"weights": 5, "bias": "svm.bias.fvt"}, ValueError),
    ("C", math.nan, ValueError), ("C", -1.0, ValueError), ("C", 0.0, ValueError)])
def test_load_svm_wrong_typed_field(tmp_path, key, value, error):
    """A C that is not a real number in (0, inf) fails to load, like a C
    that is not a number at all."""
    path = _saved_svm(tmp_path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    message = rf"C must be a real number in \(0, inf\), got {re.escape(repr(value))}$" \
        if key == "C" else ""
    with pytest.raises(error, match=f"^{re.escape(str(path))}: {message}"):
        load_svm(path)
