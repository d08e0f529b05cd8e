import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion import features
from avfusion.core import (DimensionMismatch, MissingKey, read_tensor_array, write_models,
                           write_tensor_array)
from avfusion.fusion import build_joint_vector
from avfusion.features import (NormalizationModel, PcaModel, TooFewSamples, k_average_pool,
                               load_normalization, load_pca, normalization_files,
                               normalize_apply, normalize_fit, pca_files, pca_fit,
                               pca_transform)
from avfusion.synth import SynthConfig, synth_dataset


def test_pca_axis_aligned():
    rng = np.random.default_rng(0)
    X = np.zeros((50, 3))
    X[:, 0] = rng.standard_normal(50) * 4.0
    model = pca_fit(X, 1)
    assert np.allclose(np.abs(model.components[0]), [1, 0, 0], atol=1e-9)
    assert model.components[0, 0] > 0  # sign convention
    assert model.eigenvalues[0] == pytest.approx(np.var(X[:, 0], ddof=1))


def test_pca_planted_subspace():
    rng = np.random.default_rng(1)
    basis, _ = np.linalg.qr(rng.standard_normal((10, 2)))
    coeffs = rng.standard_normal((40, 2)) * [3.0, 1.5]
    X = coeffs @ basis.T + rng.standard_normal(10) * 0  # noise-free plane
    model = pca_fit(X, 2)
    projected = pca_transform(model, X)
    reconstructed = projected @ model.components + model.mean
    assert np.max(np.abs(reconstructed - X)) < 1e-6


def test_pca_orthonormal_rows_and_ordering():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((60, 8)) * np.arange(1, 9)
    model = pca_fit(X, 5)
    gram = model.components @ model.components.T
    assert np.max(np.abs(gram - np.eye(5))) < 1e-9
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert np.all(model.eigenvalues >= 0)


def test_pca_transform_centering_and_eigvec():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 5))
    model = pca_fit(X, 3)
    assert np.allclose(pca_transform(model, model.mean), 0.0, atol=1e-12)
    out = pca_transform(model, model.mean + model.components[0])
    expected = np.zeros(3)
    expected[0] = 1.0
    assert np.allclose(out, expected, atol=1e-9)


def test_pca_full_rank_inversion():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 6))
    model = pca_fit(X, 6)
    x = rng.standard_normal(6)
    y = pca_transform(model, x)
    recovered = y @ model.components + model.mean
    assert np.max(np.abs(recovered - x)) < 1e-9


def test_pca_preserves_inner_products_at_full_rank():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((25, 4))
    model = pca_fit(X, 4)
    centered = X - model.mean
    projected = pca_transform(model, X)
    assert np.allclose(projected @ projected.T, centered @ centered.T, atol=1e-9)


def test_pca_rank_deficient_padding():
    # rank-1 data, q=2: second component is an orthonormal completion
    X = np.outer(np.arange(6, dtype=float), [1.0, 0.0, 0.0])
    model = pca_fit(X, 2)
    assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
    gram = model.components @ model.components.T
    assert np.max(np.abs(gram - np.eye(2))) < 1e-9


def pca_by_covariance(X):
    """Oracle for ``pca_fit``: all d eigenpairs of the d×d sample
    covariance from a symmetric eigendecomposition, in descending order,
    with each eigenvector's largest-magnitude entry made positive."""
    centered = X - X.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / (X.shape[0] - 1))
    order = np.argsort(eigvals)[::-1]
    components = eigvecs[:, order].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return np.maximum(eigvals[order], 0.0), components


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), d=st.integers(1, 12), data=st.data())
def test_pca_fit_matches_covariance_oracle(n, d, data):
    """Planted data of a drawn rank (below q too) whose singular values
    come from a small set, so eigenvalues often tie: the SVD fit and the
    covariance oracle agree on every eigenvalue, on the projector of
    every distinct eigenvector and on the span of every tied or zero
    group.  A group cut by q has no unique retained basis, so its
    retained rows only have to lie in the oracle's eigenspace."""
    q = data.draw(st.integers(1, min(n - 1, d)), label="q")
    rank = data.draw(st.integers(0, min(n - 1, d)), label="rank")
    singular = data.draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=rank,
                                  max_size=rank), label="singular")
    scale = 10.0 ** data.draw(st.integers(-2, 2), label="log10 scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # columns orthonormal and orthogonal to the all-ones column, so centering keeps them
    u = np.linalg.qr(np.hstack([np.ones((n, 1)), rng.standard_normal((n, rank))]))[0][:, 1:]
    v = np.linalg.qr(rng.standard_normal((d, rank)))[0]
    X = (u * scale * np.array(singular)) @ v.T + rng.integers(-3, 4, size=d)

    model = pca_fit(X, q)
    values, vectors = pca_by_covariance(X)
    tol = 1e-8 * values[0]
    assert np.all(np.abs(model.eigenvalues - values[:q]) <= 1e-10 * values[0])
    assert np.max(np.abs(model.components @ model.components.T - np.eye(q))) < 1e-9
    start = 0
    while start < q:
        stop = start + 1
        while stop < d and values[start] - values[stop] <= tol:
            stop += 1
        projector = vectors[start:stop].T @ vectors[start:stop]
        rows = model.components[start:stop]
        if stop <= q:
            assert np.max(np.abs(rows.T @ rows - projector)) < 1e-8
        else:
            assert np.max(np.abs(rows @ projector - rows)) < 1e-8
        start = stop
    largest = model.components[np.arange(q), np.abs(model.components).argmax(axis=1)]
    assert np.all(largest > 0)  # sign convention


def test_pca_fit_never_forms_a_d_by_d_matrix():
    X = np.random.default_rng(21).standard_normal((40, 5000))
    tracemalloc.start()
    try:
        pca_fit(X, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * X.nbytes  # a 5000×5000 covariance alone is 125 × X.nbytes


@pytest.mark.parametrize("q", [2.5, np.float64(2.0), "2", True, 0])
def test_pca_rejects_a_non_integer_q(q):
    with pytest.raises(ValueError, match="^q must be an integer >= 1"):
        pca_fit(np.random.default_rng(22).standard_normal((10, 3)), q)


def test_pca_errors():
    with pytest.raises(TooFewSamples):
        pca_fit(np.zeros((1, 3)), 1)
    with pytest.raises(ValueError):
        pca_fit(np.zeros((5, 3)), 4)
    model = pca_fit(np.random.default_rng(0).standard_normal((10, 3)), 2)
    with pytest.raises(DimensionMismatch):
        pca_transform(model, np.zeros(4))
    with pytest.raises(ValueError):
        pca_transform(model, np.array([[0.0, 1.0, 2.0], [np.nan, 1.0, 2.0]]))


def pool_reference(scores, k):
    """Independent implementation of the repeat / head-tail-drop rule."""
    rows = [np.asarray(r, dtype=float) for r in scores]
    T = len(rows)
    if T < k:
        out = []
        for i, row in enumerate(rows):
            reps = -(-k // T) if i < k % T else k // T
            out.extend([row] * reps)
        rows = out
    elif T % k:
        r = T % k
        head = (r + 1) // 2
        tail = r - head
        rows = rows[head:T - tail] if tail else rows[head:]
    per_bin = len(rows) // k
    bins = [np.mean(rows[b * per_bin:(b + 1) * per_bin], axis=0) for b in range(k)]
    return np.concatenate(bins)


def test_pool_exact_pairing():
    rng = np.random.default_rng(9)
    scores = rng.standard_normal((14, 7))
    pooled = k_average_pool(scores, 7)
    assert pooled.shape == (49,)
    for b in range(7):
        assert np.allclose(pooled[b * 7:(b + 1) * 7],
                           scores[2 * b:2 * b + 2].mean(axis=0), atol=1e-12)


def test_pool_identity_when_T_equals_k():
    rng = np.random.default_rng(10)
    scores = rng.standard_normal((7, 7))
    assert np.array_equal(k_average_pool(scores, 7), scores.reshape(-1))


def test_pool_head_tail_drop():
    rng = np.random.default_rng(11)
    scores = rng.standard_normal((16, 7))
    pooled = k_average_pool(scores, 7)
    # r=2: one head and one tail frame dropped, then 7 bins of 2
    expected = scores[1:15].reshape(7, 2, 7).mean(axis=1).reshape(-1)
    assert np.allclose(pooled, expected, atol=1e-12)
    assert np.allclose(pooled, pool_reference(scores, 7), atol=1e-12)


def test_pool_frame_repetition():
    rng = np.random.default_rng(12)
    for T in (1, 2, 3, 4, 5, 6):
        scores = rng.standard_normal((T, 7))
        pooled = k_average_pool(scores, 7)
        assert pooled.shape == (49,)
        assert np.allclose(pooled, pool_reference(scores, 7), atol=1e-12)


def test_pool_matches_reference_widely():
    rng = np.random.default_rng(13)
    for T in range(1, 40):
        for k in (1, 3, 7):
            scores = rng.standard_normal((T, 7))
            assert np.allclose(k_average_pool(scores, k),
                               pool_reference(scores, k), atol=1e-12), (T, k)


@pytest.mark.parametrize("k", range(1, 10))
def test_pool_stack_matches_per_clip_calls(k):
    """A stack of equal-length clips pools byte-equal to one call per
    clip, on the repeat path (T < k), the drop path and T = k."""
    rng = np.random.default_rng(14 + k)
    for T in {1, max(1, k - 1), k, k + 1, 2 * k + 1, 3 * k, 24}:
        stack = rng.standard_normal((5, T, 7))
        pooled = k_average_pool(stack, k)
        assert pooled.shape == (5, 7 * k)
        assert pooled.tobytes() == np.stack([k_average_pool(s, k) for s in stack]).tobytes()


def test_pool_constant_rows():
    row = np.arange(7.0)
    scores = np.tile(row, (12, 1))
    pooled = k_average_pool(scores, 7)
    assert np.allclose(pooled, np.tile(row, 7), atol=1e-12)


def test_pool_errors():
    with pytest.raises(ValueError):
        k_average_pool(np.zeros((0, 7)), 7)
    with pytest.raises(ValueError):
        k_average_pool(np.zeros((5, 7)), 0)
    for k in (2.5, np.float64(7.0), "7", True):
        with pytest.raises(ValueError, match="^k must be an integer >= 1"):
            k_average_pool(np.zeros((9, 7)), k)
    with pytest.raises(ValueError):
        k_average_pool(np.full((9, 7), np.nan))
    with pytest.raises(ValueError):
        k_average_pool(np.zeros((9, 5)))
    with pytest.raises(DimensionMismatch):
        k_average_pool(np.zeros((2, 9, 5)))
    with pytest.raises(ValueError, match="non-finite"):
        k_average_pool(np.full((2, 9, 7), np.inf))
    with pytest.raises(ValueError,
                       match=r"^scores: expected at least one frame, got shape \(0, 7\)$"):
        k_average_pool(np.zeros((2, 0, 7)))


def test_normalize_fit_hand_case():
    model = normalize_fit(np.array([[0.0, 2.0], [2.0, 2.0]]))
    assert model.per_dim_mean.tolist() == [1.0, 2.0]
    assert model.per_dim_std.tolist() == [1.0, 0.0]


def test_normalize_stage1_zero_std_column():
    X = np.array([[1.0, 5.0], [3.0, 5.0], [2.0, 5.0]])
    model = normalize_fit(X)
    out = normalize_apply(model, np.array([9.0, 5.0]))
    # constant column stayed 0 after stage 1, so stage 2 sees (z, 0)
    z = (9.0 - 2.0) / X[:, 0].std()
    stage1 = np.array([z, 0.0])
    expected = (stage1 - stage1.mean()) / stage1.std()
    assert np.allclose(out, expected, atol=1e-12)


def test_normalize_train_statistics():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((30, 9)) * 3.0 + 5.0
    model = normalize_fit(X)
    std = model.per_dim_std
    stage1 = (X - model.per_dim_mean) / std
    assert np.max(np.abs(stage1.mean(axis=0))) < 1e-9
    assert np.max(np.abs(stage1.std(axis=0) - 1.0)) < 1e-9


def _assert_normalize_is_the_formula(model, x):
    """``normalize_apply`` gives the bytes of the two-stage formula written
    with ``np.where``, one new array per step."""
    std = model.per_dim_std
    stage1 = np.where(std > 0, (x - model.per_dim_mean) / np.where(std > 0, std, 1.0), 0.0)
    own_mean = stage1.mean(axis=-1, keepdims=True)
    own_std = stage1.std(axis=-1, keepdims=True)
    expected = np.where(own_std > 0, (stage1 - own_mean) / np.where(own_std > 0, own_std, 1.0),
                        0.0)
    out = normalize_apply(model, x)
    assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
    return out


def test_normalize_stage2_per_vector():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((20, 8))
    model = normalize_fit(X)
    held_out = rng.standard_normal((10, 8)) + 2.0
    out = _assert_normalize_is_the_formula(model, held_out)
    assert np.max(np.abs(out.mean(axis=1))) < 1e-9
    assert np.max(np.abs(out.std(axis=1) - 1.0)) < 1e-9
    for x in (held_out[0], held_out[:1]):  # one vector, and a single row
        _assert_normalize_is_the_formula(model, x)
    joint = build_joint_vector(synth_dataset(SynthConfig(n_clips=2000, seed=0)).features)
    _assert_normalize_is_the_formula(normalize_fit(joint), joint)


def test_normalize_double_zero():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((12, 5))
    model = normalize_fit(X)
    assert np.allclose(normalize_apply(model, model.per_dim_mean), 0.0, atol=1e-12)
    X[:, 2] = 4.0  # a std-0 column, and a row at the training mean beside others
    model = normalize_fit(X)
    rows = np.vstack([X[:3], model.per_dim_mean, X[3:]])
    out = _assert_normalize_is_the_formula(model, rows)
    assert not out[3].any() and out[[0, 1, 2, 4]].all()
    assert not _assert_normalize_is_the_formula(model, model.per_dim_mean).any()


@pytest.mark.parametrize("block", [4, features.ROW_BLOCK, 256])  # 256: the former default
def test_normalize_apply_is_the_formula_across_block_edges(monkeypatch, block):
    """Stage 2 a block of rows at a time gives the formula's bytes for one
    row, a vector, no rows, and one block, one row short of it and one
    row past it; a Fortran-ordered input gives the bytes of its C copy."""
    monkeypatch.setattr(features, "ROW_BLOCK", block)
    rng = np.random.default_rng(34)
    X = rng.standard_normal((block + 1, 9)) * 3.0 + 1.0
    model = normalize_fit(X)
    X[1] = model.per_dim_mean  # zero spread after stage 1
    for x in (X[:1], X[0], X[:0], X[:block - 1], X[:block], X):
        _assert_normalize_is_the_formula(model, x)
    assert normalize_apply(model, np.asfortranarray(X)).tobytes() == \
        normalize_apply(model, X).tobytes()


def test_normalize_apply_memory_stays_within_1_12_outputs():
    """One full-size array, the result, with stage 1 computed in place in
    it and stage 2 a block of rows at a time; np.std's temporary, the size
    of a block, is the rest.  Stage 2 over all rows at once takes the peak
    past 2× the output."""
    rng = np.random.default_rng(33)
    X = rng.standard_normal((2000, 269))
    model = normalize_fit(X)
    tracemalloc.start()
    try:
        out = normalize_apply(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.12 * out.nbytes


def test_normalize_heldout_mean_not_zero():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((40, 6))
    model = normalize_fit(X)
    shifted = rng.standard_normal((40, 6)) + 3.0
    stage1 = (shifted - model.per_dim_mean) / model.per_dim_std
    assert np.min(np.abs(stage1.mean(axis=0))) > 0.5  # train stats do not center held-out


def test_normalize_errors():
    with pytest.raises(TooFewSamples):
        normalize_fit(np.zeros((1, 4)))
    model = normalize_fit(np.random.default_rng(0).standard_normal((5, 4)))
    with pytest.raises(DimensionMismatch):
        normalize_apply(model, np.zeros(5))
    nan_row = np.array([1.0, np.nan, 0.0, 2.0])
    with pytest.raises(ValueError):
        normalize_fit(np.stack([np.zeros(4), nan_row, np.ones(4)]))
    with pytest.raises(ValueError):
        normalize_apply(model, nan_row)


def test_pca_and_normalization_serialization(tmp_path):
    rng = np.random.default_rng(18)
    X = rng.standard_normal((20, 6))
    pca = pca_fit(X, 3)
    write_models(pca_files(pca, tmp_path / "pca.json"))
    loaded = load_pca(tmp_path / "pca.json")
    # f32 storage: values round-trip at f32 precision
    assert np.allclose(loaded.components, pca.components, atol=1e-6)
    assert np.allclose(loaded.mean, pca.mean, atol=1e-6)

    norm = normalize_fit(X)
    write_models(normalization_files(norm, tmp_path / "norm.json"))
    loaded_norm = load_normalization(tmp_path / "norm.json")
    assert np.allclose(loaded_norm.per_dim_mean, norm.per_dim_mean, atol=1e-6)
    assert np.allclose(loaded_norm.per_dim_std, norm.per_dim_std, atol=1e-6)


@pytest.mark.parametrize("kind, drop", [("pca", "eigenvalues"), ("norm", "std"),
                                        ("pca", "kind"), ("norm", None)])
def test_pca_and_normalization_missing_key(tmp_path, kind, drop):
    X = np.random.default_rng(19).standard_normal((20, 6))
    path = tmp_path / f"{kind}.json"
    files, load = {"pca": (pca_files, load_pca),
                   "norm": (normalization_files, load_normalization)}[kind]
    write_models(files(pca_fit(X, 3) if kind == "pca" else normalize_fit(X), path))
    doc = json.loads(path.read_text())
    if drop is None:
        doc, drop = [doc], "kind"  # a sidecar that is not a JSON object
    else:
        del (doc if drop == "kind" else doc["tensors"])[drop]
    path.write_text(json.dumps(doc))
    with pytest.raises(MissingKey, match=f"{kind}.json: missing key '{drop}'"):
        load(path)


@pytest.mark.parametrize("kind, name, shape", [
    ("norm", "std", (1,)), ("norm", "mean", (2, 3)), ("pca", "mean", (4,)),
    ("pca", "eigenvalues", (1,)), ("pca", "components", (18,))])
def test_load_checks_model_shapes(tmp_path, kind, name, shape):
    """A tensor rewritten to the wrong shape fails the load, naming the
    sidecar and the tensor, instead of broadcasting in the next call."""
    X = np.random.default_rng(20).standard_normal((20, 6))
    path = tmp_path / f"{kind}.json"
    if kind == "pca":
        write_models(pca_files(pca_fit(X, 3), path))
    else:
        write_models(normalization_files(normalize_fit(X), path))
    tensor = tmp_path / f"{kind}.{name}.fvt"
    write_tensor_array(tensor, np.resize(read_tensor_array(tensor).reshape(-1), shape))
    with pytest.raises(DimensionMismatch, match=f"{kind}.json: {name}: expected shape"):
        (load_pca if kind == "pca" else load_normalization)(path)


@pytest.mark.parametrize("fields, error, name", [
    ({"mean": np.zeros(4)}, DimensionMismatch, "mean"),
    ({"eigenvalues": np.ones(1)}, DimensionMismatch, "eigenvalues"),
    ({"components": np.ones(18)}, DimensionMismatch, "components"),
    ({"per_dim_std": np.ones(1)}, DimensionMismatch, "std"),
    ({"per_dim_mean": np.zeros((6, 1))}, DimensionMismatch, "mean"),
    ({"per_dim_std": -np.ones(6)}, ValueError, "std"),
    ({"per_dim_std": [{}] * 6}, ValueError, "std"),
    ({"eigenvalues": [-1.0, 0.0, 0.0]}, ValueError, "eigenvalues"),
    ({"eigenvalues": [1.0, 2.0, 2.0]}, ValueError, "eigenvalues")])
def test_models_check_shapes_when_built(fields, error, name):
    if {"mean", "eigenvalues", "components"} & fields.keys():
        build = PcaModel, dict(mean=np.zeros(6), components=np.eye(3, 6), eigenvalues=np.ones(3))
    else:
        build = NormalizationModel, dict(per_dim_mean=np.zeros(6), per_dim_std=np.ones(6))
    cls, kwargs = build
    cls(**kwargs)
    with pytest.raises(error, match=f"^{name}: "):
        cls(**{**kwargs, **fields})


def test_load_pca_refuses_bad_eigenvalues(tmp_path):
    path = tmp_path / "pca.json"
    write_models(pca_files(PcaModel(mean=np.zeros(2), components=np.eye(2),
                                    eigenvalues=[3.0, 1.0]), path))
    write_tensor_array(tmp_path / "pca.eigenvalues.fvt", np.array([-1.0, 3.0]))
    with pytest.raises(ValueError, match="pca.json: eigenvalues: entries must be non-negative"):
        load_pca(path)
