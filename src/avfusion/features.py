"""Channel feature machinery: PCA, temporal pooling, and the two-stage
joint-vector normalization.

PCA takes the thin SVD of the centered data, eigenvalues s²/(n-1), with
a deterministic sign convention; no d×d covariance is formed.  Normalization
is two-stage: per-dimension standardization with training-set statistics
(population std, divide by n), then per-vector standardization across
the vector's own entries.
"""

from dataclasses import dataclass

import numpy as np

from .core import (N_CLASSES, ROW_BLOCK, _as_numbers, check_count, check_scores, check_shape,
                   read_model)


class TooFewSamples(ValueError):
    pass


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray         # (d,)
    components: np.ndarray   # (q, d), orthonormal rows, descending eigenvalue
    eigenvalues: np.ndarray  # (q,), non-negative, non-increasing

    def __post_init__(self):
        components = check_shape(self.components, (None, None), "components")
        q, d = components.shape
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "mean", check_shape(self.mean, (d,), "mean"))
        eigenvalues = check_shape(self.eigenvalues, (q,), "eigenvalues")
        if not (np.all(eigenvalues >= 0) and np.all(np.diff(eigenvalues) <= 0)):
            raise ValueError("eigenvalues: entries must be non-negative and non-increasing")
        object.__setattr__(self, "eigenvalues", eigenvalues)


@dataclass(frozen=True)
class NormalizationModel:
    per_dim_mean: np.ndarray  # (D,)
    per_dim_std: np.ndarray   # (D,), population std; zeros mark constant dims

    def __post_init__(self):
        mean = check_shape(self.per_dim_mean, (None,), "mean")
        std = check_shape(self.per_dim_std, mean.shape, "std")
        if not np.all(std >= 0):
            raise ValueError("std: entries must be non-negative")
        object.__setattr__(self, "per_dim_mean", mean)
        object.__setattr__(self, "per_dim_std", std)


def pca_fit(X, q):
    """Fit PCA with ``q`` retained components on rows of ``X``.

    Requires n >= 2 samples and 1 <= q <= min(n-1, d).  Through the thin
    SVD U diag(s) Vt of the centered data, the components are the top-q
    rows of Vt with each row's largest-magnitude entry made positive, and
    the eigenvalues are s²/(n-1).  When the data rank is below q the
    trailing components are an orthonormal completion with eigenvalue 0.
    """
    X = check_shape(X, (None, None), "features")
    n, d = X.shape
    q = check_count(q, "q")
    if n < 2:
        raise TooFewSamples(f"PCA needs at least 2 samples, got {n}")
    if q > min(n - 1, d):
        raise ValueError(f"q={q} outside 1..min(n-1, d)=min({n - 1}, {d})")
    mean = X.mean(axis=0)
    _, singular, vt = np.linalg.svd(X - mean, full_matrices=False)
    components = vt[:q].copy()
    components *= np.sign(components[np.arange(q), np.abs(components).argmax(axis=1)])[:, None]
    return PcaModel(mean=mean, components=components, eigenvalues=singular[:q] ** 2 / (n - 1))


def pca_transform(model, x):
    """Project ``x`` (a d-vector or an n×d matrix of rows) onto the
    retained components: ``components @ (x - mean)``."""
    d = model.mean.shape[0]
    x = check_shape(x, (d,) if _as_numbers(x, "features").ndim == 1 else (None, d), "features")
    return (x - model.mean) @ model.components.T


def k_average_pool(scores, k=7):
    """Pool a T×7 per-frame score matrix into a flat 7k vector, or an
    m×T×7 stack of equal-length clips into m such rows.

    When T < k, frames are repeated in place until the sequence reaches
    k rows: the first ``k mod T`` original frames appear ``ceil(k/T)``
    times and the rest ``floor(k/T)`` times, order preserved.  When
    T >= k and k does not divide T, the ``r = T mod k`` surplus frames
    are dropped, ``ceil(r/2)`` from the head and ``floor(r/2)`` from the
    tail.  The remaining rows are split into k contiguous equal bins,
    each bin is averaged, and the bin means are concatenated in order.
    """
    k = check_count(k, "k")
    mat = _as_numbers(scores, "scores")
    mat = check_scores(mat.reshape(-1, mat.shape[-1]) if mat.ndim == 3 else mat,
                       "scores").reshape(mat.shape)
    n_frames = mat.shape[-2]
    if n_frames < k:
        repeats = np.full(n_frames, k // n_frames)
        repeats[: k % n_frames] += 1
        mat = np.repeat(mat, repeats, axis=-2)
    elif n_frames % k != 0:
        surplus = n_frames % k
        drop_head = (surplus + 1) // 2
        mat = mat[..., drop_head:n_frames - (surplus - drop_head), :]
    lead = mat.shape[:-2]
    return mat.reshape(lead + (k, -1, N_CLASSES)).mean(axis=-2).reshape(lead + (-1,))


def pool_clips(clips):
    """k-average pool each T×7 score array of ``clips`` into 7 bins: one
    row of an m×49 matrix per clip, in order.  The clips of one shape are
    pooled as one stack, one ``k_average_pool`` call per distinct shape,
    which pools each clip exactly as a call of its own would."""
    groups = {}
    for i, clip in enumerate(clips):
        groups.setdefault(clip.shape, []).append(i)
    out = np.empty((len(clips), 7 * N_CLASSES))
    for rows in groups.values():
        out[rows] = k_average_pool(np.array([clips[i] for i in rows]))
    return out


def normalize_fit(X):
    """Per-dimension mean and population std over training rows."""
    X = check_shape(X, (None, None), "features")
    if X.shape[0] < 2:
        raise TooFewSamples(f"normalization needs at least 2 samples, got {X.shape[0]}")
    return NormalizationModel(per_dim_mean=X.mean(axis=0), per_dim_std=X.std(axis=0))


def normalize_apply(model, x):
    """Two-stage normalization of the rows of an n×D matrix.

    Stage 1 standardizes each dimension with the fitted statistics
    (constant dimensions map to 0).  Stage 2 re-standardizes each row
    across its own entries; a stage-1 row with zero spread maps to
    the zero vector.
    """
    x = check_shape(x, (None, model.per_dim_mean.shape[0]), "features")
    out = np.subtract(x, model.per_dim_mean, order="C")  # C order: the same std in any block
    out /= np.where(model.per_dim_std > 0, model.per_dim_std, 1.0)
    np.copyto(out, 0.0, where=model.per_dim_std == 0)
    for block in np.split(out, range(ROW_BLOCK, len(out), ROW_BLOCK)):
        own_std = block.std(axis=-1, keepdims=True)  # its temporary: one block, not out
        block -= block.mean(axis=-1, keepdims=True)
        block /= np.where(own_std > 0, own_std, 1.0)
        np.copyto(block, 0.0, where=own_std == 0)
    return out


def pca_files(model, path):
    """The model as a ``(path, kind, tensors, fields)`` save spec."""
    return path, "pca", {"mean": model.mean, "components": model.components,
                         "eigenvalues": model.eigenvalues}, {}


def load_pca(path):
    return read_model(path, "pca", lambda doc, tensor: PcaModel(
        mean=tensor("mean"), components=tensor("components"), eigenvalues=tensor("eigenvalues")))


def normalization_files(model, path):
    """The model as a ``(path, kind, tensors, fields)`` save spec."""
    return path, "normalization", {"mean": model.per_dim_mean, "std": model.per_dim_std}, {}


def load_normalization(path):
    return read_model(path, "normalization", lambda doc, tensor: NormalizationModel(
        per_dim_mean=tensor("mean"), per_dim_std=tensor("std")))
