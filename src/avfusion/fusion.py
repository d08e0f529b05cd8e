"""Fusion of the four channels.

Feature-level fusion concatenates the per-channel features (audio 20,
LBP-TOP 150, CNN 49, BLSTM 50) into a 269-dim joint vector, normalizes
it in two stages, and classifies with a linear SVM.  Model-level fusion
treats the four per-channel classifier decisions as discrete
measurements of a hidden emotion node: each channel carries a 7×7
conditional probability table P(measurement | emotion), and inference
multiplies the prior with the observed channels' CPT columns.
"""

import os
from dataclasses import dataclass

import numpy as np

from .core import (CHANNELS, EMOTION_NAMES, SEGMENT_DIMS, DimensionMismatch, MissingKey,
                   N_CLASSES, UnknownLabel, _as_numbers, check_labels, check_probabilities,
                   check_real, check_shape, emotion_index, read_csv, read_model, require_key,
                   write_csv, write_models)
from .features import normalize_apply, normalize_fit
from .learn import svm_predict_batch, svm_train
from .metrics import evaluate


class EmptyClassRow(ValueError):
    pass


class AllZeroPosterior(ValueError):
    pass


class UnknownChannel(ValueError):
    pass


class DuplicateDecision(ValueError):
    pass


# CSV columns of a decisions file; the label is a canonical emotion name.
DECISION_COLUMNS = ("clip_id", "channel", "predicted_label")


@dataclass(frozen=True)
class MeasurementModel:
    channel: str
    cpt: np.ndarray  # (7, 7), row e is P(measurement | emotion == e)

    def __post_init__(self):
        if not isinstance(self.channel, str):
            raise ValueError(f"channel must be a string, got {self.channel!r}")
        object.__setattr__(self, "cpt", check_probabilities(self.cpt, (N_CLASSES, N_CLASSES),
                                                            f"{self.channel} CPT"))


@dataclass(frozen=True)
class BnFusionModel:
    prior: np.ndarray        # (7,), P(emotion)
    measurements: tuple      # MeasurementModel per channel, fixed order

    def __post_init__(self):
        object.__setattr__(self, "prior", check_probabilities(self.prior, (N_CLASSES,), "prior"))
        object.__setattr__(self, "measurements", tuple(self.measurements))
        if len(self.measurements) == 0:
            raise ValueError("at least one measurement channel is required")
        if len(set(self.channels)) != len(self.channels):
            raise ValueError(f"each channel may appear once, got {list(self.channels)}")

    @property
    def channels(self):
        return tuple(m.channel for m in self.measurements)


def build_joint_vector(features):
    """Concatenate ``{channel: features}`` in the fixed layout order, the
    one place that spells it: one clip's vectors give the 269-dim joint
    vector, n×dim matrices of per-clip rows give n×269.  Each channel goes
    through ``check_shape``, so a missing, misshapen or non-finite one
    raises an error that starts with its name."""
    lead = _as_numbers(features.get(CHANNELS[0]), CHANNELS[0]).shape[:-1][:1]  # () or (n,)
    return np.concatenate([check_shape(features.get(ch), (*lead, dim), ch)
                           for ch, dim in SEGMENT_DIMS.items()], axis=-1)


def feature_fusion_train(X, y, C=1.0, epochs=30, seed=0):
    """Fit normalization on joint vectors, then a linear SVM on the
    normalized rows; returns ``(NormalizationModel, LinearSvmModel)``."""
    norm = normalize_fit(X)
    svm = svm_train(normalize_apply(norm, X), y, C=C, epochs=epochs, seed=seed)
    return norm, svm


def feature_fusion_predict(norm, svm, X):
    """Normalize rows of an n×269 joint matrix and classify them; returns
    the n predicted labels."""
    return svm_predict_batch(svm, normalize_apply(norm, X))


def fusion_predictions(variants, y, tr, va, te, epochs, seed):
    """The paper's protocol as library calls, for each named feature variant
    of the same clips (``{name: {channel: n×dim matrix}}``): per-channel
    SVMs trained on rows ``tr``, the BN fit on their decisions for rows
    ``va``, and feature-level fusion trained on rows ``tr``.  Returns
    ``{name: {key: labels of rows te}}`` for the four channels, "joint"
    (feature-level) and "bn" (model-level).

    Every variant's joint matrix is built, and so its channels checked,
    before any SVM trains.  Training with a seeded sample order is
    deterministic, so a channel or joint SVM whose training matrix equals
    one already trained in this call reuses that model: variants that
    differ in one channel retrain only that channel and the joint SVM.
    """
    joints = {name: build_joint_vector(features) for name, features in variants.items()}
    trained = []  # (trainer, training matrix, model) of this call

    def model(train, X):
        for seen_train, seen_X, seen in trained:
            if seen_train is train and np.array_equal(seen_X, X):
                return seen
        trained.append((train, X, train(X, y[tr], C=1.0, epochs=epochs, seed=seed)))
        return trained[-1][2]

    predictions = {}
    for name, features in variants.items():
        val_preds, preds = {}, {}
        for ch in CHANNELS:
            svm = model(svm_train, features[ch][tr])
            val_preds[ch] = svm_predict_batch(svm, features[ch][va])
            preds[ch] = svm_predict_batch(svm, features[ch][te])
        preds["bn"] = bn_infer(fit_bn(val_preds, y[va]), {ch: preds[ch] for ch in CHANNELS})[0]
        preds["joint"] = feature_fusion_predict(*model(feature_fusion_train, joints[name][tr]),
                                                joints[name][te])
        predictions[name] = preds
    return predictions


def fit_measurement_cpt(predictions, truths, alpha=1.0, channel="joint"):
    """Estimate P(prediction | true emotion) with Laplace smoothing.

    cpt[e][m] = (count(truth==e, pred==m) + alpha) / (count(truth==e) + 7*alpha).
    With alpha == 0 a true class that never occurs leaves its row
    undefined, which is an error.
    """
    alpha = check_real(alpha, "alpha")
    counts = evaluate(predictions, truths).confusion
    row_totals = counts.sum(axis=1)
    if alpha == 0 and np.any(row_totals == 0):
        missing = [EMOTION_NAMES[e] for e in np.flatnonzero(row_totals == 0)]
        raise EmptyClassRow(f"no samples of {missing} and alpha=0 leaves their rows undefined")
    cpt = (counts + alpha) / (row_totals + N_CLASSES * alpha)[:, None]
    return MeasurementModel(channel=channel, cpt=cpt)


def uniform_prior():
    return np.full(N_CLASSES, 1.0 / N_CLASSES)


def fit_bn(decisions, truths):
    """Fit the fusion network on labelled (validation) decisions.

    ``decisions`` maps channel tags to predicted labels aligned with
    ``truths``.  Each channel gets its confusion CPT with Laplace
    smoothing 1, and the prior is uniform.  Measurements follow the fixed
    channel order, unknown tags after them by name.
    """
    channels = [c for c in CHANNELS if c in decisions] + sorted(set(decisions) - set(CHANNELS))
    measurements = tuple(fit_measurement_cpt(decisions[c], truths, channel=c) for c in channels)
    return BnFusionModel(prior=uniform_prior(), measurements=measurements)


def bn_infer(model, observed):
    """MAP inference over the fusion network given observed decisions.

    ``observed`` maps channel tags to one clip's measured labels, or to
    equal-length arrays of n clips'.  Absent channels are marginalized
    out (their factor is omitted); factors multiply in the model's fixed
    order, not the dict's.  Returns ``(label, posterior)``, or n labels
    and n×7 posteriors, with ties broken toward the lowest index.
    """
    if not observed:
        raise ValueError("at least one channel must be observed")
    present = [meas for meas in model.measurements if meas.channel in observed]
    if len(present) < len(observed):
        raise UnknownChannel(f"observed channels {sorted(set(observed) - set(model.channels))} "
                             f"not in model channels {list(model.channels)}")
    try:
        measured = check_labels([observed[meas.channel] for meas in present], "observed label")
    except UnknownLabel:  # name the channel and label at fault, else the shapes that do not stack
        for meas in present:
            check_labels(observed[meas.channel], f"{meas.channel}: observed label")
        raise DimensionMismatch(f"observed labels differ in shape: "
                                f"{ {ch: np.shape(v) for ch, v in observed.items()} }") from None
    post = model.prior
    for meas, m in zip(present, measured):
        post = post * meas.cpt.T[m]
    total = post.sum(axis=-1, keepdims=True)
    if not total.all():
        raise AllZeroPosterior(f"row {np.flatnonzero(total == 0)[0]}: zero mass in every class")
    post = post / total
    labels = np.argmax(post, axis=-1)
    return (labels if labels.ndim else int(labels)), post


def save_bn(model, path):
    """Write the model as JSON, recording the smoothing :func:`fit_bn` uses."""
    write_models((path, "bn_fusion", {}, {
        "prior": model.prior.tolist(),
        "measurements": [{"channel": m.channel, "cpt": m.cpt.tolist()} for m in model.measurements],
        "smoothing": {"mode": "confusion", "alpha": 1.0, "prior": "uniform"}}))


def load_bn(path):
    """Read a model written by :func:`save_bn`; errors name the file."""
    return read_model(path, "bn_fusion", lambda doc, tensor: BnFusionModel(
        prior=require_key(doc, "prior"), measurements=_measurements(doc)))


def _measurements(doc):
    """Yield the MeasurementModels of a parsed bn.json; a missing key names its entry."""
    entries = require_key(doc, "measurements")
    if not isinstance(entries, list):
        raise ValueError(f"measurements: expected a list, got {type(entries).__name__}")
    for k, entry in enumerate(entries):
        try:
            channel, cpt = require_key(entry, "channel"), require_key(entry, "cpt")
        except MissingKey as exc:
            raise MissingKey(f"measurements[{k}]: {exc}") from None
        yield MeasurementModel(channel=channel, cpt=cpt)


def write_decisions(path, rows):
    """Write a decisions CSV of (clip_id, channel, label index) rows."""
    labels = check_labels([label for *_, label in rows], n=len(rows))
    write_csv(path, [DECISION_COLUMNS, *((c, ch, EMOTION_NAMES[label])
                                         for (c, ch, _), label in zip(rows, labels.tolist()))])


def read_decisions(paths):
    """Read decisions CSVs into clip_id -> {channel: label index}, clips in
    the order they first appear across the files.

    Each (clip, channel) pair may appear once across the files; a repeat
    raises DuplicateDecision rather than letting one decision silently win.
    Each file must hold a row below its header, else ValueError names it.
    """
    if isinstance(paths, (str, os.PathLike)):
        raise TypeError(f"read_decisions takes a list of paths, got {paths!r}")
    merged = {}
    for path in paths:
        for lineno, (clip_id, channel, label) in read_csv(path, DECISION_COLUMNS, ValueError):
            if not (clip_id and channel):
                raise ValueError(f"{path}:{lineno}: empty {'channel' if clip_id else 'clip_id'}")
            observed = merged.setdefault(clip_id, {})
            if channel in observed:
                raise DuplicateDecision(f"{path}:{lineno}: second {channel} decision "
                                        f"for {clip_id!r}")
            observed[channel] = emotion_index(label)
    return merged
