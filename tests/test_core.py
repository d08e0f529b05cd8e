import ast
import json
import math
import os
import re
import stat
import string
import struct
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avfusion
from avfusion.features import (NormalizationModel, PcaModel, k_average_pool, load_normalization,
                               load_pca, normalize_apply, normalize_fit, pca_fit, pca_transform,
                               save_normalization, save_pca)
from avfusion.fusion import (BnFusionModel, MeasurementModel, bn_infer, build_joint_vector,
                             fit_measurement_cpt, load_bn, read_decisions, save_bn, uniform_prior,
                             write_decisions)
from avfusion.lbptop import lbp_top_descriptor
from avfusion.learn import (IslandLossParams, LinearSvmModel, island_loss, load_svm,
                            probe_features, save_svm, softmax_probe_train, svm_predict_batch,
                            svm_train, update_centers)
from avfusion.metrics import evaluate
from avfusion.synth import SynthConfig, gaussian_blobs
from avfusion.core import (CHANNELS, SEGMENT_DIMS, BadMagic, DuplicateClipId, DimensionMismatch,
                           EMOTION_NAMES, MalformedRow, TensorFormatError, Truncated,
                           UnknownLabel, check_count, check_labels, check_real, emotion_index,
                           emotion_name, load_manifest, read_tensor, read_tensor_array,
                           save_manifest, write_csv, write_tensor, write_tensor_array)


def test_label_bijection():
    assert len(EMOTION_NAMES) == 7
    for i, name in enumerate(EMOTION_NAMES):
        assert emotion_index(name) == i
        assert emotion_name(i) == name


def test_label_canonical_order():
    assert EMOTION_NAMES == ("Angry", "Disgust", "Fear", "Happy", "Neutral",
                             "Sad", "Surprise")


def test_unknown_label_rejected():
    with pytest.raises(UnknownLabel):
        emotion_index("Joy")
    with pytest.raises(UnknownLabel):
        emotion_name(7)


def test_emotion_name_takes_only_class_indices(tmp_path):
    """A value that only rounds or parses to a class index names no emotion."""
    for value in (1.5, -0.5, 6.9, "1"):
        with pytest.raises(UnknownLabel, match="is not a class index in 0..6"):
            emotion_name(value)
    assert [emotion_name(v) for v in (np.int64(1), 6.0)] == ["Disgust", "Surprise"]
    with pytest.raises(UnknownLabel):
        write_decisions(tmp_path / "dec.csv", [("c1", "audio", 2), ("c2", "audio", 1.5)])


def test_check_count():
    for value in (1, 7, np.int32(3), np.uint8(2)):
        assert check_count(value, "n") == value and type(check_count(value, "n")) is int
    for value in (0, -2, 2.0, np.float64(3.0), "3", None, True, np.bool_(True)):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
            check_count(value, "n")
    assert check_count(0, "seed", least=0) == 0
    for value in (-1, 0.0, True):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            check_count(value, "seed", least=0)


def test_check_real():
    for value, kwargs in ((0, {}), (np.int64(3), {}), (2.5, {"positive": True}),
                          (np.float32(0.5), {"high": 1}), (1, {"positive": True, "high": 1})):
        assert check_real(value, "x", **kwargs) == value
        assert type(check_real(value, "x", **kwargs)) is float
    for value, kwargs, interval in ((0, {"positive": True}, "(0, inf)"),
                                    (-1e-300, {}, "[0, inf)"),
                                    (1.5, {"high": 1}, "[0, 1]"),
                                    (0.0, {"positive": True, "high": 1}, "(0, 1]"),
                                    (np.bool_(True), {}, "[0, inf)"),
                                    (np.array(1.0), {}, "[0, inf)")):
        with pytest.raises(ValueError, match=f"^x must be a real number in {re.escape(interval)}, "
                                             f"got {re.escape(repr(value))}$"):
            check_real(value, "x", **kwargs)


# Each real-valued setting: its name in errors, its interval, an
# out-of-range value, and a call of its public entry point with the value.
_BLOB_X, _BLOB_Y = gaussian_blobs(3, seed=0)
REAL_SETTINGS = {
    "C": ("C", "(0, inf)", 0.0, lambda v: svm_train(_BLOB_X, _BLOB_Y, C=v, epochs=1)),
    "lr": ("lr", "(0, inf)", -1.0,
           lambda v: softmax_probe_train(_BLOB_X, _BLOB_Y, epochs=1, lr=v)),
    "smoothing-alpha": ("alpha", "[0, inf)", -1.0,
                        lambda v: fit_measurement_cpt([0, 1], [0, 1], alpha=v)),
    "lambda1": ("lambda1", "[0, inf)", -1.0, lambda v: IslandLossParams(lambda1=v)),
    "lam": ("lam", "[0, inf)", -0.01, lambda v: IslandLossParams(lam=v)),
    "center-alpha": ("alpha", "(0, 1]", 1.5, lambda v: IslandLossParams(alpha=v)),
    "update-centers-alpha": ("alpha", "(0, 1]", 0.0,
                             lambda v: update_centers(np.ones((1, 2)), [0], np.eye(2), v)),
    "informativeness": ("informativeness of cnn", "[0, 1]", 1.5,
                        lambda v: SynthConfig(informativeness=(1.0, 1.0, v, 1.0))),
    "svm-model-C": ("C", "(0, inf)", -5.0,
                    lambda v: LinearSvmModel(W=np.zeros((7, 2)), b=np.zeros(7), C=v)),
    "radius": ("radius", "[0, inf)", -1.0, lambda v: gaussian_blobs(3, radius=v)),
    "noise": ("noise", "[0, inf)", -1.0, lambda v: gaussian_blobs(3, noise=v)),
}
REAL_VALUES = {"None": None, "str": "1", "bool": True, "nan": math.nan, "inf": math.inf,
               "-inf": -math.inf}


@pytest.mark.parametrize("value", [*REAL_VALUES, "out-of-range"])
@pytest.mark.parametrize("setting", REAL_SETTINGS)
def test_real_setting_refused_at_its_entry_point(setting, value):
    name, interval, outside, call = REAL_SETTINGS[setting]
    bad = {**REAL_VALUES, "out-of-range": outside}[value]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a real number in "
                                         f"{re.escape(interval)}, got {re.escape(repr(bad))}$"):
        call(bad)


# Each entry point that takes class indices, called with the labels of two
# clips whose second is ``v``.
_BN = BnFusionModel(prior=uniform_prior(), measurements=tuple(
    MeasurementModel(channel=ch, cpt=np.full((7, 7), 1 / 7)) for ch in ("audio", "cnn")))
CLASS_INDEX_ENTRY_POINTS = {
    "emotion_name": lambda v, d: emotion_name(v),
    "check_labels": lambda v, d: check_labels([0, v]),
    "bn_infer-one-clip": lambda v, d: bn_infer(_BN, {"audio": 0, "cnn": v}),
    "bn_infer-arrays": lambda v, d: bn_infer(_BN, {"audio": [0, 1], "cnn": [0, v]}),
    "write_decisions": lambda v, d: write_decisions(d / "dec.csv", [("a", "cnn", 0),
                                                                    ("b", "cnn", v)]),
    "save_manifest": lambda v, d: save_manifest(d / "m.csv", [("a", 0, {}), ("b", v, {})]),
    "svm_train": lambda v, d: svm_train(np.eye(2), [0, v], epochs=1),
    "evaluate": lambda v, d: evaluate([0, v], [0, 3]),
    "island_loss": lambda v, d: island_loss(np.eye(2), [0, v], np.ones((7, 2)), 1.0),
}


@pytest.mark.parametrize("value", [1.5, 7, -1, "1", None], ids=repr)
@pytest.mark.parametrize("entry", CLASS_INDEX_ENTRY_POINTS)
def test_class_index_refused_at_its_entry_point(entry, value, tmp_path):
    """One rule, core.check_labels: only a value equal to an integer in
    0..6 is a label, and the error names that value as given.  In a
    manifest None marks an unlabeled clip, so save_manifest takes it."""
    if entry == "save_manifest" and value is None:
        save_manifest(tmp_path / "m.csv", [("a", 0, {}), ("b", None, {})])
        return
    with pytest.raises(UnknownLabel, match=f" {re.escape(str(value))} is not a class index "
                                           r"in 0\.\.6$"):
        CLASS_INDEX_ENTRY_POINTS[entry](value, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [3, np.int64(3), 3.0], ids=repr)
@pytest.mark.parametrize("entry", CLASS_INDEX_ENTRY_POINTS)
def test_class_index_taken_at_its_entry_point(entry, value, tmp_path):
    CLASS_INDEX_ENTRY_POINTS[entry](value, tmp_path)


@pytest.mark.parametrize("entry", ["check_labels", "bn_infer-arrays", "write_decisions",
                                   "save_manifest", "svm_train", "evaluate", "island_loss"])
def test_ragged_label_column_refused_at_its_entry_point(entry, tmp_path):
    """A label column whose second label is a list is ragged nesting, which
    numpy refuses unnamed; check_labels compares it as objects and names
    the value.  (For one clip, a list is a column beside a label, so
    bn_infer-one-clip raises DimensionMismatch instead.)"""
    with pytest.raises(UnknownLabel, match=r" \[1, 2\] is not a class index in 0\.\.6$"):
        CLASS_INDEX_ENTRY_POINTS[entry]([1, 2], tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_misaligned_labels_are_a_dimension_mismatch():
    for call in (lambda y: svm_train(np.eye(3), y),
                 lambda y: island_loss(np.eye(3), y, np.ones((7, 3)), 1.0)):
        with pytest.raises(DimensionMismatch, match=r"^label: expected 3 labels, got shape \(2,\)$"):
            call([0, 1])


# Each array input: its name in errors, a valid value, and a call of its
# public entry point with the value.
_SVM = svm_train(_BLOB_X, _BLOB_Y, epochs=1)
_PCA = pca_fit(_BLOB_X, 1)
_NORM = normalize_fit(_BLOB_X)
_PROBE = softmax_probe_train(_BLOB_X, _BLOB_Y, epochs=1)
_JOINT_ROWS = {ch: np.zeros((2, dim)) for ch, dim in SEGMENT_DIMS.items()}
ARRAY_INPUTS = {
    "svm_train": ("features", _BLOB_X, lambda a: svm_train(a, _BLOB_Y, epochs=1)),
    "svm_predict_batch": ("features", _BLOB_X, lambda a: svm_predict_batch(_SVM, a)),
    "softmax_probe_train": ("features", _BLOB_X,
                            lambda a: softmax_probe_train(a, _BLOB_Y, epochs=1)),
    "probe_features": ("features", _BLOB_X, lambda a: probe_features(_PROBE, a)),
    "island-batch": ("batch", np.eye(2), lambda a: island_loss(a, [0, 1], np.eye(2), 1.0)),
    "island-centers": ("centers", np.eye(2), lambda a: island_loss(np.eye(2), [0, 1], a, 1.0)),
    "pca_fit": ("features", _BLOB_X, lambda a: pca_fit(a, 1)),
    "pca_transform": ("features", _BLOB_X, lambda a: pca_transform(_PCA, a)),
    "normalize_fit": ("features", _BLOB_X, normalize_fit),
    "normalize_apply": ("features", _BLOB_X[0], lambda a: normalize_apply(_NORM, a)),
    "k_average_pool": ("scores", np.full((2, 9, 7), 1 / 7), k_average_pool),
    "build_joint_vector": ("audio", _JOINT_ROWS["audio"],
                           lambda a: build_joint_vector({**_JOINT_ROWS, "audio": a})),
    "build_joint_vector-rows": ("cnn", _JOINT_ROWS["cnn"],
                                lambda a: build_joint_vector({**_JOINT_ROWS, "cnn": a})),
    "lbp_top_descriptor": ("video volume", np.full((3, 8, 8), 9.0), lbp_top_descriptor),
    "svm-weights": ("weights", _SVM.W, lambda a: LinearSvmModel(W=a, b=_SVM.b, C=1.0)),
    "svm-bias": ("bias", _SVM.b, lambda a: LinearSvmModel(W=_SVM.W, b=a, C=1.0)),
    "pca-mean": ("mean", _PCA.mean, lambda a: PcaModel(a, _PCA.components, _PCA.eigenvalues)),
    "pca-components": ("components", _PCA.components,
                       lambda a: PcaModel(_PCA.mean, a, _PCA.eigenvalues)),
    "pca-eigenvalues": ("eigenvalues", _PCA.eigenvalues,
                        lambda a: PcaModel(_PCA.mean, _PCA.components, a)),
    "norm-mean": ("mean", _NORM.per_dim_mean, lambda a: NormalizationModel(a, _NORM.per_dim_std)),
    "norm-std": ("std", _NORM.per_dim_std, lambda a: NormalizationModel(_NORM.per_dim_mean, a)),
    "cpt": ("audio CPT", np.eye(7), lambda a: MeasurementModel(channel="audio", cpt=a)),
    "prior": ("prior", uniform_prior(),
              lambda a: BnFusionModel(prior=a, measurements=_BN.measurements)),
}


def _spoiled(array, how):
    if how == "strings":
        return np.asarray(array).astype(str)
    if how == "ragged":  # one more entry, nested a level deeper than the others
        nested = np.asarray(array).tolist()
        return nested + [nested[:1]]
    bad = np.array(array, dtype=np.float64)
    bad.reshape(-1)[-1] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}[how]
    return bad


@pytest.mark.parametrize("how", ["nan", "inf", "-inf", "strings", "ragged"])
@pytest.mark.parametrize("entry", ARRAY_INPUTS)
def test_array_refused_at_its_entry_point(entry, how):
    """One rule, core.check_shape: an array input holds finite numbers in
    regular nesting, models built by hand included, and the error starts
    with its name."""
    name, good, call = ARRAY_INPUTS[entry]
    call(good)
    with pytest.raises(ValueError, match=f"^{re.escape(name)}: "):
        call(_spoiled(good, how))


def test_tensor_roundtrip_2x2(tmp_path):
    path = tmp_path / "t.fvt"
    write_tensor(path, [2, 2], [1, 2, 3, 4])
    raw = path.read_bytes()
    assert raw[:4] == b"FVT1"
    assert len(raw) == 4 + 4 + 8 + 16  # magic + rank + two dims + payload
    dims, values = read_tensor(path)
    assert dims == [2, 2]
    assert values.tolist() == [1, 2, 3, 4]


def test_tensor_roundtrip_onehot(tmp_path):
    path = tmp_path / "t.fvt"
    write_tensor(path, [7], [0, 0, 0, 0, 0, 0, 1])
    dims, values = read_tensor(path)
    assert dims == [7]
    assert values.tolist() == [0, 0, 0, 0, 0, 0, 1]


def test_tensor_empty_dims(tmp_path):
    path = tmp_path / "t.fvt"
    write_tensor(path, [3, 0], [])
    dims, values = read_tensor(path)
    assert dims == [3, 0]
    assert values.size == 0


def test_tensor_length_mismatch(tmp_path):
    with pytest.raises(DimensionMismatch):
        write_tensor(tmp_path / "t.fvt", [2, 2], [1, 2, 3])
    with pytest.raises(DimensionMismatch, match=r"bad dimension in \[2, -1\]: dim must be an "
                                               r"integer >= 0, got -1$"):
        write_tensor(tmp_path / "t.fvt", [2, -1], [])
    assert not (tmp_path / "t.fvt").exists()


def test_tensor_rejects_nonfinite(tmp_path):
    with pytest.raises(ValueError):
        write_tensor(tmp_path / "t.fvt", [2], [1.0, np.nan])
    path = tmp_path / "nan.fvt"  # written by hand: write_tensor refuses NaN
    path.write_bytes(b"FVT1" + struct.pack("<II", 1, 2) + struct.pack("<2f", 1.0, np.nan))
    with pytest.raises(ValueError, match="nan.fvt"):
        read_tensor(path)


def test_isfinite_only_in_core():
    """Finiteness is checked in one module; the others call its checkers."""
    package = Path(avfusion.__file__).parent
    offenders = [p.name for p in sorted(package.glob("*.py"))
                 if p.name != "core.py" and "np.isfinite" in p.read_text()]
    assert offenders == []


def test_json_load_only_in_core():
    """Model files are parsed and written in one module; the others call
    its reader and writer."""
    package = Path(avfusion.__file__).parent
    offenders = [(p.name, call) for p in sorted(package.glob("*.py")) if p.name != "core.py"
                 for call in ("json.load", "json.dump", "os.replace") if call in p.read_text()]
    assert offenders == []


def test_file_writes_only_in_core():
    """Output files are written in one module: elsewhere there is no
    csv.writer, no os.replace and no write-mode ``open(``."""
    package = Path(avfusion.__file__).parent
    offenders = []
    for p in sorted(package.glob("*.py")):
        if p.name == "core.py":
            continue
        text = p.read_text()
        offenders += [(p.name, call) for call in ("csv.writer", "os.replace") if call in text]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "open":
                modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
                if any(not isinstance(m, ast.Constant) or set(m.value) & set("wax+")
                       for m in modes):
                    offenders.append((p.name, ast.unparse(node)))
    assert offenders == []


def test_one_reader_per_csv_kind():
    """Manifests and decisions files share one reader, only ``core`` imports
    csv, and no module checks a path before opening it: the open is the check."""
    package = Path(avfusion.__file__).parent
    readers, importers = set(), []
    for p in sorted(package.glob("*.py")):
        tree = ast.parse(p.read_text())
        owner = {node: func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                 for node in ast.walk(func)}
        readers.update((p.name, owner.get(node)) for node in ast.walk(tree)
                       if ast.unparse(node) == "csv.reader")
        if any(isinstance(node, ast.Import) and "csv" in (a.name for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "csv"
               for node in ast.walk(tree)):
            importers.append(p.name)
    assert readers == {("core.py", "read_csv")}
    assert importers == ["core.py"]
    assert [p.name for p in sorted(package.glob("*.py")) if ".exists(" in p.read_text()] == []


def _model_kinds():
    """Each model kind: its save, its load, a model, and the arrays of a
    loaded model as bytes."""
    rng = np.random.default_rng(21)
    X = rng.standard_normal((12, 4))
    cpts = rng.random((2, 7, 7)) + 0.05
    bn = BnFusionModel(prior=uniform_prior(), measurements=[
        MeasurementModel(channel=ch, cpt=cpt / cpt.sum(axis=1, keepdims=True))
        for ch, cpt in zip(("audio", "cnn"), cpts)])
    return {
        "linear_svm": (lambda model, path: save_svm(model, path, epochs=2, seed=0), load_svm,
                       LinearSvmModel(W=rng.standard_normal((7, 4)), b=rng.standard_normal(7),
                                      C=0.5),
                       lambda m: (m.W.tobytes(), m.b.tobytes(), m.C)),
        "pca": (save_pca, load_pca, pca_fit(X, 2),
                lambda m: (m.mean.tobytes(), m.components.tobytes(), m.eigenvalues.tobytes())),
        "normalization": (save_normalization, load_normalization, normalize_fit(X),
                          lambda m: (m.per_dim_mean.tobytes(), m.per_dim_std.tobytes())),
        "bn_fusion": (save_bn, load_bn, bn,
                      lambda m: (m.prior.tobytes(), *((x.channel, x.cpt.tobytes())
                                                      for x in m.measurements))),
    }


def _mutations(doc, name):
    """Every single-step mutation of a saved model whose sidecar, named
    ``name``, is ``doc``: drop a key (of the sidecar, its tensors or a BN
    measurement), truncate the sidecar or a tensor, reshape a tensor, or
    claim another model kind."""
    tensors = doc.get("tensors", {})
    measurements = doc.get("measurements", [])
    drops = [(key,) for key in doc] + [("tensors", key) for key in tensors]
    drops += [("measurements", k, key) for k, m in enumerate(measurements) for key in m]
    json_tensors = [("prior",)] * ("prior" in doc)
    json_tensors += [("measurements", k, "cpt") for k in range(len(measurements))]
    return ([("drop", where) for where in drops]
            + [("truncate", fname) for fname in [name, *tensors.values()]]
            + [("reshape", fname) for fname in tensors.values()]
            + [("reshape", where) for where in json_tensors]
            + [("kind", kind) for kind in _MODEL_KINDS if kind != doc["kind"]])


_MODEL_KINDS = _model_kinds()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_MODEL_KINDS)), st.data())
def test_model_file_mutation_property(kind, data):
    """A model file with one part dropped, truncated, reshaped or relabelled
    loads as before or raises a ValueError naming the sidecar; never a
    KeyError, TypeError, AttributeError or IndexError, nor a JSON error
    that does not say which file it is in."""
    save, load, model, arrays = _MODEL_KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save(model, path)
        expected = arrays(load(path))
        doc = json.loads(path.read_text())
        action, target = data.draw(st.sampled_from(_mutations(doc, path.name)))
        if action == "kind":
            doc["kind"] = target
        elif isinstance(target, tuple):  # a path of keys into the sidecar
            *parents, last = target
            node = doc
            for key in parents:
                node = node[key]
            if action == "drop":
                del node[last]
            else:
                values = np.array(node[last])
                node[last] = values.reshape(data.draw(_other_shape(values.shape))).tolist()
        path.write_text(json.dumps(doc))
        if action in ("truncate", "reshape") and isinstance(target, str):  # a file's bytes
            file = path.parent / target
            if action == "truncate":
                blob = file.read_bytes()
                file.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
            else:
                values = read_tensor_array(file)
                write_tensor_array(file, values.reshape(data.draw(_other_shape(values.shape))))
        try:
            loaded = load(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert arrays(loaded) == expected


@pytest.mark.parametrize("kind", sorted(_MODEL_KINDS))
def test_model_save_is_all_or_nothing(tmp_path, monkeypatch, kind):
    """A save that fails while writing the JSON document, after any tensor
    files, leaves the directory's bytes as they were and no temporary file."""
    save, _, model, _ = _MODEL_KINDS[kind]
    X = np.random.default_rng(22).standard_normal((12, 4))
    other = {"linear_svm": LinearSvmModel(W=np.full((7, 4), 2.0), b=np.zeros(7), C=1.0),
             "pca": pca_fit(X, 2), "normalization": normalize_fit(X),
             "bn_fusion": BnFusionModel(prior=uniform_prior(),
                                        measurements=[MeasurementModel("audio", np.eye(7))])}[kind]
    path = tmp_path / "model.json"
    save(model, path)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

    def dump_then_fail(doc, fh, **kwargs):
        fh.write(json.dumps(doc, **kwargs)[:20])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(avfusion.core.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="No space left"):
        save(other, path)
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
    tensors = json.loads(before["model.json"]).get("tensors", {})
    assert sorted(before) == sorted(["model.json", *tensors.values()])


@pytest.mark.parametrize("kind", sorted(_MODEL_KINDS))
@pytest.mark.parametrize("target", ["directory", "fifo"])
def test_model_save_refuses_a_target_that_is_not_a_regular_file(tmp_path, kind, target):
    """A model path, or a tensor sibling of it, that names a directory or a
    FIFO fails with an OSError naming it before any file is created or
    renamed."""
    save, _, model, _ = _MODEL_KINDS[kind]
    path = tmp_path / "model.json"
    save(model, tmp_path / "probe.json")  # the tensor names this kind writes
    siblings = sorted(f.name.replace("probe", "model") for f in tmp_path.iterdir()
                      if f.suffix == ".fvt")
    for f in tmp_path.iterdir():
        f.unlink()
    for name in ["model.json", *siblings]:
        blocker = tmp_path / name
        blocker.mkdir() if target == "directory" else os.mkfifo(blocker)
        with pytest.raises(OSError, match=f"^{re.escape(str(blocker))}: exists and is not "
                                          "a regular file"):
            save(model, path)
        assert [f.name for f in tmp_path.iterdir()] == [name]
        assert stat.S_ISDIR(blocker.stat().st_mode) if target == "directory" else \
            stat.S_ISFIFO(blocker.stat().st_mode)
        blocker.rmdir() if target == "directory" else blocker.unlink()


def test_failed_manifest_save_keeps_the_old_file(tmp_path):
    """A label outside 0..6 fails the save while its rows are built, before
    the file is touched: the old manifest stays byte-identical."""
    path = tmp_path / "m.csv"
    save_manifest(path, [("a", 0, {"audio": "a.fvt"}), ("b", 1, {"audio": "b.fvt"})])
    before = path.read_bytes()
    with pytest.raises(UnknownLabel):
        save_manifest(path, [("a", 2, {"audio": "a.fvt"}), ("b", 7, {"audio": "b.fvt"})])
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["m.csv"]


def test_write_csv_is_all_or_nothing(tmp_path):
    """Rows are written with csv quoting and CRLF ends; a row that fails
    while it is built leaves the old file, or no file, and no temporary."""
    path = tmp_path / "t.csv"
    write_csv(path, [("a", "b"), [1, "x,y"], ("", 'q"')])
    assert path.read_bytes() == b'a,b\r\n1,"x,y"\r\n,"q"""\r\n'

    def failing_rows():
        yield ("a", "b")
        raise ValueError("bad row")

    for existing in (True, False):
        if not existing:
            path.unlink()
        before = sorted(f.name for f in tmp_path.iterdir())
        with pytest.raises(ValueError, match="bad row"):
            write_csv(path, failing_rows())
        assert sorted(f.name for f in tmp_path.iterdir()) == before
    assert not path.exists()


def _other_shape(shape):
    size = int(np.prod(shape))
    return st.sampled_from(sorted({(size,), (1, size), (size, 1), tuple(shape[::-1])}
                                  - {tuple(shape)}))


def test_bad_magic(tmp_path):
    path = tmp_path / "t.fvt"
    path.write_bytes(b"XXXX" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"\0" * 4)
    with pytest.raises(BadMagic):
        read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.fvt"
    write_tensor(path, [3], [1, 2, 3])
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])  # cut mid-payload
    with pytest.raises(Truncated):
        read_tensor(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "t.fvt"
    path.write_bytes(b"FVT1\x02")
    with pytest.raises(Truncated):
        read_tensor(path)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=3),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_tensor_roundtrip_property(dims, seed):
    n = int(np.prod(dims)) if dims else 1
    rng = np.random.default_rng(seed)
    # values must be f32-representable for the on-disk roundtrip to be exact
    values = rng.standard_normal(n).astype(np.float32).astype(np.float64)
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".fvt")
    os.close(fd)
    try:
        write_tensor(path, dims, values)
        got_dims, got_values = read_tensor(path)
        assert got_dims == list(dims)
        assert np.array_equal(got_values, values)
    finally:
        os.unlink(path)


def _fresh_bytes(tmp_path, dims, values):
    """The bytes ``write_tensor`` gives a file that did not exist."""
    path = tmp_path / "fresh.fvt"
    write_tensor(path, dims, values)
    blob = path.read_bytes()
    path.unlink()
    return blob


def test_overwrite_leaves_exactly_the_new_bytes(tmp_path):
    """Rewriting in place cuts a longer old file and extends a shorter one."""
    path = tmp_path / "t.fvt"
    small, large = ([3], [1.0, 2.0, 3.0]), ([4, 5], np.arange(20.0))
    for old, new in ((large, small), (small, large), (small, small)):
        write_tensor(path, *old)
        write_tensor(path, *new)
        assert path.read_bytes() == _fresh_bytes(tmp_path, *new)
        dims, values = read_tensor(path)
        assert dims == new[0] and values.tolist() == list(new[1])


@pytest.mark.parametrize("dims, values, error", [
    ([2], [1.0, np.nan], ValueError),
    ([2], [1.0, np.inf], ValueError),
    ([2, 2], [1.0, 2.0, 3.0], DimensionMismatch),
    ([2, -1], [], DimensionMismatch),
    ([2.7], [1.0, 2.0], DimensionMismatch),
    ([True, 2], [1.0, 2.0], DimensionMismatch),
    ([2], np.array(["1.5", "2"]), ValueError),
    ([2], ["1e3", "nan1"], ValueError),
    ([2], [1.0, [2.0]], ValueError),
])
def test_rejected_write_leaves_file_unchanged(tmp_path, dims, values, error):
    path = tmp_path / "t.fvt"
    write_tensor(path, [3], [1.0, 2.0, 3.0])
    before = path.read_bytes()
    with pytest.raises(error):
        write_tensor(path, dims, values)
    assert path.read_bytes() == before


def test_write_refuses_values_that_are_not_numbers(tmp_path):
    """Strings are refused, not parsed, with the array rule's message."""
    for write in (lambda: write_tensor_array(tmp_path / "t.fvt", np.array(["1.5", "2"])),
                  lambda: write_tensor(tmp_path / "t.fvt", [2], ["1e3", "nan1"])):
        with pytest.raises(ValueError, match="^tensor values: expected an array of numbers$"):
            write()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("old_dims", [[4], [40], [2, 2]])
def test_write_failing_partway_leaves_no_valid_tensor(tmp_path, monkeypatch, old_dims):
    """A write cut off after some bytes leaves an empty file, never old
    bytes behind new ones that could still parse as a tensor."""
    path = tmp_path / "t.fvt"
    write_tensor(path, old_dims, np.ones(int(np.prod(old_dims))))
    real_write = os.write
    calls = []

    def write_half_then_fail(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(28, "No space left on device")
        return real_write(fd, bytes(data)[:len(data) // 2])

    monkeypatch.setattr(os, "write", write_half_then_fail)
    with pytest.raises(OSError, match="No space left"):
        write_tensor(path, [4], [5.0, 6.0, 7.0, 8.0])
    monkeypatch.undo()
    assert len(calls) == 2 and path.stat().st_size == 0
    with pytest.raises(Truncated):
        read_tensor(path)


def test_write_to_devnull():
    write_tensor(os.devnull, [2, 3], np.arange(6.0))
    write_tensor_array(os.devnull, np.zeros((0, 7)))


def test_write_and_read_through_a_fifo(tmp_path):
    """Neither side needs a regular file: no truncation on the way in, and
    reads of a pipe go on to end of file."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    values = np.arange(30000.0)  # more than a pipe's 64 KiB buffer
    writer = threading.Thread(target=write_tensor, args=(fifo, [100, 300], values), daemon=True)
    writer.start()
    dims, got = read_tensor(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert dims == [100, 300] and np.array_equal(got, values)


def test_new_file_mode_matches_open_wb(tmp_path):
    old_umask = os.umask(0o027)
    try:
        write_tensor(tmp_path / "t.fvt", [1], [1.0])
        with open(tmp_path / "ref", "wb"):
            pass
    finally:
        os.umask(old_umask)
    mode = stat.S_IMODE((tmp_path / "t.fvt").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "ref").stat().st_mode) == 0o640


def _open_error(path):
    """The error ``open(path, "rb")`` raises, as (type, message)."""
    with pytest.raises(OSError) as exc:
        open(path, "rb")
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("name", ["missing.fvt", "subdir"])
def test_read_os_errors_match_open(tmp_path, name):
    """A missing file or a directory fails as ``open`` would, naming the path."""
    (tmp_path / "subdir").mkdir()
    path = tmp_path / name
    kind, message = _open_error(path)
    assert kind in (FileNotFoundError, IsADirectoryError) and str(path) in message
    for arg in (path, str(path)):
        with pytest.raises(kind) as exc:
            read_tensor(arg)
        assert str(exc.value) == message


def _fvt(dims, payload):
    return b"FVT1" + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims) + payload


@pytest.mark.parametrize("blob, error, message", [
    (b"", Truncated, "file shorter than the magic"),
    (b"FVT", Truncated, "file shorter than the magic"),
    (b"XXXX" + struct.pack("<II", 1, 1) + b"\0" * 4, BadMagic,
     "expected magic b'FVT1', found b'XXXX'"),
    (b"FVT1\x02", Truncated, "missing rank field"),
    (b"FVT1" + struct.pack("<II", 2, 3), Truncated,
     "header announces rank 2 but dims are cut short"),
    (_fvt([3], b"\0" * 7), Truncated, "payload needs 24 bytes, file has 19"),
    (_fvt([2**31, 2**31], b""), Truncated, f"payload needs {16 + 2**64} bytes, file has 16"),
    (_fvt([2], b"\0" * 12), TensorFormatError, "4 trailing bytes after payload"),
    (_fvt([2], struct.pack("<2f", 1.0, np.nan)), ValueError, "tensor values must be finite"),
    (_fvt([1], struct.pack("<f", -np.inf)), ValueError, "tensor values must be finite"),
])
def test_read_format_errors_name_the_path(tmp_path, blob, error, message):
    path = tmp_path / "t.fvt"
    path.write_bytes(blob)
    with pytest.raises(error) as exc:
        read_tensor(path)
    assert type(exc.value) is error and str(exc.value) == f"{path}: {message}"


def test_one_megabyte_volume_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    volume = rng.integers(0, 256, size=(16, 128, 128)).astype(np.float64)
    path = tmp_path / "vol.fvt"
    write_tensor_array(path, volume)
    assert path.stat().st_size == 8 + 4 * 3 + 4 * volume.size
    back = read_tensor_array(path)
    assert back.shape == volume.shape and back.tobytes() == volume.tobytes()


def _write_clip_files(tmp_path, clip_id):
    paths = {}
    for channel, suffix in (("audio", "audio"), ("lbptop", "lbptop"),
                            ("cnn", "cnn"), ("blstm", "blstm")):
        p = tmp_path / f"{clip_id}.{suffix}.fvt"
        write_tensor_array(p, np.zeros(3))
        paths[channel] = p
    return paths


def test_manifest_roundtrip(tmp_path):
    """Cells are written as given, str or PathLike, and each comes back
    joined to the manifest's directory; an absolute cell comes back as is."""
    cells = {"audio": "c1.audio.fvt", "lbptop": Path("d/c1.lbptop.fvt"), "cnn": "../c1.cnn.fvt",
             "blstm": f"{tmp_path}/c1.blstm.fvt"}
    entries = [("c1", emotion_index("Happy"), cells),
               ("c2", emotion_index("Fear"), {"audio": "./d//c2.audio.fvt"})]
    mpath = tmp_path / "manifest.csv"
    save_manifest(mpath, entries)
    assert mpath.read_text().splitlines()[1:] == [
        f"c1,Happy,c1.audio.fvt,d/c1.lbptop.fvt,../c1.cnn.fvt,{tmp_path}/c1.blstm.fvt",
        "c2,Fear,./d//c2.audio.fvt,,,"]
    manifest = load_manifest(mpath)
    assert [e.clip_id for e in manifest.entries] == ["c1", "c2"]
    assert manifest.labels() == [3, 2]
    assert [e.paths for e in manifest.entries] == [
        {ch: os.path.join(tmp_path, cell) for ch, cell in paths.items()}
        for _, _, paths in entries]


_CLIP_ID_CHARS = string.ascii_letters + string.digits + '_-.,"'


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.text(_CLIP_ID_CHARS, min_size=1, max_size=8),
                          st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
                          st.dictionaries(st.sampled_from(CHANNELS),
                                          st.text("a./", min_size=1, max_size=8)
                                          .filter(lambda cell: cell[0] != "/"))),
                min_size=1, max_size=6, unique_by=lambda clip: clip[0]))
def test_manifest_roundtrip_property(clips):
    """Ids, labels and relative cells round-trip; each cell comes back
    joined to the manifest's directory, its text unchanged."""
    with tempfile.TemporaryDirectory() as tmp:
        save_manifest(Path(tmp) / "manifest.csv", clips)
        loaded = load_manifest(Path(tmp) / "manifest.csv").entries
    assert [(e.clip_id, e.label, e.paths) for e in loaded] == [
        (clip_id, label, {ch: os.path.join(tmp, cell) for ch, cell in cells.items()})
        for clip_id, label, cells in clips]


def test_header_only_files_are_refused_by_their_reader(tmp_path):
    """A manifest or decisions file with a header and no rows raises where
    it is read, naming itself; a header-only decisions file is refused
    even beside a full one."""
    mpath = tmp_path / "manifest.csv"
    save_manifest(mpath, [])
    with pytest.raises(MalformedRow, match=f"^{mpath}: no rows below the header$"):
        load_manifest(mpath)
    empty, full = tmp_path / "empty.csv", tmp_path / "full.csv"
    write_decisions(empty, [])
    write_decisions(full, [("c1", "audio", 3)])
    assert read_decisions([full]) == {"c1": {"audio": 3}}
    for paths in ([empty, full], [full, empty]):
        with pytest.raises(ValueError, match=f"^{empty}: no rows below the header$"):
            read_decisions(paths)


def test_manifest_unlabeled_and_missing_channels(tmp_path):
    paths = _write_clip_files(tmp_path, "c1")
    del paths["audio"]
    mpath = tmp_path / "manifest.csv"
    save_manifest(mpath, [("c1", None, paths)])
    manifest = load_manifest(mpath)
    assert manifest.entries[0].label is None
    assert "audio" not in manifest.entries[0].paths


def test_manifest_duplicate_clip_id(tmp_path):
    mpath = tmp_path / "manifest.csv"
    mpath.write_text("clip_id,label,audio,lbptop_video,cnn_scores,blstm_feat\n"
                     "c1,Happy,,,,\nc1,Fear,,,,\n")
    with pytest.raises(DuplicateClipId):
        load_manifest(mpath)


def test_manifest_unknown_label(tmp_path):
    mpath = tmp_path / "manifest.csv"
    mpath.write_text("clip_id,label,audio,lbptop_video,cnn_scores,blstm_feat\n"
                     "c1,Joy,,,,\n")
    with pytest.raises(UnknownLabel):
        load_manifest(mpath)


def test_manifest_malformed_row(tmp_path):
    mpath = tmp_path / "manifest.csv"
    mpath.write_text("clip_id,label,audio,lbptop_video,cnn_scores,blstm_feat\n"
                     "c1,Happy,x\n")
    with pytest.raises(MalformedRow):
        load_manifest(mpath)


def test_manifest_missing_file(tmp_path):
    """A manifest may name a file that is not there; reading it fails and
    names the path."""
    mpath = tmp_path / "manifest.csv"
    mpath.write_text("clip_id,label,audio,lbptop_video,cnn_scores,blstm_feat\n"
                     "c1,Happy,nope.fvt,,,\n")
    (entry,) = load_manifest(mpath).entries
    assert entry.paths == {"audio": str(tmp_path / "nope.fvt")}
    with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / "nope.fvt"))):
        read_tensor(entry.paths["audio"])


@pytest.mark.parametrize("manifest", ["manifest.csv", "./manifest.csv", "sub/manifest.csv",
                                      "sub//./manifest.csv", "{tmp}/sub/manifest.csv",
                                      "/{tmp}/manifest.csv"])
@pytest.mark.parametrize("cell", ["x.fvt", "./x.fvt", "d//x.fvt", "d/./x.fvt/", "../x.fvt",
                                  ".", "{tmp}/abs/x.fvt", "/{tmp}//abs/x.fvt"])
def test_manifest_path_text_matches_pathlib(tmp_path, monkeypatch, manifest, cell):
    """Each path cell resolves with one join, its spelling kept, to text
    naming the path ``Path(manifest).parent / cell`` names; a cell that
    starts with '/' is kept as it is."""
    monkeypatch.chdir(tmp_path)
    manifest, cell = manifest.format(tmp=tmp_path), cell.format(tmp=tmp_path)
    (tmp_path / "sub").mkdir()
    Path(manifest).write_text(f"clip_id,label,audio,lbptop_video,cnn_scores,blstm_feat\n"
                              f"c1,Happy,{cell},,,\n")
    (entry,) = load_manifest(manifest).entries
    base = os.path.join(os.path.dirname(manifest), "")
    assert entry.paths == {"audio": cell if cell.startswith("/") else base + cell}
    assert Path(entry.paths["audio"]) == Path(manifest).parent / cell


@settings(max_examples=300, deadline=None)
@given(st.text("a./", min_size=1, max_size=12), st.sampled_from(["", "{tmp}/", "/{tmp}/"]),
       st.lists(st.sampled_from(["a", ".", ""]), max_size=4))
def test_manifest_path_text_property(cell, lead, folder):
    """For any cell over 'a', '.' and '/', and a manifest in a relative or
    absolute folder spelled with '.' and '//', the resolved text names the
    path pathlib names."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        manifest = lead.format(tmp=tmp) + "/".join(folder + ["manifest.csv"]).lstrip("/")
        os.chdir(tmp)
        try:
            Path(manifest).parent.mkdir(parents=True, exist_ok=True)
            Path(manifest).write_text(f"clip_id,label,audio,lbptop_video,cnn_scores,blstm_feat\n"
                                      f"c1,,{cell},,,\n")
            (entry,) = load_manifest(manifest).entries
        finally:
            os.chdir(cwd)
    assert Path(entry.paths["audio"]) == Path(manifest).parent / cell


def test_save_manifest_str_and_path_cells_write_the_same_bytes(tmp_path, monkeypatch):
    """Cells are written as given, the same from strings as from Paths of
    the same text, wherever the manifest is: '.', '..' and absolute cells
    are written too, none refused."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    cells = {"audio": "a.fvt", "lbptop": "d/b.fvt", "cnn": "../c.fvt",
             "blstm": f"{tmp_path}/e.fvt"}
    for manifest in ("manifest.csv", "sub/manifest.csv", f"{tmp_path}/sub/manifest.csv"):
        save_manifest(manifest, [("c1", 3, cells)])
        from_str = Path(manifest).read_bytes()
        save_manifest(manifest, [("c1", 3, {ch: Path(c) for ch, c in cells.items()})])
        assert Path(manifest).read_bytes() == from_str
        assert from_str.decode().splitlines()[1] == (f"c1,Happy,a.fvt,d/b.fvt,../c.fvt,"
                                                     f"{tmp_path}/e.fvt")
        save_manifest(manifest, [("c1", None, {"audio": "."})])
        assert Path(manifest).read_text().splitlines()[1] == "c1,,.,,,"
