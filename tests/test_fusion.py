import itertools
import json
import warnings

import numpy as np
import pytest

from avfusion import fusion
from avfusion.core import (CHANNELS, JOINT_DIM, SEGMENT_DIMS, DimensionMismatch,
                           LengthMismatch, MissingKey, UnknownLabel)
from avfusion.features import normalize_apply, normalize_fit
from avfusion.fusion import (AllZeroPosterior, BnFusionModel, EmptyClassRow,
                             MeasurementModel, UnknownChannel, bn_infer, build_joint_vector,
                             feature_fusion_predict, feature_fusion_train, fit_bn,
                             fit_measurement_cpt, fusion_predictions, load_bn,
                             read_decisions, save_bn, uniform_prior, write_decisions)
from avfusion.learn import svm_predict_batch, svm_train
from avfusion.synth import BASELINE_INFORMATIVENESS, SynthConfig, synth_dataset


def test_joint_layout_dimensions():
    assert SEGMENT_DIMS == {"audio": 20, "lbptop": 150, "cnn": 49, "blstm": 50}
    assert JOINT_DIM == 269


def _channels(lead=(), **changed):
    """All-zero channel features of one clip, or of n rows with
    ``lead=(n,)``, with the ``changed`` channels replaced."""
    return {**{ch: np.zeros((*lead, dim)) for ch, dim in SEGMENT_DIMS.items()}, **changed}


def test_build_joint_vector_zero():
    out = build_joint_vector(_channels())
    assert out.shape == (269,)
    assert np.all(out == 0)


def test_build_joint_vector_layout_order():
    filled = {"audio": np.full(20, 1.0), "lbptop": np.full(150, 2.0),
              "cnn": np.full(49, 3.0), "blstm": np.full(50, 4.0)}
    out = build_joint_vector(filled)
    assert np.all(out[:20] == 1)
    assert np.all(out[20:170] == 2)
    assert np.all(out[170:219] == 3)
    assert np.all(out[219:] == 4)
    # the layout order, not the dict's own order
    assert np.array_equal(build_joint_vector(dict(reversed(filled.items()))), out)
    # per-clip rows give the per-clip joint vectors, row by row
    rng = np.random.default_rng(0)
    parts = {ch: rng.standard_normal((5, dim)) for ch, dim in SEGMENT_DIMS.items()}
    rows = build_joint_vector(parts)
    assert rows.shape == (5, 269)
    for i in range(5):
        assert np.array_equal(rows[i], build_joint_vector({ch: p[i] for ch, p in parts.items()}))


def test_build_joint_vector_names_offending_channel():
    for features, error, message in [
        (_channels(audio=np.zeros(21)), DimensionMismatch,
         r"audio: expected shape \(20,\), got \(21,\)"),
        (_channels(blstm=np.zeros(51)), DimensionMismatch,
         r"blstm: expected shape \(50,\), got \(51,\)"),
        (_channels((3,), cnn=np.zeros((2, 49))), DimensionMismatch,
         r"cnn: expected shape \(3, 49\), got \(2, 49\)"),
        ({ch: v for ch, v in _channels().items() if ch != "lbptop"}, ValueError,
         "lbptop: expected an array of numbers"),
        (_channels(blstm=np.full(50, np.nan)), ValueError, "blstm: contains non-finite values"),
    ]:
        with pytest.raises(error, match=f"^{message}$"):
            build_joint_vector(features)


def _toy_joint_data(seed=0, n=70):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = rng.standard_normal((n, JOINT_DIM))
    X[y == 0, :10] += 6.0
    X[y == 1, 30:40] += 6.0
    return X, y


def test_feature_fusion_separable():
    X, y = _toy_joint_data()
    norm, svm = feature_fusion_train(X[:50], y[:50], epochs=20, seed=0)
    assert np.mean(feature_fusion_predict(norm, svm, X[50:]) == y[50:]) == 1.0


@pytest.mark.parametrize("setting, message", [
    ({"C": 0.0}, r"^C must be a real number in \(0, inf\), got 0\.0$"),
    ({"epochs": 0}, "epochs must be an integer >= 1"),
], ids=["C=0", "epochs=0"])
def test_feature_fusion_rejects_untrainable_settings(setting, message):
    X, y = _toy_joint_data()
    with pytest.raises(ValueError, match=message):
        feature_fusion_train(X, y, **setting)


def test_feature_fusion_equals_manual_chain():
    X, y = _toy_joint_data(seed=1)
    norm, svm = feature_fusion_train(X, y, C=2.0, epochs=10, seed=4)
    norm2 = normalize_fit(X)
    svm2 = svm_train(normalize_apply(norm2, X), y, C=2.0, epochs=10, seed=4)
    assert np.array_equal(norm.per_dim_mean, norm2.per_dim_mean)
    assert np.array_equal(svm.W, svm2.W)
    assert np.array_equal(svm.b, svm2.b)
    labels = feature_fusion_predict(norm, svm, X)
    assert np.array_equal(labels, svm_predict_batch(svm2, normalize_apply(norm2, X)))


def test_feature_fusion_deterministic():
    X, y = _toy_joint_data(seed=2)
    n1, s1 = feature_fusion_train(X, y, epochs=8, seed=7)
    n2, s2 = feature_fusion_train(X, y, epochs=8, seed=7)
    assert np.array_equal(s1.W, s2.W)
    assert np.array_equal(n1.per_dim_std, n2.per_dim_std)


def test_feature_fusion_stage1_rescaling_invariance():
    # per-dimension affine rescaling of inputs is cancelled by stage 1
    X, y = _toy_joint_data(seed=3)
    scale = np.linspace(0.5, 3.0, JOINT_DIM)
    shift = np.linspace(-2.0, 2.0, JOINT_DIM)
    n1, s1 = feature_fusion_train(X, y, epochs=10, seed=0)
    n2, s2 = feature_fusion_train(X * scale + shift, y, epochs=10, seed=0)
    assert np.allclose(normalize_apply(n1, X), normalize_apply(n2, X * scale + shift),
                       atol=1e-8)
    assert np.array_equal(feature_fusion_predict(n1, s1, X),
                          feature_fusion_predict(n2, s2, X * scale + shift))


@pytest.mark.parametrize("seed", [0, 1])
def test_fusion_predictions_trains_each_distinct_model_once(monkeypatch, seed):
    """Intact and audio-failed clips in one call train 7 SVMs (4 channels,
    failed audio, 2 joint) instead of 10, with labels byte-identical to one
    call per variant for every channel, both joint vectors and bn."""
    data = {failed: synth_dataset(SynthConfig(n_clips=875, seed=seed,
                                              informativeness=BASELINE_INFORMATIVENESS,
                                              failed_channels=failed))
            for failed in ((), ("audio",))}
    variants = {failed: d.features for failed, d in data.items()}
    y = data[()].labels
    calls = []
    monkeypatch.setattr(fusion, "svm_train",
                        lambda X, *args, **kw: calls.append(X.shape) or svm_train(X, *args, **kw))

    def run(group):
        return fusion_predictions(group, y, slice(0, 350), slice(350, 525), slice(525, None),
                                  epochs=20, seed=seed)

    together = run(variants)
    assert len(calls) == 7
    apart = {name: run({name: features})[name] for name, features in variants.items()}
    assert len(calls) == 7 + 10
    for name in variants:
        assert sorted(together[name]) == sorted([*CHANNELS, "joint", "bn"])
        for key, labels in apart[name].items():
            assert together[name][key].tobytes() == labels.tobytes(), (name, key)


def _with_nan(matrix):
    spoiled = matrix.copy()
    spoiled[5, 3] = np.nan
    return spoiled


@pytest.mark.parametrize("spoil, message", [
    (lambda f: {**f, "lbptop": np.zeros((70, 100))},
     r"lbptop: expected shape \(70, 150\), got \(70, 100\)"),
    (lambda f: {**f, "blstm": _with_nan(f["blstm"])}, "blstm: contains non-finite values"),
    (lambda f: {ch: v for ch, v in f.items() if ch != "cnn"}, "cnn: expected an array of numbers"),
], ids=["wrong-width", "nan", "missing"])
def test_fusion_predictions_checks_every_variant_before_training(monkeypatch, spoil, message):
    """A bad channel in any variant, the last included, fails before any
    SVM trains, and the error names the channel."""
    data = synth_dataset(SynthConfig(n_clips=70, seed=0))
    calls = []
    monkeypatch.setattr(fusion, "svm_train", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match=f"^{message}$"):
        fusion_predictions({"intact": data.features, "bad": spoil(data.features)}, data.labels,
                           slice(0, 30), slice(30, 50), slice(50, None), epochs=2, seed=0)
    assert calls == []


def test_cpt_perfect_predictor():
    y = np.arange(7).repeat(3)
    model = fit_measurement_cpt(y, y, alpha=0.0, channel="cnn")
    assert np.array_equal(model.cpt, np.eye(7))


def test_cpt_constant_predictor_laplace():
    truths = np.arange(7)
    preds = np.zeros(7, dtype=int)
    model = fit_measurement_cpt(preds, truths, alpha=1.0)
    expected_row = np.full(7, 1.0 / 8.0)
    expected_row[0] = 2.0 / 8.0
    for e in range(7):
        assert np.allclose(model.cpt[e], expected_row, atol=1e-12)


def test_cpt_rows_sum_to_one():
    rng = np.random.default_rng(0)
    preds = rng.integers(0, 7, 100)
    truths = rng.integers(0, 7, 100)
    model = fit_measurement_cpt(preds, truths, alpha=0.7)
    assert np.max(np.abs(model.cpt.sum(axis=1) - 1.0)) <= 1e-12


def test_cpt_empty_class_row():
    with pytest.raises(EmptyClassRow):
        fit_measurement_cpt([0, 1], [0, 1], alpha=0.0)  # classes 2..6 absent
    # smoothing fills the empty rows
    model = fit_measurement_cpt([0, 1], [0, 1], alpha=1.0)
    assert np.allclose(model.cpt[3], np.full(7, 1.0 / 7.0))
    with pytest.raises(ValueError, match=r"^alpha must be a real number in \[0, inf\), got -1$"):
        fit_measurement_cpt([0, 1], [0, 1], alpha=-1)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_cpt_rejects_nonfinite_alpha(alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before it divides
        with pytest.raises(ValueError,
                           match=rf"^alpha must be a real number in \[0, inf\), got {alpha}$"):
            fit_measurement_cpt([0, 1], [0, 1], alpha=alpha)


def test_cpt_length_mismatch():
    with pytest.raises(LengthMismatch):
        fit_measurement_cpt([0, 1], [0], alpha=1.0)
    with pytest.raises(UnknownLabel):
        fit_measurement_cpt([0, 1], [-1, 1], alpha=1.0)


def _random_bn(rng, channels=("audio", "lbptop", "cnn", "blstm")):
    prior = rng.random(7) + 0.1
    prior /= prior.sum()
    measurements = []
    for ch in channels:
        cpt = rng.random((7, 7)) + 0.05
        cpt /= cpt.sum(axis=1, keepdims=True)
        measurements.append(MeasurementModel(channel=ch, cpt=cpt))
    return BnFusionModel(prior=prior, measurements=tuple(measurements))


def bn_joint_table_posterior(model, observed):
    """Oracle: enumerate the full joint P(E, M1..M4) and condition on it."""
    channels = list(model.channels)
    axes = [7] * len(channels)
    post = np.zeros(7)
    for e in range(7):
        total = 0.0
        for combo in itertools.product(*(range(7) for _ in channels)):
            p = model.prior[e]
            for meas, m in zip(model.measurements, combo):
                p *= meas.cpt[e, m]
            if all(combo[channels.index(ch)] == observed[ch] for ch in observed):
                total += p
        post[e] = total
    return post / post.sum()


def test_fit_bn_equals_manual_chain():
    rng = np.random.default_rng(8)
    truths = rng.integers(0, 7, 60)
    decisions = {ch: rng.integers(0, 7, 60) for ch in ("cnn", "joint", "audio")}
    model = fit_bn(decisions, truths)
    assert model.channels == ("audio", "cnn", "joint")
    assert np.array_equal(model.prior, uniform_prior())
    for meas in model.measurements:
        expected = fit_measurement_cpt(decisions[meas.channel], truths, alpha=1.0)
        assert np.array_equal(meas.cpt, expected.cpt)
    with pytest.raises(LengthMismatch):
        fit_bn({"cnn": truths[:-1]}, truths)


def test_bn_perfect_channels():
    measurements = tuple(MeasurementModel(channel=ch, cpt=np.eye(7))
                         for ch in ("audio", "lbptop", "cnn", "blstm"))
    model = BnFusionModel(prior=uniform_prior(), measurements=measurements)
    label, post = bn_infer(model, {"audio": 3, "lbptop": 3, "cnn": 3, "blstm": 3})
    assert label == 3
    assert post[3] == pytest.approx(1.0)


def test_bn_uninformative_channel_tie_break():
    cpt = np.full((7, 7), 1.0 / 7.0)
    model = BnFusionModel(prior=uniform_prior(),
                          measurements=(MeasurementModel(channel="audio", cpt=cpt),))
    label, post = bn_infer(model, {"audio": 4})
    assert label == 0
    assert np.allclose(post, 1.0 / 7.0, atol=1e-15)


def test_bn_matches_joint_table_oracle():
    rng = np.random.default_rng(1)
    model = _random_bn(rng, channels=("audio", "cnn"))
    for obs in itertools.product(range(7), repeat=2):
        observed = {"audio": obs[0], "cnn": obs[1]}
        _, post = bn_infer(model, observed)
        oracle = bn_joint_table_posterior(model, observed)
        assert np.max(np.abs(post - oracle)) <= 1e-12


def test_bn_marginalizes_missing_channels():
    rng = np.random.default_rng(2)
    model = _random_bn(rng)
    observed = {"cnn": 5}
    _, post = bn_infer(model, observed)
    oracle = bn_joint_table_posterior(model, observed)
    assert np.max(np.abs(post - oracle)) <= 1e-12


def test_bn_posterior_normalized_and_order_invariant():
    rng = np.random.default_rng(3)
    model = _random_bn(rng)
    obs_a = {"audio": 1, "lbptop": 2, "cnn": 3, "blstm": 4}
    obs_b = dict(reversed(list(obs_a.items())))
    la, pa = bn_infer(model, obs_a)
    lb, pb = bn_infer(model, obs_b)
    assert la == lb
    assert np.array_equal(pa, pb)  # fixed multiplication order -> exact
    assert pa.sum() == pytest.approx(1.0, abs=1e-12)
    assert pa.min() >= 0


def test_bn_permuted_measurements_agree_within_tolerance():
    rng = np.random.default_rng(4)
    model = _random_bn(rng)
    permuted = BnFusionModel(prior=model.prior,
                             measurements=tuple(reversed(model.measurements)))
    obs = {"audio": 2, "lbptop": 0, "cnn": 6, "blstm": 1}
    _, pa = bn_infer(model, obs)
    _, pb = bn_infer(permuted, obs)
    assert np.max(np.abs(pa - pb)) <= 1e-12


def test_bn_single_identity_channel_returns_observation():
    model = BnFusionModel(prior=uniform_prior(),
                          measurements=(MeasurementModel(channel="cnn", cpt=np.eye(7)),))
    for m in range(7):
        assert bn_infer(model, {"cnn": m})[0] == m


def test_bn_three_agreeing_channels_dominate():
    rng = np.random.default_rng(5)
    strong = np.full((7, 7), 0.02)
    np.fill_diagonal(strong, 0.88)
    measurements = [MeasurementModel(channel=ch, cpt=strong)
                    for ch in ("audio", "lbptop", "cnn")]
    noisy = rng.random((7, 7)) + 0.3
    noisy /= noisy.sum(axis=1, keepdims=True)
    measurements.append(MeasurementModel(channel="blstm", cpt=noisy))
    model = BnFusionModel(prior=uniform_prior(), measurements=tuple(measurements))
    for fourth in range(7):
        obs = {"audio": 2, "lbptop": 2, "cnn": 2, "blstm": fourth}
        assert bn_infer(model, obs)[0] == 2
        oracle = bn_joint_table_posterior(model, obs)
        assert int(np.argmax(oracle)) == 2


def test_bn_errors():
    """One clip's labels and arrays of labels fail alike."""
    rng = np.random.default_rng(6)
    model = _random_bn(rng, channels=("audio", "cnn"))
    with pytest.raises(ValueError):
        bn_infer(model, {})
    with pytest.raises(UnknownChannel):
        bn_infer(model, {"blstm": 1})
    for bad in (1.5, 7, -1):  # not class indices; 1.5 must not truncate to 1
        with pytest.raises(ValueError, match="^audio: observed label .* class index"):
            bn_infer(model, {"audio": bad})
        with pytest.raises(ValueError, match="^cnn: observed label .* class index"):
            bn_infer(model, {"audio": [0, 1, 2], "cnn": [3, bad, 4]})
    # A string beside numbers: the channel and label named are the ones at fault.
    for observed, fault in (({"audio": 2, "cnn": "x"}, "cnn: observed label x"),
                            ({"audio": "x", "cnn": 2}, "audio: observed label x"),
                            ({"audio": 9, "cnn": "x"}, "audio: observed label 9"),
                            ({"audio": [0, 1, 2], "cnn": [3, "x", 4]}, "cnn: observed label x"),
                            ({"audio": [0, 1, 2], "cnn": ["3", "4", "5"]}, "cnn: observed label 3"),
                            ({"audio": [0, 1, 2], "cnn": [3, None, 4]},
                             "cnn: observed label None")):
        with pytest.raises(ValueError, match=f"^{fault} is not a class index in 0..6$"):
            bn_infer(model, observed)
    for ragged in ([3, 4], 3):
        with pytest.raises(DimensionMismatch, match="differ in shape"):
            bn_infer(model, {"audio": [0, 1, 2], "cnn": ragged})
    hard = np.zeros((7, 7))
    hard[:, 0] = 1.0
    model = BnFusionModel(prior=uniform_prior(),
                          measurements=(MeasurementModel(channel="audio", cpt=hard),))
    with pytest.raises(AllZeroPosterior, match="^row 0:"):
        bn_infer(model, {"audio": 3})
    with pytest.raises(AllZeroPosterior, match="^row 1:"):
        bn_infer(model, {"audio": [0, 3, 0, 5]})
    audio = MeasurementModel(channel="audio", cpt=np.eye(7))
    with pytest.raises(ValueError, match="once"):
        BnFusionModel(prior=uniform_prior(), measurements=(audio, audio))


@pytest.mark.parametrize("channels", [CHANNELS, ("cnn", "audio")])
def test_bn_batched_equals_one_clip_calls(channels):
    """Label arrays give, row for row, the bytes of one call per clip, with
    every channel observed and with the others marginalized out."""
    rng = np.random.default_rng(8)
    model = _random_bn(rng)
    observed = {ch: rng.integers(0, 7, 500) for ch in channels}
    labels, post = bn_infer(model, observed)
    assert labels.shape == (500,) and post.shape == (500, 7)
    for i in range(500):
        label, row = bn_infer(model, {ch: int(observed[ch][i]) for ch in channels})
        assert type(label) is int and label == labels[i]
        assert row.tobytes() == post[i].tobytes()


def test_measurement_model_validation():
    with pytest.raises(ValueError):
        MeasurementModel(channel="audio", cpt=np.full((7, 7), 0.2))
    with pytest.raises(DimensionMismatch):
        MeasurementModel(channel="audio", cpt=np.eye(6))
    nan_cpt = np.eye(7)
    nan_cpt[2, 2] = np.nan
    with pytest.raises(ValueError):
        MeasurementModel(channel="audio", cpt=nan_cpt)
    audio = MeasurementModel(channel="audio", cpt=np.eye(7))
    nan_prior = uniform_prior()
    nan_prior[4] = np.nan
    with pytest.raises(ValueError):
        BnFusionModel(prior=nan_prior, measurements=(audio,))
    with pytest.raises(DimensionMismatch):
        BnFusionModel(prior=np.full(6, 1.0 / 6.0), measurements=(audio,))


def test_bn_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    model = _random_bn(rng)
    save_bn(model, tmp_path / "bn.json")
    loaded = load_bn(tmp_path / "bn.json")
    assert loaded.channels == model.channels
    assert np.array_equal(loaded.prior, model.prior)
    obs = {"audio": 1, "lbptop": 5, "cnn": 0, "blstm": 3}
    assert np.array_equal(bn_infer(loaded, obs)[1], bn_infer(model, obs)[1])
    doc = json.loads((tmp_path / "bn.json").read_text())
    doc["measurements"][1]["cpt"][3][3] = float("nan")
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="bad.json: lbptop CPT"):
        load_bn(tmp_path / "bad.json")
    doc = json.loads((tmp_path / "bn.json").read_text())
    doc["prior"] = doc["prior"][:6]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(DimensionMismatch, match="bad.json: prior"):
        load_bn(tmp_path / "bad.json")


@pytest.mark.parametrize("drop, where", [
    ("kind", "bad.json"), ("prior", "bad.json"), ("measurements", "bad.json"),
    ("channel", r"bad.json: measurements\[2\]"), ("cpt", r"bad.json: measurements\[2\]")])
def test_load_bn_missing_key(tmp_path, drop, where):
    save_bn(_random_bn(np.random.default_rng(8)), tmp_path / "bn.json")
    doc = json.loads((tmp_path / "bn.json").read_text())
    del (doc["measurements"][2] if drop in ("channel", "cpt") else doc)[drop]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(MissingKey, match=f"{where}: missing key '{drop}'"):
        load_bn(tmp_path / "bad.json")


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc.update(measurements=5), "measurements: expected a list"),
    (lambda doc: doc.update(prior=[{}] * 7), "prior: expected an array of numbers"),
    (lambda doc: doc["measurements"][1].update(channel=[1]), "channel must be a string"),
    (lambda doc: doc["measurements"][0].update(cpt="eye"), "audio CPT: expected an array")])
def test_load_bn_wrong_typed_field(tmp_path, change, message):
    save_bn(_random_bn(np.random.default_rng(9)), tmp_path / "bn.json")
    doc = json.loads((tmp_path / "bn.json").read_text())
    change(doc)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{tmp_path / 'bad.json'}: {message}"):
        load_bn(tmp_path / "bad.json")


def test_decisions_csv_roundtrip(tmp_path):
    rows = [("c1", "audio", 3), ("c2", "audio", 0), ("c1", "cnn", 6)]
    path = tmp_path / "dec.csv"
    write_decisions(path, rows)
    merged = read_decisions([path])
    assert merged == {"c1": {"audio": 3, "cnn": 6}, "c2": {"audio": 0}}
    assert list(merged) == ["c1", "c2"] and list(merged["c1"]) == ["audio", "cnn"]
    for one_path in (path, str(path)):
        with pytest.raises(TypeError, match="takes a list of paths"):
            read_decisions(one_path)
    text = path.read_text().splitlines()
    assert text[0] == "clip_id,channel,predicted_label"
    assert text[1] == "c1,audio,Happy"


def test_failed_decisions_write_keeps_the_old_file(tmp_path):
    """A label that is not a class index fails the write before the file is
    touched: an old file stays byte-identical, and none is left otherwise."""
    path = tmp_path / "dec.csv"
    with pytest.raises(ValueError, match="1.5"):
        write_decisions(path, [("c1", "audio", 3), ("c2", "audio", 1.5)])
    assert list(tmp_path.iterdir()) == []
    write_decisions(path, [("c1", "audio", 3)])
    before = path.read_bytes()
    with pytest.raises(ValueError, match="1.5"):
        write_decisions(path, [("c1", "audio", 4), ("c2", "audio", 1.5)])
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["dec.csv"]


@pytest.mark.parametrize("row, cell", [(",audio,Angry", "clip_id"), ("c1,,Angry", "channel"),
                                       (" ,audio,Angry", "clip_id")])
def test_read_decisions_rejects_an_empty_cell(tmp_path, row, cell):
    path = tmp_path / "dec.csv"
    path.write_text(f"clip_id,channel,predicted_label\nc0,audio,Fear\n{row}\n")
    with pytest.raises(ValueError, match=f"^{path}:3: empty {cell}$"):
        read_decisions([path])
