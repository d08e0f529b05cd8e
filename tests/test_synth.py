import re
import tracemalloc

import numpy as np
import pytest

from avfusion import synth
from avfusion.core import CHANNELS, SEGMENT_DIMS, load_manifest, read_tensor_array
from avfusion.features import k_average_pool
from avfusion.learn import svm_predict_batch, svm_train
from avfusion.synth import BASELINE_INFORMATIVENESS, SynthConfig, synth_dataset, synth_generate


def test_config_validation():
    for n_clips in (0, 2.5, True):
        with pytest.raises(ValueError, match="^n_clips must be an integer >= 1"):
            SynthConfig(n_clips=n_clips)
    for seed in (2.5, -1, True, "0"):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            SynthConfig(n_clips=5, seed=seed)
    assert synth_dataset(SynthConfig(n_clips=7, seed=np.int64(0))).labels.size == 7
    with pytest.raises(ValueError):
        SynthConfig(informativeness=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        SynthConfig(informativeness=(1.0, 1.0, 1.0, 1.5))
    with pytest.raises(ValueError):
        SynthConfig(failed_channels=("video",))


@pytest.mark.parametrize("failed", ["audio", ""])
def test_config_refuses_a_string_of_failed_channels(failed):
    message = f"failed_channels must be a collection of names from {CHANNELS}, got {failed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SynthConfig(failed_channels=failed)
    assert SynthConfig(failed_channels=("audio",)).failed_channels == ("audio",)


def test_dataset_shapes_and_balance():
    cfg = SynthConfig(n_clips=140, seed=3)
    data = synth_dataset(cfg)
    assert data.features["audio"].shape == (140, 20)
    assert data.features["lbptop"].shape == (140, 150)
    assert data.features["cnn"].shape == (140, 49)
    assert data.features["blstm"].shape == (140, 50)
    cnn_scores = synth._draw(cfg)[1]("cnn")  # the frames synth_generate writes
    assert len(cnn_scores) == 140
    assert np.array_equal(np.bincount(data.labels, minlength=7), np.full(7, 20))
    for scores in cnn_scores[:5]:
        assert scores.shape[1] == 7
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)
        assert scores.min() >= 0


def test_high_informativeness_separable(monkeypatch):
    monkeypatch.setattr(synth, "BASE_SEPARATION", 12.0)
    cfg = SynthConfig(n_clips=420, informativeness=(1, 1, 1, 1), seed=0)
    data = synth_dataset(cfg)
    y = data.labels
    for ch in CHANNELS:
        X = data.features[ch]
        model = svm_train(X[:280], y[:280], epochs=20, seed=0)
        acc = np.mean(svm_predict_batch(model, X[280:]) == y[280:])
        assert acc >= 0.99, ch


def test_failed_channel_at_chance():
    cfg = SynthConfig(n_clips=700, failed_channels=("audio",), seed=1)
    data = synth_dataset(cfg)
    y = data.labels
    X = data.features["audio"]
    model = svm_train(X[:350], y[:350], epochs=20, seed=0)
    acc = np.mean(svm_predict_batch(model, X[350:]) == y[350:])
    assert abs(acc - 1.0 / 7.0) <= 0.05


def test_failing_a_channel_leaves_others_untouched():
    base = synth_dataset(SynthConfig(n_clips=60, seed=5))
    failed = synth_dataset(SynthConfig(n_clips=60, seed=5, failed_channels=("audio",)))
    for ch in ("lbptop", "cnn", "blstm"):
        assert np.array_equal(base.features[ch], failed.features[ch])
    assert not np.array_equal(base.features["audio"], failed.features["audio"])
    assert np.array_equal(base.labels, failed.labels)


def synth_dataset_per_clip(config):
    """The dataset with its cnn channel drawn clip by clip: one (T, 7)
    logit draw, softmax and pooling call per clip.  Returns the features
    and the per-clip scores."""
    streams = np.random.SeedSequence(config.seed).spawn(len(CHANNELS) + 1)
    rng = np.random.default_rng(streams[0])
    labels = np.arange(config.n_clips) % 7
    rng.shuffle(labels)
    frames = rng.integers(synth.CNN_FRAMES[0], synth.CNN_FRAMES[1] + 1, size=config.n_clips)
    features, scores = {}, []
    for idx, channel in enumerate(CHANNELS):
        chan_rng = np.random.default_rng(streams[idx + 1])
        rho = 0.0 if channel in config.failed_channels else config.informativeness[idx]
        sep = synth.BASE_SEPARATION * rho
        if channel == "cnn":
            for i in range(config.n_clips):
                logits = synth.CNN_LOGIT_NOISE * chan_rng.standard_normal((frames[i], 7))
                logits[:, labels[i]] += sep
                shifted = logits - logits.max(axis=1, keepdims=True)
                expd = np.exp(shifted)
                scores.append(expd / expd.sum(axis=1, keepdims=True))
            features[channel] = np.stack([k_average_pool(s, 7) for s in scores])
        else:
            dim = SEGMENT_DIMS[channel]
            directions = chan_rng.standard_normal((7, dim))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            noise = chan_rng.standard_normal((config.n_clips, dim))
            features[channel] = sep * directions[labels] + noise
    return features, scores


def _assert_matches_per_clip(config):
    data = synth_dataset(config)
    features, scores = synth_dataset_per_clip(config)
    for channel in CHANNELS:
        assert data.features[channel].tobytes() == features[channel].tobytes(), channel
    cnn_scores = synth._draw(config)[1]("cnn")  # the frames synth_generate writes
    assert len(cnn_scores) == len(scores)
    for got, want in zip(cnn_scores, scores):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n_clips", [1, 7, 35])
@pytest.mark.parametrize("failed", [(), ("cnn",)])
def test_cnn_channel_matches_per_clip_draws(seed, n_clips, failed):
    """The one-pass cnn channel is byte-equal to drawing, softmaxing and
    pooling clip by clip, and its scores keep their per-clip shapes."""
    _assert_matches_per_clip(SynthConfig(n_clips=n_clips, seed=seed, failed_channels=failed,
                                         informativeness=BASELINE_INFORMATIVENESS))


def test_cnn_channel_matches_per_clip_draws_at_desk_scale():
    _assert_matches_per_clip(SynthConfig(n_clips=5000, seed=0,
                                         informativeness=BASELINE_INFORMATIVENESS))


def test_synth_dataset_keeps_no_spent_channel_matrix():
    """Each vector channel's noise draw becomes its output, the class means
    added in place, so no n×dim array outlives its channel: the peak stays
    within half the lbptop matrix above what the dataset keeps."""
    tracemalloc.start()
    try:
        data = synth_dataset(SynthConfig(n_clips=5000, seed=0))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < 0.5 * data.features["lbptop"].nbytes


def test_synth_dataset_keeps_only_features_and_labels():
    """The cnn frames are pooled and freed inside the call: what the dataset
    keeps is its features and labels, with no T×7 frame array behind them."""
    synth_dataset(SynthConfig(n_clips=50, seed=0))  # first-call allocations happen here
    tracemalloc.start()
    try:
        data = synth_dataset(SynthConfig(n_clips=5000, seed=0))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not hasattr(data, "cnn_scores")
    assert kept <= 1.01 * (sum(f.nbytes for f in data.features.values()) + data.labels.nbytes)


def test_synth_generate_holds_one_channel_at_a_time(tmp_path):
    """synth_generate draws and writes one channel before the next, so a
    2000-clip rewrite peaks below 2.5× its lbptop matrix above entry."""
    cfg = SynthConfig(n_clips=2000, seed=0)
    synth_generate(cfg, tmp_path)  # first-call allocations happen here
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        synth_generate(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry < 2.5 * cfg.n_clips * SEGMENT_DIMS["lbptop"] * 8


def test_generate_writes_loadable_dataset(tmp_path):
    cfg = SynthConfig(n_clips=12, seed=2)
    manifest_path = synth_generate(cfg, tmp_path / "data")
    manifest = load_manifest(manifest_path)
    assert len(manifest.entries) == 12
    entry = manifest.entries[0]
    assert set(entry.paths) == set(CHANNELS)
    audio = read_tensor_array(entry.paths["audio"])
    assert audio.shape == (20,)
    scores = read_tensor_array(entry.paths["cnn"])
    assert scores.ndim == 2 and scores.shape[1] == 7


def test_generate_deterministic_bytes(tmp_path):
    cfg = SynthConfig(n_clips=8, seed=9)
    p1 = synth_generate(cfg, tmp_path / "a")
    p2 = synth_generate(cfg, tmp_path / "b")
    files1 = sorted(p1.parent.iterdir())
    files2 = sorted(p2.parent.iterdir())
    assert [f.name for f in files1] == [f.name for f in files2]
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes(), f1.name


def test_baseline_profile_is_valid_config():
    SynthConfig(n_clips=10, informativeness=BASELINE_INFORMATIVENESS)

