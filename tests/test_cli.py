import csv
import json
import os
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avfusion import features
from avfusion.cli import _channel_matrix, main
from avfusion.core import (CHANNELS, MANIFEST_COLUMNS, load_manifest, read_tensor_array,
                           save_manifest, write_tensor_array)
from avfusion.features import k_average_pool
from avfusion.fusion import (BnFusionModel, MeasurementModel, bn_infer, fusion_predictions,
                             load_bn, read_decisions, save_bn, uniform_prior, write_decisions)
from avfusion.learn import LinearSvmModel, save_svm
from avfusion.synth import SynthConfig, synth_dataset


def run(*argv):
    return main([str(a) for a in argv])


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run("lbptop")  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # pooling is fixed at 7 bins
        run("train-svm", "--manifest", "m.csv", "--channel", "cnn", "--out", "m.json",
            "--k", 7)
    assert exc.value.code == 2
    for argv in (("fuse-bn", "fit", "--manifest", "m.csv", "--decisions", "d.csv",
                  "--out", "bn.json", "--scalar"),
                 ("lbptop", "--in", "v.fvt", "--out", "d.fvt", "--grid-rows", 2),
                 ("synth", "--out", "data", "--frames-min", 4),
                 ("train-svm", "--manifest", "m.csv", "--channel", "cnn", "--out", "m.json",
                  "--c", 2),
                 ("island-demo", "--lam", 0)):
        with pytest.raises(SystemExit) as exc:  # fixed at the library defaults
            run(*argv)
        assert exc.value.code == 2, argv


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_module_entry_point():
    """``python -m avfusion.cli`` runs ``main`` and exits with its status."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}

    def status(*argv):
        return subprocess.run([sys.executable, "-m", "avfusion.cli", *argv], env=env,
                              capture_output=True).returncode

    assert status("--help") == 0
    assert status() == 2


def test_lbptop_stage(tmp_path):
    rng = np.random.default_rng(0)
    vol = rng.integers(0, 256, size=(5, 12, 12)).astype(float)
    write_tensor_array(tmp_path / "clip.fvt", vol)
    assert run("lbptop", "--in", tmp_path / "clip.fvt", "--out", tmp_path / "d.fvt") == 0
    desc = read_tensor_array(tmp_path / "d.fvt")
    assert desc.shape == (2832,)


def test_lbptop_data_error_exits_1(tmp_path, capsys):
    write_tensor_array(tmp_path / "flat.fvt", np.zeros((4, 4)))
    assert run("lbptop", "--in", tmp_path / "flat.fvt", "--out", tmp_path / "d.fvt") == 1
    assert "error" in capsys.readouterr().err


def test_pca_fit_apply(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((30, 8))
    write_tensor_array(tmp_path / "X.fvt", X)
    assert run("pca", "fit", "--in", tmp_path / "X.fvt", "--q", 3,
               "--out", tmp_path / "pca.json") == 0
    write_tensor_array(tmp_path / "x.fvt", X[0])
    assert run("pca", "apply", "--model", tmp_path / "pca.json",
               "--in", tmp_path / "x.fvt", "--out", tmp_path / "y.fvt") == 0
    assert read_tensor_array(tmp_path / "y.fvt").shape == (3,)


def test_pool_stage(tmp_path):
    rng = np.random.default_rng(2)
    write_tensor_array(tmp_path / "scores.fvt", rng.random((16, 7)))
    assert run("pool", "--in", tmp_path / "scores.fvt", "--out", tmp_path / "p.fvt") == 0
    assert read_tensor_array(tmp_path / "p.fvt").shape == (49,)


@pytest.fixture(scope="module")
def synth_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    train = base / "train"
    test = base / "test"
    assert main(["synth", "--out", str(train), "--n-clips", "140", "--seed", "0",
                 "--informativeness", "0.9,0.9,0.9,0.9"]) == 0
    assert main(["synth", "--out", str(test), "--n-clips", "70", "--seed", "1",
                 "--informativeness", "0.9,0.9,0.9,0.9"]) == 0
    return base, train / "manifest.csv", test / "manifest.csv"


def test_full_pipeline(synth_dirs):
    base, train_manifest, test_manifest = synth_dirs
    decision_files = []
    for channel in ("audio", "cnn"):
        model = base / f"{channel}.json"
        assert run("train-svm", "--manifest", train_manifest, "--channel", channel,
                   "--epochs", 15, "--out", model) == 0
        dec = base / f"{channel}_train_dec.csv"
        assert run("predict-svm", "--manifest", train_manifest, "--channel", channel,
                   "--model", model, "--out", dec) == 0
        decision_files.append(dec)

    # model-level fusion
    bn_model = base / "bn.json"
    assert run("fuse-bn", "fit", "--manifest", train_manifest,
               "--decisions", *decision_files, "--out", bn_model) == 0
    test_decisions = []
    for channel in ("audio", "cnn"):
        dec = base / f"{channel}_test_dec.csv"
        assert run("predict-svm", "--manifest", test_manifest, "--channel", channel,
                   "--model", base / f"{channel}.json", "--out", dec) == 0
        test_decisions.append(dec)
    fused = base / "fused.csv"
    assert run("fuse-bn", "infer", "--model", bn_model,
               "--decisions", *test_decisions, "--out", fused) == 0
    merged = read_decisions([fused])
    assert len(merged) == 70
    assert all(list(observed) == ["bn"] for observed in merged.values())

    # feature-level fusion
    assert run("fuse-feat", "train", "--manifest", train_manifest, "--epochs", 15,
               "--out-norm", base / "norm.json", "--out-svm", base / "joint.json") == 0
    joint_dec = base / "joint_dec.csv"
    assert run("fuse-feat", "predict", "--manifest", test_manifest,
               "--norm", base / "norm.json", "--svm", base / "joint.json",
               "--out", joint_dec) == 0

    # evaluation
    report = base / "report.csv"
    assert run("evaluate", "--pred", joint_dec, "--manifest", test_manifest,
               "--out", report) == 0
    lines = report.read_text().splitlines()
    overall = float(lines[0].split(",")[1])
    assert overall > 0.5  # highly informative channels
    counts = [int(v) for line in lines[2:] for v in line.split(",")[2:]]
    assert sum(counts) == 70


def test_fuse_bn_infer_unknown_channel_exits_1(synth_dirs, tmp_path, capsys):
    base, train_manifest, _ = synth_dirs
    dec = base / "audio_train_dec.csv"
    bn_audio_only = tmp_path / "bn_audio.json"
    assert run("fuse-bn", "fit", "--manifest", train_manifest,
               "--decisions", dec, "--out", bn_audio_only) == 0
    cnn_dec = base / "cnn_train_dec.csv"
    assert run("fuse-bn", "infer", "--model", bn_audio_only,
               "--decisions", cnn_dec, "--out", tmp_path / "f.csv") == 1
    assert "UnknownChannel" in capsys.readouterr().err


def test_fuse_bn_infer_marginalizes_a_clips_missing_channel(tmp_path):
    """Clips without a cnn (or an audio) decision are fused from the channels
    they have: each output label is that of a one-clip ``bn_infer`` call."""
    rng = np.random.default_rng(0)
    cpts = rng.random((2, 7, 7)) + 0.05
    save_bn(BnFusionModel(prior=uniform_prior(), measurements=tuple(
        MeasurementModel(channel=ch, cpt=cpt / cpt.sum(axis=1, keepdims=True))
        for ch, cpt in zip(("audio", "cnn"), cpts))), tmp_path / "bn.json")
    clips = [f"clip_{i:05d}" for i in range(60)]
    has = rng.random((2, 60))
    for ch, keep in (("audio", has[0] > 0.2), ("cnn", has[1] > 0.4)):
        write_decisions(tmp_path / f"{ch}.csv", [(c, ch, int(m)) for c, m, k in
                                                 zip(clips, rng.integers(0, 7, 60), keep) if k])
    decisions = [tmp_path / "audio.csv", tmp_path / "cnn.csv"]
    merged = read_decisions(decisions)
    assert {tuple(sorted(o)) for o in merged.values()} == {("audio",), ("cnn",), ("audio", "cnn")}
    assert run("fuse-bn", "infer", "--model", tmp_path / "bn.json", "--decisions", *decisions,
               "--out", tmp_path / "fused.csv") == 0
    model = load_bn(tmp_path / "bn.json")
    expected = {c: {"bn": bn_infer(model, merged[c])[0]} for c in sorted(merged)}
    fused = read_decisions([tmp_path / "fused.csv"])
    assert list(fused) == list(expected) and fused == expected


@pytest.mark.parametrize("argv", [
    ("fuse-bn", "fit", "--manifest", "{manifest}", "--decisions", "{dec}", "--out", "{out}"),
    ("fuse-bn", "infer", "--model", "{bn}", "--decisions", "{dec}", "--out", "{out}"),
    ("evaluate", "--pred", "{dec}", "--manifest", "{manifest}"),
], ids=["fuse-bn-fit", "fuse-bn-infer", "evaluate"])
def test_duplicate_decision_exits_1(synth_dirs, tmp_path, capsys, argv):
    _, _, manifest = synth_dirs
    ids = [e.clip_id for e in load_manifest(manifest).entries]
    dec = tmp_path / "dec.csv"
    write_decisions(dec, [(cid, "audio", 0) for cid in ids] + [(ids[3], "audio", 1)])
    bn = tmp_path / "bn.json"
    save_bn(BnFusionModel(prior=uniform_prior(),
                          measurements=(MeasurementModel(channel="audio", cpt=np.eye(7)),)), bn)
    paths = {"manifest": manifest, "dec": dec, "bn": bn, "out": tmp_path / "out.csv"}
    assert run(*(a.format(**paths) for a in argv)) == 1
    assert "DuplicateDecision" in capsys.readouterr().err


def test_nan_in_bn_model_exits_1(synth_dirs, tmp_path, capsys):
    _, _, manifest = synth_dirs
    dec = tmp_path / "dec.csv"
    write_decisions(dec, [(e.clip_id, "audio", e.label) for e in load_manifest(manifest).entries])
    bn = tmp_path / "bn.json"
    assert run("fuse-bn", "fit", "--manifest", manifest, "--decisions", dec, "--out", bn) == 0
    doc = json.loads(bn.read_text())
    doc["measurements"][0]["cpt"][2][2] = float("nan")
    bn.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("fuse-bn", "infer", "--model", bn, "--decisions", dec,
               "--out", tmp_path / "f.csv") == 1
    err = capsys.readouterr().err
    assert err == f"error: ValueError: {bn}: audio CPT: contains non-finite values\n"
    assert not (tmp_path / "f.csv").exists()


def test_bn_model_missing_key_exits_1(synth_dirs, tmp_path, capsys):
    _, _, manifest = synth_dirs
    dec = tmp_path / "dec.csv"
    write_decisions(dec, [(e.clip_id, "audio", e.label) for e in load_manifest(manifest).entries])
    bn = tmp_path / "bn.json"
    bn.write_text(json.dumps({"kind": "bn_fusion", "measurements": []}))
    capsys.readouterr()
    assert run("fuse-bn", "infer", "--model", bn, "--decisions", dec,
               "--out", tmp_path / "f.csv") == 1
    err = capsys.readouterr().err
    assert err == f"error: MissingKey: {bn}: missing key 'prior'\n"


def test_synth_informativeness_count_exits_1(tmp_path, capsys):
    assert run("synth", "--out", tmp_path, "--informativeness", "1,1,1") == 1
    assert "informativeness" in capsys.readouterr().err


def test_nan_feature_file_exits_1(tmp_path, capsys):
    """Every stage that reads channel features names a file holding NaN."""
    assert run("synth", "--out", tmp_path, "--n-clips", 21, "--seed", 4) == 0
    manifest = tmp_path / "manifest.csv"
    norm, joint = tmp_path / "norm.json", tmp_path / "joint.json"
    assert run("train-svm", "--manifest", manifest, "--channel", "audio", "--epochs", 2,
               "--out", tmp_path / "audio.json") == 0
    assert run("fuse-feat", "train", "--manifest", manifest, "--epochs", 2,
               "--out-norm", norm, "--out-svm", joint) == 0
    bad = Path(load_manifest(manifest).entries[5].paths["audio"])
    blob = bad.read_bytes()
    bad.write_bytes(blob[:-4] + struct.pack("<f", np.nan))
    capsys.readouterr()
    for argv in (("train-svm", "--manifest", manifest, "--channel", "audio",
                  "--out", tmp_path / "m.json"),
                 ("predict-svm", "--manifest", manifest, "--channel", "audio",
                  "--model", tmp_path / "audio.json", "--out", tmp_path / "d.csv"),
                 ("fuse-feat", "train", "--manifest", manifest,
                  "--out-norm", tmp_path / "n.json", "--out-svm", tmp_path / "j.json"),
                 ("fuse-feat", "predict", "--manifest", manifest, "--norm", norm,
                  "--svm", joint, "--out", tmp_path / "j.csv")):
        assert run(*argv) == 1, argv[0]
        assert str(bad) in capsys.readouterr().err, argv[0]


def test_cli_matches_library_pipeline(tmp_path):
    """The CLI stages, run on train/val/test manifests split by rows from one
    synth manifest, give the labels that the library's fusion protocol gives
    on the same slices of the float32-rounded values the CLI reads back."""
    rho, seed, epochs = (0.3, 0.4, 0.5, 0.6), 3, 5
    assert run("synth", "--out", tmp_path, "--n-clips", 70, "--seed", seed,
               "--informativeness", ",".join(map(str, rho))) == 0
    header, *rows = (tmp_path / "manifest.csv").read_text().splitlines(keepends=True)
    tr, va, te = slice(0, 30), slice(30, 50), slice(50, None)
    split = {name: tmp_path / f"{name}.csv" for name in ("train", "val", "test")}
    for name, part in zip(split, (tr, va, te)):
        split[name].write_text(header + "".join(rows[part]))
    for ch in CHANNELS:
        assert run("train-svm", "--manifest", split["train"], "--channel", ch,
                   "--epochs", epochs, "--seed", seed, "--out", tmp_path / f"{ch}.json") == 0
        for name in ("val", "test"):
            assert run("predict-svm", "--manifest", split[name], "--channel", ch,
                       "--model", tmp_path / f"{ch}.json",
                       "--out", tmp_path / f"{ch}_{name}.csv") == 0
    assert run("fuse-bn", "fit", "--manifest", split["val"],
               "--decisions", *(tmp_path / f"{ch}_val.csv" for ch in CHANNELS),
               "--out", tmp_path / "bn.json") == 0
    assert run("fuse-bn", "infer", "--model", tmp_path / "bn.json",
               "--decisions", *(tmp_path / f"{ch}_test.csv" for ch in CHANNELS),
               "--out", tmp_path / "bn_test.csv") == 0
    assert run("fuse-feat", "train", "--manifest", split["train"], "--epochs", epochs,
               "--seed", seed, "--out-norm", tmp_path / "norm.json",
               "--out-svm", tmp_path / "joint.json") == 0
    assert run("fuse-feat", "predict", "--manifest", split["test"],
               "--norm", tmp_path / "norm.json", "--svm", tmp_path / "joint.json",
               "--out", tmp_path / "joint_test.csv") == 0

    data = synth_dataset(SynthConfig(n_clips=70, informativeness=rho, seed=seed))

    def f32(a):
        return np.asarray(a, dtype=np.float32).astype(np.float64)

    feats = {ch: f32(data.features[ch]) for ch in CHANNELS if ch != "cnn"}
    feats["cnn"] = np.stack([k_average_pool(f32(s)) for s in data.cnn_scores])
    expected = fusion_predictions({"cli": feats}, data.labels, tr, va, te,
                                  epochs=epochs, seed=seed)["cli"]
    assert sorted(expected) == sorted([*CHANNELS, "joint", "bn"])
    test_ids = [f"clip_{i:05d}" for i in range(50, 70)]
    for key, labels in expected.items():
        merged = read_decisions([tmp_path / f"{key}_test.csv"])
        assert list(merged) == test_ids, key
        assert [observed[key] for observed in merged.values()] == labels.tolist(), key


def test_cnn_rows_pool_once_per_frame_count(tmp_path, monkeypatch):
    """The cnn rows a stage reads are byte-equal to pooling each clip on
    its own, for mixed frame counts (T < 7 included) and an already pooled
    row among them, with one pooling call per distinct frame count."""
    rng = np.random.default_rng(31)
    lengths = [1, 3, 6, 7, 8, 14, 3, 24, None, 1, 9, 7, 16, 5]
    entries, expected = [], []
    for i, T in enumerate(lengths):
        path = tmp_path / f"c{i}.cnn.fvt"
        write_tensor_array(path, rng.random(49) if T is None else rng.random((T, 7)))
        stored = read_tensor_array(path)
        expected.append(stored if T is None else k_average_pool(stored))
        entries.append((f"c{i}", i % 7, {"cnn": path}))
    save_manifest(tmp_path / "manifest.csv", entries)
    real_pool, calls = features.k_average_pool, []
    monkeypatch.setattr(features, "k_average_pool",
                        lambda scores, k=7: calls.append(np.shape(scores)) or real_pool(scores, k))
    rows = _channel_matrix(load_manifest(tmp_path / "manifest.csv"), "cnn")
    assert rows.tobytes() == np.stack(expected).tobytes()
    assert sorted(shape[1] for shape in calls) == sorted({T for T in lengths if T is not None})


def test_cnn_matrix_of_wrong_width_names_its_file(tmp_path, capsys):
    assert run("synth", "--out", tmp_path, "--n-clips", 14, "--seed", 1) == 0
    for clip in ("clip_00002", "clip_00005"):
        write_tensor_array(tmp_path / f"{clip}.cnn.fvt", np.ones((12, 10)))
    capsys.readouterr()
    assert run("train-svm", "--manifest", tmp_path / "manifest.csv", "--channel", "cnn",
               "--out", tmp_path / "m.json") == 1
    assert capsys.readouterr().err == (f"error: DimensionMismatch: {tmp_path}/clip_00002.cnn.fvt: "
                                       "expected shape (None, 7), got (12, 10)\n")


def test_island_demo(tmp_path, capsys):
    assert run("island-demo", "--epochs", 60, "--n-per-class", 10,
               "--out", tmp_path / "trace.csv") == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "island" in out
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "epoch,baseline_loss,island_loss"
    assert len(lines) == 61


def test_csv_out_onto_a_fifo_or_directory_exits_1(synth_dirs, tmp_path, capsys):
    """``evaluate --out`` onto a FIFO and ``island-demo --out`` onto a
    directory exit 1 naming the target; nothing is written into the FIFO,
    and no file is created or renamed."""
    _, manifest, _ = synth_dirs
    dec = tmp_path / "dec.csv"
    write_decisions(dec, [(e.clip_id, "audio", e.label) for e in load_manifest(manifest).entries])
    fifo, folder = tmp_path / "report.csv", tmp_path / "trace.csv"
    os.mkfifo(fifo)
    folder.mkdir()
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a write would not block
    try:
        for argv, target in ((("evaluate", "--pred", dec, "--manifest", manifest, "--out", fifo),
                              fifo),
                             (("island-demo", "--epochs", 5, "--n-per-class", 5, "--out", folder),
                              folder)):
            capsys.readouterr()
            assert run(*argv) == 1, argv[0]
            assert capsys.readouterr().err == (f"error: OSError: {target}: exists and is not "
                                               "a regular file; refusing to replace it\n")
        assert os.read(reader, 1 << 16) == b""
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode) and folder.is_dir() and not any(folder.iterdir())
    assert sorted(f.name for f in tmp_path.iterdir()) == ["dec.csv", "report.csv", "trace.csv"]


def test_fuse_feat_train_saves_both_models_or_neither(synth_dirs, tmp_path, capsys):
    """With ``--out-svm`` onto a directory, ``fuse-feat train`` exits 1
    before writing: the old normalization and joint SVM files keep their
    bytes, so the pair on disk still matches, and no temporary is left."""
    _, train_manifest, test_manifest = synth_dirs
    norm, folder = tmp_path / "norm.json", tmp_path / "svm"
    assert run("fuse-feat", "train", "--manifest", train_manifest, "--epochs", 2,
               "--out-norm", norm, "--out-svm", tmp_path / "joint.json") == 0
    folder.mkdir()
    old = {f.name: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()}
    assert sorted(old) == ["joint.bias.fvt", "joint.json", "joint.weights.fvt",
                           "norm.json", "norm.mean.fvt", "norm.std.fvt"]
    capsys.readouterr()
    assert run("fuse-feat", "train", "--manifest", test_manifest, "--epochs", 2,
               "--out-norm", norm, "--out-svm", folder) == 1
    assert capsys.readouterr().err == (f"error: OSError: {folder}: exists and is not "
                                       "a regular file; refusing to replace it\n")
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()} == old
    assert not any(folder.iterdir())


def test_stage_determinism(tmp_path):
    """Rerunning stages with identical flags yields byte-identical files."""
    for tag in ("a", "b"):
        d = tmp_path / tag
        assert run("synth", "--out", d, "--n-clips", 21, "--seed", 5) == 0
        assert run("train-svm", "--manifest", d / "manifest.csv", "--channel", "blstm",
                   "--epochs", 5, "--out", d / "m.json") == 0
        assert run("predict-svm", "--manifest", d / "manifest.csv", "--channel", "blstm",
                   "--model", d / "m.json", "--out", d / "dec.csv") == 0
    for name in ("manifest.csv", "clip_00000.blstm.fvt", "m.json", "m.weights.fvt",
                 "m.bias.fvt", "dec.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_wrong_typed_bn_field_exits_1(synth_dirs, tmp_path, capsys):
    _, _, manifest = synth_dirs
    dec = tmp_path / "dec.csv"
    write_decisions(dec, [(e.clip_id, "audio", e.label) for e in load_manifest(manifest).entries])
    bn = tmp_path / "bn.json"
    bn.write_text(json.dumps({"kind": "bn_fusion", "prior": [1 / 7] * 7, "measurements": 5}))
    capsys.readouterr()
    assert run("fuse-bn", "infer", "--model", bn, "--decisions", dec,
               "--out", tmp_path / "f.csv") == 1
    err = capsys.readouterr().err
    assert err == f"error: ValueError: {bn}: measurements: expected a list, got int\n"


@pytest.mark.parametrize("argv", [
    ("train-svm", "--manifest", "{manifest}", "--channel", "audio", "--out", "{out}"),
    ("fuse-feat", "train", "--manifest", "{manifest}", "--out-norm", "{norm}", "--out-svm", "{out}"),
    ("island-demo", "--n-per-class", 5, "--out", "{out}"),
], ids=["train-svm", "fuse-feat-train", "island-demo"])
def test_zero_epochs_exits_1(synth_dirs, tmp_path, capsys, argv):
    _, manifest, _ = synth_dirs
    paths = {"manifest": manifest, "norm": tmp_path / "norm.json", "out": tmp_path / "out"}
    assert run(*(str(a).format(**paths) for a in argv), "--epochs", 0) == 1
    assert capsys.readouterr().err == "error: ValueError: epochs must be an integer >= 1, got 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stage", ["fuse-bn-infer", "pca-apply"])
def test_model_file_not_json_exits_1(synth_dirs, tmp_path, capsys, stage):
    """A model file that is not a JSON document is reported in one line
    that names it."""
    _, manifest, _ = synth_dirs
    if stage == "fuse-bn-infer":
        model = tmp_path / "bn.json"
        model.write_text('{"kind": "bn_fusion", ')
        dec = tmp_path / "dec.csv"
        write_decisions(dec, [(e.clip_id, "audio", e.label)
                              for e in load_manifest(manifest).entries])
        argv = ("fuse-bn", "infer", "--model", model, "--decisions", dec,
                "--out", tmp_path / "out")
    else:
        model = tmp_path / "pca.json"
        model.write_bytes(b"\xff\xfe")
        write_tensor_array(tmp_path / "X.fvt", np.ones((3, 4)))
        argv = ("pca", "apply", "--model", model, "--in", tmp_path / "X.fvt",
                "--out", tmp_path / "out")
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ModelFormatError: {model}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_missing_feature_file_fails_where_read(tmp_path, capsys):
    """A manifest naming a missing file loads; each stage that reads the
    file exits 1 naming it and writes nothing, and the stages that read
    only labels and decisions still run."""
    assert run("synth", "--out", tmp_path, "--n-clips", 21, "--seed", 4) == 0
    manifest = tmp_path / "manifest.csv"
    norm, joint, dec = tmp_path / "norm.json", tmp_path / "joint.json", tmp_path / "audio.csv"
    assert run("train-svm", "--manifest", manifest, "--channel", "audio", "--epochs", 2,
               "--out", tmp_path / "audio.json") == 0
    assert run("predict-svm", "--manifest", manifest, "--channel", "audio",
               "--model", tmp_path / "audio.json", "--out", dec) == 0
    assert run("fuse-feat", "train", "--manifest", manifest, "--epochs", 2,
               "--out-norm", norm, "--out-svm", joint) == 0
    gone = load_manifest(manifest).entries[5].paths["audio"]
    os.unlink(gone)
    assert load_manifest(manifest).entries[5].paths["audio"] == gone
    out = tmp_path / "out"
    capsys.readouterr()
    for argv in (("train-svm", "--manifest", manifest, "--channel", "audio", "--out", out),
                 ("predict-svm", "--manifest", manifest, "--channel", "audio",
                  "--model", tmp_path / "audio.json", "--out", out),
                 ("fuse-feat", "train", "--manifest", manifest,
                  "--out-norm", out, "--out-svm", out),
                 ("fuse-feat", "predict", "--manifest", manifest, "--norm", norm,
                  "--svm", joint, "--out", out)):
        assert run(*argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ") and str(gone) in err, argv[0]
        assert not out.exists(), argv[0]
    assert run("fuse-bn", "fit", "--manifest", manifest, "--decisions", dec,
               "--out", tmp_path / "bn.json") == 0
    assert run("evaluate", "--pred", dec, "--manifest", manifest) == 0


def test_manifest_without_clips_fails_every_stage(tmp_path, capsys):
    """A manifest that is only a header names itself in every stage that
    reads one, instead of failing later on an empty stack."""
    assert run("synth", "--out", tmp_path, "--n-clips", 14, "--seed", 2) == 0
    manifest, dec = tmp_path / "manifest.csv", tmp_path / "dec.csv"
    audio, norm, joint = tmp_path / "audio.json", tmp_path / "norm.json", tmp_path / "joint.json"
    assert run("train-svm", "--manifest", manifest, "--channel", "audio", "--epochs", 2,
               "--out", audio) == 0
    assert run("fuse-feat", "train", "--manifest", manifest, "--epochs", 2,
               "--out-norm", norm, "--out-svm", joint) == 0
    assert run("predict-svm", "--manifest", manifest, "--channel", "audio", "--model", audio,
               "--out", dec) == 0
    manifest.write_text(",".join(MANIFEST_COLUMNS) + "\n")
    out = tmp_path / "out"
    capsys.readouterr()
    for argv in (("train-svm", "--manifest", manifest, "--channel", "audio", "--out", out),
                 ("predict-svm", "--manifest", manifest, "--channel", "audio",
                  "--model", audio, "--out", out),
                 ("fuse-feat", "train", "--manifest", manifest, "--out-norm", out,
                  "--out-svm", out),
                 ("fuse-feat", "predict", "--manifest", manifest, "--norm", norm,
                  "--svm", joint, "--out", out),
                 ("fuse-bn", "fit", "--manifest", manifest, "--decisions", dec, "--out", out),
                 ("evaluate", "--pred", dec, "--manifest", manifest, "--out", out)):
        assert run(*argv) == 1, argv[0]
        assert capsys.readouterr().err == (f"error: MalformedRow: {manifest}: "
                                           "no rows below the header\n"), argv[0]
        assert not out.exists(), argv[0]


def _edit_manifest(d, row, column, value):
    """Set one cell of ``d``'s manifest; ``row`` 0 is the header."""
    with open(d / "manifest.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][column] = value
    with open(d / "manifest.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_text(path, old, new):
    path.write_text(path.read_text().replace(old, new))


def _append(path, data):
    path.write_bytes(path.read_bytes() + data)


def _bn_without_decisions(d):
    save_bn(BnFusionModel(prior=uniform_prior(), measurements=(
        MeasurementModel(channel="audio", cpt=np.eye(7)),)), d / "bn.json")
    write_decisions(d / "dec.csv", [])


def _svm_of_width(d, width):
    save_svm(LinearSvmModel(W=np.zeros((7, width)), b=np.zeros(7), C=1.0), d / "svm.json")


# Each data error: how to make it in a fresh 7-clip dataset ``d`` whose
# ``dec.csv`` holds one audio decision per clip, the stage that meets
# it, and the message it reports.
TRAIN_AUDIO = ("train-svm", "--manifest", "{d}/manifest.csv", "--channel", "audio",
               "--out", "{d}/out")
PREDICT_CNN = ("predict-svm", "--manifest", "{d}/manifest.csv", "--channel", "cnn",
               "--model", "{d}/svm.json", "--out", "{d}/out")
EVALUATE = ("evaluate", "--pred", "{d}/dec.csv", "--manifest", "{d}/manifest.csv",
            "--out", "{d}/out")
DATA_ERRORS = {
    "manifest-empty": (lambda d: (d / "manifest.csv").write_text(""), TRAIN_AUDIO,
                       "MalformedRow: {d}/manifest.csv: header must be "
                       "clip_id,label,audio,lbptop_video,cnn_scores,blstm_feat"),
    "manifest-no-clips": (lambda d: (d / "manifest.csv").write_text(",".join(MANIFEST_COLUMNS)),
                          TRAIN_AUDIO, "MalformedRow: {d}/manifest.csv: no rows below the header"),
    "manifest-header": (lambda d: _edit_manifest(d, 0, 0, "clip"), TRAIN_AUDIO,
                        "MalformedRow: {d}/manifest.csv: header must be "
                        "clip_id,label,audio,lbptop_video,cnn_scores,blstm_feat"),
    "manifest-clip-id": (lambda d: _edit_manifest(d, 3, 0, " "), TRAIN_AUDIO,
                         "MalformedRow: {d}/manifest.csv:4: empty clip_id"),
    "no-channel-file": (lambda d: _edit_manifest(d, 3, 2, ""), TRAIN_AUDIO,
                        "ValueError: clip 'clip_00002' has no audio file"),
    "rank-2-feature": (lambda d: write_tensor_array(d / "clip_00002.audio.fvt", np.ones((2, 10))),
                       TRAIN_AUDIO, "DimensionMismatch: {d}/clip_00002.audio.fvt: channel audio: "
                       "expected shape (20,), got (2, 10)"),
    "trailing-bytes": (lambda d: _append(d / "clip_00002.audio.fvt", b"\0\0\0\0"), TRAIN_AUDIO,
                       "TensorFormatError: {d}/clip_00002.audio.fvt: "
                       "4 trailing bytes after payload"),
    "audio-all-short": (lambda d: [write_tensor_array(p, np.ones(19))
                                   for p in sorted(d.glob("*.audio.fvt"))], TRAIN_AUDIO,
                        "DimensionMismatch: {d}/clip_00000.audio.fvt: channel audio: "
                        "expected shape (20,), got (19,)"),
    "audio-one-short": (lambda d: write_tensor_array(d / "clip_00002.audio.fvt", np.ones(19)),
                        TRAIN_AUDIO, "DimensionMismatch: {d}/clip_00002.audio.fvt: channel "
                        "audio: expected shape (20,), got (19,)"),
    "cnn-no-frames": (lambda d: write_tensor_array(d / "clip_00002.cnn.fvt", np.ones((0, 7))),
                      ("train-svm", "--manifest", "{d}/manifest.csv", "--channel", "cnn",
                       "--out", "{d}/out"),
                      "DimensionMismatch: {d}/clip_00002.cnn.fvt: expected at least one frame, "
                      "got shape (0, 7)"),
    "unlabeled-clip": (lambda d: _edit_manifest(d, 3, 1, ""), EVALUATE,
                       "ManifestError: clip 'clip_00002' has no label"),
    "missing-decision": (lambda d: _edit_text(d / "dec.csv", "clip_00002,", "clip_00099,"),
                         EVALUATE, "ValueError: clip 'clip_00002' has no audio decision"),
    "two-channels": (lambda d: _append(d / "dec.csv", "".join(
                         row.replace(",audio,", ",cnn,") + "\n"
                         for row in (d / "dec.csv").read_text().splitlines()[1:]).encode()),
                     EVALUATE,
                     "ValueError: predictions must come from one channel, "
                     "found ['audio', 'cnn']"),
    "two-channels-partial": (lambda d: _append(d / "dec.csv", b"clip_00002,cnn,Fear\n"),
                             EVALUATE,
                             "ValueError: predictions must come from one channel, "
                             "found ['audio', 'cnn']"),
    "decisions-header": (lambda d: _edit_text(d / "dec.csv", "channel", "chan"), EVALUATE,
                         "ValueError: {d}/dec.csv: header must be "
                         "clip_id,channel,predicted_label"),
    "decisions-row": (lambda d: _append(d / "dec.csv", b"clip_00002,audio\n"), EVALUATE,
                      "ValueError: {d}/dec.csv:9: expected 3 cells, got 2"),
    "decisions-empty": (_bn_without_decisions,
                        ("fuse-bn", "infer", "--model", "{d}/bn.json",
                         "--decisions", "{d}/dec.csv", "--out", "{d}/out"),
                        "ValueError: {d}/dec.csv: no rows below the header"),
    "decisions-empty-evaluate": (lambda d: write_decisions(d / "dec.csv", []), EVALUATE,
                                 "ValueError: {d}/dec.csv: no rows below the header"),
    "decisions-empty-fit": (lambda d: write_decisions(d / "dec.csv", []),
                            ("fuse-bn", "fit", "--manifest", "{d}/manifest.csv",
                             "--decisions", "{d}/dec.csv", "--out", "{d}/out"),
                            "ValueError: {d}/dec.csv: no rows below the header"),
    "pool-rank-1": (lambda d: write_tensor_array(d / "s.fvt", np.ones(7)),
                    ("pool", "--in", "{d}/s.fvt", "--out", "{d}/out"),
                    "DimensionMismatch: {d}/s.fvt: expected shape (None, 7), got (7,)"),
    "pool-rank-3": (lambda d: write_tensor_array(d / "s.fvt", np.ones((3, 9, 7))),
                    ("pool", "--in", "{d}/s.fvt", "--out", "{d}/out"),
                    "DimensionMismatch: {d}/s.fvt: expected shape (None, 7), got (3, 9, 7)"),
    "pool-width-5": (lambda d: write_tensor_array(d / "s.fvt", np.ones((9, 5))),
                     ("pool", "--in", "{d}/s.fvt", "--out", "{d}/out"),
                     "DimensionMismatch: {d}/s.fvt: expected shape (None, 7), got (9, 5)"),
    "pool-no-frames": (lambda d: write_tensor_array(d / "s.fvt", np.ones((0, 7))),
                       ("pool", "--in", "{d}/s.fvt", "--out", "{d}/out"),
                       "DimensionMismatch: {d}/s.fvt: expected at least one frame, "
                       "got shape (0, 7)"),
    "svm-of-another-channel": (lambda d: _svm_of_width(d, 20), PREDICT_CNN,
                               "DimensionMismatch: {d}/svm.json: the model takes 20 features, "
                               "the width of channel audio, but --channel cnn has 49"),
    "svm-of-the-joint-vector": (lambda d: _svm_of_width(d, 269), PREDICT_CNN,
                                "DimensionMismatch: {d}/svm.json: the model takes 269 features, "
                                "the width of the joint vector, but --channel cnn has 49"),
    "svm-of-no-channel": (lambda d: _svm_of_width(d, 30), PREDICT_CNN,
                          "DimensionMismatch: {d}/svm.json: the model takes 30 features, "
                          "the width of no channel, but --channel cnn has 49"),
    "bn-no-measurements": (lambda d: (d / "bn.json").write_text(json.dumps(
                               {"kind": "bn_fusion", "prior": [1 / 7] * 7, "measurements": []})),
                           ("fuse-bn", "infer", "--model", "{d}/bn.json",
                            "--decisions", "{d}/dec.csv", "--out", "{d}/out"),
                           "ValueError: {d}/bn.json: at least one measurement channel "
                           "is required"),
}


@pytest.mark.parametrize("case", sorted(DATA_ERRORS))
def test_data_error_exits_1(tmp_path, capsys, case):
    make, argv, message = DATA_ERRORS[case]
    assert run("synth", "--out", tmp_path, "--n-clips", 7, "--seed", 1) == 0
    entries = load_manifest(tmp_path / "manifest.csv").entries
    write_decisions(tmp_path / "dec.csv", [(e.clip_id, "audio", e.label) for e in entries])
    make(tmp_path)
    capsys.readouterr()
    assert run(*(a.format(d=tmp_path) for a in argv)) == 1
    assert capsys.readouterr().err == f"error: {message.format(d=tmp_path)}\n"
    assert not (tmp_path / "out").exists()
