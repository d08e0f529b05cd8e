"""The benchmark's three workloads.

Each workload is built from a seed, a size preset and a directory under
which it makes its own temporary directory.  ``prepare()`` makes the
inputs (set-up, timed separately), ``run(mark)`` is the timed operation
and calls ``mark()`` between its steps,
``check(result)`` returns the problems found in its output and the test
accuracies it produced, and ``close()`` removes every file the workload
wrote.

The workloads call ``avfusion`` only through module attributes looked up
at call time (``av.learn.svm_train``), so a traced run sees every call.
"""

import contextlib
import csv
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import avfusion as av
import avfusion.cli  # binds av.cli, which the in-process walkthrough calls

# The pipeline the tests pin: tests/test_acceptance.py::_fusion_protocol(0)
# yields these test accuracies at full size.
PROTOCOL_SEED0_ACCURACIES = {"acc_audio": 0.3625, "acc_lbptop": 0.388, "acc_cnn": 0.4655,
                             "acc_blstm": 0.498, "acc_feat": 0.782, "acc_bn": 0.6065}

# The entry point the ``avfusion`` console script runs.
CLI_LAUNCHER = "import sys; from avfusion.cli import main; sys.exit(main())"

STAGE_TIMEOUT_S = 120


@dataclass(frozen=True)
class ProtocolSizes:
    n_train: int = 2000
    n_val: int = 1000
    n_test: int = 2000
    epochs: int = 20


@dataclass(frozen=True)
class CliSizes:
    n_train: int = 2000
    n_val: int = 1000
    n_test: int = 2000
    epochs: int | None = None  # None keeps the README's flags (the CLI default)


@dataclass(frozen=True)
class FrontendSizes:
    n_train: int = 152
    n_test: int = 8
    frames_min: int = 8
    frames_max: int = 24
    height: int = 96
    width: int = 96
    q: int = 150


SIZES = {
    "full": {"protocol": ProtocolSizes(), "cli_walkthrough": CliSizes(),
             "frontend": FrontendSizes()},
    "tiny": {"protocol": ProtocolSizes(n_train=70, n_val=35, n_test=70, epochs=2),
             "cli_walkthrough": CliSizes(n_train=35, n_val=21, n_test=35, epochs=2),
             "frontend": FrontendSizes(n_train=6, n_test=2, frames_min=4, frames_max=8,
                                       height=24, width=24, q=4)},
}


def _accuracy(predictions, truths):
    return float(np.mean(np.asarray(predictions) == np.asarray(truths)))


def child_env():
    """Environment for a child interpreter that imports this ``avfusion``."""
    env = dict(os.environ)
    src = str(Path(av.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class Workload:
    name = None
    import_module = "avfusion"  # what a fresh interpreter imports before this workload
    in_process = True           # False: the operation runs in child processes
    warm_up_ops = 0             # operations run, and checked, before timing starts

    def __init__(self, seed, sizes, work_root):
        self.seed = seed
        self.sizes = sizes
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=work_root))

    def import_seconds(self):
        """Import time of ``import_module`` in a fresh interpreter, as it measures it."""
        code = (f"import time; t = time.perf_counter(); import {self.import_module}; "
                f"print(repr(time.perf_counter() - t))")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class Protocol(Workload):
    """The paper experiment in process: four channel SVMs, the joint SVM,
    CPT fit and BN inference, intact and then with audio failed."""

    name = "protocol"
    configs = None

    def prepare(self):
        s = self.sizes
        self.configs = {
            failed: av.synth.SynthConfig(n_clips=s.n_train + s.n_val + s.n_test,
                                         informativeness=av.synth.BASELINE_INFORMATIVENESS,
                                         failed_channels=failed, seed=self.seed)
            for failed in ((), ("audio",))}

    def _pass(self, config, mark):
        s = self.sizes
        data = av.synth.synth_dataset(config)
        mark()
        y = data.labels
        tr = slice(0, s.n_train)
        va = slice(s.n_train, s.n_train + s.n_val)
        te = slice(s.n_train + s.n_val, None)
        val_preds, test_preds = {}, {}
        for ch in av.CHANNELS:
            X = data.features[ch]
            model = av.learn.svm_train(X[tr], y[tr], C=1.0, epochs=s.epochs, seed=self.seed)
            val_preds[ch] = av.learn.svm_predict_batch(model, X[va])
            test_preds[ch] = av.learn.svm_predict_batch(model, X[te])
            mark()
        joint = np.hstack([data.features[ch] for ch in av.CHANNELS])
        norm, svm = av.fusion.feature_fusion_train(joint[tr], y[tr], C=1.0, epochs=s.epochs,
                                                   seed=self.seed)
        test_preds["feat"] = av.learn.svm_predict_batch(
            svm, av.features.normalize_apply(norm, joint[te]))
        mark()
        measurements = tuple(av.fusion.fit_measurement_cpt(val_preds[ch], y[va], alpha=1.0,
                                                           channel=ch)
                             for ch in av.CHANNELS)
        bn = av.fusion.BnFusionModel(prior=av.fusion.uniform_prior(), measurements=measurements)
        test_preds["bn"] = np.array([
            av.fusion.bn_infer(bn, {ch: int(test_preds[ch][i]) for ch in av.CHANNELS})[0]
            for i in range(s.n_test)])
        return {"val_truth": y[va], "test_truth": y[te], "val": val_preds, "test": test_preds}

    def run(self, mark):
        return {failed: self._pass(config, mark) for failed, config in self.configs.items()}

    def check(self, result):
        s = self.sizes
        problems = []
        for failed, out in result.items():
            tag = "failed audio" if failed else "intact"
            for ch, preds in out["val"].items():
                if len(preds) != s.n_val:
                    problems.append(f"{tag}: {ch} made {len(preds)} val predictions "
                                    f"for {s.n_val} clips")
            for key, preds in out["test"].items():
                if len(preds) != s.n_test:
                    problems.append(f"{tag}: {key} made {len(preds)} test predictions "
                                    f"for {s.n_test} clips")
                elif not np.all((preds >= 0) & (preds < av.N_CLASSES)):
                    problems.append(f"{tag}: {key} predicted a label outside 0..6")
        if problems:
            return problems, {}
        intact, failed = result[()], result[("audio",)]
        acc = {f"acc_{key}": _accuracy(preds, intact["test_truth"])
               for key, preds in intact["test"].items()}
        acc["acc_feat_fail"] = _accuracy(failed["test"]["feat"], failed["test_truth"])
        acc["acc_bn_fail"] = _accuracy(failed["test"]["bn"], failed["test_truth"])
        if self.seed == 0 and s == ProtocolSizes():
            for key, expected in PROTOCOL_SEED0_ACCURACIES.items():
                if acc[key] != expected:
                    problems.append(f"seed 0: {key} is {acc[key]}, the tested path gives "
                                    f"{expected}")
        return problems, acc


def walkthrough_argv(seed, sizes):
    """The README's CLI walkthrough as a list of argv lists (21 stages).

    The three synth seeds are 3*seed, 3*seed+1 and 3*seed+2, so seed 0
    runs the README's commands exactly.
    """
    informativeness = "0.203,0.229,0.231,0.275"
    training = [] if sizes.epochs is None else ["--epochs", str(sizes.epochs)]
    stages = []
    for offset, (split, n) in enumerate((("train", sizes.n_train), ("val", sizes.n_val),
                                         ("test", sizes.n_test))):
        stages.append(["synth", "--out", f"data/{split}", "--n-clips", str(n),
                       "--seed", str(3 * seed + offset), "--informativeness", informativeness])
    for ch in av.CHANNELS:
        stages.append(["train-svm", "--manifest", "data/train/manifest.csv", "--channel", ch,
                       "--out", f"{ch}.json", *training])
        for split in ("val", "test"):
            stages.append(["predict-svm", "--manifest", f"data/{split}/manifest.csv",
                           "--channel", ch, "--model", f"{ch}.json",
                           "--out", f"{ch}_{split}.csv"])
    stages.append(["fuse-bn", "fit", "--manifest", "data/val/manifest.csv", "--decisions",
                   *[f"{ch}_val.csv" for ch in av.CHANNELS], "--out", "bn.json"])
    stages.append(["fuse-bn", "infer", "--model", "bn.json", "--decisions",
                   *[f"{ch}_test.csv" for ch in av.CHANNELS], "--out", "fused_bn.csv"])
    stages.append(["fuse-feat", "train", "--manifest", "data/train/manifest.csv",
                   "--out-norm", "norm.json", "--out-svm", "joint.json", *training])
    stages.append(["fuse-feat", "predict", "--manifest", "data/test/manifest.csv",
                   "--norm", "norm.json", "--svm", "joint.json", "--out", "fused_feat.csv"])
    stages.append(["evaluate", "--pred", "fused_feat.csv", "--manifest",
                   "data/test/manifest.csv", "--out", "report.csv"])
    stages.append(["evaluate", "--pred", "fused_bn.csv", "--manifest",
                   "data/test/manifest.csv"])
    return stages


def stage_name(argv):
    """``fuse-bn fit`` -> ``fuse-bn-fit``; single-word subcommands as they are."""
    if argv[0] in ("fuse-bn", "fuse-feat"):
        return f"{argv[0]}-{argv[1]}"
    return argv[0]


class StageFailed(RuntimeError):
    pass


class CliWalkthrough(Workload):
    """The README walkthrough, one ``avfusion`` process per stage.

    Every operation runs in the same directory, so from the second one on
    each stage overwrites the files the previous operation wrote.  The
    first operation, which creates them, is a warm-up and is not timed:
    creating a file on the disk this benchmark was tuned on takes between
    20 and 500 us depending on the host's storage, which swamped the
    20,000 creations' share of the walkthrough.

    With ``in_process=True`` each stage calls ``avfusion.cli.main`` with
    the same argv instead; the traced run uses that path.
    """

    name = "cli_walkthrough"
    import_module = "avfusion.cli"
    in_process = False
    warm_up_ops = 1
    stages = None

    def prepare(self):
        self.stages = walkthrough_argv(self.seed, self.sizes)

    def _run_stage(self, argv, cwd):
        if self.in_process:
            previous = os.getcwd()
            sink = io.StringIO()
            try:
                os.chdir(cwd)
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = av.cli.main(list(argv))
            finally:
                os.chdir(previous)
            output = sink.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-c", CLI_LAUNCHER, *argv], cwd=cwd,
                                  env=child_env(), capture_output=True, text=True,
                                  timeout=STAGE_TIMEOUT_S)
            code, output = proc.returncode, proc.stdout + proc.stderr
        if code != 0:
            raise StageFailed(f"avfusion {' '.join(argv)} exited {code}: {output.strip()}")

    def run(self, mark):
        workdir = self.dir / "walkthrough"
        workdir.mkdir(exist_ok=True)
        stage_seconds = []
        for argv in self.stages:
            start = time.perf_counter()
            self._run_stage(argv, workdir)
            stage_seconds.append((stage_name(argv), time.perf_counter() - start))
            mark()
        return {"dir": workdir, "stage_seconds": stage_seconds}

    def _read_labels(self, manifest):
        with open(manifest, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {row["clip_id"]: row["label"] for row in rows}

    def _decisions(self, path, channel, labels, problems):
        """Rows of a decisions CSV as clip -> label name, after checking them."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["clip_id", "channel", "predicted_label"]:
            problems.append(f"{path.name}: bad header {rows[:1]}")
            return {}
        out = {}
        for row in rows[1:]:
            if len(row) != 3 or row[1] != channel or row[2] not in av.EMOTION_NAMES:
                problems.append(f"{path.name}: bad row {row}")
                return {}
            if row[0] in out:
                problems.append(f"{path.name}: clip {row[0]} has two rows")
                return {}
            out[row[0]] = row[2]
        if set(out) != set(labels):
            problems.append(f"{path.name}: {len(out)} rows for {len(labels)} clips, "
                            f"or rows for the wrong clips")
            return {}
        return out

    def check(self, result):
        workdir = result["dir"]
        problems = []
        labels = {split: self._read_labels(workdir / "data" / split / "manifest.csv")
                  for split in ("val", "test")}
        files = {f"{ch}_{split}": (f"{ch}_{split}.csv", ch, split)
                 for ch in av.CHANNELS for split in ("val", "test")}
        files["feat"] = ("fused_feat.csv", "joint", "test")
        files["bn"] = ("fused_bn.csv", "bn", "test")
        acc = {}
        for key, (fname, channel, split) in files.items():
            decided = self._decisions(workdir / fname, channel, labels[split], problems)
            if decided and split == "test":
                name = f"acc_{key.removesuffix('_test')}"
                acc[name] = _accuracy([decided[c] for c in labels[split]],
                                      list(labels[split].values()))
        with open(workdir / "report.csv", newline="") as fh:
            first = next(csv.reader(fh))
        if "acc_feat" in acc and (first[0] != "overall_accuracy"
                                  or abs(float(first[1]) - acc["acc_feat"]) > 1e-12):
            problems.append(f"report.csv says {first}, the decisions give {acc['acc_feat']}")
        return problems, acc


def frame_counts(sizes):
    """Clip lengths spread evenly over [frames_min, frames_max].

    The seed only shuffles them, so every seed reads the same voxels.
    """
    n = sizes.n_train + sizes.n_test
    return np.rint(np.linspace(sizes.frames_min, sizes.frames_max, n)).astype(int)


class Frontend(Workload):
    """The real-data front end: FVT volume read, LBP-TOP per clip, PCA fit
    on the training descriptors and PCA transform of the held-out ones."""

    name = "frontend"
    clips = None

    def prepare(self):
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        frames = rng.permutation(frame_counts(s))
        self.clips = []
        for i, t in enumerate(frames):
            path = self.dir / f"clip_{i:04d}.fvt"
            volume = rng.integers(0, 256, size=(int(t), s.height, s.width)).astype(np.float64)
            av.core.write_tensor_array(path, volume)
            self.clips.append((path, volume.shape))

    def run(self, mark):
        s = self.sizes
        shapes, descriptors = [], []
        for i, (path, _) in enumerate(self.clips, start=1):
            volume = av.core.read_tensor_array(path)
            shapes.append(volume.shape)
            descriptors.append(av.lbptop.lbp_top_descriptor(volume))
            if i % 16 == 0:
                mark()
        model = av.features.pca_fit(np.stack(descriptors[:s.n_train]), s.q)
        mark()
        projected = av.features.pca_transform(model, np.stack(descriptors[s.n_train:]))
        return {"shapes": shapes, "descriptors": descriptors, "pca": model,
                "projected": projected}

    def check(self, result):
        s = self.sizes
        problems = []
        if result["shapes"] != [shape for _, shape in self.clips]:
            problems.append("volumes read back with other shapes than were written")
        length = av.LbpTopParams().descriptor_length
        for i, desc in enumerate(result["descriptors"]):
            if desc.shape != (length,):
                problems.append(f"clip {i}: descriptor shape {desc.shape}, expected ({length},)")
                continue
            sums = desc.reshape(-1, 59).sum(axis=1)
            if np.any(np.abs(sums[sums > 0] - 1.0) > 1e-9):
                problems.append(f"clip {i}: a non-empty 59-bin segment does not sum to 1")
        model = result["pca"]
        gram = model.components @ model.components.T
        if model.components.shape != (s.q, length):
            problems.append(f"PCA components have shape {model.components.shape}")
        elif np.max(np.abs(gram - np.eye(s.q))) > 1e-9:
            problems.append("PCA components are not orthonormal within 1e-9")
        if np.any(np.diff(model.eigenvalues) > 0):
            problems.append("PCA eigenvalues increase")
        if result["projected"].shape != (s.n_test, s.q):
            problems.append(f"projection has shape {result['projected'].shape}")
        return problems, {}


WORKLOADS = {w.name: w for w in (Protocol, CliWalkthrough, Frontend)}

