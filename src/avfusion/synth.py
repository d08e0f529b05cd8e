"""Synthetic desk-scale datasets with tunable per-channel class
information.

Each clip draws a balanced emotion label.  A channel with
informativeness rho emits a feature vector from a class-conditional
Gaussian whose mean is a fixed random unit direction scaled by
``BASE_SEPARATION * rho``; at rho = 0 (or for failed channels) the
output carries no label information at all.  The CNN channel emits a
T×7 per-frame score matrix (softmax rows whose logits favor the true
class by the same scaled margin) so temporal pooling is exercised on
the way to its 49-dim clip feature.  All clips' frames are drawn and
softmaxed in one pass over one array; ``synth_generate`` writes each
clip's frames, and ``synth_dataset`` keeps only their pooled rows.

Channels use independent seed streams, so failing one channel leaves
the bytes of every other channel untouched for the same seed.
"""

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CHANNELS, SEGMENT_DIMS, check_count, check_real, save_manifest, write_tensor_array
from .features import pool_clips


@dataclass(frozen=True)
class SynthConfig:
    n_clips: int = 500
    informativeness: tuple = (1.0, 1.0, 1.0, 1.0)  # audio, lbptop, cnn, blstm
    failed_channels: tuple = ()
    seed: int = 0

    def __post_init__(self):
        check_count(self.n_clips, "n_clips")
        check_count(self.seed, "seed", least=0)
        if len(self.informativeness) != len(CHANNELS):
            raise ValueError(f"need one informativeness value per channel {CHANNELS}")
        for channel, value in zip(CHANNELS, self.informativeness):
            check_real(value, f"informativeness of {channel}", high=1)
        if isinstance(self.failed_channels, str) or not set(self.failed_channels) <= set(CHANNELS):
            raise ValueError(f"failed_channels must be a collection of names from {CHANNELS}, "
                             f"got {self.failed_channels!r}")


@dataclass
class SynthDataset:
    labels: np.ndarray      # (n,)
    features: dict          # channel -> (n, dim); cnn holds the pooled 49-dim rows


# Class-mean separation of a channel at informativeness 1.
BASE_SEPARATION = 6.0

# Per-frame logit noise of the CNN channel.  Softmax saturates quickly, so
# without this the accuracy response to informativeness would be too steep
# to tune onto a target.
CNN_LOGIT_NOISE = 3.0

# Inclusive range of the CNN channel's per-clip frame counts.
CNN_FRAMES = (8, 24)

# Informativeness profile calibrated so the four per-channel SVM baselines
# land near 35.5 / 38.9 / 47.0 / 49.1 % held-out accuracy at desk scale
# (2000 training clips).
BASELINE_INFORMATIVENESS = (0.203, 0.229, 0.231, 0.275)


def _draw(config):
    """The labels, and ``rows(channel)``: a channel's per-clip rows (n×dim, or for cnn T×7
    views into one array of all frames), drawn from its own seed stream in any order."""
    streams = np.random.SeedSequence(config.seed).spawn(len(CHANNELS) + 1)
    rng = np.random.default_rng(streams[0])
    n = config.n_clips
    labels = np.arange(n) % 7
    rng.shuffle(labels)
    frames = rng.integers(CNN_FRAMES[0], CNN_FRAMES[1] + 1, size=n)

    def rows(channel):
        idx = CHANNELS.index(channel)
        chan_rng = np.random.default_rng(streams[idx + 1])
        rho = 0.0 if channel in config.failed_channels else config.informativeness[idx]
        sep = BASE_SEPARATION * rho
        if channel == "cnn":
            # Per-frame logits favor the true class by sep; rows softmaxed in place.
            scores = chan_rng.standard_normal((frames.sum(), 7))
            scores *= CNN_LOGIT_NOISE
            scores[np.arange(len(scores)), np.repeat(labels, frames)] += sep
            scores -= scores.max(axis=1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=1, keepdims=True)
            return np.split(scores, np.cumsum(frames)[:-1])
        directions = chan_rng.standard_normal((7, SEGMENT_DIMS[channel]))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        out = chan_rng.standard_normal((n, SEGMENT_DIMS[channel]))
        for label in range(7):  # class means added in place: no n×dim temporary
            out[labels == label] += sep * directions[label]
        return out
    return labels, rows


def synth_dataset(config):
    """Generate an in-memory dataset; deterministic under config.seed."""
    labels, rows = _draw(config)
    cnn = pool_clips(rows("cnn"))  # its frames are freed before the vector channels are drawn
    return SynthDataset(labels, {ch: cnn if ch == "cnn" else rows(ch) for ch in CHANNELS})


def synth_generate(config, out_dir):
    """Write the dataset as FVT1 files plus a manifest; returns its path.

    Per clip: a 20-dim audio vector, a 150-dim LBP-TOP-style vector, a
    T×7 CNN score matrix, and a 50-dim BLSTM vector, all referenced from
    ``manifest.csv``.  Byte-identical for identical configs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels, rows = _draw(config)
    base = os.path.join(out_dir, "")
    ids = [f"clip_{i:05d}" for i in range(config.n_clips)]
    for channel in CHANNELS:  # one channel's draws held at a time
        for clip_id, clip in zip(ids, rows(channel)):
            write_tensor_array(f"{base}{clip_id}.{channel}.fvt", clip)
    entries = [(clip_id, int(label), {ch: f"{clip_id}.{ch}.fvt" for ch in CHANNELS})
               for clip_id, label in zip(ids, labels)]
    manifest_path = out_dir / "manifest.csv"
    save_manifest(manifest_path, entries)
    return manifest_path
