"""Audiovisual emotion fusion: LBP-TOP descriptors, PCA, island-loss
training, k-average temporal pooling, feature-level fusion, and
Bayesian-network model-level fusion over per-channel decisions."""

__version__ = "0.1.0"

import importlib

from .core import (CHANNELS, EMOTION_NAMES, JOINT_DIM, N_CLASSES, SEGMENT_DIMS,
                   DatasetManifest, emotion_index, load_manifest, read_tensor,
                   read_tensor_array, write_tensor, write_tensor_array)

# The other submodules' package-level names.  A submodule is imported when
# one of its names is first looked up, so a process loads only what it uses.
_LAZY = {
    "features": ("NormalizationModel", "PcaModel", "k_average_pool", "normalize_apply",
                 "normalize_fit", "pca_fit", "pca_transform"),
    "fusion": ("BnFusionModel", "MeasurementModel", "bn_infer", "build_joint_vector",
               "feature_fusion_predict", "feature_fusion_train", "fit_bn",
               "fit_measurement_cpt", "fusion_predictions"),
    "learn": ("LinearSvmModel", "island_loss", "island_loss_grad", "svm_predict_batch",
              "svm_train", "update_centers"),
    "lbptop": ("LbpTopParams", "build_uniform_mapping", "lbp_top_descriptor"),
    "metrics": ("EvalReport", "evaluate"),
    "synth": ("SynthConfig", "synth_dataset", "synth_generate"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = ("core", *_LAZY, "cli")

__all__ = ["CHANNELS", "EMOTION_NAMES", "JOINT_DIM", "N_CLASSES", "SEGMENT_DIMS",
           "DatasetManifest", "emotion_index", "load_manifest", "read_tensor",
           "read_tensor_array", "write_tensor", "write_tensor_array", *_OWNER]


def __getattr__(name):
    # Nothing is cached here: each lookup returns the submodule's current
    # attribute, so a function patched in its module is seen through the package.
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _OWNER:
        return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
