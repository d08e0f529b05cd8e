"""Audiovisual emotion fusion: LBP-TOP descriptors, PCA, island-loss
training, k-average temporal pooling, feature-level fusion, and
Bayesian-network model-level fusion over per-channel decisions."""

__version__ = "0.1.0"

from .core import (CHANNELS, EMOTION_NAMES, JOINT_DIM, N_CLASSES, SEGMENT_DIMS,
                   DatasetManifest, emotion_index, emotion_name, load_manifest,
                   read_tensor, read_tensor_array, write_tensor, write_tensor_array)
from .features import (NormalizationModel, PcaModel, k_average_pool,
                       normalize_apply, normalize_fit, pca_fit, pca_transform)
from .fusion import (BnFusionModel, MeasurementModel, bn_infer, build_joint_vector,
                     feature_fusion_predict, feature_fusion_train, fit_bn,
                     fit_measurement_cpt, fusion_predictions)
from .learn import (IslandLossParams, LinearSvmModel, island_loss,
                    island_loss_grad, softmax_probe_train, svm_predict_batch,
                    svm_train, update_centers)
from .lbptop import LbpTopParams, build_uniform_mapping, lbp_top_descriptor
from .metrics import EvalReport, evaluate
from .synth import SynthConfig, synth_dataset, synth_generate
