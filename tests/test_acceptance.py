"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (visible with ``pytest -s``).  Criteria cover gradient correctness,
the island-loss clustering effect, descriptor/pooling/normalization
oracles, exact Bayesian-network inference, the synthetic fusion
reproduction, channel-failure robustness, and CLI determinism.
"""

import itertools
import time

import numpy as np

from avfusion.cli import main as cli_main
from avfusion.core import CHANNELS, read_tensor_array, write_tensor_array
from avfusion.features import (k_average_pool, normalize_apply, normalize_fit,
                               pca_fit, pca_transform)
from avfusion.fusion import (SEGMENT_DIMS, BnFusionModel, MeasurementModel, bn_infer,
                             fusion_predictions)
from avfusion.learn import island_loss, island_loss_grad
from avfusion.lbptop import LbpTopParams, build_uniform_mapping, lbp_top_descriptor
from avfusion.synth import BASELINE_INFORMATIVENESS, SynthConfig, synth_dataset

from test_features import pool_reference
from test_lbptop import naive_lbp_top
from test_learn import clustering_ratio, gaussian_blobs, softmax_probe_reference


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:>2} {desc}: {status}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def test_criterion_01_island_gradient_finite_differences():
    start = time.time()
    rng = np.random.default_rng(101)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 17))
        nc = int(rng.integers(3, 8))
        m = int(rng.integers(2, 12))
        lambda1 = float(rng.choice([0.0, 1.0, 10.0]))
        X = rng.standard_normal((m, d))
        y = rng.integers(0, nc, m)
        centers = rng.standard_normal((nc, d)) + 0.5
        dX, dC = island_loss_grad(X, y, centers, lambda1)
        for arr, grad in ((X, dX), (centers, dC)):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                lp = island_loss(X, y, centers, lambda1)
                flat[idx] = orig - h
                lm = island_loss(X, y, centers, lambda1)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(gflat[idx]), 1e-8)
                worst = max(worst, abs(fd - gflat[idx]) / denom)
    elapsed = time.time() - start
    _report(1, "island-loss gradient matches central finite differences",
            worst < 1e-4 and elapsed < 10.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_island_loss_clustering_effect():
    start = time.time()
    X, y = gaussian_blobs(40, seed=0)
    ratios = []
    for lam in (0.0, 0.01):  # plain softmax, then with the island loss
        W, b, centers, _ = softmax_probe_reference(X, y, lam=lam, lambda1=10.0, alpha=0.5,
                                                   epochs=800, seed=0, lr=0.02)
        ratios.append(clustering_ratio(X @ W.T + b, y, centers))
    r_base, r_island = ratios
    elapsed = time.time() - start
    _report(2, "island loss shrinks intra/inter clustering ratio",
            r_island < r_base and elapsed < 30.0,
            f"island {r_island:.4f} < baseline {r_base:.4f}, {elapsed:.1f}s")


def test_criterion_03_lbptop_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(303)
    params = LbpTopParams(normalize_histograms=False)
    ok = True
    for _ in range(20):
        shape = (rng.integers(8, 13), rng.integers(8, 17), rng.integers(8, 17))
        vol = rng.integers(0, 256, size=shape).astype(np.float64)
        if not np.array_equal(lbp_top_descriptor(vol, params), naive_lbp_top(vol, params)):
            ok = False
            break
    # constant volume: all mass in the all-ones code's bin per plane
    table = build_uniform_mapping()
    const = lbp_top_descriptor(np.full((6, 9, 9), 128.0))
    for seg in const.reshape(-1, 59):
        if seg.sum() > 0 and seg[table[255]] != seg.sum():
            ok = False
    length_ok = lbp_top_descriptor(np.zeros((4, 8, 8))).size == 4 * 4 * 3 * 59
    elapsed = time.time() - start
    _report(3, "LBP-TOP equals naive per-pixel reference exactly",
            ok and length_ok and elapsed < 20.0,
            f"20 volumes exact, length 2832, {elapsed:.1f}s")


def test_criterion_04_pca_reconstruction_and_wiring():
    rng = np.random.default_rng(404)
    basis, _ = np.linalg.qr(rng.standard_normal((10, 2)))
    coeffs = rng.standard_normal((60, 2)) * [3.0, 1.5]
    X = coeffs @ basis.T
    model = pca_fit(X, 2)
    recon = pca_transform(model, X) @ model.components + model.mean
    recon_err = float(np.max(np.abs(recon - X)))
    gram_err = float(np.max(np.abs(model.components @ model.components.T - np.eye(2))))
    wiring = (SEGMENT_DIMS["audio"] == 20 and SEGMENT_DIMS["lbptop"] == 150
              and SEGMENT_DIMS["blstm"] == 50 and sum(SEGMENT_DIMS.values()) == 269)
    _report(4, "PCA planted-subspace reconstruction and 20/150/50 wiring",
            recon_err < 1e-6 and gram_err < 1e-9 and wiring,
            f"recon {recon_err:.1e}, orthonormality {gram_err:.1e}, dims sum 269")


def test_criterion_05_temporal_pooling_rules():
    rng = np.random.default_rng(505)
    s14 = rng.standard_normal((14, 7))
    pairing = all(
        np.allclose(k_average_pool(s14, 7)[b * 7:(b + 1) * 7],
                    s14[2 * b:2 * b + 2].mean(axis=0), atol=1e-12)
        for b in range(7))
    s16 = rng.standard_normal((16, 7))
    drop_rule = np.allclose(k_average_pool(s16, 7), pool_reference(s16, 7), atol=1e-12)
    length = k_average_pool(rng.standard_normal((10, 7)), 7).size == 49
    _report(5, "k-average pooling pairing/head-tail rules and length 49",
            pairing and drop_rule and length)


def test_criterion_06_two_stage_normalization():
    rng = np.random.default_rng(606)
    X = rng.standard_normal((80, 269)) * rng.random(269) * 4 + rng.standard_normal(269)
    model = normalize_fit(X)
    stage1 = (X - model.per_dim_mean) / model.per_dim_std
    mean_err = float(np.max(np.abs(stage1.mean(axis=0))))
    std_err = float(np.max(np.abs(stage1.std(axis=0) - 1.0)))
    held_out = rng.standard_normal((40, 269)) * 2.0 + 1.0
    out = normalize_apply(model, np.vstack([X, held_out]))
    vec_mean = float(np.max(np.abs(out.mean(axis=1))))
    vec_std = float(np.max(np.abs(out.std(axis=1) - 1.0)))
    _report(6, "two-stage normalization statistics",
            mean_err < 1e-9 and std_err < 1e-9 and vec_mean < 1e-9 and vec_std < 1e-9,
            f"stage1 mu {mean_err:.1e} sd {std_err:.1e}; stage2 mu {vec_mean:.1e} sd {vec_std:.1e}")


def test_criterion_07_bn_exact_inference():
    start = time.time()
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(10):
        prior = rng.random(7) + 0.1
        prior /= prior.sum()
        cpts = []
        for ch in CHANNELS:
            cpt = rng.random((7, 7)) + 0.02
            cpt /= cpt.sum(axis=1, keepdims=True)
            cpts.append(MeasurementModel(channel=ch, cpt=cpt))
        model = BnFusionModel(prior=prior, measurements=tuple(cpts))
        # brute force: materialize the full joint table P(E, M1..M4)
        joint = np.zeros((7, 7, 7, 7, 7))
        for e in range(7):
            for combo in itertools.product(range(7), repeat=4):
                p = prior[e]
                for meas, m in zip(model.measurements, combo):
                    p = p * meas.cpt[e, m]
                joint[(e, *combo)] = p
        # every tuple in one batched call, one posterior row per tuple
        combos = np.array(list(itertools.product(range(7), repeat=4)))
        _, post = bn_infer(model, dict(zip(CHANNELS, combos.T)))
        slices = joint[(slice(None), *combos.T)].T
        oracle = slices / slices.sum(axis=1, keepdims=True)
        worst = max(worst, float(np.max(np.abs(post - oracle))))
        if np.max(np.abs(post.sum(axis=1) - 1.0)) > 1e-12 or post.min() < 0:
            worst = np.inf
        # permutation invariance
        permuted = BnFusionModel(prior=prior, measurements=tuple(reversed(cpts)))
        _, pa = bn_infer(model, dict(zip(CHANNELS, (1, 2, 3, 4))))
        _, pb = bn_infer(permuted, dict(zip(CHANNELS, (1, 2, 3, 4))))
        worst = max(worst, float(np.max(np.abs(pa - pb))))
    elapsed = time.time() - start
    _report(7, "BN inference equals joint-table enumeration over all 7^4 tuples",
            worst <= 1e-12 and elapsed < 10.0,
            f"max dev {worst:.1e}, {elapsed:.1f}s")


ACC_TARGETS = {"audio": 0.355, "lbptop": 0.389, "cnn": 0.470, "blstm": 0.491}
N_TRAIN, N_VAL, N_TEST = 2000, 1000, 2000


def _fusion_protocol(seed, *failures):
    """Synthesize the clips of ``seed`` once per tuple of failed channels in
    ``failures`` (default: intact only) and run the library protocol over
    all of them in one call; returns per failure tuple the test accuracies
    (per channel, feat, bn)."""
    failures = failures or ((),)
    data = {failed: synth_dataset(SynthConfig(n_clips=N_TRAIN + N_VAL + N_TEST,
                                              informativeness=BASELINE_INFORMATIVENESS,
                                              failed_channels=failed, seed=seed))
            for failed in failures}
    y = data[failures[0]].labels
    assert all(np.array_equal(d.labels, y) for d in data.values())
    te = slice(N_TRAIN + N_VAL, None)
    preds = fusion_predictions({failed: d.features for failed, d in data.items()}, y,
                               slice(0, N_TRAIN), slice(N_TRAIN, N_TRAIN + N_VAL), te,
                               epochs=20, seed=seed)
    results = []
    for failed in failures:
        acc = {key: float(np.mean(labels == y[te])) for key, labels in preds[failed].items()}
        results.append(({ch: acc[ch] for ch in CHANNELS}, acc["joint"], acc["bn"]))
    return results


def test_criterion_08_synthetic_fusion_reproduction():
    start = time.time()
    ((chan_acc, feat_acc, bn_acc),) = _fusion_protocol(0)
    on_target = all(abs(chan_acc[ch] - ACC_TARGETS[ch]) <= 0.03 for ch in CHANNELS)
    best = max(chan_acc.values())
    gains = feat_acc >= best + 0.03 and bn_acc >= best + 0.03
    elapsed = time.time() - start
    detail = (" ".join(f"{ch} {chan_acc[ch]:.3f}" for ch in CHANNELS)
              + f" | feat {feat_acc:.3f} bn {bn_acc:.3f} best {best:.3f}, {elapsed:.0f}s")
    _report(8, "both fusions beat the best single channel by >= 3 points",
            on_target and gains and elapsed < 300.0, detail)


def test_criterion_09_channel_failure_robustness():
    start = time.time()
    wins = 0
    details = []
    for seed in range(5):
        (_, feat_all, bn_all), (_, feat_fail, bn_fail) = _fusion_protocol(seed, (), ("audio",))
        feat_drop = feat_all - feat_fail
        bn_drop = bn_all - bn_fail
        wins += bn_drop <= feat_drop
        details.append(f"s{seed}: bn {bn_drop:+.3f} vs feat {feat_drop:+.3f}")
    elapsed = time.time() - start
    _report(9, "model-level fusion degrades no more than feature-level on audio failure",
            wins >= 3 and elapsed < 600.0,
            f"{wins}/5 seeds, {'; '.join(details)}, {elapsed:.0f}s")


def test_criterion_10_cli_determinism(tmp_path):
    """Every CLI stage rerun with identical flags, at one BLAS thread count,
    is byte-identical."""
    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    rng = np.random.default_rng(1010)
    vol = rng.integers(0, 256, size=(5, 12, 12)).astype(float)
    matrix = rng.standard_normal((30, 12))
    scores = rng.random((16, 7))

    outputs = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        write_tensor_array(d / "vol.fvt", vol)
        write_tensor_array(d / "X.fvt", matrix)
        write_tensor_array(d / "scores.fvt", scores)
        run("synth", "--out", d / "data", "--n-clips", 35, "--seed", 4)
        manifest = d / "data" / "manifest.csv"
        run("lbptop", "--in", d / "vol.fvt", "--out", d / "desc.fvt")
        run("pca", "fit", "--in", d / "X.fvt", "--q", 4, "--out", d / "pca.json")
        run("pca", "apply", "--model", d / "pca.json", "--in", d / "X.fvt",
            "--out", d / "proj.fvt")
        run("pool", "--in", d / "scores.fvt", "--out", d / "pooled.fvt")
        run("train-svm", "--manifest", manifest, "--channel", "cnn", "--epochs", 5,
            "--seed", 2, "--out", d / "svm.json")
        run("predict-svm", "--manifest", manifest, "--channel", "cnn",
            "--model", d / "svm.json", "--out", d / "dec.csv")
        run("fuse-feat", "train", "--manifest", manifest, "--epochs", 5, "--seed", 2,
            "--out-norm", d / "norm.json", "--out-svm", d / "joint.json")
        run("fuse-feat", "predict", "--manifest", manifest, "--norm", d / "norm.json",
            "--svm", d / "joint.json", "--out", d / "joint_dec.csv")
        run("fuse-bn", "fit", "--manifest", manifest, "--decisions", d / "dec.csv",
            "--out", d / "bn.json")
        run("fuse-bn", "infer", "--model", d / "bn.json", "--decisions", d / "dec.csv",
            "--out", d / "fused.csv")
        run("evaluate", "--pred", d / "joint_dec.csv", "--manifest", manifest,
            "--out", d / "report.csv")
        outputs[tag] = d

    compared = 0
    identical = True
    for path_a in sorted(outputs["a"].rglob("*")):
        if path_a.is_dir():
            continue
        path_b = outputs["b"] / path_a.relative_to(outputs["a"])
        if path_a.read_bytes() != path_b.read_bytes():
            identical = False
            break
        compared += 1
    _report(10, "every CLI stage is byte-identical across reruns",
            identical and compared > 140, f"{compared} files compared")
