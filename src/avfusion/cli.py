"""Command-line pipeline driver.

Subcommands: synth, lbptop, pca {fit,apply}, pool, train-svm,
predict-svm, fuse-feat {train,predict}, fuse-bn {fit,infer},
island-demo, evaluate.  Every stage is deterministic given its flags
and --seed; usage errors exit 2, data errors exit 1 with a diagnostic
on stderr.
"""

import argparse
import sys

import numpy as np

from . import features, fusion, learn, metrics, synth
from .core import (CHANNELS, JOINT_DIM, SEGMENT_DIMS, DimensionMismatch, check_scores,
                   check_shape, load_manifest, read_tensor_array, write_csv, write_models,
                   write_tensor_array)
from .lbptop import lbp_top_descriptor


def _channel_matrix(manifest, channel):
    """Per-clip feature rows for one channel of a manifest.

    A rank-2 cnn tensor must pass ``core.check_scores`` and is k-average
    pooled into 7 bins, one call per frame count; any other tensor must be
    the channel's ``SEGMENT_DIMS``-long vector.  Errors name the file.
    """
    width = (SEGMENT_DIMS[channel],)
    rows, scores = [], {}
    for i, entry in enumerate(manifest.entries):
        path = entry.paths.get(channel)
        if path is None:
            raise ValueError(f"clip {entry.clip_id!r} has no {channel} file")
        arr = read_tensor_array(path)
        if arr.ndim == 2 and channel == "cnn":
            scores[i] = check_scores(arr, path)
        elif arr.shape != width:  # read_tensor refused non-finite values; this only raises
            check_shape(arr, width, f"{path}: channel {channel}")
        rows.append(arr)
    for i, row in zip(scores, features.pool_clips(list(scores.values()))):
        rows[i] = row
    return np.stack(rows)


def _labelled_decisions(manifest, paths, one_channel=False):
    """Per-channel decisions in manifest order, and the manifest labels.
    With ``one_channel`` the files must hold exactly one channel."""
    merged = fusion.read_decisions(paths)
    channels = sorted({ch for observed in merged.values() for ch in observed})
    if one_channel and len(channels) != 1:
        raise ValueError(f"predictions must come from one channel, found {channels}")
    decisions = {ch: [] for ch in channels}
    for entry in manifest.entries:
        observed = merged.get(entry.clip_id, {})
        for channel in channels:
            if channel not in observed:
                raise ValueError(f"clip {entry.clip_id!r} has no {channel} decision")
            decisions[channel].append(observed[channel])
    return decisions, manifest.labels()


def cmd_synth(args):
    config = synth.SynthConfig(
        n_clips=args.n_clips,
        informativeness=tuple(float(v) for v in args.informativeness.split(",")),
        failed_channels=tuple(c for c in args.fail.split(",") if c),
        seed=args.seed,
    )
    manifest_path = synth.synth_generate(config, args.out)
    print(f"wrote {config.n_clips} clips under {args.out} (manifest: {manifest_path})")


def cmd_lbptop(args):
    desc = lbp_top_descriptor(read_tensor_array(args.infile))
    write_tensor_array(args.out, desc)
    print(f"wrote descriptor of length {desc.size} to {args.out}")


def cmd_pca_fit(args):
    X = read_tensor_array(args.infile)
    model = features.pca_fit(X, args.q)
    features.save_pca(model, args.out)
    print(f"fit PCA {X.shape[1]} -> {args.q} on {X.shape[0]} samples; saved to {args.out}")


def cmd_pca_apply(args):
    model = features.load_pca(args.model)
    X = read_tensor_array(args.infile)
    write_tensor_array(args.out, features.pca_transform(model, X))
    print(f"wrote projected tensor to {args.out}")


def cmd_pool(args):
    scores = check_scores(read_tensor_array(args.infile), args.infile)
    write_tensor_array(args.out, features.k_average_pool(scores, args.k))
    print(f"pooled {scores.shape[0]} frames into {args.k} bins -> {args.out}")


def cmd_train_svm(args):
    manifest = load_manifest(args.manifest)
    X = _channel_matrix(manifest, args.channel)
    model = learn.svm_train(X, manifest.labels(), epochs=args.epochs, seed=args.seed)
    learn.save_svm(model, args.out, epochs=args.epochs, seed=args.seed)
    print(f"trained {args.channel} SVM on {X.shape[0]} clips; saved to {args.out}")


def cmd_predict_svm(args):
    model = learn.load_svm(args.model)
    width, expected = model.W.shape[1], SEGMENT_DIMS[args.channel]
    if width != expected:  # the widths of the channels and the joint vector all differ
        owners = {dim: f"channel {ch}" for ch, dim in SEGMENT_DIMS.items()}
        owner = {**owners, JOINT_DIM: "the joint vector"}.get(width, "no channel")
        raise DimensionMismatch(f"{args.model}: the model takes {width} features, the width "
                                f"of {owner}, but --channel {args.channel} has {expected}")
    manifest = load_manifest(args.manifest)
    X = _channel_matrix(manifest, args.channel)
    labels = learn.svm_predict_batch(model, X)
    fusion.write_decisions(args.out, [(e.clip_id, args.channel, int(lab))
                                      for e, lab in zip(manifest.entries, labels)])
    print(f"wrote {len(labels)} {args.channel} decisions to {args.out}")


def cmd_fuse_feat_train(args):
    manifest = load_manifest(args.manifest)
    joint = fusion.build_joint_vector({ch: _channel_matrix(manifest, ch) for ch in CHANNELS})
    norm, svm = fusion.feature_fusion_train(joint, manifest.labels(), epochs=args.epochs,
                                            seed=args.seed)
    write_models(features.normalization_files(norm, args.out_norm),
                 learn.svm_files(svm, args.out_svm, epochs=args.epochs, seed=args.seed))
    print(f"trained feature fusion on {joint.shape[0]} clips; "
          f"saved {args.out_norm} and {args.out_svm}")


def cmd_fuse_feat_predict(args):
    manifest = load_manifest(args.manifest)
    joint = fusion.build_joint_vector({ch: _channel_matrix(manifest, ch) for ch in CHANNELS})
    labels = fusion.feature_fusion_predict(features.load_normalization(args.norm),
                                           learn.load_svm(args.svm), joint)
    fusion.write_decisions(args.out, [(e.clip_id, "joint", int(lab))
                                      for e, lab in zip(manifest.entries, labels)])
    print(f"wrote {len(labels)} joint decisions to {args.out}")


def cmd_fuse_bn_fit(args):
    decisions, truths = _labelled_decisions(load_manifest(args.manifest), args.decisions)
    model = fusion.fit_bn(decisions, truths)
    fusion.save_bn(model, args.out)
    print(f"fit BN fusion over channels {list(model.channels)}; saved to {args.out}")


def cmd_fuse_bn_infer(args):
    model = fusion.load_bn(args.model)
    merged = fusion.read_decisions(args.decisions)
    fused = {}
    for channels in dict.fromkeys(frozenset(observed) for observed in merged.values()):
        group = [c for c in merged if merged[c].keys() == channels]
        labels, _ = fusion.bn_infer(model, {ch: [merged[c][ch] for c in group] for ch in channels})
        fused.update(zip(group, labels))
    fusion.write_decisions(args.out, [(c, "bn", fused[c]) for c in sorted(fused)])
    print(f"wrote {len(fused)} fused decisions to {args.out}")


def cmd_island_demo(args):
    X, y = synth.gaussian_blobs(args.n_per_class, seed=args.seed)
    baseline = learn.softmax_probe_train(X, y, learn.IslandLossParams(lam=0.0),
                                         epochs=args.epochs, seed=args.seed)
    island = learn.softmax_probe_train(X, y, epochs=args.epochs, seed=args.seed)
    ratios = {}
    for name, probe in (("baseline", baseline), ("island", island)):
        feats = learn.probe_features(probe, X)
        ratios[name] = learn.clustering_ratio(feats, y, probe.centers)
        accuracy = float(np.mean(np.argmax(feats, axis=1) == y))
        print(f"{name:>9}: intra/inter ratio {ratios[name]:.4f}, "
              f"train accuracy {accuracy:.4f}")
    print(f"ratio shrink with island loss: {ratios['baseline'] - ratios['island']:+.4f}")
    if args.out:
        write_csv(args.out, [("epoch", "baseline_loss", "island_loss"),
                             *((i, repr(float(lb)), repr(float(li)))
                               for i, (lb, li) in enumerate(zip(baseline.trace, island.trace)))])
        print(f"wrote loss traces to {args.out}")


def cmd_evaluate(args):
    decisions, truths = _labelled_decisions(load_manifest(args.manifest), [args.pred],
                                            one_channel=True)
    (preds,) = decisions.values()
    report = metrics.evaluate(preds, truths)
    print(metrics.format_report(report))
    if args.out:
        metrics.write_report_csv(report, args.out)
        print(f"wrote report to {args.out}")


def _add_common_training_flags(parser):
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(prog="avfusion",
                                     description="Audiovisual emotion fusion pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-clips", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--informativeness", default="1,1,1,1",
                   help="per-channel values for audio,lbptop,cnn,blstm")
    p.add_argument("--fail", default="", help="comma-separated channels to fail")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("lbptop", help="compute an LBP-TOP descriptor")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lbptop)

    p = sub.add_parser("pca", help="fit or apply a PCA model")
    pca_sub = p.add_subparsers(dest="pca_command", required=True)
    pf = pca_sub.add_parser("fit")
    pf.add_argument("--in", dest="infile", required=True, help="n×d FVT1 matrix")
    pf.add_argument("--q", type=int, required=True)
    pf.add_argument("--out", required=True, help="model JSON path")
    pf.set_defaults(func=cmd_pca_fit)
    pa = pca_sub.add_parser("apply")
    pa.add_argument("--model", required=True)
    pa.add_argument("--in", dest="infile", required=True)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=cmd_pca_apply)

    p = sub.add_parser("pool", help="k-average pool a score matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=7)
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("train-svm", help="train a per-channel SVM")
    p.add_argument("--manifest", required=True)
    p.add_argument("--channel", required=True, choices=CHANNELS)
    p.add_argument("--out", required=True)
    _add_common_training_flags(p)
    p.set_defaults(func=cmd_train_svm)

    p = sub.add_parser("predict-svm", help="per-channel SVM decisions")
    p.add_argument("--manifest", required=True)
    p.add_argument("--channel", required=True, choices=CHANNELS)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict_svm)

    p = sub.add_parser("fuse-feat", help="feature-level fusion")
    feat_sub = p.add_subparsers(dest="feat_command", required=True)
    ft = feat_sub.add_parser("train")
    ft.add_argument("--manifest", required=True)
    ft.add_argument("--out-norm", required=True)
    ft.add_argument("--out-svm", required=True)
    _add_common_training_flags(ft)
    ft.set_defaults(func=cmd_fuse_feat_train)
    fp = feat_sub.add_parser("predict")
    fp.add_argument("--manifest", required=True)
    fp.add_argument("--norm", required=True)
    fp.add_argument("--svm", required=True)
    fp.add_argument("--out", required=True)
    fp.set_defaults(func=cmd_fuse_feat_predict)

    p = sub.add_parser("fuse-bn", help="Bayesian-network model-level fusion")
    bn_sub = p.add_subparsers(dest="bn_command", required=True)
    bf = bn_sub.add_parser("fit")
    bf.add_argument("--manifest", required=True)
    bf.add_argument("--decisions", nargs="+", required=True)
    bf.add_argument("--out", required=True)
    bf.set_defaults(func=cmd_fuse_bn_fit)
    bi = bn_sub.add_parser("infer")
    bi.add_argument("--model", required=True)
    bi.add_argument("--decisions", nargs="+", required=True)
    bi.add_argument("--out", required=True)
    bi.set_defaults(func=cmd_fuse_bn_infer)

    p = sub.add_parser("island-demo", help="island loss vs plain softmax on toy blobs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=800)
    p.add_argument("--n-per-class", type=int, default=40)
    p.add_argument("--out", default=None, help="optional loss-trace CSV")
    p.set_defaults(func=cmd_island_demo)

    p = sub.add_parser("evaluate", help="score decisions against manifest labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None, help="optional report CSV")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
