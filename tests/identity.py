"""Byte identity of the documented paths: two checkouts against each other,
or one checkout at 1 against 2 BLAS threads.

    python tests/identity.py TREE_A TREE_B      # exits 1 if any output differs
    python tests/identity.py --threads TREE     # one tree, 1 against 2 BLAS threads

Each run executes, in fresh interpreters with ``PYTHONPATH=<tree>/src`` and
its own working directory:

- the README's walkthrough and hybrid blocks at 300/150/300 clips, parsed
  by ``tests/test_readme.py``'s ``readme_commands`` from this checkout's
  README;
- ``lbptop`` on a random volume, ``pca fit --q 150`` on a random 600×2832
  matrix (the LBP-TOP width), ``pca apply`` on the descriptor, and ``pool``
  on a random score matrix;
- ``fusion_predictions`` at seed 0 on 2000/1000/2000 synth clips, intact
  and with audio failed, its labels written to ``fusion_predictions.json``.

Every output file and every stage's stdout are compared between the two
runs.  Each file that differs is named, with the largest absolute
difference for FVT1 tensors, and the script exits 1; it exits 0 when all
are identical, and 2 when a stage fails.  Tree mode runs both trees at one
BLAS thread.  The thread mode is informational: ``pca fit`` depends on the
BLAS thread count (README, "CLI walkthrough"), so it is expected to differ.
Pytest does not collect this file.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
from avfusion.core import read_tensor_array, write_tensor_array  # noqa: E402
from test_readme import readme_commands  # noqa: E402

SIZES = {"data/train": "300", "data/val": "150", "data/test": "300"}
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FUSION = """
import json
from avfusion.fusion import fusion_predictions
from avfusion.synth import BASELINE_INFORMATIVENESS, SynthConfig, synth_dataset

variants = {"intact": (), "audio-failed": ("audio",)}
data = {name: synth_dataset(SynthConfig(n_clips=5000, informativeness=BASELINE_INFORMATIVENESS,
                                        failed_channels=failed, seed=0))
        for name, failed in variants.items()}
preds = fusion_predictions({name: d.features for name, d in data.items()}, data["intact"].labels,
                           slice(0, 2000), slice(2000, 3000), slice(3000, 5000), epochs=20, seed=0)
with open("fusion_predictions.json", "w") as fh:
    json.dump({name: {key: labels.tolist() for key, labels in keys.items()}
               for name, keys in preds.items()}, fh, sort_keys=True)
"""


def stages(inputs):
    """The argv, after the interpreter, of every stage of one run, in order."""
    walkthrough = readme_commands("--out data/train")
    for argv in walkthrough:
        if argv[0] == "synth":
            argv[argv.index("--n-clips") + 1] = SIZES[argv[argv.index("--out") + 1]]
    cli = ["-m", "avfusion.cli"]
    return [*(cli + argv for argv in walkthrough + readme_commands("hybrid_bn.json")),
            cli + ["lbptop", "--in", f"{inputs}/volume.fvt", "--out", "desc.fvt"],
            cli + ["pca", "fit", "--in", f"{inputs}/descriptors.fvt", "--q", "150",
                   "--out", "pca.json"],
            cli + ["pca", "apply", "--model", "pca.json", "--in", "desc.fvt",
                   "--out", "desc150.fvt"],
            cli + ["pool", "--in", f"{inputs}/scores.fvt", "--out", "pooled.fvt"],
            ["-c", FUSION]]


def run(tree, threads, inputs, out):
    """Run every stage with ``tree``'s library at ``threads`` BLAS threads in
    ``out``, each stage's stdout saved under ``out/stdout``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **dict.fromkeys(BLAS_THREADS, threads)}
    found = subprocess.run([sys.executable, "-c", "import avfusion; print(avfusion.__file__)"],
                           env=env, capture_output=True, text=True).stdout.strip()
    if Path(found) != tree / "src" / "avfusion" / "__init__.py":
        sys.exit(f"PYTHONPATH={tree / 'src'} imports avfusion from {found or 'nowhere'}")
    (out / "stdout").mkdir(parents=True)
    for i, argv in enumerate(stages(inputs)):
        proc = subprocess.run([sys.executable, *argv], cwd=out, env=env, capture_output=True,
                              text=True)
        name = "fusion_predictions" if argv[0] == "-c" else argv[2]
        if proc.returncode:
            print(f"{tree} at {threads} BLAS thread(s): {name} exited {proc.returncode}\n"
                  f"{proc.stderr}", file=sys.stderr)
            sys.exit(2)
        (out / "stdout" / f"{i:02d} {name}.txt").write_text(proc.stdout)


def difference(a, b):
    """Why two differing files differ: for FVT1 tensors, the largest absolute
    difference of their values or their two shapes."""
    if a.suffix != ".fvt":
        return "bytes differ"
    try:
        x, y = read_tensor_array(a), read_tensor_array(b)
    except ValueError as exc:
        return f"not both FVT1 tensors ({exc})"
    if x.shape != y.shape:
        return f"shapes {x.shape} and {y.shape}"
    return f"largest absolute difference {np.abs(x - y).max():.3g} ({np.sum(x != y)} values)"


def compare(a, b):
    """Print each file that is not byte-identical under the run directories
    ``a`` and ``b``; returns the number of files compared and the number
    that differ."""
    names = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*")
                    if p.is_file()})
    differ = 0
    for name in names:
        if not ((a / name).is_file() and (b / name).is_file()):
            why = f"only in the {'first' if (a / name).is_file() else 'second'} run"
        elif (a / name).read_bytes() != (b / name).read_bytes():
            why = difference(a / name, b / name)
        else:
            continue
        differ += 1
        print(f"DIFFERS {name}: {why}")
    return len(names), differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="two checkouts, or one with --threads")
    parser.add_argument("--threads", action="store_true",
                        help="run one checkout at 1 and at 2 BLAS threads")
    args = parser.parse_args(argv)
    if len(args.trees) != (1 if args.threads else 2):
        parser.error("give two trees, or one tree with --threads")
    trees = [tree.resolve() for tree in args.trees]
    runs = [(trees[0], "1"), (trees[0], "2")] if args.threads else [(t, "1") for t in trees]
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        rng = np.random.default_rng(0)
        write_tensor_array(inputs / "volume.fvt", rng.integers(0, 256, (16, 48, 48)))
        write_tensor_array(inputs / "descriptors.fvt", rng.standard_normal((600, 2832)))
        write_tensor_array(inputs / "scores.fvt", rng.random((23, 7)))
        outs = [tmp / f"run{i}" for i in range(2)]
        for (tree, threads), out in zip(runs, outs):
            run(tree, threads, inputs, out)
        compared, differ = compare(*outs)
    sides = " against ".join(f"{tree} at {threads} BLAS thread(s)" for tree, threads in runs)
    print(f"{differ} of {compared} files differ: {sides}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
