import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import avfusion
from avfusion import synth
from avfusion.cli import build_parser, main
from avfusion.core import CHANNELS, read_decisions
from avfusion.features import pool_clips
from avfusion.fusion import fusion_predictions

README = Path(__file__).resolve().parents[1] / "README.md"
LOOP = re.compile(r"^for (\w+) in ([^;\n]*); do\n(.*?)^done$", re.M | re.S)


def test_readme_library_names_resolve():
    """Every ``av.<name>`` in the README's Library block exists on avfusion."""
    library = README.read_text().split("## Library", 1)[1]
    block = library.split("```python", 1)[1].split("```", 1)[0]
    names = set(re.findall(r"\bav\.(\w+)", block))
    assert names
    assert sorted(n for n in names if not hasattr(avfusion, n)) == []


def readme_commands(marker=""):
    """The argv of every ``avfusion`` command in the README's shell blocks
    that hold ``marker``, continuation lines joined and each ``for`` loop
    expanded over every value of its variable."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    shell = "\n".join(block for block in blocks if marker in block).replace("\\\n", " ")
    shell = LOOP.sub(lambda loop: "".join(
        re.sub(rf"\$\{{{loop[1]}\}}|\${loop[1]}\b", value, loop[3])
        for value in loop[2].split()), shell)
    commands = []
    for line in shell.splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["avfusion"]:
            commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    parser = build_parser()
    (subcommands,) = [a.choices for a in parser._actions if a.choices and a.dest == "command"]
    assert {argv[0] for argv in commands} == set(subcommands)  # the README shows each one
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: avfusion {shlex.join(argv)}")


def _f32(values):
    """The values as a stage reads them back from an FVT1 file."""
    return np.asarray(values, dtype=np.float32).astype(np.float64)


def test_walkthrough_block_gives_the_library_protocols_labels(tmp_path, monkeypatch):
    """The README's walkthrough block, run through ``cli.main`` at 300/150/300
    clips, writes the test labels ``fusion_predictions`` gives on the same
    three synth worlds, read back at float32, with the stages' epochs and
    seed."""
    sizes = {"data/train": 300, "data/val": 150, "data/test": 300}
    commands = readme_commands("--out data/train")
    for argv in commands:
        if argv[0] == "synth":
            argv[argv.index("--n-clips") + 1] = str(sizes[argv[argv.index("--out") + 1]])
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, shlex.join(argv)

    parsed = [build_parser().parse_args(argv) for argv in commands]
    ((epochs, seed),) = {(a.epochs, a.seed) for a in parsed if hasattr(a, "epochs")}
    labels, features = [], {ch: [] for ch in CHANNELS}
    for args in (a for a in parsed if a.command == "synth"):
        rho = tuple(map(float, args.informativeness.split(",")))
        truths, draw = synth._draw(synth.SynthConfig(n_clips=args.n_clips, informativeness=rho,
                                                     seed=args.seed))
        labels.append(truths)
        for ch in CHANNELS:
            features[ch].append(pool_clips(list(map(_f32, draw(ch)))) if ch == "cnn"
                                else _f32(draw(ch)))
    features = {ch: np.concatenate(matrices) for ch, matrices in features.items()}
    expected = fusion_predictions({"readme": features}, np.concatenate(labels), slice(0, 300),
                                  slice(300, 450), slice(450, 750), epochs=epochs,
                                  seed=seed)["readme"]
    written = {**{ch: f"{ch}_test.csv" for ch in CHANNELS}, "joint": "fused_feat.csv",
               "bn": "fused_bn.csv"}
    assert sorted(expected) == sorted(written)
    for key, name in written.items():
        merged = read_decisions([name])
        assert list(merged) == [f"clip_{i:05d}" for i in range(300)], key
        assert [observed[key] for observed in merged.values()] == expected[key].tolist(), key
