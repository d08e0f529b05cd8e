"""Tests of the benchmark itself: output contract, metric names, README
fidelity of the CLI walkthrough, the tracer's wrapping and restoring,
and the protocol's agreement with the tested fusion path.

Run with ``python3 -m pytest perfbench/tests``.
"""

import inspect
import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import avfusion
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace,
                 "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= (2 if trace == "1" else 1)
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float | int)
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = bench("--workload", "protocol", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _readme_walkthrough():
    """The README's walkthrough commands as argv lists, loop expanded."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI walkthrough", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.strip().startswith("#")]
    commands, loop, body = [], None, []
    for line in lines:
        words = shlex.split(line)
        if words[0] == "for":
            loop = [w.rstrip(";") for w in words[3:] if w != "do"]
        elif words[0] == "done":
            commands += [[w.replace("${ch}", ch).replace("$ch", ch) for w in cmd]
                         for ch in loop for cmd in body]
            loop, body = None, []
        elif loop is not None:
            body.append(words)
        else:
            commands.append(words)
    return [cmd[1:] for cmd in commands if cmd[0] == "avfusion"]


def test_walkthrough_at_seed_0_is_the_readme():
    assert workloads.walkthrough_argv(0, workloads.CliSizes()) == _readme_walkthrough()
    assert len(_readme_walkthrough()) == 21


def _function_refs():
    namespaces = [avfusion] + [getattr(avfusion, layer) for layer in spans.LAYERS]
    return {(ns.__name__, attr): obj for ns in namespaces
            for attr, obj in vars(ns).items() if inspect.isfunction(obj)}


def test_tracer_wraps_every_reference_and_restores_it(tmp_path):
    before = _function_refs()
    tracer = spans.Tracer(avfusion)
    tracer.install()
    try:
        # fusion holds its own reference to learn.svm_train; both are wrapped.
        assert avfusion.learn.svm_train is not before["avfusion.learn", "svm_train"]
        assert avfusion.fusion.svm_train is avfusion.learn.svm_train
        assert avfusion.lbp_top_descriptor is avfusion.lbptop.lbp_top_descriptor
        path = tmp_path / "t.fvt"
        avfusion.write_tensor_array(path, [[1.0, 2.0, 3.0]])
        avfusion.read_tensor_array(path)
    finally:
        assert tracer.uninstall() == []
    assert _function_refs() == before
    found, counts, covered = tracer.drain()
    names = [tracer.names[idx] for idx, *_ in found]
    assert names == ["core.write_tensor_array", "core.write_tensor",
                     "core.read_tensor_array", "core.read_tensor"]
    outer, inner = found[2], found[3]
    assert inner[1] == 2 and outer[1] == -1
    assert outer[4] == pytest.approx((outer[3] - outer[2]) - (inner[3] - inner[2]), abs=1e-12)
    assert covered == pytest.approx(sum(s[3] - s[2] for s in found if s[1] == -1), abs=1e-12)
    stats = spans.summarize(tracer.names, found, counts)
    assert stats["core.read_tensor"]["bytes"] == 8 + 2 * 4 + 3 * 4
    assert stats["core.write_tensor"]["bytes"] == 8 + 2 * 4 + 3 * 4


def test_protocol_at_seed_0_matches_the_tested_path(tmp_path):
    """The benchmark's protocol gives the accuracies _fusion_protocol(0) gives."""
    workload = workloads.Protocol(0, workloads.ProtocolSizes(), tmp_path)
    workload.prepare()
    problems, accuracies = workload.check(workload.run(lambda: None))
    assert problems == []
    for key, expected in workloads.PROTOCOL_SEED0_ACCURACIES.items():
        assert accuracies[key] == expected
