"""avfusion benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 20 --trace 0

Run it from a checkout of the repository: it imports the ``avfusion``
package under ``src/`` next to this directory and no other copy.  With
``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced operations and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the run, with its environment,
goes to ``perfbench/results/``.  README.md in this directory describes
the workloads and metrics.
"""

import argparse
import contextlib
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("protocol", "cli_walkthrough", "frontend")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-core machine OpenBLAS's second thread made the
# protocol's many small matrix-vector products about 70% slower and noisier.
BLAS_THREADS = "1"
SETUP_REPEATS = 9
# On a shared host the CPU's speed drifts by tens of percent within minutes.
# A fixed pure-Python loop, the probe, is timed before and after every set-up
# and between the steps of every operation (its own time is not counted).
# Each step's time is scaled by REFERENCE_PROBE_S / (the mean of the probes
# around it): seconds at the speed at which the probe takes REFERENCE_PROBE_S,
# the usual speed of the 2-core Xeon (Sapphire Rapids) guest the benchmark
# was tuned on.  The raw times are printed and recorded too.
REFERENCE_PROBE_S = 1.2e-3

ACCURACY_NAMES = ("acc_audio", "acc_lbptop", "acc_cnn", "acc_blstm", "acc_feat", "acc_bn",
                  "acc_feat_fail", "acc_bn_fail")
# Functions reported one by one: ``s`` is self time, ``calls`` the call count.
LAYER_FUNCTIONS = {
    "learn.svm_train": ("calls", "s"),
    "fusion.feature_fusion_train": ("s",),
    "fusion.fit_measurement_cpt": ("s",),
    "fusion.bn_infer": ("calls", "s"),
    "features.normalize_fit": ("s",),
    "features.normalize_apply": ("s",),
    "features.k_average_pool": ("calls", "s"),
    "features.pca_fit": ("s",),
    "features.pca_transform": ("s",),
    "lbptop.lbp_top_descriptor": ("calls", "s"),
    "core.read_tensor": ("calls", "s"),
    "core.write_tensor": ("calls", "s"),
    "core.load_manifest": ("calls", "s"),
    "synth.synth_dataset": ("s",),
    "synth.synth_generate": ("s",),
    "metrics.evaluate": ("s",),
}
# ``learn.svm_predict.s`` covers every prediction entry point of the SVM.
SVM_PREDICT = ("learn.svm_predict", "learn.svm_predict_batch", "learn.svm_decision")
WALKTHROUGH_STAGES = ("synth", "train-svm", "predict-svm", "fuse-bn-fit", "fuse-bn-infer",
                      "fuse-feat-train", "fuse-feat-predict", "evaluate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long; at least one operation runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own tests")
    return parser.parse_args(argv)


def limit_threads():
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def import_avfusion():
    """Import the checkout's avfusion, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import avfusion
    location = Path(avfusion.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"imported avfusion from {location}, not from {SRC}")
    return avfusion


def environment(args, sizes):
    import numpy as np
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": vars(sizes),
    }


def probe_seconds():
    """Fastest of five timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds, probe_before, probe_after):
    """Seconds at the reference speed, from the probes around them."""
    return seconds * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)


def set_up(workload):
    """Set the workload up several times.

    Each set-up is a fresh interpreter's import of the workload's module
    plus ``workload.prepare()``.  Returns the medians of the raw and the
    scaled set-up seconds and of the import seconds.
    """
    raw, adjusted, imports = [], [], []
    probe = probe_seconds()
    for _ in range(SETUP_REPEATS):
        imported = workload.import_seconds()
        start = time.perf_counter()
        workload.prepare()
        raw.append(imported + time.perf_counter() - start)
        imports.append(imported)
        after = probe_seconds()
        adjusted.append(scaled(raw[-1], probe, after))
        probe = after
    return statistics.median(raw), statistics.median(adjusted), statistics.median(imports)


@contextlib.contextmanager
def tracing(tracer):
    """Install the tracer; yields a list that names any wrapper left behind."""
    problems = []
    tracer.install()
    try:
        yield problems
    finally:
        problems.extend(f"tracer left {name} wrapped" for name in tracer.uninstall())


class Operations:
    """Runs, checks and records operations.  The first operation's
    accuracies are the reference every later operation must repeat."""

    def __init__(self, workload):
        self.workload = workload
        self.walls = []      # raw seconds of each timed operation, probes excluded
        self.adjusted = []   # the same, scaled to the reference speed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.accuracies = None
        self.stage_seconds = []

    def run(self, around=lambda: contextlib.nullcontext([]), timed=True):
        """Run one operation inside ``around()`` and return its raw seconds.

        The workload calls ``mark()`` between the steps of the operation;
        each call times the step just ended and runs a probe, whose own
        time is not counted.  An operation with ``timed=False`` is checked
        but its time is not kept.
        """
        result = None
        steps = []  # (seconds, probe after the step)
        started = [0.0]

        def mark():
            steps.append((time.perf_counter() - started[0], probe_seconds()))
            started[0] = time.perf_counter()

        probe = probe_seconds()
        with around() as problems:
            started[0] = time.perf_counter()
            try:
                result = self.workload.run(mark)
            except Exception:
                problems.append(traceback.format_exc())
            mark()
        wall = sum(seconds for seconds, _ in steps)
        adjusted = 0.0
        for seconds, after in steps:
            adjusted += scaled(seconds, probe, after)
            probe = after
        if result is not None:
            try:
                found, accuracies = self.workload.check(result)
            except Exception:
                found, accuracies = [traceback.format_exc()], {}
            problems.extend(found)
            if self.accuracies is None and not found:
                self.accuracies = accuracies
            elif not found and accuracies != self.accuracies:
                problems.append(f"accuracies {accuracies} differ from the first "
                                f"operation's {self.accuracies} at the same seed")
            if timed:
                self.stage_seconds.extend(result.get("stage_seconds", ()))
        self.attempted += 1
        if timed:
            self.walls.append(wall)
            self.adjusted.append(adjusted)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for problem in problems:
                print(f"operation {self.attempted} failed: {problem}", file=sys.stderr)
        return wall


def peak_rss_mb():
    """Peak resident memory of this process or of its largest child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def _percentile(sorted_values, pct):
    if not sorted_values:
        return 0.0
    rank = (len(sorted_values) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


def layer_metrics(traced, import_s, overhead_s):
    """Per-layer metrics, as means per traced operation.

    ``traced`` holds one ``(stats, unattributed seconds, stage seconds)``
    triple per traced operation, ``stats`` as from ``spans.summarize``.
    A function that did not run reports 0.
    """
    n_ops = len(traced)

    def total(name, field):
        return sum(stats.get(name, {}).get(field, 0) for stats, _, _ in traced)

    out = {}
    for name, fields in LAYER_FUNCTIONS.items():
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = (total(name, "calls") / n_ops, "count")
            else:
                out[f"{name}.s"] = (total(name, "self_s") / n_ops, "s")
    steps = total("learn.svm_train", "steps")
    out["learn.svm_train.steps"] = (steps / n_ops, "count")
    out["learn.svm_train.us_per_step"] = (
        1e6 * total("learn.svm_train", "self_s") / steps if steps else 0.0, "us")
    out["learn.svm_predict.s"] = (sum(total(n, "self_s") for n in SVM_PREDICT) / n_ops, "s")
    bn_calls = total("fusion.bn_infer", "calls")
    out["fusion.bn_infer.us_per_call"] = (
        1e6 * total("fusion.bn_infer", "self_s") / bn_calls if bn_calls else 0.0, "us")
    clip_ms = sorted(1e3 * d for stats, _, _ in traced
                     for d in stats.get("lbptop.lbp_top_descriptor", {}).get("durations", ()))
    out["lbptop.clip_ms.p50"] = (_percentile(clip_ms, 50), "ms")
    out["lbptop.clip_ms.p95"] = (_percentile(clip_ms, 95), "ms")
    lbp_s = total("lbptop.lbp_top_descriptor", "incl_s")
    out["lbptop.mvoxels_per_s"] = (
        total("lbptop.lbp_top_descriptor", "voxels") / lbp_s / 1e6 if lbp_s else 0.0,
        "Mvoxel/s")
    out["core.read_tensor.mb"] = (total("core.read_tensor", "bytes") / 1e6 / n_ops, "MB")
    out["core.write_tensor.mb"] = (total("core.write_tensor", "bytes") / 1e6 / n_ops, "MB")
    for layer in spans.LAYERS:
        names = {n for stats, _, _ in traced for n in stats if n.startswith(f"{layer}.")}
        out[f"{layer}.self_s"] = (sum(total(n, "self_s") for n in names) / n_ops, "s")
        out[f"{layer}.calls"] = (sum(total(n, "calls") for n in names) / n_ops, "count")
    stage_runs = [s for _, _, stages in traced for s in stages]
    out["cli.import_s"] = (import_s if stage_runs else 0.0, "s")
    for stage in WALKTHROUGH_STAGES:
        out[f"cli.stage.{stage}.s"] = (
            sum(s for name, s in stage_runs if name == stage) / n_ops, "s")
    out["cli.stages.calls"] = (len(stage_runs) / n_ops, "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.unattributed_s"] = (statistics.mean(u for _, u, _ in traced), "s")
    return out


def function_table(traced):
    """Human-readable per-function lines (means per traced operation)."""
    names = {n for stats, _, _ in traced for n in stats}
    rows = []
    for name in names:
        rows.append((name, *(sum(stats.get(name, {}).get(f, 0) for stats, _, _ in traced)
                             / len(traced) for f in ("calls", "self_s", "incl_s"))))
    lines = [f"  {'function':<34} {'calls':>9} {'self s':>10} {'incl s':>10}"]
    for name, calls, self_s, incl_s in sorted(rows, key=lambda row: -row[2]):
        lines.append(f"  {name:<34} {calls:>9.0f} {self_s:>10.4f} {incl_s:>10.4f}")
    return lines


def write_spans(path, names, op_spans):
    """All spans of the traced operations, times relative to each operation's start."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("op,span,function,parent,start_s,end_s,self_s\n")
        for op, (found, origin) in enumerate(op_spans):
            for i, (idx, parent, start, end, self_s) in enumerate(found):
                fh.write(f"{op},{i},{names[idx]},{parent},{start - origin:.9f},"
                         f"{end - origin:.9f},{self_s:.9f}\n")


def measure_untraced(seconds, ops):
    """Run operations until ``seconds`` have passed, warm-up included."""
    deadline = time.perf_counter() + seconds
    for _ in range(ops.workload.warm_up_ops):
        ops.run(timed=False)
    while True:
        ops.run()
        if time.perf_counter() >= deadline:
            return


def measure_traced(seconds, ops, tracer):
    """Alternate untraced and traced operations until the time is up.

    Both kinds run in this process (the CLI walkthrough through
    ``cli.main``), so their difference is the tracing overhead.
    """
    ops.workload.in_process = True
    deadline = time.perf_counter() + seconds
    for _ in range(ops.workload.warm_up_ops):
        ops.run(timed=False)
    untraced, traced_walls, traced, op_spans = [], [], [], []
    while True:
        untraced.append(ops.run())
        n_stages = len(ops.stage_seconds)
        origin = time.perf_counter()
        traced_walls.append(ops.run(lambda: tracing(tracer)))
        found, counts, covered = tracer.drain()
        op_spans.append((found, origin))
        traced.append((spans.summarize(tracer.names, found, counts),
                       traced_walls[-1] - covered, ops.stage_seconds[n_stages:]))
        if time.perf_counter() >= deadline:
            break
    overhead_s = statistics.median(traced_walls) - statistics.median(untraced)
    return traced, op_spans, overhead_s


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "avfusion" / "__init__.py").is_file():
        print(f"error: no avfusion package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    limit_threads()
    av = import_avfusion()
    import workloads

    sizes = workloads.SIZES[args.size][args.workload]
    work_root = BENCH_DIR / "work"
    results_dir = BENCH_DIR / "results"
    work_root.mkdir(exist_ok=True)
    results_dir.mkdir(exist_ok=True)
    env = environment(args, sizes)
    record = {"env": env}
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, work_root)
    ops = Operations(workload)
    try:
        raw_setup_s, setup_s, import_s = set_up(workload)
        if args.trace:
            tracer = spans.Tracer(av)
            traced, op_spans, overhead_s = measure_traced(args.seconds, ops, tracer)
        else:
            measure_untraced(args.seconds, ops)
    finally:
        workload.close()

    attempted = ops.attempted
    accuracies = ops.accuracies or {}
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}",
             "env " + json.dumps(env, sort_keys=True),
             f"operations: {attempted} attempted, {ops.failed} failed "
             f"(error_rate {ops.failed / attempted:.4f} ratio)",
             f"  wall_s per operation: {', '.join(f'{w:.4f}' for w in ops.walls)}"]
    if args.trace:
        metrics = layer_metrics(traced, import_s, overhead_s)
        for name in ACCURACY_NAMES:
            metrics[name] = (accuracies.get(name, 0.0), "ratio")
        lines.append(f"traced operations: {len(traced)}; per traced operation:")
        lines.extend(function_table(traced))
        spans_path = results_dir / f"{args.workload}-seed{args.seed}-spans.csv.gz"
        write_spans(spans_path, tracer.names, op_spans)
        record["spans_file"] = spans_path.name
    else:
        lines.append(f"  unscaled: wall_s {statistics.median(ops.walls):.6g} s, "
                     f"setup_s {raw_setup_s:.6g} s")
        metrics = {
            "wall_s": (statistics.median(ops.adjusted), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "success_rate": ((attempted - ops.failed) / attempted, "ratio"),
        }
        for name in ACCURACY_NAMES:
            if name in accuracies:
                lines.append(f"  {name:<32} {accuracies[name]:.6g} ratio")
        for stage in WALKTHROUGH_STAGES:
            times = [s for name, s in ops.stage_seconds if name == stage]
            if times:
                lines.append(f"  stage {stage:<26} {sum(times) / len(ops.walls):.6g} s per "
                             f"operation, {len(times)} runs in their own processes")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<32} {value:.6g} {unit}")
    print("\n".join(lines))

    result = {"correct": ops.failed == 0, "attempted": attempted, "failed": ops.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record.update({"result": result, "accuracies": accuracies, "wall_s": ops.walls,
                   "scaled_wall_s": ops.adjusted, "setup_s": raw_setup_s,
                   "problems": ops.problems, "stage_seconds": ops.stage_seconds})
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
