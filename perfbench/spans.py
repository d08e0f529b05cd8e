"""Call tracing for the benchmark's traced runs.

The tracer wraps every public function of the eight ``avfusion`` modules
from outside the package: each module attribute, and each ``avfusion``
package attribute, that refers to one of those functions is replaced by
a wrapper for the duration of one traced operation and put back
afterwards.  Modules import each other's functions by name
(``fusion`` holds its own reference to ``learn.svm_train``), so every
namespace that holds a reference is patched, not just the defining one.

Each wrapped call records a span ``(function, parent span, start, end,
self seconds)`` in memory.  Self time is the span's duration minus the
durations of the wrapped calls made inside it.  Spans are returned by
:meth:`Tracer.drain` and written out by the caller when the run ends.
"""

import functools
import importlib
import inspect
import math
import time

# Layer names, in pipeline order; each is a module of the avfusion package.
LAYERS = ("core", "synth", "lbptop", "features", "learn", "fusion", "metrics", "cli")


def _svm_train_steps(signature, args, kwargs, result):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return {"steps": len(bound.arguments["X"]) * int(bound.arguments["epochs"])}


def _lbp_voxels(signature, args, kwargs, result):
    bound = signature.bind(*args, **kwargs)
    volume = bound.arguments["volume"]
    return {"voxels": int(getattr(volume, "size", 0))}


def _read_bytes(signature, args, kwargs, result):
    dims, values = result
    return {"bytes": 8 + 4 * len(dims) + 4 * len(values)}


def _write_bytes(signature, args, kwargs, result):
    bound = signature.bind(*args, **kwargs)
    dims = [int(d) for d in bound.arguments["dims"]]
    return {"bytes": 8 + 4 * len(dims) + 4 * math.prod(dims)}


# Work counted at a layer boundary, keyed by the traced function's name:
# each counter maps (signature, args, kwargs, result) to {key: amount}.
COUNTERS = {
    "learn.svm_train": _svm_train_steps,
    "lbptop.lbp_top_descriptor": _lbp_voxels,
    "core.read_tensor": _read_bytes,
    "core.write_tensor": _write_bytes,
}


class Tracer:
    """Wraps the public functions of ``avfusion``'s layers while installed."""

    def __init__(self, package):
        self._package = package
        self._modules = [importlib.import_module(f"{package.__name__}.{layer}")
                         for layer in LAYERS]
        self._patched = []
        self.names = []     # traced function names, "<layer>.<function>"
        self._spans = []    # (name index, parent span index, start, end, self seconds)
        self._counts = {}   # (name index, key) -> summed amount
        self._root = [-1, 0.0]
        self._stack = [self._root]

    def _wrap(self, idx, fn, counter):
        spans, counts, stack = self._spans, self._counts, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                spans[frame[0]] = (idx, parent[0], start, end, end - start - frame[1])
            if counter is not None:
                for key, amount in counter(signature, args, kwargs, result).items():
                    counts[idx, key] = counts.get((idx, key), 0) + amount
            return result

        return traced

    def install(self):
        """Replace every reference to a layer's public function by a wrapper."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module in self._modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name not in self.names:
                    self.names.append(name)
                idx = self.names.index(name)
                wrappers[obj] = self._wrap(idx, obj, COUNTERS.get(name))
        for namespace in (self._package, *self._modules):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(namespace, attr, wrappers[obj])
                    self._patched.append((namespace, attr, obj))

    def uninstall(self):
        """Put every original function back; returns the names left wrapped."""
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        left = [f"{namespace.__name__}.{attr}" for namespace, attr, original in self._patched
                if getattr(namespace, attr) is not original]
        self._patched = []
        return left

    def drain(self):
        """Spans, counts and root-covered seconds since the last drain."""
        if len(self._stack) != 1:
            raise RuntimeError("drain() called inside a traced call")
        spans, counts, covered = list(self._spans), dict(self._counts), self._root[1]
        self._spans.clear()
        self._counts.clear()
        self._root[1] = 0.0
        return spans, counts, covered


def summarize(names, spans, counts):
    """Per-function totals of one traced operation.

    Returns ``{name: {"calls", "self_s", "incl_s", "durations", <count keys>}}``
    for every function that was called at least once.
    """
    stats = {}
    for idx, _parent, start, end, self_s in spans:
        entry = stats.setdefault(names[idx], {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                              "durations": []})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["incl_s"] += end - start
        entry["durations"].append(end - start)
    for (idx, key), amount in counts.items():
        stats[names[idx]][key] = amount
    return stats
