"""Span tracing of coxrep's layers from outside the program.

While installed, every public function of each layer module (and
``FusionElem.__mul__``, the fusion product) is replaced by a wrapper at every
``coxrep.*`` module or class attribute that refers to it.  Calls between
modules of the package go through those attributes, so they are traced too.
Uninstalling puts the original objects back, so untraced passes run the
program unchanged.

Each call leaves one span in memory: (function id, start, end, parent span,
job index).  A span's self time is its duration minus the durations of its
direct children; children never overlap because the worker has one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

LAYERS = ("cli", "quiver", "fusion", "unfold", "rootsys", "reps", "linalg", "path_algebra")


def _vertices_max(extra, args, result):
    extra["unfold.vertices_max"] = max(extra["unfold.vertices_max"], len(result.vertices))


def _orbit_size(extra, args, result):
    extra["rootsys.root_orbit.size"] += len(result)


def _solve_shape(extra, args, result):
    A = args[0]
    extra["linalg.solve_all.cells"] += A.rows * A.cols
    extra["linalg.solve_all.unknowns_max"] = max(extra["linalg.solve_all.unknowns_max"], A.cols)


def _path_count(extra, args, result):
    extra["path_algebra.enumerate_paths.paths"] += len(result.paths)


# Sizes computed from a call's arguments or result, keyed by span name.
OBSERVERS = {
    "unfold.unfold": _vertices_max,
    "rootsys.root_orbit": _orbit_size,
    "linalg.solve_all": _solve_shape,
    "path_algebra.enumerate_paths": _path_count,
}
EXTRA_METRICS = (
    "unfold.vertices_max",
    "rootsys.root_orbit.size",
    "linalg.solve_all.cells",
    "linalg.solve_all.unknowns_max",
    "path_algebra.enumerate_paths.paths",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.extra = dict.fromkeys(EXTRA_METRICS, 0)
        self.job = -1
        self._stack: list[int] = []
        self._patched: list = []

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.extra = dict.fromkeys(EXTRA_METRICS, 0)
        self.job = -1

    def _wrap(self, fid, fn, observe):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, tracer.job)
            if observe is not None:
                observe(tracer.extra, args, result)
            return result

        return wrapper

    def install(self):
        from coxrep.fusion import FusionElem

        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"coxrep.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        mul = FusionElem.__dict__["__mul__"]
        targets[id(mul)] = (mul, "fusion.mul")
        self.names = []
        wrappers = {}
        for key, (fn, name) in targets.items():
            wrappers[key] = self._wrap(len(self.names), fn, OBSERVERS.get(name))
            self.names.append(name)
        owners = [m for n, m in sorted(sys.modules.items()) if n == "coxrep" or n.startswith("coxrep.")]
        for owner in owners + [FusionElem]:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and targets[id(obj)][0] is obj:
                    setattr(owner, attr, wrappers[id(obj)])
                    self._patched.append((owner, attr, obj))

    def uninstall(self):
        while self._patched:
            owner, attr, obj = self._patched.pop()
            setattr(owner, attr, obj)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def metrics(self) -> dict:
        """Calls and self time per function, self time per layer, and the
        observed sizes, over the spans recorded since the last reset."""
        child = [0.0] * len(self.spans)
        for fid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for idx, (fid, t0, t1, _, _) in enumerate(self.spans):
            name = self.names[fid]
            own = t1 - t0 - child[idx]
            calls[name] += 1
            self_s[name] += own
            layer_s[name.split(".", 1)[0]] += own
        return {
            "calls": calls,
            "self_s": self_s,
            "layer_self_s": layer_s,
            "extra": dict(self.extra),
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        """One JSON line of span names, then one line per span:
        [name index, start, end, parent span, job index], times in seconds
        from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for fid, t0, t1, parent, job in self.spans:
                fh.write(f"[{fid},{t0 - origin:.9f},{t1 - origin:.9f},{parent},{job}]\n")
