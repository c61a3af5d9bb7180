"""Tracing for the per-layer metrics, installed from the benchmark's own process.

`Tracer.install()` replaces each public function of the friedrichs3d
modules, in every module namespace that holds it, by a wrapper that
records a span (name, start, end, parent).  The kernel's build and
evaluation methods and VFunction.squared_exp_coeffs are wrapped on their
classes.  The lattice closed forms take microseconds, so they are only
counted: timing them would time the wrapper.  `uninstall()` puts every
original back, so untraced ops run the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

MODULES = ("cli", "vfunction", "quadrature", "determinant", "thresholds", "bands", "oracle", "lattice")
COUNT_ONLY = ("lattice",)
EXTRA_PUBLIC = {"cli": ("main",), "thresholds": ("threshold_integral",)}
METHODS = {
    "quadrature.ResolventKernel": ("__init__", "integral_below", "integral_above"),
    "vfunction.VFunction": ("squared_exp_coeffs",),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._seen_v = set()
        self.edge_margin = 1e-6

    # ---- recording ------------------------------------------------------

    def _timed(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_solve(self, args, window):
        for side, edge, sign in (("below", window.m, -1.0), ("above", window.M, 1.0)):
            z = getattr(window, "eigen_" + side)
            if z is not None:
                self.counts["determinant.roots"] += 1
                if z == edge + sign * self.edge_margin:
                    self.counts["determinant.clamped_roots"] += 1

    def _after_bands(self, args, structure):
        base = structure.k_grid_resolution ** 3 + 10
        self.counts["bands.refined_fibers"] += len(structure.eigen_branches) - base

    def _squared_exp(self, fn):
        timed_cold = self._timed("vfunction.squared_exp_coeffs_cold", fn)
        seen = self._seen_v

        @functools.wraps(fn)
        def wrapper(v, *args, **kwargs):
            if v in seen:
                return fn(v, *args, **kwargs)
            seen.add(v)
            return timed_cold(v, *args, **kwargs)

        return wrapper

    # ---- installation ---------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module("friedrichs3d." + name) for name in MODULES}
        self.edge_margin = getattr(mods["determinant"], "EDGE_MARGIN", 1e-6)
        replacements = {}
        for short, mod in mods.items():
            names = list(getattr(mod, "__all__", ())) + list(EXTRA_PUBLIC.get(short, ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or id(fn) in replacements:
                    continue
                label = "%s.%s" % (short, attr)
                if short in COUNT_ONLY:
                    replacements[id(fn)] = (fn, self._counted(label, fn))
                elif attr == "find_discrete_spectrum":
                    replacements[id(fn)] = (fn, self._timed(label, fn, self._after_solve))
                elif attr == "assemble_bands":
                    replacements[id(fn)] = (fn, self._timed(label, fn, self._after_bands))
                else:
                    replacements[id(fn)] = (fn, self._timed(label, fn))
        for short, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacements[id(value)][1])
        for qualified, methods in METHODS.items():
            short, cls_name = qualified.split(".")
            cls = getattr(mods[short], cls_name)
            for attr in methods:
                fn = cls.__dict__[attr]
                label = "%s.%s.%s" % (short, cls_name, attr)
                wrapped = self._squared_exp(fn) if attr == "squared_exp_coeffs" else self._timed(label, fn)
                self._patches.append((cls, attr, fn))
                setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    # ---- aggregation ------------------------------------------------------

    def summary(self) -> dict:
        """Per-op totals: seconds and calls per span name, self time of cli.main, counts."""
        seconds, calls, child = Counter(), Counter(), Counter()
        for name, start, end, parent in self.spans:
            seconds[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        main_self = sum(
            (end - start) - child[i]
            for i, (name, start, end, _p) in enumerate(self.spans)
            if name == "cli.main"
        )
        return {
            "seconds": dict(seconds),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "cli_main_self": main_self,
            "spans": len(self.spans),
        }
