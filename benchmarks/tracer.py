"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` replaces every public function of the ``altiter``
modules, in every altiter module that binds it, with a wrapper that
records a span (op id, name, start, end, parent span).  It also wraps the
``numpy.linalg`` entry points the library uses, recording only calls made
from altiter code.  Spans stay in memory until the run ends; the
per-layer metrics are derived from them, with a layer's self time being
its spans' durations minus their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
import warnings

import numpy as np

LAPACK = ("svd", "eigvals", "solve", "inv", "pinv")

_OP, _NAME, _START, _END, _PARENT = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple] = []
        self.counters = {"sweep_loop_ns": 0.0, "iterations": 0, "bytes_read": 0,
                         "runtime_warnings": 0}
        self._hooks = {"alternating.iterate": self._after_iterate,
                       "mmio.load_matrix": self._after_load}

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "altiter" or name.startswith("altiter.")]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("altiter.")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}", False)
                self._undo.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        for fname in LAPACK:
            original = getattr(np.linalg, fname)
            self._undo.append((np.linalg, fname, original))
            setattr(np.linalg, fname, self._wrap(original, f"lapack.{fname}", True))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._undo):
            setattr(module, attr, obj)
        self._undo.clear()

    def _wrap(self, fn, name: str, altiter_callers_only: bool):
        spans, stack, clock, hook = self.spans, self._stack, time.perf_counter_ns, \
            self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op < 0 or (altiter_callers_only and not sys._getframe(1)
                                .f_globals.get("__name__", "").startswith("altiter")):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([self._op, name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][_END] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def _after_iterate(self, args, kwargs, trace) -> None:
        self.counters["sweep_loop_ns"] += trace.elapsed_seconds * 1e9
        self.counters["iterations"] += trace.iterations

    def _after_load(self, args, kwargs, result) -> None:
        self.counters["bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])

    @contextlib.contextmanager
    def op(self, op_id: int):
        """One traced op: a root span, with every Python warning counted."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            idx = len(self.spans)
            self.spans.append([op_id, "op", time.perf_counter_ns(), 0, -1])
            self._stack.append(idx)
            self._op = op_id
            try:
                yield
            finally:
                self._op = -1
                self.spans[idx][_END] = time.perf_counter_ns()
                self._stack.pop()
        self.counters["runtime_warnings"] += len(caught)

    def op_latencies_ns(self) -> list[int]:
        return [s[_END] - s[_START] for s in self.spans if s[_NAME] == "op"]

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics: ``_calls`` are counts, ``_ms`` inclusive times."""
        spans = self.spans
        dur = [s[_END] - s[_START] for s in spans]
        children = [0] * len(spans)
        for s, d in zip(spans, dur):
            if s[_PARENT] >= 0:
                children[s[_PARENT]] += d
        layer = [s[_NAME].split(".", 1)[0] for s in spans]

        def outermost_ns(match) -> int:
            total = 0
            for i, s in enumerate(spans):
                if not match(i):
                    continue
                p = s[_PARENT]
                while p >= 0 and not match(p):
                    p = spans[p][_PARENT]
                if p < 0:
                    total += dur[i]
            return total

        def named(name):
            return lambda i: spans[i][_NAME] == name

        def in_layer(name):
            return lambda i: layer[i] == name

        def self_ns(match) -> int:
            return sum(dur[i] - children[i] for i in range(len(spans)) if match(i))

        def count(match) -> int:
            return sum(1 for i in range(len(spans)) if match(i))

        ms, c = 1e-6 / ops, self.counters
        out: dict[str, float] = {}
        for fname in LAPACK:
            out[f"kernel.lapack_{fname}_calls"] = count(named(f"lapack.{fname}")) / ops
            out[f"kernel.lapack_{fname}_ms"] = outermost_ns(named(f"lapack.{fname}")) * ms
        out["kernel.self_ms"] = self_ns(in_layer("kernel")) * ms
        for key, name in (("ginverse.group_inverse", "ginverse.group_inverse"),
                          ("splittings.make_splitting", "splittings.make_splitting"),
                          ("alternating.iterate", "alternating.iterate"),
                          ("mmio.load", "mmio.load_matrix"),
                          ("cli.main", "cli.main")):
            out[f"{key}_calls"] = count(named(name)) / ops
            out[f"{key}_ms"] = outermost_ns(named(name)) * ms
        for name in ("ginverse", "splittings", "analysis", "bench", "cli"):
            out[f"{name}.self_ms"] = self_ns(in_layer(name)) * ms
        for name in ("analysis", "catalog"):
            out[f"{name}.calls"] = count(in_layer(name)) / ops
            out[f"{name}.ms"] = outermost_ns(in_layer(name)) * ms
        out["alternating.rho_ms"] = sum(
            dur[i] for i, s in enumerate(spans)
            if s[_NAME] == "kernel.spectral_radius" and s[_PARENT] >= 0
            and spans[s[_PARENT]][_NAME] == "alternating.iterate") * ms
        out["alternating.iteration_matrix_ms"] = \
            outermost_ns(named("alternating.iteration_matrix")) * ms
        out["alternating.generate_ms"] = self_ns(
            lambda i: spans[i][_NAME] in ("alternating.random_group_monotone",
                                          "alternating.random_g_regular_splitting")) * ms
        out["alternating.sweep_loop_ms"] = c["sweep_loop_ns"] * ms
        out["alternating.iterations"] = c["iterations"] / ops
        out["alternating.us_per_iteration"] = (
            c["sweep_loop_ns"] / c["iterations"] / 1e3 if c["iterations"] else 0.0)
        out["alternating.runtime_warnings"] = c["runtime_warnings"] / ops
        out["mmio.bytes_read"] = c["bytes_read"] / ops
        return out

    def dump(self) -> list[list]:
        """Spans as rows, times in ns from the first span."""
        t0 = self.spans[0][_START] if self.spans else 0
        return [[s[_OP], s[_NAME], s[_START] - t0, s[_END] - t0, s[_PARENT]]
                for s in self.spans]
