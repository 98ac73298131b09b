"""Per-layer spans for the traced benchmark run.

The tracer wraps the entry points of each edgedpp layer from outside the
package: every module binding of a wrapped function is replaced, including
the copies that ``from .x import f`` leaves in other modules, and restored
afterwards.  A span records one call; its self time is its duration minus
the durations of the wrapped calls nested inside it.  Work done by the
tracer's own counters is charged to no layer.

Spans are single-threaded: the benchmark runs with ``threads = 1``, and a
call arriving on another thread goes through unwrapped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

from edgedpp.errors import EdgeDppError

_LN10 = math.log(10.0)

# (layer, module, function) for every span-producing entry point.
SPANS = (
    ("kernel.recurrence", "edgedpp.kernel", "_phi_log_arrays"),
    ("kernel.recurrence", "edgedpp.kernel", "_monomial_log_arrays"),
    ("kernel.convolution", "edgedpp.kernel", "_convolve_truncated"),
    ("kernel.exact", "edgedpp.kernel", "kernel_exact_log"),
    ("special.stable_sum", "edgedpp.special", "stable_sum_arrays"),
    ("geometry.saddle_frame", "edgedpp.geometry", "saddle_frame"),
    ("contour.integral", "edgedpp.contour", "integral_I_tau"),
    ("contour.integral", "edgedpp.contour", "integral_I_zero"),
    ("predictors.normalized_kernel", "edgedpp.predictors", "normalized_kernel"),
    ("saddle", "edgedpp.saddle", "pole_gaussian_integral"),
    ("saddle", "edgedpp.saddle", "phi_at_pole"),
    ("saddle", "edgedpp.saddle", "phi_at_pole_tau0"),
    ("saddle", "edgedpp.saddle", "phi_lemma_two_term"),
    ("saddle", "edgedpp.saddle", "phi_lemma_two_term_tau0"),
    ("saddle", "edgedpp.saddle", "sinh_ratio"),
    ("saddle", "edgedpp.saddle", "asymptotic_I_zero"),
    ("saddle", "edgedpp.saddle", "asymptotic_I_tau"),
    ("harness", "edgedpp.harness", "run_experiment"),
)

# Called inside a contour.integral span; they only feed its counters.
PROBES = (
    ("edgedpp.contour", "_trapezoid_nodes"),
    ("edgedpp.contour", "_reject_hopeless_cancellation"),
)

# Fixed here rather than read from edgedpp, so that a renamed kind reads zero
# (like any absent entry point) instead of leaving a metric without a value.
EXPERIMENT_KINDS = (
    "representation_equivalence",
    "trace_identity",
    "bulk_limit",
    "edge_density",
    "edge_kernel",
    "refined_d1",
    "saddle_pole",
    "max_principle",
    "phi_expansion",
)


class _Frame:
    __slots__ = ("layer", "start", "child", "last_nodes")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.last_nodes = 0


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.metrics()`` after."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.top_level_spans = 0
        self.absent: list[str] = []
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []
        self._owner = threading.get_ident()

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer, module, name in SPANS:
            self._patch(module, name, functools.partial(self._span_wrapper, layer))
        for module, name in PROBES:
            self._patch(module, name, functools.partial(self._probe_wrapper, name))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _patch(self, module: str, name: str, make_wrapper) -> None:
        """Replace every edgedpp binding of module.name by make_wrapper(original)."""
        try:
            original = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{name}")
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "edgedpp" and not mod_name.startswith("edgedpp."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def root(self, layer: str):
        """Span opened by the benchmark itself around one evaluation."""
        frame = self._enter(layer)
        try:
            yield
        finally:
            self._exit(frame)

    def _enter(self, layer: str) -> _Frame:
        if not self._stack:
            self.top_level_spans += 1
        frame = _Frame(layer, perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        duration = perf_counter() - frame.start
        self._stack.pop()
        self.calls[frame.layer] += 1
        self.self_s[frame.layer] += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        return duration

    def _untimed(self, started: float) -> None:
        """Charge counter bookkeeping that began at ``started`` to no layer."""
        if self._stack:
            self._stack[-1].child += perf_counter() - started

    def _span_wrapper(self, layer: str, original):
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._owner:
                return original(*args, **kwargs)
            frame = self._enter(layer)
            try:
                result = original(*args, **kwargs)
            except EdgeDppError:
                if layer == "contour.integral":
                    self.count["contour.integral.failures"] += 1
                raise
            finally:
                duration = self._exit(frame)
                if layer == "harness":
                    # an experiment that raises still ran for this long
                    self.count[f"harness.{args[0].kind}.wall_s"] += duration
            started = perf_counter()
            self._observe(layer, frame, args, result)
            self._untimed(started)
            return result

        return wrapper

    def _observe(self, layer: str, frame: _Frame, args, result) -> None:
        if layer == "kernel.recurrence":
            self.count["kernel.recurrence.terms"] += int(args[-1])
        elif layer == "kernel.convolution":
            # log (float64) plus phase (complex128) of the n x n outer product
            self.count["kernel.convolution.computed_bytes"] += 24 * np.size(args[0]) * np.size(args[2])
        elif layer == "special.stable_sum":
            self.count["special.stable_sum.terms"] += np.size(args[0])
        elif layer == "contour.integral":
            self.count["contour.integral.useful_nodes"] += frame.last_nodes
        elif layer == "predictors.normalized_kernel":
            key = "predictors.normalized_kernel.route_gap_max"
            self.count[key] = max(self.count[key], float(result.route_gap))

    def _probe_wrapper(self, name: str, original):
        def wrapper(*args, **kwargs):
            frame = self._stack[-1] if self._stack else None
            if frame is not None and frame.layer == "contour.integral" and threading.get_ident() == self._owner:
                # read from the arguments before the call, so that a sum the
                # call rejects for cancellation is counted too
                started = perf_counter()
                self._probe(name, frame, args)
                self._untimed(started)
            return original(*args, **kwargs)

        return wrapper

    def _probe(self, name: str, frame: _Frame, args) -> None:
        if name == "_trapezoid_nodes":
            nodes = int(args[0])
            self.count["contour.integral.nodes"] += nodes
            self.count["contour.integral.passes"] += 1
            frame.last_nodes = nodes
            return
        log_mag, val = np.asarray(args[0], dtype=float), args[1]
        if val.log_mag != -math.inf:
            shift = float(np.max(log_mag))
            l1_log = shift + math.log(float(np.sum(np.exp(log_mag - shift))))
            key = "contour.integral.cancellation_digits_max"
            self.count[key] = max(self.count[key], (l1_log - val.log_mag) / _LN10)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values by metric name; absent layers read zero."""
        out: dict[str, float] = {}
        for layer in dict.fromkeys(layer for layer, _, _ in SPANS):
            if layer == "harness":
                continue
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for key in (
            "kernel.recurrence.terms",
            "kernel.convolution.computed_bytes",
            "special.stable_sum.terms",
            "contour.integral.failures",
            "contour.integral.nodes",
            "contour.integral.passes",
            "contour.integral.cancellation_digits_max",
            "predictors.normalized_kernel.route_gap_max",
        ):
            out[key] = self.count[key]
        nodes = self.count["contour.integral.nodes"]
        out["contour.integral.useful_node_ratio"] = (
            self.count["contour.integral.useful_nodes"] / nodes if nodes else 0.0
        )
        for kind in EXPERIMENT_KINDS:
            out[f"harness.{kind}.wall_s"] = self.count[f"harness.{kind}.wall_s"]
        return out

