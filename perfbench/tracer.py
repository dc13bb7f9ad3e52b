"""Layer trace taken from outside the package.

The tracer wraps deformkit's public functions after import and records,
per layer group, the number of outermost calls, their inclusive seconds
and the group's self time (its seconds minus the seconds of other
groups nested inside it).  Calls of a group nested inside the same
group are folded into the outer span, so ``differential_norms`` calling
``differential_norm_T`` is one span.  Counters (operator applications,
DFT points, ...) are recorded at the same boundaries.

Modules bind layer functions by name (``from .pseudodiff import
operator_norm``), so every wrapper is installed at each deformkit module
attribute that refers to the original function.

Spans stay in memory; ``Tracer.dump`` writes the aggregate as JSON.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

class Tracer:
    """Span stack plus per-group aggregates and named counters."""

    def __init__(self):
        self._stack = []  # frames: [group, start, child_seconds, same-group depth]
        self._active = defaultdict(int)
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(float)

    def _enter(self, group):
        if self._stack and self._stack[-1][0] == group:
            self._stack[-1][3] += 1
            return
        self._active[group] += 1
        self._stack.append([group, time.perf_counter(), 0.0, 0])

    def _exit(self, group):
        frame = self._stack[-1]
        if frame[3]:
            frame[3] -= 1
            return
        self._stack.pop()
        elapsed = time.perf_counter() - frame[1]
        self._active[group] -= 1
        self.self_seconds[group] += elapsed - frame[2]
        if not self._active[group]:
            self.calls[group] += 1
            self.seconds[group] += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    def wrap(self, fn, group, after=None):
        """Return fn recorded as a span of group; after(args, kwargs, out) counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(group)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(group)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def dump(self, path):
        doc = {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)


def _replace_everywhere(original, replacement):
    """Rebind every deformkit module attribute that is ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "deformkit" or name.startswith("deformkit.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _points(shape_prefix) -> int:
    return int(math.prod(shape_prefix))


def install(tracer: Tracer):
    """Wrap the layer functions of deformkit's six modules."""
    import deformkit  # noqa: F401  (imports every layer module)
    from deformkit import (
        coeff_algebra,
        deformation,
        heisenberg,
        pseudodiff,
        symbols,
        verify_cli,
    )
    import numpy as np

    counters, maxima = tracer.counters, tracer.maxima

    def function(module, name, group, after=None):
        original = getattr(module, name)
        _replace_everywhere(original, tracer.wrap(original, group, after))

    def method(cls, name, group, after):
        setattr(cls, name, tracer.wrap(getattr(cls, name), group, after))

    # symbols
    def dft_points(args, kwargs, out):
        counters["symbols.centered_dft.points"] += np.size(args[0]) * len(tuple(args[1]))

    for name in ("centered_dft", "centered_idft"):
        function(symbols, name, "symbols.centered_dft", dft_points)

    def plane_points(args, kwargs, out):
        counters["symbols.evaluate.term_points"] += len(args[0].terms) * _points(np.shape(out)[:-2])

    def series_points(args, kwargs, out):
        counters["symbols.evaluate.term_points"] += len(args[0]) * _points(np.shape(out)[:-2])

    method(symbols.PlaneWaveSymbol, "evaluate", "symbols.evaluate", plane_points)
    method(symbols.PlaneWavePhaseSymbol, "evaluate", "symbols.evaluate", plane_points)
    function(symbols, "eval_series", "symbols.evaluate", series_points)

    def io_bytes(path_index):
        def after(args, kwargs, out):
            path = args[path_index] if len(args) > path_index else kwargs.get("path")
            counters["symbols.io.bytes"] += os.path.getsize(path)
        return after

    for name in ("read_symbol_file", "read_rsym", "read_plane_wave_json"):
        function(symbols, name, "symbols.io", io_bytes(0))
    for name in ("write_symbol_file", "write_rsym", "write_plane_wave_json"):
        function(symbols, name, "symbols.io", io_bytes(1))
    function(symbols, "sup_norm", "symbols.sup_norm")

    # deformation
    def tilde_terms(args, kwargs, out):
        counters["deformation.tilde_map.terms"] += len(out.terms)

    function(deformation, "tilde_map", "deformation.tilde_map", tilde_terms)
    function(deformation, "deformed_product_exact", "deformation.product_exact")

    numeric = deformation.deformed_product_numeric
    traced_numeric = tracer.wrap(numeric, "deformation.product_numeric")

    def product_numeric(f, g, J, cfg=None, report=None):
        report = {} if report is None else report
        out = traced_numeric(f, g, J, cfg, report)
        key = "deformation.product_numeric.route_disagreement"
        maxima[key] = max(maxima[key], float(report.get("route_disagreement", 0.0)))
        return out

    _replace_everywhere(numeric, functools.wraps(numeric)(product_numeric))

    # pseudodiff
    for name in ("op_from_phase_terms", "rieffel_operator"):
        function(pseudodiff, name, "pseudodiff.op_from_phase_terms")

    def counted(fn):
        if fn is None:
            return None
        traced = tracer.wrap(fn, "pseudodiff.apply")

        def apply(values):
            counters["pseudodiff.operator_norm.applications"] += 1
            return traced(values)

        return apply

    norm = pseudodiff.operator_norm
    traced_norm = tracer.wrap(norm, "pseudodiff.operator_norm")

    def operator_norm(op, *args, **kwargs):
        op = dataclasses.replace(
            op, forward=counted(op.forward), adjoint_fn=counted(op.adjoint_fn)
        )
        return traced_norm(op, *args, **kwargs)

    _replace_everywhere(norm, functools.wraps(norm)(operator_norm))

    # heisenberg
    for name in ("differential_norms", "differential_norm_T", "rho_m", "delta_symbol"):
        function(heisenberg, name, "heisenberg.differential_norms")
    for name in ("symbol_map_S", "inverse_cv_bound", "kernel_identity_residual"):
        function(heisenberg, name, f"heisenberg.{name}")
    for name in ("d_inverse", "d_inverse_factor"):
        function(heisenberg, name, "heisenberg.d_inverse")

    # coeff_algebra: every public function is one group
    for name in coeff_algebra.__all__:
        value = getattr(coeff_algebra, name)
        if callable(value) and not isinstance(value, type):
            function(coeff_algebra, name, "coeff_algebra")

    # verify_cli: one span per suite
    for name, suite in list(verify_cli.SUITES.items()):
        verify_cli.SUITES[name] = tracer.wrap(suite, f"verify_cli.suite.{name}")
