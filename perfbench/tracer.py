"""Span tracer for the benchmark's traced runs.

The tracer replaces a function with a timing wrapper under the name through
which its caller reaches it: ``kgkratzer.oracle.sweep`` is the kernel as the
oracle module sees it, ``kgkratzer.cli.run_suite`` is the verify layer as the
command line sees it.  Each call becomes a span (name, start, end, parent);
spans stay in memory until the run writes them out.  Counters taken from a
call's arguments or result (sweep steps, levels returned, quadrature
evaluations) are recorded at the same boundary.

Nothing in the package is edited: the wrappers are installed around each
traced operation and removed afterwards.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np


def _sweep_steps(args, kwargs, result, seconds):
    return {"sweep.steps": result[4]}


def _scan_size(args, kwargs, result, seconds):
    return {"spectrum.residual_evals": int(np.size(args[2]))}


def _levels(args, kwargs, result, seconds):
    return {"spectrum.levels": len(result),
            "spectrum.refine_iterations": sum(lvl.iterations for lvl in result)}


def _quadrature(args, kwargs, result, seconds):
    return {"wavefunction.quadrature_evals": result.evaluations}


def _suite(args, kwargs, result, seconds):
    suite = args[0] if args else kwargs["name"]
    return {f"verify.{suite}.calls": 1, f"verify.{suite}.seconds": seconds}


# (module, attribute, layer, kind, counter extractor).  ``kind`` groups the
# names under which one function is reached; the layer owns its self time.
TARGETS = [
    ("kgkratzer.oracle", "sweep", "_radial", "sweep", _sweep_steps),
    ("kgkratzer.oracle", "_defect_on_domain", "oracle", "defect", None),
    ("kgkratzer.oracle", "kg_eigensolve", "oracle", "eigensolve", None),
    ("kgkratzer.oracle", "deviation_report", "oracle", "deviation_report", None),
    ("kgkratzer.oracle", "solve_levels", "spectrum", "solve_levels", _levels),
    ("kgkratzer.spectrum", "solve_spectrum", "spectrum", "solve_spectrum", None),
    ("kgkratzer.spectrum", "solve_levels", "spectrum", "solve_levels", _levels),
    ("kgkratzer.spectrum", "closed_form", "spectrum", "closed_form", None),
    ("kgkratzer.spectrum", "_residual_array", "spectrum", "residual_array", _scan_size),
    ("kgkratzer.spectrum", "admissibility", "model", "admissibility", None),
    ("kgkratzer.wavefunction", "residual_report", "wavefunction", "residual_report", None),
    ("kgkratzer.wavefunction", "normalization", "wavefunction", "normalization", _quadrature),
    ("kgkratzer.verify", "solve_levels", "spectrum", "solve_levels", _levels),
    ("kgkratzer.verify", "closed_form", "spectrum", "closed_form", None),
    ("kgkratzer.verify", "approx_energy", "spectrum", "approx_energy", None),
    ("kgkratzer.verify", "spectrum_residual", "spectrum", "spectrum_residual", None),
    ("kgkratzer.verify", "admissibility", "model", "admissibility", None),
    ("kgkratzer.verify", "residual_report", "wavefunction", "residual_report", None),
    ("kgkratzer.verify", "normalization", "wavefunction", "normalization", _quadrature),
    ("kgkratzer.verify", "eval_ground_state", "wavefunction", "eval_ground_state", None),
    ("kgkratzer.cli", "main", "cli", "main", None),
    ("kgkratzer.cli", "run_suite", "verify", "run_suite", _suite),
    ("kgkratzer.cli", "solve_levels", "spectrum", "solve_levels", _levels),
    ("kgkratzer.cli", "closed_form", "spectrum", "closed_form", None),
    ("kgkratzer.cli", "approx_energy", "spectrum", "approx_energy", None),
    ("kgkratzer.cli", "spectrum_residual", "spectrum", "spectrum_residual", None),
    ("kgkratzer.cli", "admissibility", "model", "admissibility", None),
    ("kgkratzer.cli", "normalization", "wavefunction", "normalization", _quadrature),
    ("kgkratzer.cli", "eval_ground_state", "wavefunction", "eval_ground_state", None),
]


class Tracer:
    """Records spans and counters for the functions in TARGETS."""

    def __init__(self):
        self.spans: list[list] = []         # [index into TARGETS, start, end, parent]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self):
        self.missing.clear()
        for target, (module_name, attr, _layer, _kind, extract) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, target, extract))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, target, extract):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [target, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                for key, value in extract(args, kwargs, result, span[2] - span[1]).items():
                    counters[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self):
        """Per kind: calls and inclusive seconds; per layer: self seconds."""
        child = [0.0] * len(self.spans)
        for target, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for index, (target, start, end, _parent) in enumerate(self.spans):
            _module, _attr, layer, kind, _extract = TARGETS[target]
            calls[kind] += 1
            inclusive[kind] += end - start
            self_time[layer] += end - start - child[index]
        return calls, inclusive, self_time

    def write(self, path):
        """One JSON line per span: name, layer, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for target, start, end, parent in self.spans:
                module_name, attr, layer, _kind, _extract = TARGETS[target]
                handle.write(json.dumps({
                    "name": f"{module_name}.{attr}", "layer": layer,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")


def layer_metrics(tracer):
    """Per-layer metrics of one traced block, as {name: (value, unit)}.

    Rates are per call of the function named, per ``deviation_report`` (a
    solve), per level returned by ``solve_levels`` or per ``cli.main`` call;
    a layer the block never reaches reads 0.
    """
    calls, inclusive, self_time = tracer.summary()
    counts = tracer.counters

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def per_call(kind):
        return ratio(inclusive[kind], calls[kind])

    solves = calls["deviation_report"]
    levels = counts["spectrum.levels"]
    steps = counts["sweep.steps"]
    metrics = {
        "radial.sweep_calls": (ratio(calls["sweep"], solves), "count"),
        "radial.steps_per_sweep": (ratio(steps, calls["sweep"]), "count"),
        "radial.us_per_step": (1e6 * ratio(inclusive["sweep"], steps), "us"),
        "radial.sweep_s": (per_call("sweep"), "s"),
        "oracle.defect_evals_per_solve": (ratio(calls["defect"], solves), "count"),
        "oracle.eigensolve_calls_per_solve": (ratio(calls["eigensolve"], solves), "count"),
        "oracle.self_s": (ratio(self_time["oracle"], solves), "s"),
        "spectrum.solve_levels_s": (per_call("solve_levels"), "s"),
        "spectrum.residual_evals_per_level": (ratio(counts["spectrum.residual_evals"], levels),
                                              "count"),
        "spectrum.refine_iterations_per_level": (
            ratio(counts["spectrum.refine_iterations"], levels), "count"),
        "spectrum.closed_form_s": (per_call("closed_form"), "s"),
        "wavefunction.residual_report_s": (per_call("residual_report"), "s"),
        "wavefunction.normalization_s": (per_call("normalization"), "s"),
        "wavefunction.quadrature_evals_per_normalization": (
            ratio(counts["wavefunction.quadrature_evals"], calls["normalization"]), "count"),
        "model.admissibility_calls_per_level": (ratio(calls["admissibility"], levels), "count"),
        "model.admissibility_s": (per_call("admissibility"), "s"),
        "cli.main_s": (per_call("main"), "s"),
        "cli.self_s": (ratio(self_time["cli"], calls["main"]), "s"),
    }
    for suite in ("residuals", "manifolds", "limits"):
        metrics[f"verify.{suite}_s"] = (
            ratio(counts[f"verify.{suite}.seconds"], counts[f"verify.{suite}.calls"]), "s")
    return metrics
