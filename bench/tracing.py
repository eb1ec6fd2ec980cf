"""Spans and work counters recorded around calls into the public fpp_lab functions.

A span is (parent span, name, start, end, run id).  Spans stay in memory
and are written out when the benchmark ends.  A wrapper replaces a
function under every name bound to it in any fpp_lab module:
``from .kernels import kernel_eval_at`` binds the function in the importing
module, so patching ``fpp_lab.kernels`` alone would miss the calls from
``filtered_process`` and ``phi_solver``.  Calls inside a module, such as
``eval_compensated`` calling ``eval_filtered``, look the name up in module
globals and are caught the same way.

Replicas run serially (no thread pool), so spans nest strictly and a
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# (module, function, work counter or None); a work counter returns
# {stat: amount} for one call from its arguments and result
TARGETS = [
    ("point_process", "simulate", lambda a, k, r: {"jumps": r.count}),
    ("kernels", "kernel_eval_at", lambda a, k, r: {"points": np.size(_arg(a, k, 2, "s"))}),
    ("kernels", "kernel_eval", None),
    ("kernels", "singular_quad_0_to_t", None),
    ("kernels", "kernel_lambda_integral", None),
    ("special_functions", "hyp2f1", None),
    ("filtered_process", "eval_compensated", None),
    ("filtered_process", "eval_filtered", None),
    ("phi_solver", "solve_phi_volterra", lambda a, k, r: {"nodes": np.size(_arg(a, k, 3, "grid"))}),
    ("phi_solver", "volterra_residuals", lambda a, k, r: {"nodes": np.size(_arg(a, k, 4, "nodes"))}),
    ("phi_solver", "phi_lambda_integral", None),
    ("girsanov", "log_density", None),
    ("girsanov", "kernel_shift_lambda_integral", None),
    ("girsanov", "verify_equality_in_law", None),
    ("weighted_ks", "weighted_ks_statistic", None),
    ("weighted_ks", "ks_bootstrap_threshold", lambda a, k, r: {"resamples": _arg(a, k, 4, "n_boot")}),
    ("estimator", "mle_solve", None),
    ("estimator", "consistency_experiment", None),
    ("cli", "run_command", None),
    ("serialize", "write_json", lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
]

SIMULATE = "point_process.simulate"


class Tracer:
    """Records spans and counters for the calls made inside ``traced_run``."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list = []
        self.counts: list[Counter] = []
        self._stack: list[tuple[int, str]] = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (parent, name, start, end, len(self.counts) - 1)
            if work is not None:
                counts = self.counts[-1]
                for stat, amount in work(args, kwargs, result).items():
                    counts[f"{name}.{stat}"] += amount
            return result

        return traced

    def _count_candidates(self, rate_at):
        """Thinning candidates: sizes of the arrays simulate passes to rate_at."""
        stack = self._stack

        def traced_rate_at(spec, s):
            if stack and stack[-1][1] == SIMULATE:
                self.counts[-1][f"{SIMULATE}.candidates"] += np.size(s)
            return rate_at(spec, s)

        return traced_rate_at

    @contextmanager
    def traced_run(self):
        """Install the wrappers for one run with a fresh run id, then remove them."""
        from fpp_lab.point_process import IntensitySpec

        self.counts.append(Counter())
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fpp_lab"]
        patched = []
        for mod_name, fn_name, work in TARGETS:
            original = getattr(importlib.import_module(f"fpp_lab.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        rate_at = IntensitySpec.rate_at
        IntensitySpec.rate_at = self._count_candidates(rate_at)
        try:
            yield
        finally:
            IntensitySpec.rate_at = rate_at
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def run_totals(self) -> list[dict]:
        """Per run: calls, self_s and inclusive incl_s per span name, plus counters."""
        totals = [defaultdict(float, counts) for counts in self.counts]
        for parent, name, start, end, run in self.spans:
            dur = end - start
            row = totals[run]
            row[f"{name}.calls"] += 1
            row[f"{name}.self_s"] += dur
            row[f"{name}.incl_s"] += dur
            if parent >= 0:
                row[f"{self.spans[parent][1]}.self_s"] -= dur
        for row in totals:
            candidates = row[f"{SIMULATE}.candidates"]
            row[f"{SIMULATE}.accept_ratio"] = row[f"{SIMULATE}.jumps"] / candidates if candidates else 0.0
        return totals

    def write(self, path, header: dict) -> None:
        """Write every span, times in seconds from the tracer's creation."""
        rows = [
            [sid, parent, name, start - self.origin, end - self.origin, run]
            for sid, (parent, name, start, end, run) in enumerate(self.spans)
        ]
        doc = dict(header, fields=["span", "parent", "name", "start_s", "end_s", "run"], spans=rows)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
