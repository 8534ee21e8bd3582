"""Span tracing of the mqcardinal layers, installed from outside the package.

The package re-exports functions with ``from .x import y``, so one function
object is bound under its name in several module namespaces (the defining
module, the package root and every module that imports it).  ``Tracer``
replaces the object in every ``mqcardinal`` namespace that holds it, so
calls between modules are traced too, and puts the originals back on
``uninstall``.

Spans are (name, start, end, parent) rows kept in memory.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

# Public functions wrapped per module; per-layer metric names are
# ``<module>.<function>.<stat>``.
LAYERS = {
    "cardinal": ("compute_tau", "build_cardinal_table", "eval_cardinal"),
    "kernels": ("kernel_fourier", "kernel_fourier_at_zero", "bessel_k", "kernel_spatial"),
    "interpolation": (
        "fit_uniform", "cardinal_series", "eval_uniform", "scaled_eval",
        "fit_gram", "gram_condition", "eval_gram",
    ),
    "experiments": (
        "error_norms", "interpolate_at_spacing", "run_h_convergence",
        "run_c_convergence", "run_noise_floor", "run_jitter_study",
        "run_conditioning_study",
    ),
    "sampling": ("apply_jitter", "apply_noise", "estimate_frame_bounds"),
    "cli": ("main",),
}

OP = "op"


def _eval_uniform_terms(result, u, x, *_, **__):
    return len(x) * u.coeffs.size


def _table_values(result, *_, **__):
    return result.values.size


def _gram_nodes(result, *_, **__):
    return result.nodes.size


# Work computed from the arguments and result of a call that returned:
# metric name -> (traced function, count function).
WORK = {
    "interpolation.eval_uniform.terms": ("interpolation.eval_uniform", _eval_uniform_terms),
    "cardinal.build_cardinal_table.values": ("cardinal.build_cardinal_table", _table_values),
    "interpolation.fit_gram.nodes": ("interpolation.fit_gram", _gram_nodes),
}


def table_key(table):
    k = table.kernel
    return (k.family, k.alpha, k.c, k.lam, table.epsilon, table.half_width_N,
            table.oversample_M, table.interp_order)


class Tracer:
    """Records spans of calls into the wrapped mqcardinal functions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.stack = []
        self.errors = Counter()
        self.work = Counter()
        self.op_keys = set()  # table keys built during the current op
        self._originals = {}  # qualified name -> function
        self._patched = []  # (module, attribute, original)

    def _wrap(self, qualname, fn):
        work = [(metric, count) for metric, (name, count) in WORK.items() if name == qualname]
        records_key = qualname == "cardinal.build_cardinal_table"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:  # outside a timed op: inputs and checks
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([qualname, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[qualname] += 1
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            for metric, count in work:
                self.work[metric] += count(result, *args, **kwargs)
            if records_key:
                self.op_keys.add(table_key(result))
            return result

        return traced

    def install(self):
        """Swap every bound copy of each wrapped function for its traced twin."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "mqcardinal" or name.startswith("mqcardinal."))]
        by_id = {}
        for module, names in LAYERS.items():
            home = sys.modules[f"mqcardinal.{module}"]
            for name in names:
                qualname = f"{module}.{name}"
                fn = self._originals.setdefault(qualname, getattr(home, name))
                by_id[id(fn)] = (fn, self._wrap(qualname, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def begin_op(self):
        self.op_keys = set()
        idx = len(self.spans)
        self.spans.append([OP, time.perf_counter(), 0.0, -1])
        self.stack.append(idx)
        return idx

    def end_op(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def self_times(self):
        """Self time of every span, in seconds, indexed like ``spans``."""
        own = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path):
        """Write the spans as gzipped JSON rows of [name, start, end, parent]."""
        with gzip.open(path, "wt") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def layer_metrics(tracer, op_count):
    """Per-layer calls, self time per op and errors, plus computed work."""
    own = tracer.self_times()
    calls = Counter()
    self_s = Counter()
    for (name, *_), s in zip(tracer.spans, own):
        if name != OP:
            calls[name] += 1
            self_s[name] += s
    out = {}
    for module, names in LAYERS.items():
        for name in names:
            q = f"{module}.{name}"
            out[f"{q}.calls"] = calls[q]
            out[f"{q}.self_ms"] = 1e3 * self_s[q] / op_count
            out[f"{q}.errors"] = tracer.errors[q]
    for metric in WORK:
        out[metric] = tracer.work[metric]
    return out


def op_coverage(tracer, min_s=1e-3):
    """Smallest share of an op's wall time that its traced layers' self times cover.

    The rest is the benchmark's own glue inside the op, a few microseconds,
    so ops shorter than ``min_s`` (a typed failure that raises at once) are
    left out.
    """
    own = tracer.self_times()
    worst = 1.0
    for (name, start, end, _), s in zip(tracer.spans, own):
        if name == OP and end - start >= min_s:
            worst = min(worst, 1.0 - s / (end - start))
    return worst
