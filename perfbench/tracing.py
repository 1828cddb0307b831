"""Spans around rsurf's public functions, installed from outside rsurf.

:func:`install` replaces each function in :data:`LAYER_FUNCTIONS` on every
loaded rsurf module that holds it (``periods`` imports ``roots_univariate``
by name, for example), so internal calls are recorded too.  A span is
``(name, start, end, parent, op, failed)``; spans stay in memory until the
run ends.  ``wpvol.w_laurent`` is memoised and called many times per
volume, so it is counted rather than spanned.
"""

import functools
import importlib
import sys
import time

LAYER_FUNCTIONS = [
    "periods.build_curve",
    "periods.period_matrix",
    "algebra.roots_univariate",
    "algebra.resultant_y",
    "algebra.parse_poly",
    "theta.theta",
    "theta.bergman_theta",
    "theta.fay_check",
    "torus.weierstrass_p",
    "torus.reduce_modular",
    "wpvol.volume",
    "fundform.correction_polynomial",
    "newton.genus",
    "divisors.rr_genus0",
    "strebel.classify_pants",
]
COUNTED_FUNCTIONS = ["wpvol.w_laurent"]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = None
        self._stack = []

    def reset(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            failed = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op, failed)

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer):
    """Wrap every listed function wherever an rsurf module holds it."""
    for full, make in [(n, tracer.span) for n in LAYER_FUNCTIONS] + [
        (n, tracer.counter) for n in COUNTED_FUNCTIONS
    ]:
        mod_name, fn_name = full.split(".")
        original = getattr(importlib.import_module("rsurf." + mod_name), fn_name)
        wrapped = make(full, original)
        for name, module in list(sys.modules.items()):
            if name.startswith("rsurf") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def summarize(spans, counts, scale=None):
    """Per-name totals: {name: {"calls", "self_s", "failed"}}, plus the
    number of theta.theta calls made directly by theta.bergman_theta.

    ``scale`` maps an op id to the factor its span times are multiplied by.
    """
    scale = scale or {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    kernel_theta = 0
    for idx, (name, start, end, parent, op, failed) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        row["calls"] += 1
        row["self_s"] += (end - start - child_time[idx]) * scale.get(op, 1.0)
        row["failed"] += failed
        if name == "theta.theta" and parent >= 0 and spans[parent][0] == "theta.bergman_theta":
            kernel_theta += 1
    for name, n in counts.items():
        out.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0})["calls"] += n
    return out, kernel_theta
