"""In-memory spans around the package's public functions.

`Tracer.install` replaces each traced function in the module namespace
where its caller looks it up (for example `pinchpas.sweep.continuous_rate`,
which `run_sweep` calls), so spans nest as the calls do. Spans stay in
memory; `summary` folds them into per-name calls, total and self seconds,
and `write_spans` dumps them once the timed work is over.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time
from collections import defaultdict

# `i_j` takes its quadrature branch when x > 1e4 * delta_width**2 (the
# package's `_IJ_DIRECT_RATIO`); the branch is classified from the arguments.
_IJ_QUAD_RATIO = 1e4


def _ij_name(x, delta_width, *_, **__):
    if x > _IJ_QUAD_RATIO * delta_width * delta_width:
        return "metrics.i_j.quad"
    return "metrics.i_j.closed"


# (module that looks the name up, attribute, span name or a function of the
# call's arguments giving it)
TARGETS = (
    ("pinchpas.cli", "load_config", "config.load_config"),
    ("pinchpas.cli", "run_sweep", "sweep.run_sweep"),
    ("pinchpas.cli", "emit_table", "sweep.emit_table"),
    ("pinchpas.sweep", "optimize_partition", "regions.optimize_partition"),
    ("pinchpas.sweep", "continuous_rate", "metrics.continuous_rate"),
    ("pinchpas.sweep", "simulate_outage", "montecarlo.simulate_outage"),
    ("pinchpas.sweep", "ergodic_rate", "metrics.ergodic_rate"),
    ("pinchpas.sweep", "outage_probability", "metrics.outage_probability"),
    ("pinchpas.metrics", "c_l", "metrics.c_l"),
    ("pinchpas.metrics", "i_i", "metrics.i_i"),
    ("pinchpas.metrics", "i_j", _ij_name),
    ("pinchpas.metrics", "ti2", "specfun.ti2"),
    ("pinchpas.metrics", "p_l", "metrics.p_l"),
    ("pinchpas.regions", "exact_boundary_x", "regions.exact_boundary_x"),
    ("pinchpas.regions", "golden_section", "numerics.golden_section"),
)

SPAN_NAMES = {name for _, _, name in TARGETS if isinstance(name, str)} | {
    "metrics.i_j.quad",
    "metrics.i_j.closed",
}


class Tracer:
    def __init__(self):
        # One [name, parent index, start, end] per span, in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def _wrap(self, fn, name, after=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = len(spans)
            span = [label, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def _count_table(self, _result, table, path):
        self.counters["sweep.points"] += len(table.rows)
        self.counters["sweep.emit_table.bytes"] += os.path.getsize(path)

    def _count_samples(self, _result, _config, layout, spec):
        self.counters["montecarlo.user_samples"] += spec.n_samples
        self.counters["montecarlo.antenna_user_pairs"] += layout.m * spec.n_samples

    def install(self) -> None:
        after = {
            "sweep.emit_table": self._count_table,
            "montecarlo.simulate_outage": self._count_samples,
        }
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"trace: {module_name}.{attr} is gone; its span stays empty",
                      file=sys.stderr)
                continue
            setattr(module, attr, self._wrap(fn, name, after.get(name)))

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds; plus counters."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for (name, _, start, end), inner in zip(self.spans, child_time):
            self_s[name] += end - start - inner
        return {
            "calls": dict(calls),
            "s": dict(total),
            "self_s": dict(self_s),
            "counters": dict(self.counters),
        }

    def write_spans(self, path: str) -> None:
        """Tab-separated `name parent start end`, one span a line, gzipped."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tparent\tstart\tend\n")
            for name, parent, start, end in self.spans:
                fh.write(f"{name}\t{parent}\t{start:.9f}\t{end:.9f}\n")
