"""Spans and counts recorded around lingmap's layer boundaries.

lingmap has no tracing of its own. A ``Tracer`` wraps the public functions
of each module where the calling module binds them (``lingmap.inference``
calls ``fuzzify`` through its own global, ``lingmap.cli`` calls
``evaluate`` through its own, and so on), plus the ``__call__`` of the
membership shapes and ``FuzzyInferenceSystem.output_grid``. ``install``
patches those names and ``uninstall`` puts the originals back, so untraced
code runs the program exactly as shipped.

Every span has a name, a start, an end, a parent and the operation it
belongs to. Per span name the tracer sums calls, duration and self time
(duration minus the duration of its direct children). The first
``KEEP_SPANS`` spans are also kept raw so they can be written out.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import lingmap.cli
import lingmap.dataio
import lingmap.elicit
import lingmap.inference
import lingmap.membership

# (module or class, attribute, span name)
_TARGETS = [
    (lingmap.cli, "main", "cli.main"),
    (lingmap.cli, "load_fis", "dataio.load_fis"),
    (lingmap.cli, "evaluate", "inference.evaluate"),
    (lingmap.dataio, "load_catalog", "dataio.load_catalog"),
    (lingmap.dataio, "parse_rules", "rules.parse_rules"),
    (lingmap.dataio, "load_training_csv", "dataio.load_training_csv"),
    (lingmap.dataio, "dumps_catalog", "dataio.dumps_catalog"),
    (lingmap.inference, "evaluate", "inference.evaluate"),
    (lingmap.inference, "infer", "inference.infer"),
    (lingmap.inference, "firing_strengths", "inference.firing_strengths"),
    (lingmap.inference, "defuzzify_coa", "inference.defuzzify_coa"),
    (lingmap.inference, "fuzzify", "variables.fuzzify"),
    (lingmap.inference.FuzzyInferenceSystem, "output_grid", "inference.output_grid"),
    (lingmap.membership.Gauss2, "__call__", "membership.gauss2"),
    (lingmap.membership.Trapezoid, "__call__", "membership.trapezoid"),
    (lingmap.elicit, "elicit_variable", "elicit.elicit_variable"),
    (lingmap.elicit, "subtractive_clusters", "elicit.subtractive_clusters"),
    (lingmap.elicit, "fcm", "elicit.fcm"),
    (lingmap.elicit, "fit_gauss2", "elicit.fit_gauss2"),
]


KEEP_SPANS = 20_000


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[list] = []  # [span id, name, start_ns, child_ns]
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        after = _AFTER.get(name)
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            parent = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(self, parent, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- spans --------------------------------------------------------------
    def _enter(self, name):
        parent = self._stack[-1][1] if self._stack else None
        if name == "elicit.subtractive_clusters":
            tracemalloc.start()
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        return parent

    def _leave(self):
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        stat = self.stats[name]
        stat.calls += 1
        stat.total_ns += duration
        stat.self_ns += duration - child_ns
        parent_id = None
        if self._stack:
            self._stack[-1][3] += duration
            parent_id = self._stack[-1][0]
        if name == "elicit.subtractive_clusters":
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            self.peaks[name] = max(self.peaks[name], peak)
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, name, start, end, parent_id, self.op))

    def write_spans(self, path) -> None:
        """One JSON object per line: id, name, start_ns, end_ns, parent, op."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# Counts taken from a call's arguments or result, at the boundary where the
# work happens: (tracer, parent span name, args, result) -> None.
def _count_fuzzify(tracer, parent, args, result):
    tracer.counts["variables.fuzzify_calls"] += 1


def _count_membership(tracer, parent, args, result):
    # args = (mf, x); an array argument under infer is a consequent curve
    # sampled on the output grid
    if parent == "inference.infer" and np.ndim(args[1]) > 0:
        tracer.counts["membership.grid_calls"] += 1
        tracer.counts["membership.grid_points"] += np.size(args[1])


def _count_output_grid(tracer, parent, args, result):
    tracer.counts["inference.output_grid_calls"] += 1


def _count_firing(tracer, parent, args, result):
    tracer.counts["inference.rules_fired"] += sum(1 for s in result if s > 0.0)


def _count_evaluate(tracer, parent, args, result):
    if parent == "cli.main":
        tracer.counts["cli.surface_points"] += 1


def _count_fcm(tracer, parent, args, result):
    tracer.counts["elicit.fcm_iterations"] += result.iterations
    tracer.counts["elicit.clusters"] += len(result.centers)


def _count_fit(tracer, parent, args, result):
    tracer.counts["elicit.fit_gauss2_iterations"] += result.iterations


_AFTER = {
    "variables.fuzzify": _count_fuzzify,
    "membership.gauss2": _count_membership,
    "membership.trapezoid": _count_membership,
    "inference.output_grid": _count_output_grid,
    "inference.firing_strengths": _count_firing,
    "inference.evaluate": _count_evaluate,
    "elicit.fcm": _count_fcm,
    "elicit.fit_gauss2": _count_fit,
}
