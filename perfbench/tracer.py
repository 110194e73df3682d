"""Spans and counts recorded from outside the sparseratio package.

The package is not edited. Instead, a ``Tracer`` swaps the module attributes
through which one module calls into another (for example the name
``prox_l1_ball`` in ``sparseratio.drivers``) for wrappers that record a span
around each call, and puts the originals back when it is closed. Each span
keeps its name, start, end, the span that caused it and the id of the
(workload, instance) run it belongs to. Spans stay in memory until
``write_jsonl`` is called at the end of the benchmark.

``soft_threshold`` runs about 60 times per ball-prox call, so it gets a
count keyed by run and enclosing span rather than a span of its own.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

# (module, attribute, span name). One span name may cover several
# attributes: every call site that reaches the same layer counts there.
SWAPS = (
    ("instances", "generate", "instances.generate"),
    ("instances", "SensingMatrix", "models.SensingMatrix"),
    ("cli", "run_pipeline", "cli.run_pipeline"),
    ("cli", "feasible_start", "drivers.feasible_start"),
    ("cli", "run_mba", "drivers.run_mba"),
    ("cli", "run_algorithm1", "drivers.run_algorithm1"),
    ("cli", "least_norm_solution", "subsolvers.least_norm_solution"),
    ("drivers", "least_norm_solution", "subsolvers.least_norm_solution"),
    ("subsolvers", "least_norm_solution", "subsolvers.least_norm_solution"),
    ("drivers", "_q_of_residual", "models.q"),
    ("drivers", "q_value", "models.q"),
    ("drivers", "is_feasible", "models.q"),
    ("drivers", "_grad_p1_of_residual", "models.grad_p1"),
    ("drivers", "grad_p1", "models.grad_p1"),
    ("drivers", "_subgrad_p2_of_residual", "models.subgrad_p2"),
    ("drivers", "subgrad_p2", "models.subgrad_p2"),
    ("drivers", "criticality_residual", "drivers.criticality_residual"),
    ("drivers", "BallProxProblem", "subsolvers.BallProxProblem"),
    ("drivers", "prox_l1_ball", "subsolvers.prox_l1_ball"),
    ("drivers", "prox_l1_affine", "subsolvers.prox_l1_affine"),
)

# public model functions that evaluate A x - b themselves, unlike the
# residual-space hooks that receive it from run_mba
RESIDUAL_FROM_X = ("drivers.q_value", "drivers.is_feasible",
                   "drivers.grad_p1", "drivers.subgrad_p2")


class Tracer:
    """Records spans while installed; ``close`` restores every attribute."""

    def __init__(self, package):
        self._package = package
        self.spans = []          # [id, parent, name, start, end, run, failed]
        self.calls = Counter()   # "module.attr" -> calls through that name
        self.evals = Counter()   # (run, enclosing span) -> soft_threshold calls
        self.run_id = None
        self._stack = []
        self._saved = []
        for module_name, attr, span_name in SWAPS:
            self._swap(module_name, attr,
                       self._wrap(getattr(getattr(package, module_name), attr),
                                  span_name, f"{module_name}.{attr}"))
        self._swap("subsolvers", "soft_threshold",
                   self._count_evals(package.subsolvers.soft_threshold))

    def _swap(self, module_name, attr, replacement):
        module = getattr(self._package, module_name)
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def close(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        failed = True
        try:
            yield span
            failed = False
        finally:
            self._close(span, failed)

    def _open(self, name):
        span = [len(self.spans), self._stack[-1][0] if self._stack else None,
                name, time.perf_counter(), None, self.run_id, False]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span, failed):
        span[4] = time.perf_counter()
        span[6] = failed
        self._stack.pop()

    def _wrap(self, fn, span_name, site):
        def traced(*args, **kwargs):
            self.calls[site] += 1
            span = self._open(span_name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                self._close(span, failed)
        return traced

    def _count_evals(self, fn):
        def counted(*args, **kwargs):
            self.evals[self.run_id,
                       self._stack[-1][2] if self._stack else None] += 1
            return fn(*args, **kwargs)
        return counted

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end",
                                 "run", "failed"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_totals(spans):
    """Per span name: calls, total seconds, self seconds and failures.

    Self time is a span's duration minus the durations of its direct
    children; the program is single-threaded, so children never overlap.
    """
    child_s = Counter()
    for span in spans:
        if span[1] is not None:
            child_s[span[1]] += span[4] - span[3]
    totals = {}
    for span in spans:
        entry = totals.setdefault(span[2], {"calls": 0, "s": 0.0,
                                            "self_s": 0.0, "failures": 0})
        duration = span[4] - span[3]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_s[span[0]]
        entry["failures"] += span[6]
    return totals
