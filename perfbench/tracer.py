"""Span tracer installed from outside the program.

The tracer replaces module attributes of the ``smiclust`` package with
wrappers that record one span per call: name, start, end, parent span and
op id.  Spans stay in memory until the run ends.  Nothing under ``src/`` is
changed; the originals are put back by :meth:`Tracer.uninstall`.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute the callers resolve, span name, record tracemalloc peak).
# A function is wrapped on every module whose code calls it by that module's
# own global, so each call site is seen exactly once.
TARGETS = (
    ("smiclust.cli", "main", "cli.main", False),
    ("smiclust.cli", "load_model", "solver.load_model", False),
    ("smiclust.cli", "load_dataset", "data.load_dataset", False),
    ("smiclust.cli", "predict", "solver.predict", False),
    ("smiclust.model_select", "grid_search", "model_select.grid_search", False),
    ("smiclust.model_select", "count_violations", "model_select.count_violations", False),
    ("smiclust.lsmi", "cross_validate", "lsmi.cross_validate", False),
    ("smiclust.lsmi", "fit_ratio_model", "lsmi.fit_ratio_model", False),
    ("smiclust.lsmi", "lsmi_value", "lsmi.lsmi_value", False),
    ("smiclust.solver", "cluster", "solver.cluster", False),
    ("smiclust.solver", "local_scaling_kernel", "kernel.local_scaling_kernel", True),
    ("smiclust.solver", "apply_constraints", "kernel.apply_constraints", False),
    ("smiclust.solver", "nearest_neighbors", "kernel.nearest_neighbors", False),
    ("smiclust.kernel", "nearest_neighbors", "kernel.nearest_neighbors", False),
    ("smiclust.solver", "objective_matrix", "solver.objective_matrix", True),
    ("smiclust.solver", "top_eigenpairs", "solver.top_eigenpairs", True),
    ("smiclust.solver", "fix_signs", "solver.assign", False),
    ("smiclust.solver", "assign_clusters", "solver.assign", False),
    ("smiclust.solver", "_query_kernel", "solver.query_kernel", False),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int
    peak_bytes: int | None = None


class Tracer:
    """Records spans of wrapped calls; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, peak: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(index)
            # Only the outermost peak span owns tracemalloc, so nested ones
            # cannot reset the peak of the span that contains them.
            owns_tracemalloc = peak and not tracemalloc.is_tracing()
            if owns_tracemalloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if owns_tracemalloc:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the missing ones in ``absent``."""
        for module_name, attr, span_name, peak in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, peak))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children[index]):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed self seconds, call count and largest peak bytes."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "peak_bytes": 0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.name]
        entry["self_s"] += own
        entry["calls"] += 1
        if span.peak_bytes is not None:
            entry["peak_bytes"] = max(entry["peak_bytes"], span.peak_bytes)
    return dict(totals)
