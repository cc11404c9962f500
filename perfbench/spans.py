"""Spans recorded by the traced benchmark run, and the layer wrappers.

The benchmark changes nothing under src/: while a traced pass runs it
replaces the public layer functions on their modules with wrappers that
open a span and record counts, and puts the originals back afterwards.
The CLI imports these functions at call time, so its calls go through the
wrappers too.  Spans stay in memory; run.py writes them out once, at the
end of the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class Tracer:
    """In-memory span list: name, start, end, parent span index, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._open = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "run": self.run_id}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def innermost(self):
        return self.spans[self._open[-1]]["name"] if self._open else None

    def self_times(self) -> Counter:
        """Seconds per span name, each span's duration minus its children's."""
        totals = Counter()
        for record in self.spans:
            duration = record["end"] - record["start"]
            totals[record["name"]] += duration
            if record["parent"] is not None:
                totals[self.spans[record["parent"]]["name"]] -= duration
        return totals


def maybe_span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _csr(matrix):
    # assemble returns either a symmetric wrapper with to_csr() or a scipy matrix.
    return matrix.to_csr() if hasattr(matrix, "to_csr") else matrix.tocsr()


def _count_assemble(counts, matrices):
    # Both conversions happen inside the assemble span, as in the layer's definition.
    stiffness, _ = [_csr(m) for m in matrices]
    counts["assemble.nnz"] += stiffness.nnz


def _count_eigensolve(counts, result):
    order = result.eigenvectors.shape[0]
    counts["eigensolve.order"] += order
    if result.method == "dense":
        counts["eigensolve.dense_calls"] += 1
        # Computed, not measured: the dense route holds A and M as two
        # order x order float64 arrays.
        counts["eigensolve.dense_mb"] += 16 * order * order / 1e6
    else:
        counts["eigensolve.shift_invert_calls"] += 1
    counts["eigensolve.converged"] += bool(result.converged)


# (module, function, layer, count hook).  smallest_k_dense is wrapped as
# well as solve_smallest because the identity suite calls it directly.
LAYERS = (
    ("rectmorley.mesh", "build_mesh", "mesh", None),
    ("rectmorley.assembly", "build_dof_map", "dofmap", None),
    ("rectmorley.assembly", "assemble", "assemble", _count_assemble),
    ("rectmorley.eigensolve", "solve_smallest", "eigensolve", _count_eigensolve),
    ("rectmorley.eigensolve", "smallest_k_dense", "eigensolve", _count_eigensolve),
    ("rectmorley.assembly", "interpolate_global", "interpolate", None),
    ("rectmorley.assembly", "broken_error_norms", "norms", None),
)


def _wrap(tracer: Tracer, layer: str, function, count):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if tracer.innermost() == layer:
            # A layer calling into itself (solve_smallest -> smallest_k_dense)
            # is one call of that layer.
            return function(*args, **kwargs)
        tracer.counts[f"{layer}.calls"] += 1
        with tracer.span(layer):
            out = function(*args, **kwargs)
            if count is not None:
                count(tracer.counts, out)
        return out
    return wrapper


@contextmanager
def layers_traced(tracer: Tracer):
    """Route the public layer functions through span-recording wrappers."""
    saved = []
    try:
        for module_name, name, layer, count in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, _wrap(tracer, layer, original, count))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
