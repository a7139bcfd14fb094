"""Spans around calls into each ``maxlinbn`` layer, recorded from outside.

:meth:`Tracer.installed` rebinds the public functions listed below, in every
``maxlinbn`` module that holds them, to wrappers that record a span (name,
parent, root, start, end) and put the originals back on exit, so untraced
operations run the unmodified code.  Spans stay in memory; the per-layer
metrics are derived from them when the run ends.  A layer is the module a
span name starts with; its self time is the span duration minus the
durations of its direct children.

The ``*_peak_mb`` values come from ``tracemalloc``, switched on only for the
duration of the two calls that build ``n * d * d`` temporaries; it sees the
numpy buffers.  Values labelled computed are derived from argument shapes,
not measured.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from statistics import median
from time import perf_counter

import maxlinbn.graph
import maxlinbn.model

LAYERS = ("cli", "formats", "graph", "tropical", "model", "estimation", "separation")

# Per-call sizes, labelled computed, derived from the arguments of a span.


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[0]) if isinstance(args[0], str) else 0


def _closure_squarings(args, kwargs, result):
    d = len(args[0])
    return math.ceil(math.log2(d - 1)) if d > 2 else 0


def _propagate_bytes(args, kwargs, result):
    b, z = args[0], args[1]
    return len(z) * len(b) * len(b[0]) * 8


def _ratio_tensor_bytes(args, kwargs, result):
    n, d = args[0].shape
    return n * d * d * 8


# (module, function, hook computing a per-call value, record tracemalloc peak)
FUNCTIONS = (
    ("cli", "run", None, False),
    ("formats", "load_dag", None, False),
    ("formats", "write_samples", _csv_bytes, False),
    ("formats", "read_samples", None, False),
    ("formats", "matrix_to_rows", None, False),
    ("formats", "dag_to_dict", None, False),
    ("tropical", "closure", _closure_squarings, False),
    ("model", "noise_matrix", None, False),
    ("model", "propagate", _propagate_bytes, True),
    ("model", "minimal_dag", None, False),
    ("estimation", "ratio_statistics", _ratio_tensor_bytes, True),
    ("estimation", "identify_coefficients", None, False),
    ("estimation", "identify_structure", None, False),
    ("estimation", "gmle_edge_weights", None, False),
    ("estimation", "gmle_coefficients", None, False),
    ("estimation", "ancestor_ratio_coefficients", None, False),
    ("separation", "d_separated", None, False),
    ("separation", "m_separated", None, False),
    ("separation", "markov_statements", None, False),
    ("separation", "enumerate_independences", None, False),
)

# (class, method, span name): construction and the graph work separation uses
METHODS = (
    (maxlinbn.graph.Dag, "__init__", "graph.Dag"),
    (maxlinbn.graph.Dag, "ancestral_closure", "graph.ancestral_closure"),
    (maxlinbn.graph.Dag, "moral_graph", "graph.moral_graph"),
    (maxlinbn.model.MaxLinearModel, "__init__", "model.MaxLinearModel"),
)

# Calls inside a layer that are counted without a span of their own.
COUNTED = (("tropical", "max_times_product"),)


class Span:
    __slots__ = ("name", "parent", "root", "start", "end", "extra", "peak")

    def __init__(self, name, parent, root):
        self.name = name
        self.parent = parent
        self.root = root
        self.start = self.end = 0.0
        self.extra = None
        self.peak = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "maxlinbn" or name.startswith("maxlinbn."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name) -> Span:
        index = len(self.spans)
        stack = self._stack
        span = Span(name, stack[-1] if stack else -1, stack[0] if stack else index)
        self.spans.append(span)
        stack.append(index)
        return span

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as one CLI call."""
        span = self._open(name)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, hook=None, peak=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if peak:
                tracemalloc.start()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                if peak:
                    span.peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if hook is not None:
                span.extra = hook(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        swaps = []
        for module, attr, hook, peak in FUNCTIONS:
            original = getattr(sys.modules[f"maxlinbn.{module}"], attr)
            swaps.append((original, self._wrap(f"{module}.{attr}", original, hook, peak)))
        for module, attr in COUNTED:
            original = getattr(sys.modules[f"maxlinbn.{module}"], attr)
            swaps.append((original, self._counter(f"{module}.{attr}", original)))
        for original, replacement in swaps:
            _rebind(original, replacement)
        methods = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in METHODS]
        for (cls, attr, name), (_, _, original) in zip(METHODS, methods):
            setattr(cls, attr, self._wrap(name, original))
        try:
            yield self
        finally:
            for cls, attr, original in methods:
                setattr(cls, attr, original)
            for original, replacement in swaps:
                _rebind(replacement, original)

    def self_times(self) -> list[float]:
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, children)]


# --- per-layer metrics ------------------------------------------------------

#: Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("formats.write_samples_s", "s"),
    ("formats.csv_bytes", "B"),
    ("formats.read_samples_s", "s"),
    ("formats.load_dag_s", "s"),
    ("cli.self_s", "s"),
    ("graph.dag_build_s", "s"),
    ("graph.dag_builds_per_query", "count"),
    ("tropical.closure_s", "s"),
    ("tropical.closure_calls", "count"),
    ("tropical.max_times_product_calls", "count"),
    ("tropical.closure_squarings", "count"),
    ("model.model_build_s", "s"),
    ("model.noise_matrix_s", "s"),
    ("model.propagate_s", "s"),
    ("model.propagate_peak_mb", "MB"),
    ("model.propagate_temp_bytes", "B"),
    ("model.minimal_dag_s", "s"),
    ("estimation.ratio_statistics_s", "s"),
    ("estimation.ratio_statistics_calls", "count"),
    ("estimation.ratio_statistics_peak_mb", "MB"),
    ("estimation.ratio_tensor_bytes", "B"),
    ("estimation.identify_coefficients_s", "s"),
    ("estimation.identify_structure_s", "s"),
    ("estimation.gmle_edge_weights_s", "s"),
    ("estimation.gmle_coefficients_s", "s"),
    ("estimation.ancestor_ratio_coefficients_s", "s"),
    ("estimation.learn_exact_share", "share"),
    ("estimation.recovery_exact", "count"),
    ("estimation.recovery_not_antisymmetric", "count"),
    ("estimation.recovery_not_transitive", "count"),
    ("estimation.recovery_other", "count"),
    ("separation.d_separated_s", "s"),
    ("separation.m_separated_s", "s"),
    ("separation.d_separated_calls", "count"),
    ("separation.markov_statements_s", "s"),
    *((f"{layer}.self_s_per_op", "s") for layer in LAYERS),
    ("bench.self_s_per_op", "s"),
    ("trace.layer_share", "share"),
    ("trace.overhead_share", "share"),
)

# metric -> span whose median duration per call it reports
_PER_CALL = {
    "formats.write_samples_s": "formats.write_samples",
    "formats.read_samples_s": "formats.read_samples",
    "formats.load_dag_s": "formats.load_dag",
    "graph.dag_build_s": "graph.Dag",
    "tropical.closure_s": "tropical.closure",
    "model.model_build_s": "model.MaxLinearModel",
    "model.noise_matrix_s": "model.noise_matrix",
    "model.propagate_s": "model.propagate",
    "model.minimal_dag_s": "model.minimal_dag",
    "estimation.ratio_statistics_s": "estimation.ratio_statistics",
    "estimation.identify_coefficients_s": "estimation.identify_coefficients",
    "estimation.identify_structure_s": "estimation.identify_structure",
    "estimation.gmle_edge_weights_s": "estimation.gmle_edge_weights",
    "estimation.gmle_coefficients_s": "estimation.gmle_coefficients",
    "estimation.ancestor_ratio_coefficients_s": "estimation.ancestor_ratio_coefficients",
    "separation.d_separated_s": "separation.d_separated",
    "separation.m_separated_s": "separation.m_separated",
    "separation.markov_statements_s": "separation.markov_statements",
}


def layer_metrics(tracer: Tracer, ops: int, traced_op_s: float, untraced_op_s: float,
                  recovery: Counter) -> dict:
    """Per-layer metrics from the spans of ``ops`` traced operations whose
    median time was ``traced_op_s``; ``untraced_op_s`` is the median of the
    operations run without tracing in the same process."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def per_call(name):
        found = by_name.get(name, [])
        return median(s.duration for s in found) if found else 0.0

    def under(root_name, name):
        roots = {i for i, s in enumerate(spans) if s.name == root_name}
        inside = sum(1 for s in by_name.get(name, []) if s.root in roots)
        return inside / len(roots) if roots else 0.0

    def largest(name, field):
        return max((getattr(s, field) or 0 for s in by_name.get(name, [])), default=0)

    out = {metric: per_call(name) for metric, name in _PER_CALL.items()}
    selfs = tracer.self_times()
    cli_selfs = [t for s, t in zip(spans, selfs) if s.name == "cli.run"]
    out["cli.self_s"] = median(cli_selfs) if cli_selfs else 0.0
    csv = [s.extra for s in by_name.get("formats.write_samples", [])]
    out["formats.csv_bytes"] = median(csv) if csv else 0
    out["graph.dag_builds_per_query"] = under("bench.query", "graph.Dag")
    out["tropical.closure_calls"] = len(by_name.get("tropical.closure", [])) / ops
    out["tropical.max_times_product_calls"] = tracer.counts["tropical.max_times_product"] / ops
    out["tropical.closure_squarings"] = largest("tropical.closure", "extra")
    out["model.propagate_peak_mb"] = largest("model.propagate", "peak") / 2**20
    out["model.propagate_temp_bytes"] = largest("model.propagate", "extra")
    out["estimation.ratio_statistics_calls"] = (
        len(by_name.get("estimation.ratio_statistics", [])) / ops
    )
    out["estimation.ratio_statistics_peak_mb"] = largest("estimation.ratio_statistics", "peak") / 2**20
    out["estimation.ratio_tensor_bytes"] = largest("estimation.ratio_statistics", "extra")
    out["separation.d_separated_calls"] = under("bench.independences", "separation.d_separated")

    attempts = sum(recovery.values())
    out["estimation.learn_exact_share"] = recovery["exact"] / attempts if attempts else 0.0
    out["estimation.recovery_exact"] = recovery["exact"]
    out["estimation.recovery_not_antisymmetric"] = recovery["not antisymmetric"]
    out["estimation.recovery_not_transitive"] = recovery["not transitively closed"]
    out["estimation.recovery_other"] = attempts - sum(
        recovery[k] for k in ("exact", "not antisymmetric", "not transitively closed")
    )

    layer_self = Counter()
    for span, t in zip(spans, selfs):
        layer_self[span.layer] += t
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s_per_op"] = layer_self[layer] / ops
    total = sum(layer_self.values())
    library = sum(layer_self[layer] for layer in LAYERS if layer != "cli")
    out["trace.layer_share"] = library / total if total else 0.0
    out["trace.overhead_share"] = traced_op_s / untraced_op_s - 1.0
    return out
