"""Per-layer spans for the traced run, taken from outside the program.

The layers are pairedgraph's modules. ``Tracer`` replaces each layer
function with a timing wrapper in every ``pairedgraph`` module namespace that
binds it (``report.build_kmst``, ``simulate.build_kmst``, the package
itself, ...), so spans stay right wherever the pipeline calls a stage from.
A span records the operation it belongs to, its function, its parent span,
start and end, and the size counters read from its arguments and result.
Spans stay in memory; ``layer_metrics`` reduces them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "pairedgraph"

# layer module -> the functions the traced run times
LAYER_FUNCTIONS = {
    "io": ("read_paired_csv",),
    "graph": ("distance_matrix", "build_kmst"),
    "moments": (
        "extract_cross_pair_graph",
        "null_moments",
        "condition_diagnostics",
        "census_q3",
    ),
    "stats": ("statistics",),
    "inference": ("asymptotic_pvalues", "permutation_pvalues"),
    "baselines": ("hotelling_paired",),
    "simulate": ("run_power_study", "run_size_study", "_generate"),
    "report": ("run_paired_test", "report_json"),
}

STUDIES = ("simulate.run_power_study", "simulate.run_size_study")


def _node_pairs(args, result):
    n = args[0].n_nodes
    return n * (n - 1) // 2


# span name -> {counter: read(args, result)}
COUNTERS = {
    "graph.build_kmst": {
        "graph.kmst_edges": lambda args, result: result.n_edges,
        "graph.candidate_edges": _node_pairs,
    },
    "moments.extract_cross_pair_graph": {
        "moments.cross_edges": lambda args, result: result.n_edges,
    },
    "moments.condition_diagnostics": {
        "moments.sum_ab": lambda args, result: result.sum_ab,
    },
    "inference.permutation_pvalues": {
        "inference.permutations": lambda args, result: result.n_permutations,
    },
    **{
        study: {"simulate.replicates": lambda args, result: result.replicates}
        for study in STUDIES
    },
}

# metric -> (unit, span it is read from, meaning); "per op" divides by traced
# operations, "per call" by calls of the span's function.
PER_LAYER = {
    "graph.build_kmst_s": ("s", "graph.build_kmst", "time per op"),
    "graph.distance_matrix_s": ("s", "graph.distance_matrix", "time per op"),
    "graph.kmst_edges": ("count", "graph.build_kmst", "k-MST edges per call"),
    "graph.candidate_edges": ("count", "graph.build_kmst", "N(N-1)/2 per call"),
    "moments.condition_diagnostics_s": ("s", "moments.condition_diagnostics", "time per op"),
    "moments.extract_cross_pair_graph_s": ("s", "moments.extract_cross_pair_graph", "time per op"),
    "moments.null_moments_s": ("s", "moments.null_moments", "time per op"),
    "moments.census_q3_s": ("s", "moments.census_q3", "time per op"),
    "moments.cross_edges": ("count", "moments.extract_cross_pair_graph", "cross-pair edges per call"),
    "moments.sum_ab": ("count", "moments.condition_diagnostics", "sum_ab per call"),
    "inference.permutation_pvalues_s": ("s", "inference.permutation_pvalues", "time per op"),
    "inference.permutations": ("count", "inference.permutation_pvalues", "swaps per call"),
    "inference.ns_per_permutation": ("ns", "inference.permutation_pvalues", "time per swap"),
    "inference.asymptotic_pvalues_s": ("s", "inference.asymptotic_pvalues", "time per op"),
    "simulate.replicate_s": ("s", STUDIES, "study time per replicate"),
    "simulate.generate_s": ("s", "simulate._generate", "time per op"),
    "simulate.replicates": ("count", STUDIES, "replicates per study call"),
    "simulate.unattributed_s": ("s", STUDIES, "study self time per op"),
    "baselines.hotelling_paired_s": ("s", "baselines.hotelling_paired", "time per op"),
    "stats.statistics_s": ("s", "stats.statistics", "time per op"),
    "io.read_paired_csv_s": ("s", "io.read_paired_csv", "time per op"),
    "report.report_json_s": ("s", "report.report_json", "time per op"),
    "report.run_paired_test_s": ("s", "report.run_paired_test", "time per op"),
    "report.unattributed_s": ("s", "report.run_paired_test", "self time per op"),
    "trace.overhead_frac": ("frac", None, "median traced / untraced time of an op - 1"),
}


@dataclass
class Span:
    op: int
    name: str
    parent: int  # index into Tracer.spans, -1 at the top
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager: inside it, every layer call is recorded as a Span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        for module, names in LAYER_FUNCTIONS.items():
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                mod = None
            for name in names:
                fn = getattr(mod, name, None)
                if callable(fn):
                    self._wrappers[id(fn)] = self._wrap(f"{module}.{name}", fn)
                else:
                    self.absent.append(f"{module}.{name}")

    def _wrap(self, key: str, fn):
        counters = COUNTERS.get(key, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(self.op, key, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            for counter, read in counters.items():
                try:
                    span.counts[counter] = read(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the signature moved; the counter reads as absent
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def _sources(source) -> tuple[str, ...]:
    return source if isinstance(source, tuple) else (source,)


def layer_metrics(tracer: Tracer, ops: int, overhead_frac: float) -> dict:
    """Reduce the spans of ``ops`` traced operations to the PER_LAYER metrics.

    Returns metric -> (value, unit, note); a metric whose functions no longer
    exist reads 0 with the note "absent".
    """
    child_time = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    out = {}
    for metric, (unit, source, note) in PER_LAYER.items():
        if source is None:
            out[metric] = (overhead_frac, unit, note)
            continue
        names = _sources(source)
        if all(name in tracer.absent for name in names):
            out[metric] = (0, unit, "absent")
            continue
        spans = [(i, s) for i, s in enumerate(tracer.spans) if s.name in names]
        busy = sum(s.duration for _, s in spans)
        if unit == "count":
            values = [s.counts[metric] for _, s in spans if metric in s.counts]
            value = statistics.fmean(values) if values else 0
        elif metric == "inference.ns_per_permutation":
            swaps = sum(s.counts.get("inference.permutations", 0) for _, s in spans)
            value = busy / swaps * 1e9 if swaps else 0
        elif metric == "simulate.replicate_s":
            reps = sum(s.counts.get("simulate.replicates", 0) for _, s in spans)
            value = busy / reps if reps else 0
        elif metric.endswith("unattributed_s"):
            value = sum(s.duration - child_time[i] for i, s in spans) / ops
        else:
            value = busy / ops
        out[metric] = (value, unit, note)
    return out
