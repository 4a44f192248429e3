"""Per-layer spans and counters, recorded from outside the engine.

Each span wraps a module-level name at the boundary where the calling module
looks it up (``linquant.qelim.to_gnf`` is the name ``eliminate`` calls), so
nothing inside the engine changes.  A layer's self time is the summed
duration of its spans minus the time of the child spans they cover.

Counts of logic-layer work come from the engine's existing ``lru_cache``
statistics: wrapping ``disjunct_sat`` itself (hundreds of thousands of calls
per pass) would swamp the timings.

A target that no longer exists is recorded as absent and its metric reads 0,
so the harness survives refactors that delete or rename a function.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# metric name -> the (module, attribute) boundaries whose spans it sums
SPANS = {
    "parser.parse_s": [("linquant.parser", "parse_quantity")],
    "printer.print_s": [("linquant.printer", "print_quantity")],
    "normalform.check_s": [("linquant.qelim", "check_well_formed")],
    "normalform.gnf_s": [("linquant.qelim", "to_gnf")],
    "normalform.is_partitioning_s": [
        ("linquant.normalform", "is_partitioning"),
        ("linquant.interpolate", "is_partitioning"),
        ("linquant.qelim", "is_partitioning"),
    ],
    "normalform.partition_s": [
        ("linquant.normalform", "make_partitioning"),
        ("linquant.interpolate", "make_partitioning"),
    ],
    "qelim.round_s": [("linquant.qelim", "eliminate_var")],
    "qelim.per_disjunct_s": [("linquant.qelim", "eliminate_over_disjunct")],
    "qelim.combine_s": [("linquant.qelim", "pointwise_max"), ("linquant.qelim", "pointwise_min")],
    "qelim.merge_s": [
        ("linquant.qelim", "merge_equal_values"),
        ("linquant.interpolate", "merge_equal_values"),
    ],
    "qelim.simplify_s": [("linquant.interpolate", "simplify_body")],
    "logic.witness_s": [("linquant.interpolate", "fm_witness")],
    "interpolate.entails_s": [("linquant.interpolate", "entails")],
    "interpolate.strongest_s": [("linquant.interpolate", "strongest_interpolant")],
    "interpolate.weakest_s": [("linquant.interpolate", "weakest_interpolant")],
}

# count metric -> (span metric it counts, what to count per call)
COUNTS = {
    "qelim.rounds": ("qelim.round_s", lambda args, result: 1),
    "qelim.disjuncts": ("qelim.per_disjunct_s", lambda args, result: 1),
    "qelim.combine_in_bodies": ("qelim.combine_s", lambda args, result: len(args[0])),
    "qelim.combine_out_terms": ("qelim.combine_s", lambda args, result: len(result)),
}

# ratio/count metric prefix -> the lru_cache-wrapped function in linquant.logic
CACHES = {
    "logic.sat": "_sat_cached",
    "logic.dnf": "_to_dnf_cached",
    "logic.reduce": "reduce_disjunct",
}

# every per-layer metric a traced pass reports, in order
METRICS = (
    list(SPANS)
    + list(COUNTS)
    + ["logic.sat_calls", "logic.sat_hit_ratio", "logic.dnf_hit_ratio", "logic.reduce_hit_ratio"]
)


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name.

    ``spans`` holds ``(name, parent, start, end)`` records, where ``parent``
    is the index of the enclosing span or -1.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (name, _parent, start, end), children in zip(spans, child_time):
        totals[name] = totals.get(name, 0.0) + (end - start) - children
    return totals


class Tracer:
    """Installs span wrappers on the engine's module-level names.

    Spans are kept in memory as ``(name, parent, start, end)`` records and
    reduced to per-layer metrics by :meth:`metrics`.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts = {name: 0 for name in COUNTS}
        self.absent: list[str] = []
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}

    def install(self) -> None:
        counters: dict[str, list] = {}
        for count, (span, per_call) in COUNTS.items():
            counters.setdefault(span, []).append((count, per_call))
        for metric, targets in SPANS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(metric, original, counters.get(metric, ())))
        self._cache_start = {prefix: self._cache_info(prefix) for prefix in CACHES}

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, metric: str, fn, counters):
        spans, open_spans, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append((metric, parent, 0.0, 0.0))
            open_spans.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (metric, parent, start, perf_counter())
                open_spans.pop()
            for count, per_call in counters:
                counts[count] += per_call(args, result)
            return result

        return traced

    def _cache_info(self, prefix: str) -> tuple[int, int] | None:
        logic = importlib.import_module("linquant.logic")
        info = getattr(getattr(logic, CACHES[prefix], None), "cache_info", None)
        if info is None:
            return None
        stats = info()
        return stats.hits, stats.misses

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since :meth:`install`."""
        out: dict[str, float] = {metric: 0.0 for metric in SPANS}
        out.update(self_times(self.spans))
        out.update(self.counts)
        for prefix, fn_name in CACHES.items():
            start, end = self._cache_start.get(prefix), self._cache_info(prefix)
            if start is None or end is None:
                self.absent.append(f"linquant.logic.{fn_name}.cache_info")
                hits = calls = 0
            else:
                hits = end[0] - start[0]
                calls = hits + end[1] - start[1]
            if prefix == "logic.sat":
                out["logic.sat_calls"] = calls
            out[f"{prefix}_hit_ratio"] = hits / calls if calls else 0.0
        return {metric: out[metric] for metric in METRICS}
