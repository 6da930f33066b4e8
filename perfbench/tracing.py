"""Per-layer timing wrappers for the traced benchmark run.

The wrappers live in the benchmark, not in the program: :func:`install`
replaces the module and class attributes that the program's callers look
up at call time with thin wrappers that record one span per call (name,
layer, start, end, parent span, query id) plus counts taken at the same
boundary.  :func:`uninstall` puts the originals back.

A layer's self time is the summed duration of its spans minus the part
covered by their direct child spans, so the self times of all layers add
up to the time spent inside the outermost spans.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "install", "uninstall", "layer_table"]

class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def query_id(self) -> Optional[str]:
        return getattr(self._local, "query_id", None)

    @query_id.setter
    def query_id(self, value: Optional[str]) -> None:
        self._local.query_id = value

    def wrap(
        self,
        layer: str,
        name: str,
        function: Callable,
        before: Optional[Callable[[tuple, dict], Any]] = None,
        after: Optional[Callable[[tuple, dict, Any, Any], Dict[str, float]]] = None,
        query_arg: Optional[Tuple[int, str]] = None,
    ) -> Callable:
        """A wrapper around ``function`` recording one span per call.

        ``before(args, kwargs)`` runs just before the call and its value is
        handed to ``after(args, kwargs, result, state)``, which returns the
        counts recorded on the span.  ``query_arg = (position, keyword)``
        names the argument that carries a query id; a wrapper given one
        starts a new query for the span and everything below it.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            previous_query = tracer.query_id
            if query_arg is not None:
                position, keyword = query_arg
                qid = kwargs.get(keyword)
                if qid is None and len(args) > position:
                    qid = args[position]
                tracer.query_id = None if qid is None else str(qid)
            state = before(args, kwargs) if before is not None else None
            stack.append(span_id)
            start = time.perf_counter()
            raised = True
            try:
                result = function(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                stack.pop()
                if raised:
                    counts = {"raised": 1.0}
                else:
                    counts = after(args, kwargs, result, state) if after is not None else {}
                tracer._record(span_id, parent, layer, name, start, end, counts)
                tracer.query_id = previous_query
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def _record(self, span_id, parent, layer, name, start, end, counts) -> None:
        record = {
            "id": span_id,
            "parent": parent,
            "layer": layer,
            "name": name,
            "query": self.query_id,
            "start": start,
            "end": end,
            "counts": counts,
        }
        with self._lock:
            self.spans.append(record)

    def write(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        payload = {"schema": "perfbench.spans/1", "spans": self.spans}
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# the wrapped attributes
# ----------------------------------------------------------------------
def _cache_misses_before(args, kwargs):
    cache = kwargs.get("cache")
    return None if cache is None else cache.stats.misses


def _context_built(args, kwargs, result, misses_before):
    cache = kwargs.get("cache")
    if cache is None or misses_before is None:
        return {"contexts_built": 1.0}
    return {"contexts_built": 1.0 if cache.stats.misses > misses_before else 0.0}


def _search_counts(args, kwargs, results, state):
    values = list(results.values())
    return {
        "states": float(len(values)),
        "generated": float(sum(r.paths_generated for r in values)),
        "stored": float(sum(r.paths_stored for r in values)),
        "classes": float(sum(r.classes for r in values)),
        "max_depth": float(max((r.max_depth for r in values), default=0)),
    }


def _omega_before(args, kwargs):
    return args[0].evaluations


def _omega_counts(args, kwargs, result, evaluations_before):
    return {"calls": 1.0, "evaluations": float(args[0].evaluations - evaluations_before)}


def _one_call(args, kwargs, result, state):
    return {"calls": 1.0}


def _check_counts(args, kwargs, result, state):
    """Counts the program itself reports for one check (its RunReport)."""
    counts = {"checks": 1.0, "value_cache_hits": 0.0, "iterations": 0.0, "fallbacks": 0.0}
    report = getattr(result, "report", None)
    if report is None:
        return counts
    # A repeated formula is answered by the checker's satisfying-set
    # cache (its top-level sat span is marked cached); a new bound on a
    # known path operator by the path-value cache.
    roots = {s["span_id"] for s in report.trace if s["parent_id"] is None}
    top_cached = any(
        s["parent_id"] in roots and s["attributes"].get("cached") for s in report.trace
    )
    counts["value_cache_hits"] = float(
        top_cached or report.counters.get("path-values.cache-hits", 0.0) > 0
    )
    for event in report.events:
        kind = event.get("event")
        if kind in ("linsolve", "linsolve.fallback"):
            counts["iterations"] += float(event.get("iterations", 0) or 0)
        if kind == "linsolve.fallback":
            counts["fallbacks"] += 1.0
    return counts


def _targets():
    """``(owner, attribute, layer, before, after, query_arg)`` to wrap."""
    import repro.check.checker as checker_mod
    import repro.check.paths_engine as paths_mod
    import repro.check.until as until_mod
    import repro.ctmc.transient as transient_mod
    import repro.diag as diag_mod
    import repro.lang.compiler as compiler_mod
    from repro.mrm.model import MRM
    from repro.numerics.orderstat import OmegaCalculator

    return [
        (checker_mod.ModelChecker, "check", "checker", None, _check_counts, None),
        (checker_mod, "parse_formula", "frontend.parse", None, _one_call, None),
        (checker_mod, "lint_formula", "frontend.lint", None, _one_call, None),
        (diag_mod, "lint_model_source", "frontend.lint", None, _one_call, None),
        (compiler_mod, "compile_model", "frontend.compile", None, _one_call, None),
        (checker_mod, "satisfy_until", "until", None, None, None),
        (checker_mod, "satisfy_steady", "steady", None, None, None),
        (checker_mod, "next_probabilities", "next", None, None, None),
        (MRM, "make_absorbing", "mrm.transform", None, _one_call, None),
        (MRM, "uniformize", "mrm.transform", None, _one_call, None),
        (until_mod, "prepare_path_engine", "paths.prepare",
         _cache_misses_before, _context_built, None),
        (until_mod, "joint_distribution_many", "paths.search", None, _search_counts, None),
        (OmegaCalculator, "value", "omega", _omega_before, _omega_counts, None),
        (OmegaCalculator, "value_many", "omega", _omega_before, _omega_counts, None),
        (paths_mod, "poisson_pmf_table", "poisson", None, _one_call, None),
        (until_mod, "fox_glynn", "poisson", None, _one_call, None),
        (transient_mod, "fox_glynn", "poisson", None, _one_call, None),
        (until_mod, "discretized_joint_distributions", "disc.sweep", None, _one_call, None),
        (until_mod, "solve_linear_system", "linsolve", None, _one_call, None),
        (until_mod, "time_bounded_until_probabilities", "transient", None, None, None),
        (until_mod, "interval_until_probabilities", "transient", None, None, None),
    ]


def install(tracer: Tracer, extra=()) -> List[Tuple[Any, str, Any]]:
    """Wrap every target (plus ``extra`` targets); returns the undo list."""
    undo = []
    for owner, attribute, layer, before, after, query_arg in list(_targets()) + list(extra):
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        wrapped = tracer.wrap(layer, attribute, original, before, after, query_arg)
        setattr(owner, attribute, wrapped)
        undo.append((owner, attribute, original))
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)


def layer_table(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per layer: span count, summed duration, self time and summed counts.

    Only spans whose parent is also in ``spans`` are subtracted from it,
    so a filtered span list (one pass, one stream) stays consistent.
    """
    child_time: Dict[int, float] = defaultdict(float)
    ids = {span["id"] for span in spans}
    for span in spans:
        parent = span["parent"]
        if parent is not None and parent in ids:
            child_time[parent] += span["end"] - span["start"]
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span["layer"], {"spans": 0.0, "total_s": 0.0, "self_s": 0.0})
        duration = span["end"] - span["start"]
        row["spans"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(span["id"], 0.0)
        for key, value in span["counts"].items():
            row[key] = row.get(key, 0.0) + value
    for span in spans:
        if span["layer"] == "paths.search":
            row = table["paths.search"]
            row["max_depth_max"] = max(row.get("max_depth_max", 0.0), span["counts"]["max_depth"])
    return table

