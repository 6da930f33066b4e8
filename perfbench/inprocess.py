"""The in-process workloads: ``tmr-until`` and ``numerics-mix``.

One *round* is a cold pass (fresh :class:`EngineCache`, fresh
:class:`ModelChecker` objects) followed by a warm pass (fresh checkers
over the cache the cold pass filled).  Every check runs with default
:class:`CheckOptions` apart from the engine a query names.
"""

from __future__ import annotations

import gc
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import refs
import tracing
from hostspeed import HostClock
from common import OUT, ROOT, Ledger, median, peak_rss_mb
from models import CLUSTER_CONSTANTS, build_models

#: Rounds are whole and made while the next one, at the pace of the
#: last, ends within ``--seconds`` of the run's start, but at least
#: ``MIN_ROUNDS`` of them: a slow host makes fewer rounds, not a longer
#: run, and every round holds the same operations, so the failed share
#: is the same in every run.
MIN_ROUNDS = 2
#: At least this many set-up probes, spread over the run: one before
#: every round and the rest after the last, so their median spans the
#: run's host conditions rather than its first seconds.
SETUP_PROBES = 5

#: The Gauss-Seidel solve that exhausts its sweeps and falls back to the
#: direct solve (an operation that fails on every run).
NAMED_FAULT = (
    "gauss-seidel-no-convergence: P(>0.5) [serving U down] on cluster.mrm "
    f"F={CLUSTER_CONSTANTS['F']} B={CLUSTER_CONSTANTS['B']} runs all 100000 "
    "Gauss-Seidel sweeps without meeting the 1e-12 residual gate, then "
    "falls back to the direct solve (trust=degraded)"
)


@dataclass(frozen=True)
class Query:
    label: str
    model: str
    formula: str
    check: str  # p1-upper | p1 | merged | steady | p0 | next
    threshold: float
    phi: Optional[Tuple[str, ...]]  # union of labels; None = TT
    psi: Tuple[str, ...]
    t: float = 0.0
    r: float = 0.0
    options: Tuple[Tuple[str, object], ...] = ()


def _tmr3_until(t: int) -> Query:
    return Query(
        f"tmr3.until.t{t}", "tmr3", f"P(>0.1) [Sup U[0,{t}][0,3000] failed]",
        "p1", 0.1, ("Sup",), ("failed",), t=t, r=3000,
    )


QUERIES: Dict[str, List[Query]] = {
    "tmr-until": [
        Query("tmr11.reach", "tmr11", "P(>0.1) [TT U[0,100][0,2000] allUp]",
              "p1-upper", 0.1, None, ("allUp",), t=100, r=2000),
    ] + [_tmr3_until(t) for t in (100, 200, 300, 400)],
    "numerics-mix": [
        Query("phone.disc", "phone",
              "P(>0.5) [(Call_Idle || Doze) U[0,24][0,600] Call_Initiated]",
              "merged", 0.5, ("Call_Idle", "Doze"), ("Call_Initiated",), t=24, r=600,
              options=(("until_engine", "discretization"), ("discretization_step", 1 / 32))),
        Query("tmr3.disc", "tmr3", "P(>0.1) [Sup U[0,100][0,3000] failed]",
              "p1", 0.1, ("Sup",), ("failed",), t=100, r=3000,
              options=(("until_engine", "discretization"), ("discretization_step", 0.25))),
        Query("cluster.steady", "cluster", "S(>0.99) serving", "steady", 0.99,
              ("serving",), ()),
        Query("cluster.unbounded", "cluster", "P(>0.5) [serving U down]", "p0", 0.5,
              ("serving",), ("down",)),
        Query("cluster.transient", "cluster", "P(>0.01) [serving U[0,100] down]", "p1",
              0.01, ("serving",), ("down",), t=100),
        Query("cluster.next", "cluster", "P(>0) [X down]", "next", 0.0, None, ("down",)),
    ],
}


@dataclass
class Outcome:
    query: Query
    seconds: float
    values: Optional[np.ndarray] = None
    states: frozenset = frozenset()
    trust: str = ""
    budget: float = 0.0
    error: Optional[str] = None
    fallback: bool = False


@dataclass
class Pass:
    cold: bool
    wall: float
    outcomes: List[Outcome]
    spans: Tuple[int, int] = (0, 0)  # tracer.spans index range
    cache_stats: Dict[str, int] = field(default_factory=dict)


def _states(model, names: Optional[Tuple[str, ...]]) -> set:
    if names is None:
        return set(range(model.num_states))
    found = set()
    for name in names:
        found |= set(model.states_with_label(name))
    return found


def _run_pass(queries, models, cache, cold: bool) -> Pass:
    """One pass; its wall time is the sum of its checks' times.

    Every check starts after a full garbage collection (not timed), so
    a check's time does not depend on how much the checks before it (in
    the seeded order) left for the collector.
    """
    from repro.check.checker import CheckOptions, ModelChecker

    checkers = {}
    outcomes = []
    for query in queries:
        key = (query.model, query.options)
        checker = checkers.get(key)
        if checker is None:
            checker = checkers[key] = ModelChecker(
                models[query.model], CheckOptions(**dict(query.options)), engine_cache=cache
            )
        gc.collect()
        began = time.perf_counter()
        try:
            result = checker.check(query.formula)
        except Exception as error:  # an operation that raises counts as failed
            outcomes.append(Outcome(query, time.perf_counter() - began,
                                    error=f"raised {type(error).__name__}"))
            continue
        seconds = time.perf_counter() - began
        report = result.report
        outcomes.append(Outcome(
            query,
            seconds,
            values=np.asarray(result.probabilities, dtype=float),
            states=frozenset(result.states),
            trust=result.trust,
            budget=report.error_budget.total,
            fallback=any(e.get("event") == "linsolve.fallback" for e in report.events),
        ))
    return Pass(cold, sum(o.seconds for o in outcomes), outcomes)


def _setup_sample(workload: str) -> float:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ----------------------------------------------------------------------
# references and checks
# ----------------------------------------------------------------------
def _independent_reference(query: Query, model) -> np.ndarray:
    rates = model.rates.toarray()
    phi, psi = _states(model, query.phi), _states(model, query.psi)
    if query.check in ("p1", "p1-upper"):
        return refs.p1(rates, phi, psi, query.t)
    if query.check == "p0":
        return refs.p0(rates, phi, psi)
    if query.check == "steady":
        return refs.steady(rates, phi)
    if query.check == "next":
        return refs.next_prob(rates, psi)
    raise ValueError(query.check)


def _program_reference(query: Query, model, options) -> Tuple[np.ndarray, np.ndarray]:
    """The same P2 by the other path strategy (a method property)."""
    from repro.check import EngineCache, until_probabilities
    from repro.numerics.intervals import Interval

    values, bounds, _ = until_probabilities(
        model, _states(model, query.phi), _states(model, query.psi),
        Interval.upto(query.t), Interval.upto(query.r),
        cache=EngineCache(), **options,
    )
    return values, bounds


def _check(outcome: Outcome, reference, program_reference) -> Optional[str]:
    """None when the answer passes its check, else what is wrong."""
    query, values, budget = outcome.query, outcome.values, outcome.budget
    slack = 1e-9
    if query.check == "p1-upper":
        excess = values - (reference + budget)
        if excess.max() > slack:
            return f"P2 exceeds P1 + bound by {excess.max():.3g}"
        other, other_bounds = program_reference
        gap = np.abs(values - other) - (budget + other_bounds)
        if gap.max() > slack:
            return f"paths and merged differ beyond both truncation masses by {gap.max():.3g}"
        tolerance = budget + other_bounds + slack
        reference = other
    elif query.check == "merged":
        other, other_bounds = program_reference
        gap = np.abs(values - other) - (budget + other_bounds)
        if gap.max() > slack:
            return f"differs from merged w=1e-12 beyond both bounds by {gap.max():.3g}"
        tolerance = budget + other_bounds + slack
        reference = other
    else:
        tolerance = budget + (1e-12 if query.check == "next" else 1e-8)
        error = np.abs(values - reference).max()
        if error > tolerance:
            return f"differs from reference by {error:.3g} > {tolerance:.3g}"
    tolerance = np.broadcast_to(tolerance, reference.shape)
    for state, value in enumerate(reference):
        if abs(value - query.threshold) > tolerance[state]:
            if (state in outcome.states) != (value > query.threshold):
                return f"state {state} satisfaction disagrees with reference"
    return None


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    from repro.check import EngineCache

    deadline = time.perf_counter() + seconds
    models = build_models(workload)
    clock = HostClock()
    clock.sample(5)
    queries = list(QUERIES[workload])
    random.Random(seed).shuffle(queries)
    independent = {
        q.label: _independent_reference(q, models[q.model])
        for q in queries if q.check not in ("merged",)
    }

    setup: List[float] = []
    tracer = tracing.Tracer()
    undo = None
    passes: List[Pass] = []
    rounds, last = 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() + last <= deadline:
        began = time.perf_counter()
        setup.append(_setup_sample(workload))
        if trace and rounds == 1:
            undo = tracing.install(tracer)
        cache = EngineCache()
        for cold in (True, False):
            first = len(tracer.spans)
            done = _run_pass(queries, models, cache, cold)
            done.spans = (first, len(tracer.spans))
            done.cache_stats = vars(cache.stats)
            passes.append(done)
            clock.sample(3)
        rounds += 1
        last = time.perf_counter() - began
    if undo is not None:
        tracing.uninstall(undo)
    setup.extend(_setup_sample(workload) for _ in range(max(1, SETUP_PROBES - len(setup))))
    rss = peak_rss_mb()

    program = {}
    for q in queries:
        if q.check == "p1-upper":
            program[q.label] = _program_reference(q, models[q.model], {"strategy": "merged"})
        elif q.check == "merged":
            program[q.label] = _program_reference(
                q, models[q.model], {"strategy": "merged", "truncation_probability": 1e-12}
            )

    ledger = Ledger()
    fault_seen = False
    for done in passes:
        for outcome in done.outcomes:
            q = outcome.query
            if outcome.error is not None:
                ledger.record(q.label, outcome.error)
                continue
            wrong = _check(outcome, independent.get(q.label), program.get(q.label))
            if wrong is not None:
                ledger.record(q.label, f"check failed: {wrong}", wrong=True)
            elif outcome.trust != "exact":
                reason = f"trust={outcome.trust}"
                if outcome.fallback and q.label == "cluster.unbounded":
                    reason += " (named fault " + NAMED_FAULT.split(":")[0] + ")"
                    fault_seen = True
                ledger.record(q.label, reason)
            else:
                ledger.record(q.label, None)

    report = {
        "workload": workload,
        "rounds": rounds,
        "queries": [q.label for q in queries],
        "ledger": ledger,
        "named_fault": NAMED_FAULT if fault_seen else None,
    }
    if trace:
        report["layers"] = _trace_report(workload, seed, tracer, passes)
        return report

    # The result line carries every end-to-end metric.  Here a request is
    # one check, and the request metrics follow from the passes: p50 is
    # the mean check time of a warm pass, the tail that of a cold pass.
    cold = median([p.wall for p in passes if p.cold])
    warm = median([p.wall for p in passes if not p.cold])
    report["tail"] = "mean check time of a cold pass"
    report["measured"] = {
        "setup_s": median(setup),
        "cold_s": cold,
        "warm_s": warm,
        "request_s.p50": warm / len(queries),
        "request_s.tail": cold / len(queries),
        "requests_per_s": sum(len(p.outcomes) for p in passes) / sum(p.wall for p in passes),
    }
    report["extra"] = {
        "error_bound": (sum(o.budget for o in passes[0].outcomes if o.error is None), "prob"),
        "peak_rss_mb": (rss, "MB"),
    }
    report["host_factor"] = clock.factor
    report["samples"] = {
        "setup_s": setup,
        "cold_s": [p.wall for p in passes if p.cold],
        "warm_s": [p.wall for p in passes if not p.cold],
    }
    return report


def _trace_report(workload, seed, tracer, passes) -> Dict[str, object]:
    """Per-layer self times and counts of the traced rounds."""
    traced = [p for p in passes if p.spans[1] > p.spans[0]]
    untraced = [p for p in passes if p.spans[1] == p.spans[0]]
    rounds = len(traced) // 2
    by_pass = {
        "cold": tracing.layer_table([s for p in traced if p.cold for s in tracer.spans[p.spans[0]:p.spans[1]]]),
        "warm": tracing.layer_table([s for p in traced if not p.cold for s in tracer.spans[p.spans[0]:p.spans[1]]]),
    }
    table = tracing.layer_table(tracer.spans)
    traced_wall = sum(p.wall for p in traced)
    untraced_round = sum(p.wall for p in untraced) / max(1, len(untraced) // 2)
    traced_round = traced_wall / rounds
    caches = [p.cache_stats for p in traced if not p.cold]  # per-round totals
    hits = sum(c["hits"] for c in caches)
    misses = sum(c["misses"] for c in caches)
    layers = {
        "rounds": rounds,
        "table": table,
        "by_pass": by_pass,
        "overhead": traced_round / untraced_round - 1.0,
        "cache": {
            "hits": hits / rounds,
            "misses": misses / rounds,
            "evictions": sum(c["evictions"] for c in caches) / rounds,
            "hit_ratio": hits / max(1, hits + misses),
        },
        "per": "round (one cold and one warm pass)",
        "traced_wall": traced_wall,
        "scale": 1.0 / rounds,
        "cold_s": sum(p.wall for p in traced if p.cold) / rounds,
        "warm_s": sum(p.wall for p in traced if not p.cold) / rounds,
    }
    OUT.mkdir(exist_ok=True)
    tracer.write(
        str(OUT / f"trace-{workload}-seed{seed}.json"),
        {"layers": {k: v for k, v in layers.items() if k != "table"}, "table": table},
    )
    return layers
