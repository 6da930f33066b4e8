"""The ``daemon-session`` workload.

A ``mrmc-impulse serve`` subprocess on a Unix socket is driven by one
closed-loop :class:`ServerClient` (the next request goes out when the
previous reply is in).  Models travel inline as ``tmr.mrm`` /
``cluster.mrm`` source with per-request constants.

The daemon is started seven times.  Each start gives one set-up sample
(spawn until the first ping reply), one cold pass over a fixed set of
distinct queries and three warm repeats of that pass.  The last daemon
then serves the seeded request stream in whole rounds of 50 requests
until ``--seconds`` from the run's start:

* 30 repeat a query among the 64 most recent distinct ones (the
  daemon's value caches answer them);
* 15 are fresh (t, r) formulas on a recently uploaded model;
* 5 carry a never-seen model variant (three TMR, two cluster; see
  ``VARIANT_FIRST``), which the daemon must lint and compile, so its
  model/checker registries (32 entries each) and its engine cache (64
  entries) fill and evict.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import refs
import tracing
from hostspeed import HostClock
from common import OUT, ROOT, Ledger, median, peak_rss_mb, percentile, tail

STARTS = 7
WARM_REPEATS = 3
ROUND = {"repeat": 30, "fresh": 15}
#: The five never-seen model variants of a round: family and first query.
#: Each round holds every pair once, so every run has the same share of
#: costly uploads (a new TMR variant with a P2 query).
VARIANT_FIRST = (("tmr", "p2"), ("tmr", "p1"), ("tmr", "p0"),
                 ("cluster", "p1"), ("cluster", "steady"))
RECENT_QUERIES = 64
RECENT_MODELS = 16
#: The stream makes whole rounds while the next one, at the pace of the
#: last, ends within ``--seconds`` of the run's start, between these
#: bounds: 1 000 to 9 950 requests, so the tail is always the 99th
#: percentile (the highest with at least ten requests beyond it).
STREAM_ROUNDS = (20, 199)

SOURCES = {
    "tmr": (ROOT / "examples" / "models" / "tmr.mrm").read_text(encoding="utf-8"),
    "cluster": (ROOT / "examples" / "models" / "cluster.mrm").read_text(encoding="utf-8"),
}


@dataclass(frozen=True)
class Variant:
    family: str
    constants: Tuple[Tuple[str, float], ...]

    def model_param(self) -> Dict[str, object]:
        param: Dict[str, object] = {"source": SOURCES[self.family]}
        if self.constants:
            param["constants"] = dict(self.constants)
        return param


@dataclass(frozen=True)
class DQuery:
    variant: Variant
    kind: str  # p2 | p1 | steady | next | p0
    t: float = 0.0
    r: float = 0.0

    @property
    def formula(self) -> str:
        tmr = self.variant.family == "tmr"
        phi, psi = ("Sup", "failed") if tmr else ("serving", "down")
        bound = "0.1" if tmr else "0.01"
        if self.kind == "p2":
            return f"P(>{bound}) [{phi} U[0,{self.t:g}][0,{self.r:g}] {psi}]"
        if self.kind == "p1":
            return f"P(>{bound}) [{phi} U[0,{self.t:g}] {psi}]"
        if self.kind == "p0":
            return f"P(>0.5) [{phi} U {psi}]"
        if self.kind == "steady":
            return f"S(>0.99) {phi}"
        return f"P(>0) [X {psi}]"

    @property
    def threshold(self) -> float:
        if self.kind in ("p2", "p1"):
            return 0.1 if self.variant.family == "tmr" else 0.01
        return {"p0": 0.5, "steady": 0.99, "next": 0.0}[self.kind]


TMR_BASE = Variant("tmr", ())
TMR_2 = Variant("tmr", (("N", 2.0),))
TMR_4 = Variant("tmr", (("N", 4.0),))
CLUSTER_BASE = Variant("cluster", ())
CLUSTER_SMALL = Variant("cluster", (("B", 1.0), ("F", 2.0)))
CLUSTER_MID = Variant("cluster", (("B", 2.0), ("F", 2.0)))

#: The cold/warm pass: fixed distinct queries, only their order is seeded.
FIXED_PASS = [
    DQuery(TMR_BASE, "p2", 50, 3000),
    DQuery(TMR_BASE, "p2", 100, 3000),
    DQuery(TMR_BASE, "p1", 100),
    DQuery(TMR_BASE, "steady"),
    DQuery(TMR_BASE, "next"),
    DQuery(TMR_BASE, "p0"),
    DQuery(TMR_BASE, "p2", 75, 2000),
    DQuery(TMR_BASE, "p1", 300),
    DQuery(TMR_2, "p2", 80, 2500),
    DQuery(TMR_2, "p1", 200),
    DQuery(TMR_2, "steady"),
    DQuery(TMR_2, "next"),
    DQuery(TMR_2, "p0"),
    DQuery(TMR_4, "p2", 100, 2000),
    DQuery(TMR_4, "p2", 50, 3000),
    DQuery(TMR_4, "p1", 100),
    DQuery(TMR_4, "steady"),
    DQuery(TMR_4, "next"),
    DQuery(TMR_4, "p0"),
    DQuery(CLUSTER_BASE, "p1", 100),
    DQuery(CLUSTER_BASE, "p1", 300),
    DQuery(CLUSTER_BASE, "steady"),
    DQuery(CLUSTER_BASE, "next"),
    DQuery(CLUSTER_SMALL, "p1", 50),
    DQuery(CLUSTER_SMALL, "p1", 200),
    DQuery(CLUSTER_SMALL, "steady"),
    DQuery(CLUSTER_SMALL, "next"),
    DQuery(CLUSTER_MID, "p1", 100),
    DQuery(CLUSTER_MID, "steady"),
    DQuery(CLUSTER_MID, "next"),
]


class Stream:
    """The seeded request stream, one round of 50 requests at a time."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._seen: List[DQuery] = list(FIXED_PASS)
        self._seen_set = set(FIXED_PASS)
        self._models: List[Variant] = [TMR_BASE, TMR_2, TMR_4, CLUSTER_BASE,
                                       CLUSTER_SMALL, CLUSTER_MID]

    def _new_variant(self, family: str) -> Variant:
        rng = self._rng
        while True:
            if family == "tmr":
                constants = (("N", float(rng.choice((2, 3, 4)))),
                             ("module_failure", round(0.0004 * rng.uniform(0.5, 1.5), 9)))
                variant = Variant("tmr", constants)
            else:
                constants = (("B", float(rng.choice((1, 2)))),
                             ("F", float(rng.choice((2, 3)))),
                             ("be_fail", round(0.001 * rng.uniform(0.5, 1.5), 9)))
                variant = Variant("cluster", constants)
            if variant not in self._models:
                return variant

    def _fresh_query(self, variant: Variant) -> DQuery:
        rng = self._rng
        for _ in range(1000):
            if variant.family == "tmr" and rng.random() < 0.6:
                query = DQuery(variant, "p2", rng.randint(20, 100), 50 * rng.randint(20, 60))
            else:
                query = DQuery(variant, "p1", rng.randint(10, 400))
            if query not in self._seen_set:
                return query
        raise RuntimeError("no fresh query left")

    def _remember(self, query: DQuery) -> None:
        if query not in self._seen_set:
            self._seen_set.add(query)
            self._seen.append(query)

    def next_round(self) -> List[DQuery]:
        rng = self._rng
        kinds = ["repeat"] * ROUND["repeat"] + ["fresh"] * ROUND["fresh"] + list(VARIANT_FIRST)
        rng.shuffle(kinds)
        queries = []
        for kind in kinds:
            if kind == "repeat":
                query = rng.choice(self._seen[-RECENT_QUERIES:])
            elif kind == "fresh":
                query = self._fresh_query(rng.choice(self._models[-RECENT_MODELS:]))
            else:
                family, first = kind
                variant = self._new_variant(family)
                self._models.append(variant)
                if first == "p2":
                    query = DQuery(variant, "p2", rng.randint(20, 100), 50 * rng.randint(20, 60))
                elif first == "p1":
                    query = DQuery(variant, "p1", rng.randint(10, 400))
                else:
                    query = DQuery(variant, first)
            self._remember(query)
            queries.append(query)
        return queries


# ----------------------------------------------------------------------
# daemon processes
# ----------------------------------------------------------------------
class Daemon:
    """One launched daemon; use as a context manager so it always ends."""

    def __init__(self, index: int, spans: Optional[str] = None) -> None:
        OUT.mkdir(exist_ok=True)
        tag = f"{os.getpid()}-{index}"
        self.socket = os.path.relpath(OUT / f"d{tag}.sock", ROOT)
        self._log = open(OUT / f"daemon-{tag}.log", "w", encoding="utf-8")
        command = [sys.executable, str(ROOT / "perfbench" / "launcher.py")]
        if spans is not None:
            command += ["--spans", spans]
        command += ["--socket", self.socket, "--log-level", "off"]
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        self._started = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=ROOT, stdout=self._log, stderr=subprocess.STDOUT)
        self.client = None
        try:
            self.setup_s = self._wait_ready()
        except BaseException:
            self.__exit__()
            raise

    def _wait_ready(self) -> float:
        from repro.server.client import ServerClient

        deadline = self._started + 120.0
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode} during start")
            if os.path.exists(self.socket):
                try:
                    client = ServerClient(socket_path=self.socket, timeout=120.0)
                except OSError:
                    time.sleep(0.002)
                    continue
                client.ping()
                self.client = client
                return time.perf_counter() - self._started
            time.sleep(0.002)
        raise RuntimeError("daemon did not answer a ping within 120 s")

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if self.client is not None:
                try:
                    self.client.shutdown(drain=True)
                except Exception:  # the daemon may already be gone; it is killed below
                    pass
                self.client.close()
                try:
                    self.process.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            self._log.close()
            if self.process.returncode == 0:
                os.unlink(self._log.name)
            if os.path.exists(self.socket):
                os.unlink(self.socket)


@dataclass
class Reply:
    query: DQuery
    seconds: float
    body: Optional[dict] = None
    error: Optional[str] = None


def _send(client, query: DQuery) -> Reply:
    from repro.server.protocol import ServerError

    began = time.perf_counter()
    try:
        body = client.check(query.variant.model_param(), query.formula)
    except ServerError as error:  # a typed error reply counts as failed
        return Reply(query, time.perf_counter() - began, error=f"error {error.code}")
    return Reply(query, time.perf_counter() - began, body=body)


def _run_queries(client, queries) -> Tuple[float, List[Reply]]:
    gc.collect()
    start = time.perf_counter()
    replies = [_send(client, q) for q in queries]
    return time.perf_counter() - start, replies


def _stream(client, stream: Stream, clock: HostClock, deadline: float,
            rounds: Optional[int] = None):
    """Whole rounds of the stream until ``deadline`` (see ``STREAM_ROUNDS``),
    or exactly ``rounds`` of them.

    Three calibration chunks follow every fifth round; the returned wall
    time is that of the rounds alone.
    """
    least, most = STREAM_ROUNDS if rounds is None else (rounds, rounds)
    replies: List[Reply] = []
    wall = 0.0
    made, last = 0, 0.0
    while made < least or (made < most and time.perf_counter() + last <= deadline):
        queries = stream.next_round()
        began = time.perf_counter()
        replies.extend(_send(client, q) for q in queries)
        last = time.perf_counter() - began
        wall += last
        made += 1
        if made % 5 == 0:
            clock.sample(3)
    return wall, replies, made


# ----------------------------------------------------------------------
# references and checks
# ----------------------------------------------------------------------
class References:
    """Reference values per distinct query, from the independent enumeration."""

    def __init__(self) -> None:
        self._models: Dict[Variant, Tuple[np.ndarray, Dict[str, set]]] = {}
        self._values: Dict[Tuple[DQuery, str], np.ndarray] = {}

    def _model(self, variant: Variant):
        found = self._models.get(variant)
        if found is None:
            from repro.lang.compiler import compile_model

            compiled = compile_model(SOURCES[variant.family], constants=dict(variant.constants) or None)
            valuations = [compiled.valuation_of(s) for s in range(compiled.mrm.num_states)]
            enumerate_ = refs.tmr_rates if variant.family == "tmr" else refs.cluster_rates
            rates, labels = refs.in_program_order(enumerate_(dict(variant.constants)), valuations)
            program = compiled.mrm.rates.toarray()
            if not np.allclose(program, rates, rtol=1e-12, atol=0.0):
                raise ValueError(f"compiled rates of {variant} differ from the enumeration")
            found = self._models[variant] = (rates, labels)
        return found

    def values(self, query: DQuery, which: str = "main") -> np.ndarray:
        key = (query, which)
        found = self._values.get(key)
        if found is None:
            rates, labels = self._model(query.variant)
            phi, psi = ("Sup", "failed") if query.variant.family == "tmr" else ("serving", "down")
            if query.kind in ("p2", "p1"):
                found = refs.p1(rates, labels[phi], labels[psi], query.t)
            elif query.kind == "p0":
                found = refs.p0(rates, labels[phi], labels[psi])
            elif query.kind == "steady":
                found = refs.steady(rates, labels[phi])
            else:
                found = refs.next_prob(rates, labels[psi])
            self._values[key] = found
        return found

    def check(self, reply: Reply, budget: float) -> Optional[str]:
        """Checks ``reply`` within ``budget``, the error budget that the
        computation of its values reported (see :func:`_account`)."""
        query, body = reply.query, reply.body
        values = np.asarray(body["probabilities"], dtype=float)
        reference = self.values(query)
        if values.shape != reference.shape:
            return "wrong number of states"
        # P2 is checked against P1 from both sides: every P2 query has
        # t <= 100 and r >= 1000, while a Sup state of tmr.mrm earns at
        # most 9 per time unit, so the reward bound binds only on paths
        # with over 20 module failures within t (probability below 1e-30).
        tolerance = budget + (1e-12 if query.kind == "next" else 1e-8)
        error = np.abs(values - reference).max()
        if error > tolerance:
            return f"differs from reference by {error:.3g}"
        states = set(body["states"])
        for state, value in enumerate(reference):
            if abs(value - query.threshold) > tolerance and (state in states) != (value > query.threshold):
                return f"state {state} satisfaction disagrees with reference"
        return None


def _account(ledger: Ledger, references: References, replies: List[Reply]) -> int:
    """Checks every reply; returns how many understated their error budget.

    An answer served from a checker's value cache reports an error budget
    of 0 although its values carry the truncation error of the run that
    computed them.  Each answer is therefore checked within the largest
    budget reported for its query: that of the computing run, which is
    the same on every daemon since the engines are deterministic.
    """
    budgets: Dict[DQuery, float] = {}
    for reply in replies:
        if reply.body is not None:
            budget = float(reply.body["error_budget"]["total"])
            budgets[reply.query] = max(budget, budgets.get(reply.query, 0.0))
    understated = 0
    for reply in replies:
        label = f"{reply.query.variant.family}.{reply.query.kind}"
        if reply.error is not None:
            ledger.record(label, reply.error)
            continue
        budget = budgets[reply.query]
        understated += float(reply.body["error_budget"]["total"]) < budget
        wrong = references.check(reply, budget)
        if wrong is not None:
            ledger.record(label, f"check failed: {wrong}", wrong=True)
        elif reply.body.get("trust") != "exact":
            ledger.record(label, f"trust={reply.body.get('trust')}")
        else:
            ledger.record(label, None)
    return understated


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run(seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    rng = random.Random(seed)
    fixed = list(FIXED_PASS)
    rng.shuffle(fixed)
    setup, cold, warm, passes = [], [], [], []
    stream_wall, replies, rounds = 0.0, [], 0
    spans_path = str(OUT / f"spans-daemon-seed{seed}-{os.getpid()}.json") if trace else None
    untraced = None
    clock = HostClock()
    deadline = time.perf_counter() + seconds
    for index in range(STARTS):
        last = index == STARTS - 1
        with Daemon(index, spans=spans_path if last else None) as daemon:
            setup.append(daemon.setup_s)
            wall, answered = _run_queries(daemon.client, fixed)
            cold.append(wall)
            passes.extend(answered)
            for _ in range(WARM_REPEATS):
                wall, answered = _run_queries(daemon.client, fixed)
                warm.append(wall)
                passes.extend(answered)
            clock.sample(3)
            if trace and index == STARTS - 2:
                halfway = (time.perf_counter() + deadline) / 2
                untraced = _stream(daemon.client, Stream(seed), clock, halfway)
            if last:
                before = daemon.client.metrics()
                stream_start = time.perf_counter()
                stream_wall, replies, rounds = _stream(
                    daemon.client, Stream(seed), clock, deadline,
                    rounds=untraced[2] if trace else None)
                after = daemon.client.metrics()
    rss = peak_rss_mb(children=True)

    ledger = Ledger()
    answered = passes + replies + (untraced[1] if untraced is not None else [])
    understated = _account(ledger, References(), answered)

    report: Dict[str, object] = {
        "workload": "daemon-session",
        "rounds": rounds,
        "queries": [q.formula for q in fixed],
        "ledger": ledger,
        "named_fault": None,
        "understated": f"{understated} of {len(answered)} answers reported a smaller error "
                       "budget than the run that computed their values (value-cache hits report 0)",
    }
    latencies = [r.seconds for r in replies]
    if trace:
        report["layers"] = _trace_report(seed, spans_path, replies, stream_start, stream_wall,
                                         rounds, untraced, before, after)
        return report
    q_tail, tail_value, beyond = tail(latencies)
    first_pass = passes[: len(fixed)]
    report["tail"] = f"p{q_tail * 100:g} of {len(latencies)} requests ({beyond} beyond)"
    report["measured"] = {
        "setup_s": median(setup),
        "cold_s": median(cold),
        "warm_s": median(warm),
        "request_s.p50": percentile(latencies, 0.5),
        "request_s.tail": tail_value,
        "requests_per_s": len(latencies) / stream_wall,
    }
    report["extra"] = {
        "error_bound": (sum(r.body["error_budget"]["total"] for r in first_pass if r.body), "prob"),
        "peak_rss_mb": (rss, "MB"),
    }
    report["host_factor"] = clock.factor
    report["samples"] = {"setup_s": setup, "cold_s": cold, "warm_s": warm}
    report["daemon"] = {
        "engine_cache": after["engine_cache"],
        "cached_models": after["cached_models"],
        "cached_checkers": after["cached_checkers"],
    }
    return report


def _trace_report(seed, spans_path, replies, stream_start, stream_wall, rounds, untraced,
                  before, after) -> Dict[str, object]:
    with open(spans_path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    spans = [s for s in recorded["spans"] if s["start"] >= stream_start]
    table = tracing.layer_table(spans)
    execute = {s["query"]: s["end"] - s["start"] for s in spans if s["layer"] == "server"}
    rpc_total = 0.0
    rpc = []
    for reply in replies:
        if reply.body is None:
            continue
        rpc.append(reply.seconds - float(reply.body.get("wall_seconds", 0.0)))
        rpc_total += reply.seconds - execute.get(reply.body.get("request_id"), 0.0)
    table["server.rpc"] = {"spans": float(len(rpc)), "total_s": rpc_total, "self_s": rpc_total}
    observed = [o for o in recorded["observed"] if o["at"] >= stream_start and o["method"] == "check"]
    queue = [o["queue_wait_s"] for o in observed if o.get("queue_wait_s") is not None]
    execution = [o["execution_s"] for o in observed if o.get("execution_s") is not None]
    delta = {k: after["engine_cache"][k] - before["engine_cache"][k] for k in ("hits", "misses", "evictions")}
    layers = {
        "rounds": rounds,
        "table": table,
        "by_pass": {},
        "overhead": stream_wall / untraced[0] - 1.0,
        "cache": {
            "hits": delta["hits"] / rounds,
            "misses": delta["misses"] / rounds,
            "evictions": delta["evictions"] / rounds,
            "hit_ratio": delta["hits"] / max(1, delta["hits"] + delta["misses"]),
        },
        "server": {
            "rpc_s.p50": percentile(rpc, 0.5),
            "queue_wait_s.p50": percentile(queue, 0.5) if queue else 0.0,
            "exec_s.p50": percentile(execution, 0.5) if execution else 0.0,
            "queue_wait_share": sum(queue) / stream_wall,
        },
        "per": "stream round (50 requests)",
        "traced_wall": stream_wall,
        "scale": 1.0 / rounds,
    }
    recorded["layers"] = {k: v for k, v in layers.items() if k != "table"}
    recorded["table"] = table
    with open(OUT / f"trace-daemon-session-seed{seed}.json", "w", encoding="utf-8") as handle:
        json.dump(recorded, handle)
    os.unlink(spans_path)
    return layers
