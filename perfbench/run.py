"""mrmc-impulse benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload tmr-until --seed 1 --seconds 35 --trace 0

Workloads: ``tmr-until`` (path engine), ``numerics-mix`` (discretization,
linear solves, steady state, transient, next) and ``daemon-session``
(the ``serve`` daemon behind one closed-loop client).  See README.md.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, whose
spans are written to ``perfbench/out/``.  Exit code 2 when the program
under test (``src/repro``) is not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tmr-until", "numerics-mix", "daemon-session")

#: Per-layer self times, reported as shares of the traced wall time.
SHARE_LAYERS = (
    "server", "server.rpc", "checker", "frontend.parse", "frontend.lint",
    "frontend.compile", "until", "mrm.transform", "paths.prepare", "paths.search",
    "omega", "poisson", "disc.sweep", "linsolve", "steady", "transient", "next",
)

#: Per-layer counts, as means per round: (metric, layer, count key).
COUNTS = (
    ("frontend.compiles", "frontend.compile", "calls"),
    ("frontend.parses", "frontend.parse", "calls"),
    ("mrm.transforms", "mrm.transform", "calls"),
    ("paths.contexts_built", "paths.prepare", "contexts_built"),
    ("paths.states", "paths.search", "states"),
    ("paths.generated", "paths.search", "generated"),
    ("paths.stored", "paths.search", "stored"),
    ("paths.classes", "paths.search", "classes"),
    ("omega.calls", "omega", "calls"),
    ("omega.evaluations", "omega", "evaluations"),
    ("poisson.tables", "poisson", "calls"),
    ("disc.sweeps", "disc.sweep", "calls"),
    ("linsolve.solves", "linsolve", "calls"),
    ("linsolve.iterations", "checker", "iterations"),
    ("linsolve.fallbacks", "checker", "fallbacks"),
    ("checker.checks", "checker", "checks"),
    ("checker.value_cache_hits", "checker", "value_cache_hits"),
)


#: Layers that take whatever time no other layer's wrappers cover: the
#: checker holds the outermost in-process spans, and the daemon's
#: ``server.rpc`` is client latency minus the execute span.
CATCH_ALL = ("checker", "server.rpc")


def named_share(layers) -> float:
    """Share of the traced wall time spent in the named (not catch-all) layers."""
    table = layers["table"]
    named = sum(row["self_s"] for layer, row in table.items() if layer not in CATCH_ALL)
    return named / layers["traced_wall"]


def per_layer_metrics(layers):
    table, scale = layers["table"], layers["scale"]
    wall = layers["traced_wall"]
    metrics = {}
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = (table.get(layer, {}).get("self_s", 0.0) / wall, "share")
    for name, layer, key in COUNTS:
        metrics[name] = (table.get(layer, {}).get(key, 0.0) * scale, "count")
    metrics["paths.max_depth"] = (table.get("paths.search", {}).get("max_depth_max", 0.0), "count")
    cache = layers["cache"]
    for key in ("hits", "misses", "evictions"):
        metrics[f"cache.{key}"] = (cache[key], "count")
    metrics["cache.hit_ratio"] = (cache["hit_ratio"], "share")
    server = layers.get("server", {})
    metrics["server.queue_wait.share"] = (server.get("queue_wait_share", 0.0), "share")
    metrics["trace.named_share"] = (named_share(layers), "share")
    metrics["trace.overhead"] = (layers["overhead"], "ratio")
    return metrics


def end_to_end_metrics(report):
    """Measured times scaled to reference-host seconds (see hostspeed.py)."""
    factor = report["host_factor"]
    measured = report["measured"]
    metrics = {}
    for name in ("setup_s", "cold_s", "warm_s", "request_s.p50", "request_s.tail"):
        metrics[name] = (measured[name] * factor, "s")
    metrics["requests_per_s"] = (measured["requests_per_s"] / factor, "1/s")
    metrics.update(report["extra"])
    return metrics


def _print_layers(layers) -> None:
    table = layers["table"]
    print(f"per-layer self time, per {layers['per']} ({layers['rounds']} traced):")
    by_pass = layers.get("by_pass") or {}
    cold, warm = by_pass.get("cold", {}), by_pass.get("warm", {})
    scale = layers["scale"]
    header = f"  {'layer':<18}{'self_s':>10}{'share':>8}"
    if by_pass:
        header += f"{'cold_s':>10}{'warm_s':>10}{'gap_s':>10}"
    print(header)
    for layer in SHARE_LAYERS:
        row = table.get(layer)
        if row is None:
            continue
        line = f"  {layer:<18}{row['self_s'] * scale:>10.4f}{row['self_s'] / layers['traced_wall']:>8.3f}"
        if by_pass:
            c = cold.get(layer, {}).get("self_s", 0.0) * scale
            w = warm.get(layer, {}).get("self_s", 0.0) * scale
            line += f"{c:>10.4f}{w:>10.4f}{c - w:>10.4f}"
        print(line)
    if "cold_s" in layers:
        print(f"  traced cold pass {layers['cold_s']:.4f} s, warm pass {layers['warm_s']:.4f} s, "
              f"gap {layers['cold_s'] - layers['warm_s']:.4f} s")
    for key, value in sorted(layers.get("server", {}).items()):
        print(f"  server {key}: {value:.6f}")
    print(f"  named layers (all but {', '.join(CATCH_ALL)}) hold {named_share(layers):.3f} "
          f"of the traced wall time; tracing overhead {layers['overhead'] * 100:+.1f}% "
          f"against the untraced run")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for this process and every process it starts (set-up
    # probes, daemons): the work is serial, and a closed loop between
    # two processes then hands over on one core instead of waking the
    # other, whose speed on a shared host varies independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from common import machine_record

    started = time.perf_counter()
    print("machine " + json.dumps(machine_record(), sort_keys=True), flush=True)
    if args.workload == "daemon-session":
        import daemon

        report = daemon.run(args.seed, args.seconds, bool(args.trace))
    else:
        import inprocess

        report = inprocess.run(args.workload, args.seed, args.seconds, bool(args.trace))

    ledger = report["ledger"]
    print("query order: " + " | ".join(report["queries"]))
    print(f"workload {report['workload']} seed {args.seed}: {report['rounds']} rounds, "
          f"{ledger.attempted} operations attempted, {ledger.failed} failed, "
          f"{time.perf_counter() - started:.1f} s in all")
    for reason, count in sorted(ledger.failures.items()):
        print(f"  failed x{count}: {reason}")
    if report.get("named_fault"):
        print(f"  named fault: {report['named_fault']}")
    if report.get("understated"):
        print(f"  {report['understated']}")
    for message in ledger.messages:
        print(f"  WRONG: {message}")
    if args.trace:
        _print_layers(report["layers"])
        metrics = per_layer_metrics(report["layers"])
    else:
        metrics = end_to_end_metrics(report)
        print(f"  host factor {report['host_factor']:.4f} (times below are measured x factor)")
        for name, (value, unit) in metrics.items():
            measured = report["measured"].get(name)
            note = "" if measured is None else f"   (measured {measured:.6g})"
            print(f"  {name} = {value:.6g} {unit}{note}")
        print(f"  tail: {report['tail']}")
        for name, samples in report.get("samples", {}).items():
            print(f"  {name} samples: " + ", ".join(f"{s:.4f}" for s in samples))
    result = {
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
