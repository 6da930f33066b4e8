"""Run workloads k times each and print each metric's median and quartiles.

    python3 perfbench/spread.py --workload tmr-until --runs 10 [--first-seed 1]
    python3 perfbench/spread.py --workload tmr-until numerics-mix daemon-session --runs 1

Each run is ``perfbench/run.py --trace 0`` for ``run_seconds`` of
``BENCHMARK.json``, with its own seed (``first-seed``,
``first-seed + 1``, ...).  For every metric the table gives the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``)
and the spread ``(Q3 - Q1) / median``, next to the bound recorded in
``BENCHMARK.json``, so the bounds can be re-derived on another machine.
The failed share of operations must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spread(workload, args, seconds, bounds) -> bool:
    values = {}
    shares = set()
    for index in range(args.runs):
        seed = args.first_seed + index
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return False
        result = json.loads(done.stdout.strip().splitlines()[-1])
        shares.add(Fraction(result["failed"], result["attempted"]))
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in done.stdout.splitlines():
            name, _, rest = line.strip().partition(" = ")
            if "(measured " in rest:
                measured = float(rest.split("(measured ")[1].rstrip(")"))
                values.setdefault(f"{name} (measured)", []).append(measured)

    print(f"\n{workload}: {args.runs} runs of {seconds} s")
    print(f"  {'metric':<26}{'median':>12}{'Q1':>12}{'Q3':>12}{'spread':>9}{'bound':>8}")
    for name, series in values.items():
        middle = statistics.median(series)
        q1, q3 = statistics.quantiles(series, n=4)[::2] if len(series) > 1 else (middle, middle)
        spread = (q3 - q1) / middle if middle else float("nan")
        bound = bounds.get(name)
        print(f"  {name:<26}{middle:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.3f}"
              f"{'' if bound is None else format(bound, '>8.2f')}")
    print("  failed share per run: " + ", ".join(sorted(str(s) for s in shares)), flush=True)
    return True


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    for workload in args.workload:
        if not _spread(workload, args, config["run_seconds"], bounds):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
