"""Time one set-up of an in-process workload in a fresh interpreter.

Prints one JSON line ``{"setup_s": ...}``: the time from the first line
of this script, before ``import repro``, until the workload's models are
built and the first query could be sent.

    python perfbench/setup_probe.py tmr-until
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from models import build_models  # noqa: E402


if __name__ == "__main__":
    build_models(sys.argv[1])
    print(json.dumps({"setup_s": time.perf_counter() - _START}))
