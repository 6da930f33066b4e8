"""Host-speed calibration for the benchmark's time metrics.

On a shared 2-core VM the same pass of the same queries runs 20-40 %
slower in some minutes than in others; a pure-Python loop that never
touches the program slows down in step with it.  The benchmark runs this
loop in short chunks between its passes and stream rounds, in its own
process after a garbage collection, and scales each measured time by
``REFERENCE_CHUNK_S / median(chunk times)``: the times it reports are
seconds on a host running the chunk in ``REFERENCE_CHUNK_S``.  The
measured (unscaled) times are printed next to them.  The chunk does
fixed work, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

__all__ = ["HostClock", "REFERENCE_CHUNK_S"]

#: Median chunk time on the 2-core reference VM (Python 3.11, numpy 2.4).
REFERENCE_CHUNK_S = 0.02

_KEYS = 30000


def chunk() -> float:
    """Run the fixed calibration work once; returns its wall time."""
    start = time.perf_counter()
    table = {}
    for i in range(_KEYS):
        table[(i * 7919) % 10007, i & 7] = i * 0.5
    total = 0.0
    for (key, low), value in table.items():
        total += key * value - low
    ordered = sorted(table.values(), reverse=True)
    total += ordered[0]
    return time.perf_counter() - start


class HostClock:
    """Calibration samples taken through one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, chunks: int = 3) -> None:
        gc.collect()
        for _ in range(chunks):
            self.samples.append(chunk())

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get reference-host seconds."""
        return REFERENCE_CHUNK_S / statistics.median(self.samples)
