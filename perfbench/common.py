"""Shared pieces of the benchmark: statistics, outcomes, machine record."""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ROOT",
    "OUT",
    "Ledger",
    "percentile",
    "tail",
    "machine_record",
    "peak_rss_mb",
]

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Percentiles tried for the tail, highest first.
_TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: a measured sample, never an interpolation."""
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def tail(values: List[float]) -> Tuple[float, float, int]:
    """``(q, value, beyond)``: the highest ladder percentile with at least
    ten samples beyond it (the median when there are fewer than 20)."""
    n = len(values)
    for q in _TAIL_LADDER:
        beyond = n - math.ceil(q * n)
        if beyond >= 10:
            return q, percentile(values, q), beyond
    return 0.5, percentile(values, 0.5), n - math.ceil(0.5 * n)


def median(values: List[float]) -> float:
    return statistics.median(values)


@dataclass
class Ledger:
    """Operations attempted and failed, plus the checks of their answers."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    messages: List[str] = field(default_factory=list)

    def record(self, label: str, reason: Optional[str], wrong: bool = False) -> None:
        """One operation; ``reason`` is None when it succeeded."""
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        key = f"{label}: {reason}"
        self.failures[key] = self.failures.get(key, 0) + 1
        if wrong:
            self.wrong += 1
            if len(self.messages) < 20:
                self.messages.append(key)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record() -> Dict[str, object]:
    """What made the numbers: cores, numba, versions, source revision, load."""
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
    }
