"""Shared helpers: paths, percentiles, digests, memory, calibration."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space for gateway caches and traced-run reports (gitignored)
WORK_DIR = ROOT / ".perfbench"


@dataclass
class Outcome:
    """What one workload invocation measured."""

    setup_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    #: op kind -> latencies (seconds); an op is one cell, job or batch
    ops: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: per-workload attribution inputs from a traced pass
    layer_extra: dict[str, float] = field(default_factory=dict)
    #: printed on the detail line (digests, mismatches, counts)
    detail: dict = field(default_factory=dict)
    #: output check deferred until tracing is off; sets ``failed``
    verify: Optional[Callable[["Outcome"], None]] = None

    def record(self, kind: str, seconds: float, ok: bool) -> None:
        self.ops.setdefault(kind, []).append(seconds)
        self.attempted += 1
        self.failed += 0 if ok else 1


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def digest(payload: object) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Median seconds of three runs of a fixed pure-Python loop."""
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        table: dict[int, int] = {}
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)
