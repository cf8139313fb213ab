"""Helpers shared by the workloads: measured phases, percentiles, digests."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Percentiles tried, highest first, for ``latency_tail_ms``: the tail is
#: the highest one that still has at least ``TAIL_MIN_BEYOND`` samples
#: above it (nearest-rank).
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class HostFigures:
    """Host-time view of a measured phase, printed beside the metrics.

    Attributes:
        wall_s: host seconds of the phase.
        factor: median reference seconds per host second over the phase.
    """

    wall_s: float
    factor: float


@dataclass
class Phase:
    """What one measured phase did.

    Times are in reference seconds (see ``hostspeed.py``).

    Attributes:
        wall_s: seconds of the phase.
        latencies_s: seconds of each operation.
        work: units of work done (reports, simulated cycles, requests).
        host: the phase in host seconds.
        throughput: work per second as reported; defaults to
            ``work / wall_s``.
        p50_s: median operation time as reported; defaults to the
            median of ``latencies_s``.
        attempted: operations (and output checks) attempted.
        failed: operations that failed, degraded or failed a check.
        outputs: simulated results, compared and digested after timing.
    """

    wall_s: float
    latencies_s: List[float]
    work: float
    host: HostFigures
    throughput: Optional[float] = None
    p50_s: Optional[float] = None
    attempted: int = 0
    failed: int = 0
    outputs: List[Any] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)


def tail_percentile(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` for the latency tail.

    A run too short for any ladder step falls back to the median; the
    printed sample count then shows fewer than ``TAIL_MIN_BEYOND``.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            break
    return pct, ordered[rank - 1], n - rank


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def digest(payload: Any) -> str:
    """Short content digest of a JSON-serialisable value."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of the largest process run so far: this one or
    any reaped descendant (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}
