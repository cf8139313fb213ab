"""Host-speed reference: a fixed kernel timed between operations.

The speed of the host this benchmark runs on drifts by a third and
more, in spells of seconds to minutes, as other tenants' load comes and
goes; medians of host seconds over a run move with it far more than the
program's own changes move them.  So the measured phase times a small
reference kernel — pure Python and NumPy, independent of the program —
before each operation, and every timed interval is rescaled by
``REFERENCE_KERNEL_S`` over the kernel's median time around that
interval.  The result is *reference seconds*: host seconds on a host
where the kernel takes ``REFERENCE_KERNEL_S``.  Two commits measured on
the same host compare as host seconds would, with the drift divided out.

The kernel's own time is part of the measured phase (it runs between
operations, outside each operation's interval); it is a fixed share of
each workload's wall time on either commit.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import Callable, List, Tuple, TypeVar

import numpy as np

#: Kernel time that defines one reference second per second (about the
#: kernel's typical time on a 2-vCPU x86 container).
REFERENCE_KERNEL_S = 0.0045

#: Kernel samples within this many seconds of an interval rescale it.
WINDOW_S = 0.5

_KEYS = np.arange(1 << 14, dtype=np.int64)

T = TypeVar("T")


def reference_kernel() -> int:
    """A fixed mix of interpreter work (dict and integer operations) and
    small NumPy calls, like the program's hot loops."""
    table: dict = {}
    acc = 0
    for i in range(4000):
        key = i & 511
        table[key] = table.get(key, 0) + i
        acc += key * 3 // 7
    for j in range(60):
        counts = np.bincount(_KEYS & 1023, minlength=1024)
        acc += int(np.cumsum(counts)[-1]) + int(np.argsort(_KEYS[:2048] ^ j)[0])
    return acc


def kernel_seconds() -> float:
    """CPU seconds of one kernel run on the calling thread.

    CPU time, not wall time: a thread waiting for the interpreter lock
    or for a processor the program's own processes hold is not running,
    and that wait measures the program, not the host.
    """
    begin = time.thread_time()
    reference_kernel()
    return time.thread_time() - begin


class HostClock:
    """Reference-kernel samples of one measured phase, and the rescaling
    of host intervals they give.  ``sample`` may be called from several
    threads."""

    def __init__(self) -> None:
        self._samples: List[Tuple[float, float]] = []  # (end, seconds)
        self._lock = threading.Lock()
        self._last = 0.0
        self._elapsed = 0.0

    def start(self) -> float:
        """Start the running clock; returns the host time it starts at."""
        with self._lock:
            self._last = time.perf_counter()
            self._elapsed = 0.0
            return self._last

    def sample(self) -> None:
        """Time the kernel once and advance the running clock."""
        seconds = kernel_seconds()
        end = time.perf_counter()
        with self._lock:
            recent = [s for _, s in self._samples[-2:]] + [seconds]
            self._elapsed += max(0.0, end - self._last) * (
                REFERENCE_KERNEL_S / statistics.median(recent)
            )
            self._last = max(self._last, end)
            self._samples.append((end, seconds))

    def elapsed(self) -> float:
        """Reference seconds since :meth:`start`, as of the last sample."""
        with self._lock:
            return self._elapsed

    def _sorted(self) -> Tuple[List[float], List[float]]:
        with self._lock:
            samples = sorted(self._samples)
        return [e for e, _ in samples], [s for _, s in samples]

    @staticmethod
    def _factor(
        ends: List[float], seconds: List[float], begin: float, end: float
    ) -> float:
        """Reference seconds per host second over ``[begin, end]``."""
        low = bisect.bisect_left(ends, begin - WINDOW_S)
        high = bisect.bisect_right(ends, end + WINDOW_S)
        near = seconds[low:high]
        if not near:
            nearest = min(range(len(ends)), key=lambda i: abs(ends[i] - end))
            near = [seconds[nearest]]
        return REFERENCE_KERNEL_S / statistics.median(near)

    def rescale(self, begin: float, end: float) -> float:
        """Reference seconds of the host interval ``[begin, end]``, split
        at the kernel samples inside it."""
        return self.rescale_all([(begin, end)])[0]

    def rescale_all(self, intervals: List[Tuple[float, float]]) -> List[float]:
        """:meth:`rescale` of each interval, sorting the samples once."""
        ends, seconds = self._sorted()
        out = []
        for begin, end in intervals:
            cuts = ends[bisect.bisect_right(ends, begin) : bisect.bisect_left(ends, end)]
            edges = [begin, *cuts, end]
            out.append(
                sum(
                    (b - a) * self._factor(ends, seconds, a, b)
                    for a, b in zip(edges, edges[1:])
                )
            )
        return out

    def median_factor(self) -> float:
        """Median rescaling over the phase, for the printed host figures."""
        return REFERENCE_KERNEL_S / statistics.median(s for _, s in self._samples)


def timed(fn: Callable[[], T], samples: int = 5) -> Tuple[T, float]:
    """``fn()`` and its time in reference seconds, rescaled by the median
    of ``samples`` kernel runs taken before it and as many after."""
    around = [kernel_seconds() for _ in range(samples)]
    begin = time.perf_counter()
    result = fn()
    host_seconds = time.perf_counter() - begin
    around += [kernel_seconds() for _ in range(samples)]
    return result, host_seconds * REFERENCE_KERNEL_S / statistics.median(around)
