"""Times scaled to a fixed reference speed of the host.

On a shared virtual machine the speed of the same Python code changes by up
to 1.7x within seconds and for minutes at a time, with the load of other
tenants, so a raw wall time says as much about the neighbours as about
rentlab.  :class:`HostClock` runs a fixed reference kernel from a timer
signal every ``PERIOD`` seconds while the workload runs, also in the middle
of long items.  An interval of the workload is then reported as

    (its wall time - the reference runs inside it) * REFERENCE_S / r

where ``r`` is the mean time of the reference runs inside the interval and
of the one just before and just after it.  The kernel does the kind of work
rentlab does (exact ``Fraction`` arithmetic, a heap, list scans and dict
updates) and never calls rentlab, so its time tracks the host and not the
program under test; a change to rentlab moves the scaled time as much as it
moves the raw one.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.05
# About the fastest reference tick seen on a 2.1 GHz Xeon vCPU with Python
# 3.11 (2.0-2.4 ms; the median tick of a run was 2.2-4.4 ms); scaled times
# are wall times at that speed.
REFERENCE_S = 0.0021

# Sizes on a 1/12 grid and starts on a 1/4 grid, as in the workloads.
_JOBS = [
    (Fraction((7 * i) % 12 + 1, 12), Fraction(i // 3, 4),
     Fraction(i // 3, 4) + Fraction(i % 5 + 1, 2))
    for i in range(120)
]


def reference_kernel() -> Fraction:
    """First-fit style packing of a fixed job list; returns its exact cost."""
    servers: list[list] = []  # [load, heap of (finish, size), open, close]
    for size, start, finish in _JOBS:
        for server in servers:
            heap = server[1]
            while heap and heap[0][0] <= start:
                server[0] -= heapq.heappop(heap)[1]
            if server[3] >= start and server[0] + size <= 1:
                break
        else:
            server = [Fraction(0), [], start, finish]
            servers.append(server)
        server[0] += size
        heapq.heappush(server[1], (finish, size))
        server[3] = max(server[3], finish)
    by_open: dict[Fraction, Fraction] = {}
    for _, _, opened, closed in servers:
        by_open[opened] = by_open.get(opened, Fraction(0)) + closed - opened
    return sum(sorted(by_open.values()), Fraction(0))


EXPECTED = reference_kernel()


class HostClock:
    """Reference ticks from a timer signal, and intervals scaled by them.

    Use as a context manager around the timed part of a run; ticks stop when
    it exits.  ``scaled(start, end)`` converts an interval measured with
    ``time.perf_counter`` inside it.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def tick(self) -> None:
        started = time.perf_counter()
        if reference_kernel() != EXPECTED:
            raise RuntimeError("reference kernel result changed")
        self.starts.append(started)
        self.durations.append(time.perf_counter() - started)

    def _on_signal(self, signum, frame) -> None:
        self.tick()

    def __enter__(self) -> HostClock:
        self.tick()
        self._previous = signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.tick()

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` without the ticks inside, at the reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = end - start - sum(self.durations[lo:hi])
        around = self.durations[max(lo - 1, 0):hi + 1]
        return own * REFERENCE_S / statistics.fmean(around)
