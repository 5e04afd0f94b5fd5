"""Rescale check times by the machine's speed, sampled while they run.

On a shared machine the same exact-arithmetic work can take up to twice as
long from one second to the next, because other tenants take the CPU. A
median over one run then depends on how much of the run fell in slow
stretches, and two runs of the same code differ by more than any useful
bound. So every INTERVAL_S an interval timer runs a fixed probe (exact
`Fraction` sums, the kind of work the program does) and records how long it
took. A check's time is multiplied by the mean of REFERENCE_PROBE_S over
the probe times around it, so it reads as the check's time on a machine
where the probe takes REFERENCE_PROBE_S. A probe that was held up counts
as a stretch of no progress, for the check as for the probe. Probe time
that falls inside a check is subtracted from it first.

The probe runs in the benchmark's own process, from a signal handler: no
thread or other process is started.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
WINDOW_S = 0.25  # probes this close to a check describe its speed
REFERENCE_PROBE_S = 2e-4


def _probe_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(1, i)
    return total


class SpeedProbe:
    """Context manager that samples the probe time every INTERVAL_S."""

    def __init__(self):
        self._ends: list[float] = []
        self._durations: list[float] = []
        self.busy = 0.0  # total probe time so far

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        _probe_work()
        t1 = perf_counter()
        self._ends.append(t1)
        self._durations.append(t1 - t0)
        self.busy += t1 - t0

    def scale(self, start: float, end: float) -> float:
        """Mean of REFERENCE_PROBE_S over each probe time near [start, end]."""
        lo = bisect_left(self._ends, start - WINDOW_S)
        hi = bisect_right(self._ends, end + WINDOW_S)
        near = self._durations[lo:hi] or self._durations[-9:]
        if not near:
            raise RuntimeError("no speed probe has run yet")
        return statistics.fmean(REFERENCE_PROBE_S / d for d in near)
