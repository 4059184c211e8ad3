"""Scale wall time to a reference CPU speed with an interleaved probe.

On a shared virtual machine the speed of a vCPU swings by tens of percent
within seconds, and the swings of the two vCPUs are uncorrelated, so a pass
that happens to run in a slow stretch reads much slower.  ``SpeedProbe``
interrupts the pass every ``INTERVAL_S`` seconds of wall time (SIGALRM) and
times a fixed pure-Python snippet.  The snippet's duration at those moments
gives the machine's speed over any interval; ``scaled`` converts a wall
interval, minus the probe's own time, into seconds at the speed where the
snippet takes ``REFERENCE_S``.  Work that runs at a constant speed keeps its
wall time unchanged when the machine is at the reference speed.

The snippet does what coxnorm spends its time on: arithmetic in Q(sqrt 5)
on small Python objects with ``Fraction`` parts.  A snippet of dict and
integer operations tracked the library's slowdowns several times worse.  The
snippet is frozen here, independent of the library, so that it measures the
machine and not the code under test.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
REFERENCE_S = 4e-4
MIN_SAMPLES = 10


class _Pair:
    """a + b*sqrt(5)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, other):
        return _Pair(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        return _Pair(self.a * other.a + 5 * self.b * other.b,
                     self.a * other.b + self.b * other.a)


def _snippet():
    x = _Pair(Fraction(1, 2), Fraction(1, 3))
    y = _Pair(1, 1)
    total = _Pair(0, 0)
    for _ in range(15):
        total = total + x * y
    return total


class SpeedProbe:
    def __init__(self):
        self.starts = []     # perf_counter at each probe's start
        self.durations = []  # the probe's duration

    def _sample(self, signum, frame):
        # A collection the snippet's allocations would trigger is left to the
        # pass, so the probe times the snippet alone.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _snippet()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.durations.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, start, end):
        """Reference-speed seconds of the wall interval [start, end].

        The speed is taken from the probes inside the interval or, when it
        holds fewer than ``MIN_SAMPLES``, from the ``MIN_SAMPLES`` probes
        nearest its middle.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        probe_time = sum(self.durations[lo:hi])
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        sample = self.durations[lo:hi]
        if not sample:
            return end - start
        speed = statistics.fmean(REFERENCE_S / d for d in sample)
        return (end - start - probe_time) * speed
