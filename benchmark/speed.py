"""Machine-speed calibration of the end-to-end times.

The benchmark shares a few CPUs with other tenants, whose load makes the
same code run up to ~1.5x slower for spells of a fraction of a second to
minutes: a 25-second run's raw times then depend more on when it ran than
on the code.  A run therefore times a fixed calibration unit every
``SPACING_S`` seconds, from a timer signal, so that units fall inside
operations as well as between them.  The time spent in units is taken out
of the operation it interrupted, and each operation's times are scaled by
its speed factor: ``REFERENCE_UNIT_S`` times the mean speed (1 / unit
time) of the units nearest to it in time, at least ``LOCAL_UNITS`` of
them and for a long operation those inside it.  The mean of speeds, not
their median, is what an operation experiences when the machine switches
between a fast and a slow state while it runs.  The end-to-end times then
read as seconds on a machine where one unit takes ``REFERENCE_UNIT_S``.

The unit is the kind of work the library does (interpreted loops, complex
and ``Fraction`` arithmetic, small numpy calls) but runs no library code:
a change to the library moves the operations and not the units, so it
moves a scaled time by the same share as the raw time.  The raw times and
the factors are printed beside the scaled ones.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# seconds one unit takes at the reference speed: about its median on the
# 2-vCPU machine of the baselines in README.md
REFERENCE_UNIT_S = 0.0023
SPACING_S = 0.1
LOCAL_UNITS = 8

_LOOP = 8_000
_COMPLEX = 1_600
_FRACTIONS = 60
_NUMPY = 48
_MATRIX = np.array([[2.0, 0.5, 0.1, 0.0],
                    [0.5, 1.5, 0.2, 0.1],
                    [0.1, 0.2, 1.2, 0.3],
                    [0.0, 0.1, 0.3, 1.1]])


def unit() -> float:
    """One calibration unit; returns a value so no step can be skipped."""
    total = 0
    for i in range(_LOOP):
        total += i * i % 7
    z = complex(0.3, 0.2)
    for _ in range(_COMPLEX):
        z = z * z * 0.5 + 0.1j
    x = Fraction(0)
    for i in range(_FRACTIONS):
        x += Fraction(i + 2, i + 3) * Fraction(1, 7) - Fraction(i, 11)
    det = 0.0
    for _ in range(_NUMPY):
        det += float(np.linalg.det(_MATRIX @ _MATRIX.T))
    return total + abs(z) + float(x) + det


class Speed:
    """Calibration units timed over a run, and the scale factors they give.

    ``spent`` and ``cpu_spent`` are the wall and CPU time spent in units
    so far: an operation subtracts their growth from its own times.
    """

    def __init__(self) -> None:
        self.units: list[float] = []
        self.stamps: list[float] = []
        self.spent = 0.0
        self.cpu_spent = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            cpu = time.process_time()
            start = time.perf_counter()
            unit()
            end = time.perf_counter()
            self.units.append(end - start)
            self.stamps.append(0.5 * (start + end))
            self.spent += time.perf_counter() - start
            self.cpu_spent += time.process_time() - cpu

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Speed":
        """Sample every SPACING_S seconds of wall time until exit."""
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SPACING_S, SPACING_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Reference speed over the median speed of all units: for units
        run in bursts between short intervals, where the median is the
        steadier estimate."""
        return REFERENCE_UNIT_S / statistics.median(self.units)

    def factors(self, starts: list[float],
                durations: list[float]) -> list[float]:
        """Reference speed over measured speed near each interval: the
        interval's times are multiplied by it.  The speed is the mean of
        1 / unit time over the units nearest the interval's midpoint, half
        before and half after it where the run has them: LOCAL_UNITS, or
        as many as fall inside the interval if that is more."""
        out = []
        for start, duration in zip(starts, durations):
            half = max(LOCAL_UNITS // 2, round(0.5 * duration / SPACING_S))
            j = bisect.bisect(self.stamps, start + 0.5 * duration)
            hi = min(len(self.units), max(j + half, 2 * half))
            lo = max(0, hi - 2 * half)
            window = self.units[lo:hi]
            out.append(REFERENCE_UNIT_S * sum(1.0 / u for u in window)
                       / len(window))
        return out
