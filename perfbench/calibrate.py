"""A fixed calibration kernel that measures how fast the host runs right now.

On a shared host the speed of a core drifts by tens of percent over seconds
to minutes, and the package slows down with it: identical reports took
0.30-0.64 s within one minute.  ``kernel()`` runs the same mix of work as
the package, small-matrix scipy ``expm`` and numpy products plus Fraction
row reduction, in about 20 ms, and never calls the package.  The benchmark
runs it just before and just after each report, and every INTERVAL_S
during a report from a timer signal (``Sampler``), and states the report's
time, less the kernel's, in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / mean kernel seconds

A change to the package moves the reference seconds as it moves the
measured ones; a change in host speed cancels out.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np
from scipy.linalg import expm  # bound here, so the tracer's patch never sees it

# Median kernel time on the machine that defined the benchmark (2-core
# Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).  Any fixed value
# works; this one keeps reference seconds close to seconds there.
REFERENCE_S = 0.020
INTERVAL_S = 0.25

_MATRICES = [m * 0.3 for m in np.random.default_rng(0).standard_normal((50, 5, 5))]
_FRACTIONS = [Fraction(i % 7 + 1, i % 5 + 2) for i in range(64)]


def _float_part() -> None:
    for _ in range(10):
        for m in _MATRICES:
            e = expm(m)
            e = e @ m
            e += 1.0


def _exact_part() -> None:
    for _ in range(6):
        rows = [[_FRACTIONS[(i * j) % 64] for j in range(8)] for i in range(8)]
        for p in range(8):
            pivot = rows[p][p]
            for r in range(8):
                if r != p:
                    f = rows[r][p] / pivot
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[p])]


def kernel() -> float:
    """Seconds one run of the calibration kernel takes now."""
    start = perf_counter()
    _float_part()
    _exact_part()
    return perf_counter() - start


def to_reference(seconds: float, kernel_s: list[float]) -> float:
    """``seconds`` of work in reference seconds, given the kernel times
    measured around and during that work."""
    return seconds * REFERENCE_S / statistics.fmean(kernel_s)


class Sampler:
    """While active, runs the kernel every INTERVAL_S of wall time from a
    SIGALRM handler, between two bytecodes of whatever is running, and
    keeps its times and the seconds spent in the handler.  The timer is
    re-armed only after a run ends, so runs never nest."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._active = False

    def _tick(self, _signum, _frame) -> None:
        start = perf_counter()
        self.samples.append(kernel())
        self.spent += perf_counter() - start
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
