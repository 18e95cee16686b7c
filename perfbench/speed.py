"""Correct wall times for the momentary speed of a shared machine.

On a few cores of a shared host the same code runs up to 1.5x slower from
one minute to the next, as other tenants come and go; the fastest of a few
repeats does not remove that.  So the benchmark times a fixed probe block
(see ``probe_block``) between rows, and scales each row's wall time by the
ratio of the probe's reference time to its median time around that row:

    corrected = wall * PROBE_REF_S / median(probe times within WINDOW_S of the row)

The probe is the benchmark's own code, so a change to voilab moves the row
times but not the probe.  ``PROBE_REF_S`` is a fixed constant: the probe's
fastest time on an idle core of the 2-core x86-64 machine the benchmark was
defined on, so corrected times read roughly as that machine's uncontended
wall times.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

PROBE_REF_S = 1.8e-3
PROBE_BLOCKS = 2   # probe blocks timed at each gap between rows
WINDOW_S = 1.0     # probes this close to a row's start or end set its speed
PROBE_TOL = 1e-11

_SMALL = np.linspace(0.0, 1.0, 64)


def _simpson(f, a, b, fa, fm, fb, whole, tol):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return _simpson(f, a, m, fa, flm, fm, left, 0.5 * tol) + _simpson(f, m, b, fm, frm, fb, right, 0.5 * tol)


def probe_block() -> float:
    """Wall time of one run of the fixed probe code.

    The probe mixes the kinds of work voilab does: an integer loop, a
    recursive adaptive Simpson rule over a Python integrand, and numpy
    calls on a small array.
    """
    start = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i % 7
    f = lambda x: math.exp(-x) * math.sin(3.0 * x)  # noqa: E731
    fa, fm, fb = f(0.0), f(3.0), f(6.0)
    _simpson(f, 0.0, 6.0, fa, fm, fb, (fa + 4.0 * fm + fb), PROBE_TOL)
    for _ in range(75):
        np.cumsum(_SMALL)
        np.maximum(_SMALL, 0.5).sum()
    return time.perf_counter() - start


class SpeedLog:
    """Probe times of one run, with the time each was taken."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self, blocks: int = PROBE_BLOCKS) -> None:
        for _ in range(blocks):
            at = time.perf_counter()
            self.took.append(probe_block())
            self.at.append(at)

    def scale(self, start: float, seconds: float) -> float:
        """Factor that turns a wall time measured from ``start`` into reference seconds."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, start + seconds + WINDOW_S)
        near = self.took[lo:hi] or self.took
        return PROBE_REF_S / statistics.median(near)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.took)
