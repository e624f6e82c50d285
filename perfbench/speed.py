"""How fast the machine runs right now, sampled inside the code being timed.

The reference box is a shared VM whose host slows a process down by up to
half, in phases from milliseconds to minutes long.  ``SpeedSampler`` times
a fixed calibration loop from a SIGALRM handler at the start of a timed
section and every SAMPLE_PERIOD_S while it runs, so the loop sees the
speed the section ran at.  The caller subtracts ``spent``, the handler's
own time, from the section's time and scales the rest by a reference loop
time over the mean sample.

This module imports only the standard library, so that a fresh interpreter
can load it before the program at little cost.
"""
from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

SAMPLE_PERIOD_S = 0.025


def calibration_loop():
    """A fixed loop of the work the program does most: Fraction arithmetic
    and small tuples in sets."""
    total, seen = Fraction(0), set()
    for i in range(1, 200):
        total += Fraction(1, i % 97 + 1)
        seen.add(tuple(sorted((i % 7, i % 11, i % 13))))
    return total, seen


class SpeedSampler:
    """``samples`` holds the loop times of the last timed section and
    ``spent`` the seconds the handler took in it."""

    def __init__(self):
        self.armed = False
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if self.armed:
            self.sample()

    def sample(self):
        t0 = perf_counter()
        calibration_loop()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def start(self):
        self.samples, self.spent = [], 0.0
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, 1e-6, SAMPLE_PERIOD_S)

    def stop(self):
        """Ends the section; returns the mean loop time in it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.armed = False
        if not self.samples:  # the section ended before the first signal was handled
            self.sample()
        return sum(self.samples) / len(self.samples)
