"""Machine-speed sampling for benchmark passes.

On a shared machine the CPU speed drifts by up to ~2x within a minute as
neighbours load it, and a pass slows with it.  A `Sampler` runs a fixed loop
of stdlib `Fraction` arithmetic (no narayana code) in the pass process: once
at the start, every INTERVAL_S of wall time from a SIGALRM handler, and once
at the end.  Its clock leaves the calibration time out, and the pass scales
its times by REFERENCE_S / mean(calibration time), which gives seconds at
the reference speed.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# calibration_s() on an idle 2-vCPU Intel Xeon VM under CPython 3.11.7
REFERENCE_S = 0.007
INTERVAL_S = 0.15


def calibration_s():
    t0 = perf_counter()
    acc, x = Fraction(0), Fraction(3, 7)
    for i in range(1, 1500):
        acc = acc * x + Fraction(i, i + 1)
        if acc.denominator > 10**30:
            acc = Fraction(acc.numerator % 1000, 7)
    return perf_counter() - t0


class Sampler:
    """Context manager that samples the machine's speed while work runs."""

    def __init__(self):
        self.pauses = 0  # calibrations run
        self.paused = 0.0  # seconds they took
        self._busy = False

    def clock(self):
        """perf_counter() without the time spent calibrating."""
        return perf_counter() - self.paused

    def sample(self, *_signal_args):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        calibration_s()
        t1 = perf_counter()
        self.pauses += 1
        self.paused += t1 - t0
        self._busy = False

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return False

    def speed(self):
        """Machine speed relative to the reference, over the sampled span."""
        return REFERENCE_S * self.pauses / self.paused

