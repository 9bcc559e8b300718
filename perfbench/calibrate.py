"""Machine-speed calibration for end-to-end timings on a shared host.

On a small shared box the speed a process gets drifts by tens of percent
over minutes, with the load of other tenants.  Untraced runs therefore time a
fixed pure-Python kernel, unrelated to straus, on a 0.1 s interval timer
throughout the measured passes.  Each kernel run interrupts the pass between
two bytecodes and is taken out of the pass's time by `work_clock`.  The run's
timings are then scaled by REF_KERNEL_S / (median kernel time): they read as
seconds on a machine where the kernel takes REF_KERNEL_S, and a slow or fast
stretch of the host moves the kernel and the pass together.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.1
KERNEL_N = 100_000
# Median kernel time on the box the benchmark was tuned on (2 vCPU,
# Python 3.11.7).  Any constant gives the same comparisons between commits;
# this one keeps the scaled figures close to that box's seconds.
REF_KERNEL_S = 0.0105

_spent = 0.0  # seconds spent in kernel runs so far


def work_clock() -> float:
    """perf_counter() minus the time spent in calibration kernels."""
    return perf_counter() - _spent


def _kernel() -> int:
    s = 0
    for i in range(KERNEL_N):
        s += i * i % 7
    return s


class Calibration:
    """While entered, runs the kernel every PERIOD_S seconds of wall time."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        global _spent
        start = perf_counter()
        _kernel()
        seconds = perf_counter() - start
        self.samples.append(seconds)
        _spent += seconds

    def __enter__(self) -> "Calibration":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference seconds."""
        if not self.samples:  # every pass ended before the first tick
            for _ in range(5):
                self._tick(None, None)
        return REF_KERNEL_S / statistics.median(self.samples)
