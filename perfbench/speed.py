"""The machine's speed, sampled while the benchmark runs.

A shared machine changes speed by a fifth over tens of seconds and by more
over milliseconds, in CPU time as much as in wall time, so raw timings of
the same work differ from run to run by more than any useful bound.  A timer
signal therefore runs a small fixed kernel every PERIOD_S, between two
bytecodes of whatever the process is doing, and records how long the kernel
took.  A stretch of work is reported in reference seconds: its wall time,
less the time spent in the signal handler, times REF_KERNEL_S over the mean
kernel time sampled during the stretch and WINDOW_S either side.  On a
machine that runs the kernel in REF_KERNEL_S, reference seconds are wall
seconds.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

REF_KERNEL_S = 0.0006  # about the kernel's median on the 2-core x86-64 seed machine
PERIOD_S = 0.025
WINDOW_S = 0.5


def kernel() -> int:
    """Allocate, hash and free tuples and strings, like the library's builds.

    The table stays small, so sampling adds next to nothing to the peak
    resident memory of the process.
    """
    table = {}
    for i in range(1000):
        key = ("c", i % 250, f"x{i % 250}")
        table[key] = (key, i)
    return len(table)


class Sampler:
    """Times the kernel from SIGALRM; install once per process."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0  # time spent in the handler, for timings to subtract

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _sample(self, signum, frame):
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not machine speed
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.at.append(start)
        self.took.append(took)
        self.spent += time.perf_counter() - entered

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        return REF_KERNEL_S / statistics.fmean(self.took[lo:hi])

    def settle(self):
        """Wait until the samples cover WINDOW_S after now."""
        end = time.perf_counter() + WINDOW_S
        while time.perf_counter() < end:
            time.sleep(PERIOD_S)
