"""Job timing in quiet-host seconds.

The benchmark host shares its physical cores with other machines' work.  The
same fixed loop runs at 1.0x to 1.9x its best time, in levels that last
seconds and change within a second.  Whole 20-second runs drift by 10-45%
between minutes, so neither longer runs, means, medians nor best-of-N make
raw wall times comparable from one run to the next.

``HostClock`` measures the slowdown while each job runs.  A wall-clock
interval timer interrupts the job every INTERVAL seconds to time a fixed
calibration loop (benchmark code that no library change touches), and one
probe runs just before and just after each job.  The job's quiet-host time
is its wall time, probes excluded, scaled by REFERENCE_PROBE_S over the mean
probe time seen around and during it: the time the job would take with the
host running the calibration loop at its reference speed.  The probes cost
about 4% of a job's wall time and are not counted in it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.005
# Fifth percentile of calibration_loop times over calm 8-second runs on the
# reference host (Intel Xeon, 2 vCPUs, CPython 3.11.7).  It fixes the unit
# only: both sides of any comparison use the same value.
REFERENCE_PROBE_S = 166e-6
_TERMS = [Fraction(k, 7 + k % 5) for k in range(1, 41)]


def calibration_loop():
    """About 0.2 ms of the exact-rational arithmetic the library spends its time on."""
    best = _TERMS[0]
    for a in _TERMS:
        s = a + best
        if s > best:
            best = s - a / 2
    return best


class HostClock:
    """Context manager that runs the probes; ``time`` measures one call."""

    def __init__(self):
        self.probes = []
        self._spent = 0.0  # probe seconds since the current call started

    def _probe(self, *_):
        t0 = time.perf_counter()
        calibration_loop()
        dt = time.perf_counter() - t0
        self.probes.append(dt)
        self._spent += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn):
        """Return (fn(), wall seconds without probes, quiet-host seconds)."""
        self._probe()
        first = len(self.probes) - 1
        self._spent = 0.0
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0 - self._spent
            self._probe()
        factor = statistics.fmean(self.probes[first:]) / REFERENCE_PROBE_S
        return result, wall, wall / factor
