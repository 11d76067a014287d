"""Machine-speed calibration with a fixed reference kernel.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes, whatever the benchmark does.  While a run measures, an
interval timer interrupts it every PROBE_INTERVAL_S and the signal handler
times one unit of a fixed kernel.  The mean unit time over a phase of the
run says how fast the machine was during that phase; reported times are
scaled by REFERENCE_UNIT_S / (mean unit time), i.e. to a machine on which
one unit takes REFERENCE_UNIT_S.  The time spent in the handler is
subtracted from every measured interval.

The probe runs inside the package's process, so it is kept apart from the
package's state: the kernel is rational elimination written here on
(numerator, denominator) pairs, with no Fraction and no code shared with the
package (the interpreter's specialised bytecode of shared functions follows
whoever calls them most), and the handler runs it once untimed before the
timed unit, so the caches the package left cold are warm again.  The
garbage collector is off inside the handler.  With these, the unit time
measured during package jobs matches the one measured during unrelated work
within a few percent (README.md, "Timing").
"""

from __future__ import annotations

import gc
import signal
import time
from math import gcd

REFERENCE_UNIT_S = 0.00027  # a typical unit on a shared 2.1 GHz Xeon core, Python 3.11
PROBE_INTERVAL_S = 0.025
PRIOR_SAMPLES = 20  # pseudo-samples of the pooled speed in each interval's estimate

_N = 10
_HILBERT = [[(1, i + j + 1) for j in range(_N)] for i in range(_N)]


def reference_unit() -> tuple[int, int]:
    """One unit of reference work: elimination of the 10x10 Hilbert matrix; the last pivot.

    Rationals are (numerator, denominator) pairs reduced by gcd: interpreted
    arithmetic on small objects, as in the package, but in code of its own.
    """
    m = [row[:] for row in _HILBERT]
    for col in range(_N):
        pp, pq = m[col][col]
        pivot_row = m[col]
        for r in range(col + 1, _N):
            ap, aq = m[r][col]
            fp, fq = ap * pq, aq * pp  # row r minus (fp / fq) times the pivot row
            reduced = []
            for (xp, xq), (yp, yq) in zip(m[r], pivot_row):
                num, den = xp * fq * yq - fp * yp * xq, xq * fq * yq
                g = gcd(num, den)
                reduced.append((num // g, den // g))
            m[r] = reduced
    return m[_N - 1][_N - 1]


class Speedometer:
    """Samples the reference kernel from a SIGALRM handler while it is running.

    Sampling runs between start() and stop() (or inside a with block).
    clock() is a perf_counter that excludes the time spent in the handler;
    mark() taken around a measured interval lets calibrate() scale it by the
    samples that fell inside it, and factor() gives one scale for a phase.
    """

    def __init__(self):
        self.units = 0
        self.unit_seconds = 0.0   # kernel time, summed over samples
        self.handler_seconds = 0.0  # whole handler time, kernel and bookkeeping
        self._running = False
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
            self._running = False

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # a collection of the package's heap is not machine speed
        try:
            reference_unit()  # warm-up: the package has just evicted the kernel
            t0 = time.perf_counter()
            reference_unit()
            self.unit_seconds += time.perf_counter() - t0
            self.units += 1
        finally:
            if enabled:
                gc.enable()
            self.handler_seconds += time.perf_counter() - entered

    def clock(self) -> float:
        """perf_counter minus the time spent sampling so far."""
        return time.perf_counter() - self.handler_seconds

    def mark(self) -> tuple[int, float]:
        return self.units, self.unit_seconds

    @staticmethod
    def factor(start: tuple[int, float], end: tuple[int, float]) -> float:
        """Scale from measured to reference-speed seconds for the phase between marks."""
        return REFERENCE_UNIT_S * (end[0] - start[0]) / (end[1] - start[1])

    @staticmethod
    def calibrate(intervals) -> list[float]:
        """Reference-speed seconds for each (seconds, start mark, end mark) interval.

        An interval's speed is the mean unit time of the samples inside it,
        shrunk toward the mean over all the intervals by PRIOR_SAMPLES
        pseudo-samples, so a short interval with one sample or none gets
        about the pooled speed and a long one its own.
        """
        units = sum(end[0] - start[0] for _, start, end in intervals)
        pooled = sum(end[1] - start[1] for _, start, end in intervals) / units
        out = []
        for seconds, start, end in intervals:
            unit = (end[1] - start[1] + PRIOR_SAMPLES * pooled) / (
                end[0] - start[0] + PRIOR_SAMPLES)
            out.append(seconds * REFERENCE_UNIT_S / unit)
        return out
