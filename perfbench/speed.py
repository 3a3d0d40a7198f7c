"""Machine-speed reference for the end-to-end timings.

The benchmark runs on shared machines where the same pure-Python work can
take 40% more or less time from one second to the next, so raw wall times
of two runs of the same code can differ by more than any useful bound.
While a timed pass runs, a Sampler interrupts the process every INTERVAL_S
seconds (SIGALRM) and times reference_loop(), a fixed pure-Python loop
that allocates no tracked objects.  A request's wall time, less the time
spent in those interruptions, is then multiplied by
NOMINAL_S / (mean reference time within WINDOW_S of the request):
the wall time the request would have taken had the machine run the
reference loop in NOMINAL_S.  The reference loop does not touch knotforge,
so only a change to knotforge moves the rescaled times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

REFERENCE_ITERATIONS = 12_000
NOMINAL_S = 0.002  # about the loop's median on the 2-vCPU Xeon VM of the baseline
INTERVAL_S = 0.05
WINDOW_S = 0.25


def reference_loop() -> None:
    table: dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        k = i & 1023
        table[k] = table.get(k, 0) + i


def time_reference(repeats: int) -> float:
    """Mean seconds of `repeats` reference loops, run now."""
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        reference_loop()
        samples.append(perf_counter() - start)
    return statistics.fmean(samples)


class Sampler:
    """Times the reference loop on a timer while the `with` block runs."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0  # seconds spent in reference loops so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_loop()
        end = perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(end - start)
        self.spent += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean reference time within WINDOW_S of [start, end].
        The mean, not the median: a request's time integrates the machine's
        speed over its span, slow bursts included."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:  # no sample near: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.at), lo + 1)
        return NOMINAL_S / statistics.fmean(self.took[lo:hi])
