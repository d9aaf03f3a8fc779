"""Interpreter-speed probe used to normalise measured times.

On a shared 2-core Xeon virtual machine the speed of a single-threaded
Python process was seen to switch between levels about 1.6x apart on a
0.1-1 s scale, which swamps the differences a benchmark must resolve.  The
probe is a fixed pure-Python kernel (integer arithmetic, list indexing, dict
updates, big-integer products: the kinds of work the library spends its
time on).  A timer runs it every INTERVAL_S in the measured process itself,
also inside long library calls, and the time it takes is kept off the
measurement clock.  A span of work is then reported as its duration times
REFERENCE_S over the mean probe time near it: seconds of an interpreter on
which the probe takes REFERENCE_S.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.0003
INTERVAL_S = 0.02     # one probe per this much wall time (about 1.5% of it)
WINDOW_S = 0.05       # probes this close to a span set the speed it ran at
_TABLE = list(range(1024))
_MOD = 7**300


def kernel() -> int:
    counts: dict[int, int] = {}
    acc, big = 1, 3**200
    for i in range(500):
        acc = (acc * 31 + _TABLE[i & 1023]) % 1000003
        key = (i & 255) * 8 + (acc & 7)
        counts[key] = counts.get(key, 0) + 1
        if i & 15 == 0:
            big = big * big % _MOD
    return acc + len(counts) + big % 7


class SpeedProbe:
    """Timer-driven probes and the clock that excludes them.

    Python runs signal handlers in the main thread between bytecodes, so a
    probe interrupts pure-Python library code at once.  ``clock`` stands
    still while a probe runs; read every start and end with it.
    """

    def __init__(self):
        self.at: list[float] = []     # probe times on ``clock``
        self.took: list[float] = []   # probe durations, seconds
        self._hidden = 0.0

    def clock(self) -> float:
        return perf_counter() - self._hidden

    def _probe(self, _signum=None, _frame=None):
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        self.at.append(start - self._hidden)
        self.took.append(took)
        self._hidden += took

    def start(self):
        kernel()  # warm the kernel's code before its first measurement
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._probe()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def scale_now(self, seconds: float = 0.1) -> float:
        """Factor from probes run back to back for ``seconds``, right now."""
        kernel()
        took, stop = [], perf_counter() + seconds
        while perf_counter() < stop:
            start = perf_counter()
            kernel()
            took.append(perf_counter() - start)
        return REFERENCE_S / statistics.fmean(took)

    def scale(self, start: float, end: float) -> float:
        """Factor turning a clock span into reference seconds."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:   # no probe that close: take the nearest one
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.fmean(self.took[lo:hi])
