"""Speed sampler: tracks how fast the machine runs while the benchmark runs.

The shared 2-core box the benchmark was tuned on changes speed all the
time: a fixed loop's time has a coefficient of variation of about 0.2, its
autocorrelation falls to 0.4 within 75 ms and to 0.2 within 150 ms, and
slow phases of up to 1.7 times can cover a whole run. There is almost no
CPU steal, and process CPU time slows down as much as wall time, so neither
waiting nor a CPU-time clock gets rid of it. The benchmark measures the
speed instead, during the work it times.

``Sampler`` arms an interval timer. Every ``INTERVAL_S`` the signal handler
runs ``probe()``, a fixed loop of about 0.7 ms, between two bytecodes of
whatever the main thread is doing, and records when it started and how long
it took. A timed window's busy time is its wall time minus the probes that
ran inside it; its speed factor is ``NOMINAL_PROBE_S`` over the mean probe
time in the window (the nearest ``MIN_PROBES`` probes when fewer ran inside
it). Busy time times speed factor is the window's time at the reference
speed.

The probe does the kinds of work medcover's hot paths do, and nothing from
medcover itself, so a change to the library never changes the yardstick:
interpreted float and dict work, exact ``Fraction`` sums like the means
block cost, and small-array numpy updates like a Weiszfeld step.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# Time of one probe() on a quiet 2-core Xeon box, Python 3.11 and numpy 2.4.
# Scaled times read as seconds on a machine that runs the probe this fast.
NOMINAL_PROBE_S = 0.0007
INTERVAL_S = 0.02
MIN_PROBES = 5

_POINTS = np.array([[i % 3, i % 5, i % 7, i % 2] for i in range(9)], dtype=float)
_INT_POINTS = [[i % 3, i % 5, i % 7, i % 2] for i in range(9)]


def probe() -> None:
    acc = 0.0
    total = Fraction(0)
    counts: dict[tuple[int, int], int] = {}
    for i in range(1, 120):
        p = (i * 0.5, i * 0.25, 1.0 / i)
        acc += math.dist(p, (0.0, 1.0, 2.0)) + math.sqrt(i)
        total += Fraction(i, 7)
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + 1
    y = _POINTS.mean(axis=0)
    for _ in range(15):
        w = 1.0 / np.maximum(np.linalg.norm(_POINTS - y, axis=1), 1e-9)
        y = (_POINTS * w[:, None]).sum(axis=0) / w.sum()
    mean = [Fraction(sum(p[d] for p in _INT_POINTS), len(_INT_POINTS)) for d in range(4)]
    sum((Fraction(p[d]) - mean[d]) ** 2 for p in _INT_POINTS for d in range(4))


class Sampler:
    """Runs probe() from SIGALRM every INTERVAL_S between start() and stop()."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t = time.perf_counter()
        probe()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(busy seconds, speed factor) of the window [t0, t1); call after stop()."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = (t1 - t0) - sum(self.durations[lo:hi])
        mid = (t0 + t1) / 2
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            earlier_is_nearer = lo > 0 and (
                hi == len(self.starts) or mid - self.starts[lo - 1] < self.starts[hi] - mid
            )
            if earlier_is_nearer:
                lo -= 1
            else:
                hi += 1
        return busy, NOMINAL_PROBE_S / statistics.fmean(self.durations[lo:hi])
