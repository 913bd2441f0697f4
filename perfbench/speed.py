"""Host-speed probe: latencies reported at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose throughput drifts by
tens of percent over seconds and minutes.  Process CPU time drifts with wall
time, so this is not time stolen from the process but slower execution.  A
pass therefore runs a short fixed kernel of this file's own code every
``PROBE_EVERY_S`` seconds, from a timer signal, so also in the middle of a
long operation.  An operation's latency is its measured time less the probes
that ran inside it, scaled by the median probe time around it:

    latency at reference speed = (measured - probes inside) * REFERENCE_PROBE_S / local probe

A change to the package moves its operations and not the probe, so it moves
the normalised latency; a host that slows everything moves both and cancels.
The measured latencies and the probe times are kept in the run record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

# A round constant near the probe time on a 2-vCPU x86-64 virtual machine
# (CPython 3.11.7: 0.8-1.4 ms as its host drifts), so that values read in
# milliseconds; the normalised numbers compare only with each other.
REFERENCE_PROBE_S = 0.0010
# Interval of the probe timer.
PROBE_EVERY_S = 0.05
# An operation's speed is the median probe from this long before it starts
# to this long after it ends.
WINDOW_S = 0.5


def _kernel():
    """Small-int arithmetic, Fraction arithmetic and set and dict churn, the
    package's own mix."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    x = Fraction(1, 3)
    for i in range(1, 60):
        x = (x * Fraction(i, i + 1) + Fraction(1, i)) / 2
    seen, counts = set(), {}
    for i in range(400):
        seen ^= {i * 7 % 61, i * 13 % 67}
        counts[i % 37] = counts.get(i % 37, 0) + len(seen)
    return total, x, counts


def probe() -> tuple[float, float]:
    """(start, seconds) of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return start, time.perf_counter() - start


class Probes:
    """Probe times of one pass, in the order they were taken."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []
        self._busy = False

    def take(self, *_signal_args) -> None:
        if self._busy:  # a signal that arrives during a probe is dropped
            return
        self._busy = True
        try:
            start, seconds = probe()
            self.at.append(start)
            self.seconds.append(seconds)
        finally:
            self._busy = False

    def inside(self, start: float, end: float) -> float:
        """Seconds of probing that started between ``start`` and ``end``."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        return sum(self.seconds[lo:hi])

    def local(self, start: float, end: float) -> float:
        """Median probe from ``WINDOW_S`` before ``start`` to ``WINDOW_S``
        after ``end``; the nearest probe if none is that close."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo < hi:
            return statistics.median(self.seconds[lo:hi])
        nearest = min(range(len(self.at)), key=lambda i: abs(self.at[i] - start))
        return self.seconds[nearest]

    def normalise(self, start: float, elapsed: float) -> tuple[float, float]:
        """(measured less probing, the same at reference speed) of an
        operation that started at ``start`` and took ``elapsed``."""
        own = elapsed - self.inside(start, start + elapsed)
        return own, own * REFERENCE_PROBE_S / self.local(start, start + elapsed)


@contextmanager
def timer(probes: Probes):
    """``probes.take`` every ``PROBE_EVERY_S`` seconds while in the block."""
    saved = signal.signal(signal.SIGALRM, probes.take)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        yield probes
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, saved)


def normalised_setup(set_up) -> tuple[float, float, float]:
    """(measured seconds, seconds at reference speed, median probe) of
    ``set_up()`` in a fresh interpreter, with probes taken before and after
    it; the first two warm the kernel up and are dropped."""
    before = [probe()[1] for _ in range(10)][2:]
    start = time.perf_counter()
    set_up()
    measured = time.perf_counter() - start
    after = [probe()[1] for _ in range(8)]
    local = statistics.median(before + after)
    return measured, measured * REFERENCE_PROBE_S / local, local
