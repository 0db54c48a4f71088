"""Machine-speed samples, for timings that do not move with the neighbours.

The benchmark host is shared: a neighbour on the same physical core slows
every instruction of this process by up to about 1.7 times, in spells of a
few hundred milliseconds to many seconds, and it is invisible to CPU-time
and steal counters.  Runs taken in different spells then differ by more
than any useful regression bound.

`SpeedMeter` measures the spell directly: it times a fixed pure-Python
reference loop (exact fractions and small integer matrix products, the
work rk does) and expresses the time as a factor of REFERENCE_S, the
loop's time on this host with the core to itself.  The loop runs between
ops, and, while `running()` is active, every SAMPLE_INTERVAL_S from a
SIGALRM handler inside long ops; the handler's time is counted and taken
out of the op's latency.  An op's adjusted latency is its latency divided
by the mean factor of the samples around and inside it: the time it would
take at the reference speed.  Raw latencies are reported next to it.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter
from typing import List

REFERENCE_S = 3.0e-4
SAMPLE_INTERVAL_S = 0.02


def reference_loop():
    acc = Fraction(0)
    for i in range(1, 30):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
    m = tuple(tuple((i * 7 + j * 3) % 5 for j in range(5)) for i in range(5))
    for _ in range(6):
        m = tuple(tuple(sum(a * b for a, b in zip(row, col)) % 11
                        for col in zip(*m)) for row in m)
    return acc, m


class SpeedMeter:
    """Speed factors of one process (1.0 = reference speed, higher = slower)."""

    def __init__(self):
        self.factors: List[float] = []
        self.sampling_s = 0.0      # time spent inside all samples so far
        self._busy = False

    def sample(self) -> None:
        self._busy = True
        try:
            start = perf_counter()
            reference_loop()
            took = perf_counter() - start
        finally:
            self._busy = False
        self.factors.append(took / REFERENCE_S)
        self.sampling_s += took

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self.sample()

    @contextmanager
    def running(self):
        """Sample every SAMPLE_INTERVAL_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mean(self, first: int, last: int) -> float:
        """Mean factor of samples first..last inclusive."""
        window = self.factors[first:last + 1]
        return sum(window) / len(window)
