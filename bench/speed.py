"""Machine-speed correction for timings taken on a shared, drifting host.

On a shared host the same work can take 60 % longer from one minute to the
next, so raw wall times of one program version vary more between runs than
the bounds a regression gate can use.  A :class:`Speedometer` samples the
machine's current speed while the program runs: SIGALRM interrupts the main
thread every ``interval`` seconds and the handler times a fixed yardstick.
The yardstick is the benchmark's own code, a mix of interpreted integer
arithmetic and small numpy operations like the library's, so no change to
the library can move it.

A timing is corrected to the reference speed at which the yardstick takes
``REFERENCE_S``: ``corrected = raw * REFERENCE_S / mean(yardstick times)``.
Handler time is subtracted from the raw timing first.  No thread or process
is started.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# mean yardstick time, sampled inside tasks, on a shared 2-core x86-64 VM
# in its usual state; it only sets the scale of corrected figures
REFERENCE_S = 0.0010
_MASK = (1 << 64) - 1


def yardstick() -> int:
    x, acc = 0x9E3779B97F4A7C15, 0
    for _ in range(3000):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        acc ^= (x & (x >> 7)).bit_count()
    a = np.arange(1024, dtype=np.uint64)
    for _ in range(20):
        a ^= a >> np.uint64(1)
        acc += int(np.bitwise_count(a).sum())
    return acc


class Speedometer:
    """Yardstick samples taken on a timer, and the time they took."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.stolen = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        yardstick()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.stolen += dt

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def timed(self, fn, *args):
        """``(result, seconds without handler time, yardstick samples taken)``."""
        n0, s0 = len(self.samples), self.stolen
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0 - (self.stolen - s0)
        return result, dt, self.samples[n0:]


def correct(seconds: float, samples: list[float]) -> float:
    """``seconds`` at the reference speed, given the yardstick samples taken meanwhile.

    With no sample (a span shorter than the interval) it stays uncorrected.
    """
    return seconds * REFERENCE_S / statistics.fmean(samples) if samples else seconds
