"""Machine-speed reference for steady timings on a shared machine.

On a small VM shared with other tenants (2-vCPU x86, Python 3.11), the same
essmod work took from 0.12 s to 0.23 s, in phases lasting tens of seconds.
A fixed reference loop that does not use essmod is therefore timed every
half second while the workload runs, from a timer signal, and each measured
time t is reported as

    t * REFERENCE_MS / median of the reference times measured around it,

that is, in milliseconds at a fixed reference speed. The reference mixes
exact rational arithmetic and small dense complex eigen/singular value
decompositions, the two kinds of work the essmod stacks do. A change to
essmod leaves the reference untouched, so it moves scaled and raw times by
the same factor. The time the reference itself takes inside an operation
is subtracted from that operation.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# The reference loop's time on an unloaded core of the VM above. Only the
# scale of reported times depends on it.
REFERENCE_MS = 10.0
SAMPLE_EVERY_S = 0.5
WINDOW_S = 1.25
MIN_SAMPLES = 3
NEAREST = 5

_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
_H = _M + _M.conj().T


def reference_work():
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(i % 7, i)
    for _ in range(150):
        np.linalg.eigh(_H)
        np.linalg.svd(_M)
    return acc


class SpeedMeter:
    """Reference samples: taken on demand with `sample()`, or every
    SAMPLE_EVERY_S seconds inside a `with meter:` block."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ref_ms: list[float] = []
        self._previous = None
        self._busy = False

    def sample(self, count: int = 1):
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        try:
            self._sample(count)
        finally:
            self._busy = False

    def _sample(self, count: int):
        for _ in range(count):
            t0 = perf_counter()
            reference_work()
            t1 = perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
            self.ref_ms.append((t1 - t0) * 1000.0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def busy_s(self, t0: float, t1: float) -> float:
        """Time spent sampling between t0 and t1."""
        i = bisect.bisect_left(self.ends, t0)
        total = 0.0
        while i < len(self.starts) and self.starts[i] < t1:
            total += min(self.ends[i], t1) - max(self.starts[i], t0)
            i += 1
        return total

    def scaled_ms(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] without sampling time, at reference speed:
        scaled by the median sample within WINDOW_S of it (or, with fewer
        than MIN_SAMPLES there, of the NEAREST samples)."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        around = self.ref_ms[lo:hi]
        if len(around) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            order = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - mid))
            around = [self.ref_ms[i] for i in order[:NEAREST]]
        return (t1 - t0 - self.busy_s(t0, t1)) * 1000.0 * REFERENCE_MS / statistics.median(around)

    def scale(self) -> float:
        """REFERENCE_MS over the median of all samples."""
        return REFERENCE_MS / statistics.median(self.ref_ms)
