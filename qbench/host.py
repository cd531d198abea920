"""Host speed, sampled while the engine runs.

The benchmark host is shared, and its speed changes by tens of percent within
seconds, in CPU time as much as in wall time.  A reference kernel timed only
between jobs misses most of that, so `HostProbe` interrupts the running job
every `PERIOD` seconds (SIGALRM) to time one fixed unit of engine-shaped work.
The mean of those samples is the host's speed over the job, weighted by wall
time; the time the samples take is subtracted from the job's.  The kernel is
a frozen copy of the engine's inner loop and never calls the engine, so a
change to the engine moves the normalized time exactly as it moves the wall
time.
"""

from __future__ import annotations

import random
import signal
import time
from math import gcd

PERIOD = 0.05

# The reference host: one `ref_kernel` sample takes this long on it (the
# median sample on a shared 2-vCPU Intel Xeon host under CPython 3.11 was
# 2.5-3.0 ms).  Host-normalized times are reported as seconds on that host.
NOMINAL_SAMPLE_S = 0.0025


def _term_map(rng, size):
    """Exponent 4-tuples to coefficient 5-tuples (a, b, c, d, den), as in qmorse."""
    return [
        (
            (rng.randrange(12), rng.randrange(12), rng.randrange(6), rng.randrange(8)),
            (rng.randrange(-10**12, 10**12), rng.randrange(-10**6, 10**6), 0, 0, rng.randrange(1, 1000)),
        )
        for _ in range(size)
    ]


_RNG = random.Random(0)
REF_A = _term_map(_RNG, 40)
REF_POOL = _term_map(_RNG, 6000)
WINDOW = 40


def _coeff(a, b, den):
    g = gcd(gcd(den, a), b)
    return (a // g, b // g, 0, 0, den // g) if g > 1 else (a, b, 0, 0, den)


def ref_kernel(offset: int):
    """Sparse product of REF_A with the WINDOW terms of REF_POOL at `offset`,
    with exact, gcd-normalized coefficients: 1600 term pairs, a few ms.
    Walking the 6000-term pool makes every sample touch memory the last ones
    did not, as the engine's products do."""
    out = {}
    window = REF_POOL[offset:offset + WINDOW]
    for (m1, n1, k1, l1), (a1, b1, _, _, q1) in REF_A:
        for (m2, n2, k2, l2), (a2, b2, _, _, q2) in window:
            key = (m1 + m2, n1 + n2, k1 + k2, l1 + l2)
            c = _coeff(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, q1 * q2)
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                out[key] = _coeff(acc[0] * c[4] + c[0] * acc[4], acc[1] * c[4] + c[1] * acc[4], acc[4] * c[4])
    return out


class HostProbe:
    """Times `ref_kernel` every PERIOD seconds of wall time while active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None
        self._offset = 0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than PERIOD still gets a sample
            self._tick()
        return False

    def _tick(self, *_):
        t0 = time.perf_counter()
        ref_kernel(self._offset)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed
        self._offset = (self._offset + WINDOW) % (len(REF_POOL) - WINDOW)

    def speed(self) -> float:
        """Mean seconds per sample while the probe was active."""
        return sum(self.samples) / len(self.samples)
