"""Machine-speed calibration: timings in reference seconds.

The CPU speed this benchmark gets from a shared host drifts by a quarter or
more over tens of seconds.  A fixed pure-Python kernel, sharing no code with
promov, is therefore run between ops, a few milliseconds every
``EVERY_S`` seconds.  A timing t measured while the kernel took k seconds on
average is reported as ``t * REFERENCE_S / k``: what it would have taken at
the speed at which the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import random
import statistics
import time

# one kernel call on a quiet shared 2-core x86-64 VM (Python 3.11)
REFERENCE_S = 0.0026
EVERY_S = 0.25

_rng = random.Random(20160311)
_MATRIX = tuple(tuple(_rng.randrange(-60, 61) for _ in range(14)) for _ in range(12))


def kernel():
    """Integer row/column elimination of a fixed 12x14 matrix, with the
    list churn and big-int arithmetic typical of promov's solvers."""
    m = [list(r) for r in _MATRIX]
    rows, cols = len(m), len(m[0])
    seen = {}
    for t in range(rows):
        while True:
            piv = min(((abs(m[i][j]), i, j) for i in range(t, rows)
                       for j in range(t, cols) if m[i][j]), default=None)
            if piv is None:
                return seen
            _, i, j = piv
            m[t], m[i] = m[i], m[t]
            for r in m:
                r[t], r[j] = r[j], r[t]
            dirty = False
            for i in range(t + 1, rows):
                q = m[i][t] // m[t][t]
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                dirty |= m[i][t] != 0
            for j in range(t + 1, cols):
                q = m[t][j] // m[t][t]
                if q:
                    for r in m:
                        r[j] -= q * r[t]
                dirty |= m[t][j] != 0
            seen[tuple(m[t])] = seen.get(tuple(m[t]), 0) + 1
            if not dirty:
                break
    return seen


class Calibrator:
    def __init__(self):
        self.samples = []

    def sample(self, n: int = 1):
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """REFERENCE_S over the kernel's mean time, the slowest and fastest
        tenth of samples left out (a sample can catch an interrupt)."""
        s = sorted(self.samples)
        cut = len(s) // 10
        return REFERENCE_S / statistics.fmean(s[cut:len(s) - cut])
