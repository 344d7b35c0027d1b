"""The machine-speed yardstick the benchmark divides its times by.

On a shared machine the same code runs up to 40% slower for seconds or
minutes at a time.  `calibrate()` times a fixed exact-rational elimination
written here, independent of cigrid, so a time divided by a calibration
timed right next to it measures cigrid's work rather than the machine's
state.  It uses only modules that importing cigrid loads anyway.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# What `calibrate()` took in the fast state of the machine the benchmark was
# defined on.  setup_s is reported in seconds at this speed.
REFERENCE_S = 0.06


def calibrate() -> float:
    """Seconds for six Fraction eliminations of a fixed 16 x 16 matrix."""
    rng = random.Random(0)
    n = 16
    m = [[Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n)] for _ in range(n)]
    t0 = perf_counter()
    for _ in range(6):
        w = [row[:] for row in m]
        for c in range(n):
            inv = 1 / w[c][c]
            for i in range(c + 1, n):
                f = w[i][c] * inv
                for j in range(c, n):
                    w[i][j] -= f * w[c][j]
    return perf_counter() - t0
