"""Seeded exact-rational sampling.

All randomness in the package flows from one integer seed.  Child generators
are derived with `child_rng(seed, label)`, which hashes "seed/label" with
SHA-256 and keeps the first 8 bytes; reports therefore reproduce byte for
byte given the same seed.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

DEFAULT_BOUND = 2**31


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def child_rng(seed: int, label: str) -> random.Random:
    return random.Random(derive_seed(seed, label))


def rand_fraction(rng: random.Random, bound: int = DEFAULT_BOUND) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_nonzero_fraction(rng: random.Random, bound: int = DEFAULT_BOUND) -> Fraction:
    while True:
        x = rand_fraction(rng, bound)
        if x != 0:
            return x


def rand_vector(rng: random.Random, n: int, bound: int = DEFAULT_BOUND) -> list[Fraction]:
    return [rand_fraction(rng, bound) for _ in range(n)]


def rand_matrix(rng: random.Random, d: int, n: int, bound: int = DEFAULT_BOUND) -> list[list[Fraction]]:
    return [rand_vector(rng, n, bound) for _ in range(d)]


def rand_simplex(rng: random.Random, k: int, bound: int = DEFAULT_BOUND) -> list[Fraction]:
    """k strictly positive rationals summing exactly to 1."""
    weights = [rng.randint(1, bound) for _ in range(k)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def mixture_matrix(rng: random.Random, m: int, n: int, k: int, bound: int = DEFAULT_BOUND) -> list[list[Fraction]]:
    """Sum of k rank-one products lam_i * a_i b_i^T with every factor drawn
    from the open simplex: entries strictly positive, total exactly 1, and
    the rank is at most k."""
    lam = rand_simplex(rng, k, bound)
    out = [[Fraction(0)] * n for _ in range(m)]
    for t in range(k):
        a = rand_simplex(rng, m, bound)
        b = rand_simplex(rng, n, bound)
        for i in range(m):
            for j in range(n):
                out[i][j] += lam[t] * a[i] * b[j]
    return out
