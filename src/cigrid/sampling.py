"""Seeded exact-rational sampling.

All randomness in the package flows from one integer seed.  Child generators
are derived with `child_rng(seed, label)`, which hashes "seed/label" with
SHA-256 and keeps the first 8 bytes; reports therefore reproduce byte for
byte given the same seed.

Where an answer must hold for generic draws, `generic_draw` draws twice
and keeps the first draw only when both agree.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import Callable, Hashable, TypeVar

DEFAULT_BOUND = 2**31
# Pairs of draws `generic_draw` tries before it reports non-genericity.
GENERIC_ATTEMPTS = 4

T = TypeVar("T")


class GenericityError(RuntimeError):
    """Random draws disagreed where a generic answer was required."""


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def child_rng(seed: int, label: str) -> random.Random:
    return random.Random(derive_seed(seed, label))


def generic_draw(draw: Callable[[], T], key: Callable[[T], Hashable], what: str) -> T:
    """The first of two independent draws whose keys agree.

    At most `GENERIC_ATTEMPTS` pairs are drawn; when every pair disagrees,
    GenericityError names both keys of the last one."""
    for _ in range(GENERIC_ATTEMPTS):
        a, b = draw(), draw()
        if key(a) == key(b):
            return a
    raise GenericityError(f"{what}: all {GENERIC_ATTEMPTS} pairs of draws disagreed, the last {key(a)} vs {key(b)}")


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-DEFAULT_BOUND, DEFAULT_BOUND), rng.randint(1, DEFAULT_BOUND))


def rand_nonzero_fraction(rng: random.Random) -> Fraction:
    while True:
        x = rand_fraction(rng)
        if x != 0:
            return x


def rand_vector(rng: random.Random, n: int) -> list[Fraction]:
    return [rand_fraction(rng) for _ in range(n)]


def rand_matrix(rng: random.Random, d: int, n: int) -> list[list[Fraction]]:
    return [rand_vector(rng, n) for _ in range(d)]


def rand_simplex(rng: random.Random, k: int) -> list[Fraction]:
    """k strictly positive rationals summing exactly to 1."""
    weights = [rng.randint(1, DEFAULT_BOUND) for _ in range(k)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def mixture_matrix(rng: random.Random, m: int, n: int, k: int) -> list[list[Fraction]]:
    """Sum of k rank-one products lam_i * a_i b_i^T with every factor drawn
    from the open simplex: entries strictly positive, total exactly 1, and
    the rank is at most k."""
    lam = rand_simplex(rng, k)
    out = [[Fraction(0)] * n for _ in range(m)]
    for t in range(k):
        a = rand_simplex(rng, m)
        b = rand_simplex(rng, n)
        for i in range(m):
            for j in range(n):
                out[i][j] += lam[t] * a[i] * b[j]
    return out
