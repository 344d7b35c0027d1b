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
from math import prod
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


def mixture_matrix(rng: random.Random, m: int, n: int, k: int) -> tuple[int, list[list[int]]]:
    """Sum of k >= 1 rank-one products lam_t * a_t b_t^T with every factor
    drawn from the open simplex: entries strictly positive, total exactly 1,
    and the rank is at most k.

    A simplex point is positive integer weights over their sum; lam is drawn
    first, then a_t and b_t for each t in turn.  Returned as the common
    denominator sum(lam) * prod_t sum(a_t) sum(b_t) and the integer
    numerators over it: entry (i, j) is numerators[i][j] / den."""
    lam = [rng.randint(1, DEFAULT_BOUND) for _ in range(k)]
    factors = []
    for _ in range(k):
        a = [rng.randint(1, DEFAULT_BOUND) for _ in range(m)]
        b = [rng.randint(1, DEFAULT_BOUND) for _ in range(n)]
        factors.append((a, b))
    scales = [sum(a) * sum(b) for a, b in factors]
    den = sum(lam) * prod(scales)
    # lam_t a_t[i] lifted by the other terms' scales; times b_t[j] it is term t over den
    lifted = [
        [lam[t] * prod(scales[:t] + scales[t + 1 :]) * x for x in a] for t, (a, _) in enumerate(factors)
    ]
    return den, [[sum(la[i] * b[j] for la, (_, b) in zip(lifted, factors)) for j in range(n)] for i in range(m)]
