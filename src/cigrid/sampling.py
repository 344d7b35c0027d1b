"""Seeded exact-rational sampling.

All randomness in the package flows from one integer seed.  Child generators
are derived with `child_rng(seed, label)`, which hashes "seed/label" with
SHA-256 and keeps the first 8 bytes; reports therefore reproduce byte for
byte given the same seed.

Every draw comes from `rng.getrandbits` in the order and under the
rejection rule of `rng.randint`: `_randbelow_run` is the one place that
rule is written, so `rand_fraction_pairs` and `rand_positive_ints` give the
values, and leave the generator in the state, of the `randint` calls they
stand for, without the cost of `randint` per value or a `Fraction` per
entry.

Where an answer must hold for generic draws, `generic_draw` draws twice
and keeps the first draw only when both agree.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, Hashable, Sequence, TypeVar

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


def _randbelow_run(rng: random.Random, widths: Sequence[int], count: int) -> list[int]:
    """`count` rounds of one draw below each width in turn: the values
    `rng.randint(a, a + w - 1) - a` would give, with the same bits consumed.

    `randint(a, b)` is `a + rng._randbelow(b - a + 1)`, and `_randbelow(w)`
    draws `getrandbits(w.bit_length())` until the value is below w: the
    rule `random.Random` uses, as every generator here is one."""
    getrandbits = rng.getrandbits
    sizes = [(w, w.bit_length()) for w in widths]
    out = []
    for _ in range(count):
        for w, k in sizes:
            x = getrandbits(k)
            while x >= w:
                x = getrandbits(k)
            out.append(x)
    return out


def rand_fraction_pairs(rng: random.Random, count: int, nonzero: bool = False) -> list[tuple[int, int]]:
    """`count` random rationals as reduced (numerator, denominator) pairs:
    those of `Fraction(rng.randint(-B, B), rng.randint(1, B))` for
    B = DEFAULT_BOUND, drawn in that order.  With `nonzero`, a draw of 0 is
    dropped and drawn again, as `rand_nonzero_fraction` does."""
    bound = DEFAULT_BOUND
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        raw = iter(_randbelow_run(rng, (2 * bound + 1, bound), count - len(pairs)))
        for num, den in zip(raw, raw):
            num -= bound
            if num or not nonzero:
                den += 1
                g = gcd(num, den)
                pairs.append((num // g, den // g))
    return pairs


def rand_positive_ints(rng: random.Random, count: int) -> list[int]:
    """`count` values of `rng.randint(1, DEFAULT_BOUND)`."""
    return [x + 1 for x in _randbelow_run(rng, (DEFAULT_BOUND,), count)]


def common_denominator(pairs: Sequence[tuple[int, int]]) -> tuple[int, list[int]]:
    """The lcm of the pairs' denominators, and each numerator / denominator
    times it: `linalg.integer_multiple` of the rationals the pairs stand
    for."""
    # star-args from a list, not a generator: see linalg.integer_multiple
    scale = lcm(*[den for _, den in pairs])
    return scale, [num * (scale // den) for num, den in pairs]


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(*rand_fraction_pairs(rng, 1)[0])


def rand_nonzero_fraction(rng: random.Random) -> Fraction:
    return Fraction(*rand_fraction_pairs(rng, 1, nonzero=True)[0])


def rand_matrix(rng: random.Random, d: int, n: int) -> list[list[Fraction]]:
    pairs = rand_fraction_pairs(rng, d * n)
    return [[Fraction(num, den) for num, den in pairs[i * n : i * n + n]] for i in range(d)]


def mixture_matrix(rng: random.Random, m: int, n: int, k: int) -> tuple[int, list[list[int]]]:
    """Sum of k >= 1 rank-one products lam_t * a_t b_t^T with every factor
    drawn from the open simplex: entries strictly positive, total exactly 1,
    and the rank is at most k.

    A simplex point is positive integer weights over their sum; lam is drawn
    first, then a_t and b_t for each t in turn.  Returned as the common
    denominator sum(lam) * prod_t sum(a_t) sum(b_t) and the integer
    numerators over it: entry (i, j) is numerators[i][j] / den."""
    weights = rand_positive_ints(rng, k * (1 + m + n))
    lam = weights[:k]
    factors = []
    for t in range(k, len(weights), m + n):
        factors.append((weights[t : t + m], weights[t + m : t + m + n]))
    scales = [sum(a) * sum(b) for a, b in factors]
    den = sum(lam) * prod(scales)
    # lam_t a_t[i] lifted by the other terms' scales; times b_t[j] it is term t over den
    lifted = [
        [lam[t] * prod(scales[:t] + scales[t + 1 :]) * x for x in a] for t, (a, _) in enumerate(factors)
    ]
    return den, [[sum(la[i] * b[j] for la, (_, b) in zip(lifted, factors)) for j in range(n)] for i in range(m)]
