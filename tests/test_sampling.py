"""The two-draw genericity guard, driven by scripted draws, the draws from
the rng's bits against `rng.randint`, and the mixture draw against its
`Fraction` formula."""

import random
from fractions import Fraction

import pytest

from helpers import fraction_mixture_matrix, rational_rows
from cigrid import sampling
from cigrid.sampling import (
    GENERIC_ATTEMPTS,
    GenericityError,
    generic_draw,
    mixture_matrix,
    rand_fraction_pairs,
    rand_positive_ints,
)


def scripted(keys):
    """A draw returning (key, serial) for each key in turn, and the list of
    draws made so far."""
    made = []

    def draw():
        made.append((keys[len(made)], len(made)))
        return made[-1]

    return draw, made


def key(x):
    return x[0]


def test_first_agreeing_pair_returns_its_first_draw():
    draw, made = scripted(["a", "a", "b", "b"])
    assert generic_draw(draw, key, "test") == ("a", 0)
    assert len(made) == 2


@pytest.mark.parametrize("misses", range(1, GENERIC_ATTEMPTS))
def test_agreement_after_misses_returns_the_first_draw_of_that_pair(misses):
    keys = ["x", "y"] * misses + ["z", "z"]
    draw, made = scripted(keys)
    assert generic_draw(draw, key, "test") == ("z", 2 * misses)
    assert len(made) == len(keys)


def test_every_pair_disagreeing_raises_naming_the_last_keys():
    assert GENERIC_ATTEMPTS == 4
    keys = [f"k{i}" for i in range(2 * GENERIC_ATTEMPTS)] + ["late", "late"]
    draw, made = scripted(keys)
    with pytest.raises(GenericityError, match=f"{GENERIC_ATTEMPTS} pairs") as info:
        generic_draw(draw, key, "test keys")
    assert len(made) == 2 * GENERIC_ATTEMPTS
    message = str(info.value)
    assert message.startswith("test keys")
    assert "k6 vs k7" in message


@pytest.mark.parametrize("bound", [1, 2, 3, 5, 2**31, 2**31 + 1, 2**40])
def test_draws_from_the_bits_repeat_randint(monkeypatch, bound):
    """Pairs, nonzero pairs and positive ints equal what `rng.randint` gives
    at the same bound, drawn in the same order, and leave the rng in the
    same state.  At bounds 1 and 2 every draw of 0 is seen and redrawn."""
    monkeypatch.setattr(sampling, "DEFAULT_BOUND", bound)

    def randint_pair(rng):
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        return x.numerator, x.denominator

    zeros = 0
    for seed in range(12):
        for count in (0, 1, 7, 40):
            rng, ref = random.Random(seed), random.Random(seed)
            assert rand_fraction_pairs(rng, count) == [randint_pair(ref) for _ in range(count)]
            assert rand_positive_ints(rng, count) == [ref.randint(1, bound) for _ in range(count)]
            nonzero = []
            while len(nonzero) < count:
                pair = randint_pair(ref)
                zeros += pair[0] == 0
                if pair[0]:
                    nonzero.append(pair)
            assert rand_fraction_pairs(rng, count, nonzero=True) == nonzero
            assert rng.getstate() == ref.getstate()
    assert zeros > 0 or bound > 5


MIXTURE_SHAPES = [(1, 1, 1), (1, 1, 3), (3, 12, 1), (3, 12, 2), (2, 2, 5), (4, 3, 2), (1, 6, 4), (5, 1, 2)]


@pytest.mark.parametrize("m, n, k", MIXTURE_SHAPES)
def test_mixture_matrix_matches_the_fraction_formula_and_the_rng_stream(m, n, k):
    for seed in range(25):
        rng, old = random.Random(seed), random.Random(seed)
        den, numerators = mixture_matrix(rng, m, n, k)
        drawn = rational_rows(den, numerators)
        assert drawn == fraction_mixture_matrix(old, m, n, k)
        assert rng.getstate() == old.getstate()
        assert all(type(x) is int for row in numerators for x in row) and type(den) is int
        assert all(type(x) is Fraction and x > 0 for row in drawn for x in row)
        assert sum(x for row in drawn for x in row) == 1
