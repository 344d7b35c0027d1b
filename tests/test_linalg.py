import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import det_by_permutations, perm_sign, rank_by_minors, rref_kernel_basis, swap_tracking_det
from cigrid import linalg


def rand_mat(rng, d, n, lo=-6, hi=6):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n)] for _ in range(d)]


def test_rank_small_cases():
    assert linalg.rank([]) == 0
    assert linalg.rank(linalg.identity(3)) == 3
    assert linalg.rank(linalg.mat([[1, 2], [2, 4]])) == 1
    assert linalg.rank(linalg.zeros(2, 5)) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
def test_rank_matches_minor_search(d, n, seed):
    rng = random.Random(seed)
    m = rand_mat(rng, d, n)
    assert linalg.rank(m) == rank_by_minors(m)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6))
def test_det_matches_permutation_sum(n, seed):
    rng = random.Random(seed)
    m = rand_mat(rng, n, n)
    assert linalg.det(m) == det_by_permutations(m)


def test_kernel_vectors_are_annihilated():
    rng = random.Random(2)
    for _ in range(20):
        m = rand_mat(rng, 3, 5)
        basis = linalg.kernel_basis(m)
        assert len(basis) == 5 - linalg.rank(m)
        for v in basis:
            prod = [sum(a * b for a, b in zip(row, v)) for row in m]
            assert all(x == 0 for x in prod)


def elimination_cases(seed: int) -> list[list[list[Fraction]]]:
    """Seeded matrices for the one elimination pass: empty, no columns, zero
    matrices, random wide, tall and square ones with a zeroed row and column,
    and rank-deficient products of thin factors."""
    rng = random.Random(seed)
    cases = [[], [[]], [[], []], linalg.zeros(3, 3), linalg.zeros(2, 5), linalg.zeros(4, 1)]
    for i in range(60):
        d = rng.randint(1, 6)
        n = d if i % 3 == 0 else rng.randint(1, 6)
        m = rand_mat(rng, d, n)
        cases.append(m)
        zeroed = [list(row) for row in m]
        zeroed[rng.randrange(d)] = [Fraction(0)] * n
        for row in zeroed:
            row[rng.randrange(n)] = Fraction(0)
        cases.append(zeroed)
        r = rng.randint(1, max(1, min(d, n) - 1))
        left, right = rand_mat(rng, d, r), rand_mat(rng, r, n)
        cases.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left])
    return cases


def permutation_matrix(perm) -> list[list[Fraction]]:
    return [[Fraction(int(p == j)) for j in range(len(perm))] for p in perm]


def test_kernel_basis_matches_the_rref_kernel():
    cases = elimination_cases(71)
    shapes = {(len(m), len(m[0]) if m else 0) for m in cases}
    assert any(d < n for d, n in shapes) and any(d > n for d, n in shapes)
    assert any(linalg.rank(m) < min(len(m), len(m[0])) for m in cases if m and m[0])
    for m in cases:
        assert linalg.kernel_basis(m) == rref_kernel_basis(m)


def test_det_matches_the_swap_tracking_elimination():
    square = [m for m in elimination_cases(72) if all(len(row) == len(m) for row in m)]
    assert len(square) > 60
    for m in square:
        assert linalg.det(m) == swap_tracking_det(m)
    assert linalg.det([]) == 1
    with pytest.raises(ValueError, match="non-square"):
        linalg.det(linalg.zeros(2, 3))


def test_det_of_odd_permutation_matrices_is_negative():
    rng = random.Random(73)
    odd = [perm for n in (2, 3, 4) for perm in permutations(range(n)) if perm_sign(perm) == -1]
    assert len(odd) == 1 + 3 + 12
    for perm in odd:
        P = permutation_matrix(perm)
        assert linalg.det(P) == swap_tracking_det(P) == -1
        scale = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in perm]
        scaled = [[x * c for x in row] for row, c in zip(P, scale)]
        expected = -1
        for c in scale:
            expected *= c
        assert linalg.det(scaled) == swap_tracking_det(scaled) == expected
        assert linalg.kernel_basis(P) == [] and linalg.rank(P) == len(perm)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
def test_mod_p_rank_never_exceeds_exact_rank(d, n, seed):
    rng = random.Random(seed)
    m = rand_mat(rng, d, n)
    rp = linalg.rank_mod_p(m)
    rq = linalg.rank(m)
    assert rp is not None
    assert rp <= rq
    if rp == n:
        assert rq == n


def test_mod_p_declines_when_prime_divides_denominator():
    p = linalg.SHADOW_PRIME
    m = [[Fraction(1, p)]]
    assert linalg.rank_mod_p(m, p) is None


def test_left_kernel_mod_p_spans_the_dependencies():
    rng = random.Random(5)
    for p in (2, 3, 7, linalg.SHADOW_PRIME):
        for _ in range(40):
            k, dim = rng.randint(1, 6), rng.randint(0, 4)
            vectors = [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(dim)] for _ in range(k)]
            kernel = linalg.left_kernel_mod_p(vectors, p)
            assert len(kernel) == k - linalg.rank_of_vectors_mod_p(vectors, p)
            assert linalg.rank_of_vectors_mod_p(kernel, p) == len(kernel)
            for y in kernel:
                assert all(sum(c * v[j] for c, v in zip(y, vectors)) % p == 0 for j in range(dim))


def test_vector_mod_p_scales_by_the_denominator_lcm():
    assert linalg.vector_mod_p([Fraction(1, 2), Fraction(-1, 3), Fraction(0)], 7) == [3, 5, 0]
    assert linalg.vector_mod_p([Fraction(1, 14), Fraction(1)], 7) is None
    assert linalg.vector_mod_p([], 7) == []


_small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3) | st.just(Fraction(0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(_small_rationals, min_size=n, max_size=n), min_size=1, max_size=5)))
def test_rank_and_kernel_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    theirs = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])
    r = theirs.rank()
    assert linalg.rank(m) == r
    basis = linalg.kernel_basis(m)
    assert len(basis) == len(theirs.nullspace()) == len(m[0]) - r
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
    assert linalg.rank(basis + [[Fraction(int(x.p), int(x.q)) for x in v] for v in theirs.nullspace()]) == len(basis)
    for p in (2, 3, 5, linalg.SHADOW_PRIME):
        shadow = linalg.rank_mod_p(m, p)
        assert shadow is None or shadow <= r


def test_matrix_text_round_trip():
    rng = random.Random(9)
    m = rand_mat(rng, 2, 3)
    text = linalg.matrix_to_text(m)
    assert linalg.matrix_from_text(text) == m
    assert text.splitlines()[0] == "2 3"


def test_column_submatrix_uses_one_based_indices():
    m = linalg.mat([[1, 2, 3], [4, 5, 6]])
    assert linalg.column_submatrix(m, [1, 3]) == linalg.mat([[1, 3], [4, 6]])


def test_transpose():
    a = linalg.mat([[1, 2], [3, 4]])
    assert linalg.transpose(a) == linalg.mat([[1, 3], [2, 4]])
