import random
import sys
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import det_by_permutations, perm_sign, rank_by_minors, rref_kernel_basis, rref_rank, swap_tracking_det
from cigrid import linalg


def rand_mat(rng, d, n, lo=-6, hi=6):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n)] for _ in range(d)]


def small_cases() -> list[tuple[list[list], int]]:
    """(matrix, rank): int rows, int and `Fraction` entries mixed with
    denominators that differ from row to row, no columns, an all-zero 3 x 4,
    and a rank-2 rational 3 x 12 (the shape of a theorem 3.2 realization)."""
    rank_two = _product(random.Random(77), 3, 2, 12)
    return [
        ([[1, 2, 3], [2, 4, 6], [0, 1, 5]], 2),
        ([[3, -1], [6, -2], [0, 0]], 1),
        ([[1, Fraction(1, 2), 3], [Fraction(2, 3), 0, Fraction(5, 7)], [4, Fraction(3, 11), 0]], 3),
        ([[Fraction(1, 2), 1, Fraction(3, 2)], [2, Fraction(4, 3), Fraction(2, 3)], [Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)]], 2),
        ([[]], 0),
        ([[], []], 0),
        (linalg.zeros(3, 4), 0),
        (rank_two, 2),
    ]


def test_rank_small_cases():
    assert linalg.rank([]) == 0
    assert linalg.rank(linalg.identity(3)) == 3
    assert linalg.rank(linalg.mat([[1, 2], [2, 4]])) == 1
    assert linalg.rank(linalg.zeros(2, 5)) == 0
    for m, r in small_cases():
        assert linalg.rank(m) == r == rank_by_minors(m) == rref_rank(m), m


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
    for m, r in small_cases():
        basis = linalg.kernel_basis(m)
        assert basis == rref_kernel_basis(m) and len(basis) == len(m[0]) - r, m
        assert all(type(x) is Fraction for v in basis for x in v)


def test_every_exact_rank_kernel_and_determinant_runs_one_fraction_free_pass(monkeypatch):
    """One exact elimination over Q: `rank` (on the columns), `kernel_basis`
    (on the rows), `integer_rank`, `integer_det` and `det` each run
    `_fraction_free` once, on integers."""
    calls: list[list[list[int]]] = []
    real = linalg._fraction_free
    monkeypatch.setattr(linalg, "_fraction_free", lambda m: calls.append(m) or real(m))
    rational = [[Fraction(1, 2), 1, 0, 3], [0, Fraction(2, 3), 1, 1], [1, 1, 1, Fraction(-5, 4)]]
    square = [row[:3] for row in rational]
    ints = [[1, 2, 0], [0, 2, 3], [1, 1, 1]]
    for fn, m, shape in [
        (linalg.rank, rational, (4, 3)),
        (linalg.kernel_basis, rational, (3, 4)),
        (linalg.integer_rank, ints, (3, 3)),
        (linalg.integer_det, ints, (3, 3)),
        (linalg.det, square, (3, 3)),
    ]:
        calls.clear()
        fn(m)
        assert len(calls) == 1, fn.__name__
        [seen] = calls
        assert (len(seen), len(seen[0])) == shape, fn.__name__
        assert all(type(x) is int for row in seen for x in row), fn.__name__


def test_rank_and_kernel_of_int_matrices_are_exact():
    # 1 / pivot is a float for an int pivot: this rank came out 3, and this
    # kernel held floats, before the elimination divided exactly
    singular = [[1440, 7760, 1040], [594, 3201, 429], [69, 91, 78]]
    assert det_by_permutations(singular) == 0
    assert linalg.rank(singular) == 2 == rank_by_minors(singular)
    kernel = linalg.kernel_basis([[3, 1, 1], [1, 2, 7]])
    assert kernel == [[1, -4, 1]]
    assert all(type(x) is Fraction for v in kernel for x in v)


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


def test_integer_det_matches_det_and_the_permutation_sum():
    """Fraction-free determinants on integer matrices: square cases of the
    elimination set scaled to integers, odd and even permutation matrices
    (every pivot swap), and singular ones with a zero column."""
    cases = []
    for m in elimination_cases(74):
        if m and all(len(row) == len(m) for row in m):
            scale = lcm(*(x.denominator for row in m for x in row))
            cases.append([[x * scale for x in row] for row in m])
    for n in (1, 2, 3, 4):
        cases += [permutation_matrix(perm) for perm in permutations(range(n))]
    rng = random.Random(75)
    for n in (2, 3, 4):
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        for row in m:
            row[rng.randrange(n)] = Fraction(0)
        cases.append(m)
    assert len(cases) > 60
    assert {linalg.det(m) for m in cases} >= {-1, 0, 1}
    for m in cases:
        ints = [[int(x) for x in row] for row in m]
        assert all(x.denominator == 1 for row in m for x in row)
        assert linalg.integer_det(ints) == linalg.det(m) == det_by_permutations(m)
    assert linalg.integer_det([]) == 1
    with pytest.raises(ValueError, match="non-square"):
        linalg.integer_det([[1, 2]])


def test_integer_rank_matches_rank_on_every_rank_and_shape():
    """Seeded integer products of d x r and r x n factors for every d, n in
    1..5 and every r in 0..min(d, n), plus empty and zero matrices; each also
    under a zero top row (its first pivot needs a swap) and behind two
    leading zero columns."""
    rng = random.Random(76)
    cases = [[], [[]], [[], []], [[0, 0, 0]], [[0], [0], [0]], [[0] * 4 for _ in range(3)]]
    for d in range(1, 6):
        for n in range(1, 6):
            for r in range(min(d, n) + 1):
                left = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(d)]
                right = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
                m = [[sum(a * right[t][j] for t, a in enumerate(row)) for j in range(n)] for row in left]
                cases += [m, [[0] * n] + m, [[0, 0] + row for row in m]]
    seen = set()
    for m in cases:
        expected = linalg.rank(linalg.mat(m))
        assert linalg.integer_rank(m) == expected == rref_rank(m), m
        if m and m[0]:
            seen.add((len(m), len(m[0]), expected))
    assert all((d, n, r) in seen for d in range(1, 6) for n in range(1, 6) for r in range(min(d, n) + 1))
    # the first column's top entry is zero, so its pivot comes from below
    assert linalg.integer_rank([[0, 1, 2], [3, 4, 5], [6, 7, 8]]) == 2
    assert linalg.integer_rank([[0, 0, 1], [0, 2, 3], [4, 5, 6]]) == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
def test_mod_p_rank_never_exceeds_exact_rank(d, n, seed):
    rng = random.Random(seed)
    m = rand_mat(rng, d, n)
    rp = linalg.rank_mod_p(m)
    rq = linalg.rank(m)
    assert rp <= rq
    if rp == n:
        assert rq == n


def test_shadow_prime_is_a_prime_of_one_int_digit():
    """Trial division up to the square root, and below 2^bits_per_digit, so
    every residue is a one-digit CPython int."""
    p = linalg.SHADOW_PRIME
    assert p < 2**sys.int_info.bits_per_digit
    assert p > 2 and p % 2 and all(p % d for d in range(3, int(p**0.5) + 1, 2))


def test_echelon_row_normalises_the_first_nonzero_entry():
    p = linalg.SHADOW_PRIME
    assert linalg.echelon_row([0, 0, 0]) is None
    c, row = linalg.echelon_row([0, 3, p - 1, 7])
    assert c == 1 and row[:2] == [0, 1]
    assert all(x * 3 % p == y % p for x, y in zip(row, [0, 3, p - 1, 7]))
    assert linalg.reduce_mod_p([0, 3, p - 1, 7], []) == (c, row)


def test_mod_p_rank_scales_a_prime_denominator_away():
    """p in a denominator is scaled away with the column's lcm, so the
    residues are still a lower bound on the rank over Q: here they reach
    it, and `certified_rank` needs no exact elimination."""
    p = linalg.SHADOW_PRIME
    one = [[Fraction(1, p)]]
    assert linalg.rank_mod_p(one, p) == 1 == linalg.rank(one)
    # columns (1/p, 1) and (1, 1/p) scale to (1, p) and (p, 1): the identity mod p
    m = [[Fraction(1, p), Fraction(1)], [Fraction(1), Fraction(1, p)]]
    assert linalg.rank_mod_p(m, p) == 2 == linalg.rank(m)
    # (1/p, 1/p) and (1, 1) are parallel over Q and mod p
    m = [[Fraction(1, p), Fraction(1)], [Fraction(1, p), Fraction(1)]]
    assert linalg.rank_mod_p(m, p) == 1 == linalg.rank(m)
    assert linalg.rank_mod_p([], p) == linalg.rank_mod_p([[]], p) == 0


def _product(rng, d, r, n):
    """A d x n matrix of rank at most r, with rows over distinct denominators."""
    a, b = rand_mat(rng, d, r), rand_mat(rng, r, n)
    return [[sum(x * y for x, y in zip(row, col)) / (i + 1) for col in zip(*b)] for i, row in enumerate(a)]


def _spy_rank(monkeypatch) -> list[int]:
    """Record the row count of every exact `rank` call."""
    calls: list[int] = []
    real = linalg.rank

    def counted(m):
        calls.append(len(m))
        return real(m)

    monkeypatch.setattr(linalg, "rank", counted)
    return calls


def test_certified_rank_matches_exact_rank_with_true_wrong_and_dependent_witnesses():
    rng = random.Random(29)
    shapes = [(d, r, n) for d in range(1, 7) for n in range(1, 7) for r in range(0, min(d, n) + 1)]
    for d, r, n in shapes * 2:
        m = _product(rng, d, r, n)
        exact = linalg.rank(m)
        true = linalg.kernel_basis(linalg.transpose(m))
        assert exact == rref_rank(m) and true == rref_kernel_basis(linalg.transpose(m))
        wrong = [[x + 1 for x in y] for y in true] + [[Fraction(rng.randint(-3, 3)) for _ in range(d)]]
        wrong = [w for w in wrong if any(sum(a * b for a, b in zip(w, col)) for col in zip(*m))]
        dependent = [[3 * x for x in y] for y in true] + [[a + b for a, b in zip(y, true[0])] for y in true[1:]]
        witnesses = [*true, *wrong, *dependent, [Fraction(0)] * d, [Fraction(1)] * (d + 1)]
        rng.shuffle(witnesses)
        got = linalg.certified_rank(m, witnesses)
        assert got.rank == exact, (m, witnesses)
        kept = [w for w in witnesses if w in true or w in dependent]
        assert got.kernel == [w for w in kept if any(w)]


def test_certified_rank_needs_no_elimination_when_the_witnesses_span_the_kernel(monkeypatch):
    rng = random.Random(31)
    cases = []
    for d, r, n in [(5, 3, 4), (6, 2, 6), (4, 4, 7), (7, 3, 3), (3, 0, 2), (6, 5, 5)]:
        m = _product(rng, d, r, n)
        true = linalg.kernel_basis(linalg.transpose(m))
        # a spanning set given as dependent witnesses: the two-fold copy and a sum
        doubled = [[2 * x for x in y] for y in true]
        extra = [[sum(col) for col in zip(*true)]] if true else []
        cases.append((m, linalg.rank(m), true + doubled + extra))
        assert cases[-1][1] == rref_rank(m) and true == rref_kernel_basis(linalg.transpose(m))
    calls = _spy_rank(monkeypatch)
    passes: list = []
    real = linalg._fraction_free
    monkeypatch.setattr(linalg, "_fraction_free", lambda m: passes.append(m) or real(m))
    for m, exact, witnesses in cases:
        assert linalg.certified_rank(m, witnesses).rank == exact
    assert calls == []
    assert passes == []


def test_certified_rank_trusts_no_unchecked_or_dependent_witness_below_the_shadow():
    p = linalg.SHADOW_PRIME
    # rank 2 over Q, rank 1 mod p: a wrong witness must not close the gap
    m = linalg.mat([[p, 0], [0, 1]])
    assert linalg.certified_rank(m, [[Fraction(1), Fraction(0)]]) == (2, [])
    # rows 1 + 2 = row 3, rank 2 over Q, rank 1 mod p; y and 2y count once
    m = linalg.mat([[1, 0], [0, p], [1, p]])
    y = [Fraction(1), Fraction(1), Fraction(-1)]
    twice = [2 * x for x in y]
    assert linalg.certified_rank(m, [y, twice]) == (2, [y, twice])
    # a witness of the wrong length is no witness
    assert linalg.certified_rank(m, [y[:2]]) == (2, [])


def test_certified_rank_checks_witnesses_against_columns_not_rows():
    """w.m = 0 is invariant under column scaling but not row scaling: a
    witness valid for m must pass, and one valid only for a row-rescaled m
    must fail."""
    rng = random.Random(37)
    for _ in range(30):
        m = _product(rng, 4, 2, 3)
        true = linalg.kernel_basis(linalg.transpose(m))
        scales = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in m]
        skewed = [[x * c for x, c in zip(y, scales)] for y in true]
        skewed = [w for w in skewed if any(sum(a * b for a, b in zip(w, col)) for col in zip(*m))]
        got = linalg.certified_rank(m, true + skewed)
        assert got == (linalg.rank(m), true)
        assert got.rank == rref_rank(m) and true == rref_kernel_basis(linalg.transpose(m))


def test_certified_rank_never_trusts_a_shadow_above_the_bound(monkeypatch):
    """A broken shadow that overstates every mod-p rank by one puts the
    lower bound two above the upper (the witnesses span the left kernel);
    that is a contradiction, not a rank."""
    rng = random.Random(41)
    cases = [(m, linalg.rank(m), linalg.kernel_basis(linalg.transpose(m))) for m in (
        _product(rng, 4, 2, 5),
        _product(rng, 3, 3, 3),
        _product(rng, 5, 2, 2),
        linalg.identity(2) + [[Fraction(0), Fraction(0)]],
        [row + [Fraction(0)] for row in linalg.identity(2)],
    )]
    honest = linalg.rank_of_vectors_mod_p
    monkeypatch.setattr(linalg, "rank_of_vectors_mod_p", lambda vectors, p=linalg.SHADOW_PRIME: honest(vectors, p) + 1)
    for m, exact, true in cases:
        assert linalg.certified_rank(m, true).rank == exact == rref_rank(m)


def test_certified_rank_of_empty_shapes():
    assert linalg.certified_rank([], []) == (0, [])
    assert linalg.certified_rank([[], []], [[Fraction(1), Fraction(0)]]) == (0, [[Fraction(1), Fraction(0)]])
    p = linalg.SHADOW_PRIME
    # p in a column denominator: the column scales to 1, and the shadow decides
    assert linalg.certified_rank([[Fraction(1, p), Fraction(1)]], []) == (1, [])


def test_vector_mod_p_scales_by_the_denominator_lcm():
    assert linalg.vector_mod_p([Fraction(1, 2), Fraction(-1, 3), Fraction(0)], 7) == [3, 5, 0]
    # p divides the lcm 14: the scaled vector (1, 14) still has residues
    assert linalg.vector_mod_p([Fraction(1, 14), Fraction(1)], 7) == [1, 0]
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
        assert linalg.rank_mod_p(m, p) <= r


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


def test_det_of_matrices_with_row_denominators():
    """Rows whose entries share no denominator: each row's scale differs, and
    the determinant must come out divided by their product."""
    rng = random.Random(76)
    cases = []
    for n in (1, 2, 3, 4, 5):
        for _ in range(12):
            cases.append([[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 12])) for _ in range(n)] for _ in range(n)])
    for n in (2, 3, 4):
        m = [[Fraction(rng.randint(-9, 9), rng.choice([2, 3, 5])) for _ in range(n)] for _ in range(n - 1)]
        cases.append(m + [[2 * x / 7 for x in m[0]]])  # a row parallel to the first
    cases = [m for m in cases if any(lcm(*(x.denominator for x in row)) > 1 for row in m)]
    assert len(cases) > 50
    values = set()
    for m in cases:
        value = linalg.det(m)
        assert value == det_by_permutations(m) == swap_tracking_det(m), m
        values.add(value)
    assert 0 in values and any(v.denominator > 1 for v in values)


def test_content_lines_strip_and_skip_blank_and_comment_lines():
    text = "# header comment\n  2 2 \n\n\t1 0\n   # indented comment\n0 1 # kept: not at the start\n  \n"
    assert linalg.content_lines(text) == ["2 2", "1 0", "0 1 # kept: not at the start"]
    assert linalg.content_lines("") == linalg.content_lines("\n # only\n\n") == []


@pytest.mark.parametrize(
    "read, text",
    [
        ("matrix", "  # m\n 2 2\n\n 1 0 \n  0 1\n"),
        ("framework", "# f\n 2 1 \n  0\n\n 1 \n # edge\n 1 2 \n"),
        ("hypergraph", " # h\n 3 \n\n 1 2 \n"),
        ("map", "\n # p\n params u_1 \n\n  coord a u_1 \n"),
        ("ci", " # c\n X=2 Y=2 \n\n  X _||_ Y \n"),
    ],
)
def test_every_input_reader_skips_indented_comments_and_blank_lines(read, text):
    from cigrid.cimodel import parse_ci_file
    from cigrid.hypergraph import Hypergraph
    from cigrid.matroid import PolyMap
    from cigrid.secrig import Framework

    readers = {
        "matrix": linalg.matrix_from_text,
        "framework": Framework.from_text,
        "hypergraph": Hypergraph.from_text,
        "map": PolyMap.parse,
        "ci": parse_ci_file,
    }
    bare = "\n".join(linalg.content_lines(text)) + "\n"
    assert readers[read](text) == readers[read](bare)
