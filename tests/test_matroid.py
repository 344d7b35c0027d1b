import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_pairs_is_circuit_family, brute_force_circuits, frozenset_is_circuit_family, rank_arrangement_signature, rank_by_minors
from cigrid import linalg
from cigrid import matroid as matroid_module
from cigrid.hypergraph import GridSpec, Hypergraph, grid_hypergraph, in_variety
from cigrid.matroid import (
    AXIOM_CHECK_CAP,
    CircuitMatroid,
    LinearMatroid,
    Matroid,
    PolyMap,
    algebraic_matroid,
    arrangement_signature,
    grid_circuit_family,
    is_circuit_family,
    matrix_product_map,
    matroid_from_matrix,
    realize_grid_matroid,
    segre_map,
)
from cigrid.poly import PolyRing, Var
from cigrid.sampling import GENERIC_ATTEMPTS, GenericityError, child_rng, rand_matrix


def concurrent_lines_matrix():
    """Seven points: an apex and two extra points on each of three lines
    through it."""
    cols = [
        (1, 0, 0),  # apex
        (1, 1, 0), (2, 3, 0),      # line spanned by apex and e2
        (1, 0, 1), (3, 0, 1),      # line spanned by apex and e3
        (3, 1, 1), (1, 3, 3),      # line spanned by apex and e2+e3
    ]
    return [[Fraction(c[r]) for c in cols] for r in range(3)]


def test_identity_matroid_is_free():
    m = matroid_from_matrix(linalg.identity(3))
    assert m.full_rank() == 3
    assert m.circuits() == ()


def test_parallel_columns_form_a_two_circuit():
    mat = linalg.mat([[1, 2, 0], [1, 2, 1]])
    m = matroid_from_matrix(mat)
    assert frozenset({1, 2}) in m.circuits()
    assert m.is_dependent({1, 2})
    assert m.is_independent({1, 3})


def test_concurrent_lines_circuits():
    m = matroid_from_matrix(concurrent_lines_matrix())
    triples = [set(c) for c in m.circuits() if len(c) == 3]
    assert sorted(map(sorted, triples)) == [[1, 2, 3], [1, 4, 5], [1, 6, 7]]
    assert m.full_rank() == 3


def test_rank_matches_minor_search_exhaustively():
    rng = random.Random(14)
    mat = rand_mat = [[Fraction(rng.randint(-4, 4)) for _ in range(6)] for _ in range(3)]
    m = matroid_from_matrix(mat)
    for size in range(0, 7):
        for cols in combinations(range(1, 7), size):
            sub = linalg.column_submatrix(mat, cols) if cols else []
            assert m.rank_of(cols) == rank_by_minors(sub)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_rank_function_axioms(seed):
    rng = random.Random(seed)
    mat = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(3)]
    m = matroid_from_matrix(mat)
    ground = list(m.ground)
    a = set(rng.sample(ground, rng.randint(0, 6)))
    b = set(rng.sample(ground, rng.randint(0, 6)))
    ra, rb = m.rank_of(a), m.rank_of(b)
    # monotone and unit-increase along a chain
    if a <= b:
        assert ra <= rb
    for e in ground:
        if e not in a:
            grown = m.rank_of(a | {e})
            assert grown in (ra, ra + 1)
    # submodular
    assert m.rank_of(a | b) + m.rank_of(a & b) <= ra + rb


def test_is_circuit_family_cases():
    assert is_circuit_family(3, [{1, 2}, {2, 3}, {1, 3}])
    assert not is_circuit_family(3, [{1, 2}, {1, 2, 3}])
    assert not is_circuit_family(3, [set()])
    with pytest.raises(ValueError):
        is_circuit_family(15, [{1}])


def _random_family(rng: random.Random) -> tuple[int, list[frozenset[int]]]:
    """A true circuit family (of a small integer matrix) or one spoiled by a
    dropped circuit, an added superset or subset, a duplicate, or random sets."""
    n = rng.randint(1, 8)
    m = [[Fraction(rng.choice((-1, 0, 0, 1, 2))) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    family = list(matroid_from_matrix(m).circuits())
    kind = rng.randrange(6)
    if kind == 1 and family:
        family.pop(rng.randrange(len(family)))
    elif kind == 2 and family:
        c = family[rng.randrange(len(family))]
        family.append(c | {rng.randint(1, n)})
    elif kind == 3 and family:
        c = sorted(family[rng.randrange(len(family))])
        family.append(frozenset(c[:-1]) or frozenset(c))
    elif kind == 4 and family:
        family.append(family[rng.randrange(len(family))])
    elif kind == 5:
        family = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(rng.randint(1, 6))]
    rng.shuffle(family)
    return n, family


def test_is_circuit_family_agrees_with_the_frozenset_definition():
    rng = random.Random(20240)
    verdicts = []
    for _ in range(300):
        n, family = _random_family(rng)
        verdict = is_circuit_family(n, family)
        assert verdict == frozenset_is_circuit_family(n, family), (n, family)
        verdicts.append(verdict)
    assert 60 <= sum(verdicts) <= 240


def test_pairing_only_small_circuits_agrees_with_the_all_pairs_check():
    """Elimination pairs only circuits no larger than the largest
    circuit-free set.  Against the check that pairs every two circuits:
    seeded true and spoiled families (dropped circuits, supersets, subsets,
    duplicates, random sets), families that fail only the elimination
    axiom, and the grid families the suite builds, whole and with one
    circuit dropped."""
    rng = random.Random(20241)
    cases = [_random_family(rng) for _ in range(400)]
    # elimination fails twice; then U(2, 4), where no circuit is small enough to pair
    cases += [(3, [{1, 2}, {2, 3}]), (4, [{1, 2, 3}, {1, 4}]), (4, list(combinations(range(1, 5), 3)))]
    for spec in (GridSpec(k=3, l=3, s=3, t=3, d=3), GridSpec(k=3, l=4, s=3, t=3, d=3)):
        family = list(grid_circuit_family(spec))
        cases.append((spec.n, family))
        for drop in (0, len(family) // 2, len(family) - 1):
            cases.append((spec.n, family[:drop] + family[drop + 1 :]))
    verdicts = []
    for n, family in cases:
        verdict = is_circuit_family(n, family)
        assert verdict == all_pairs_is_circuit_family(n, family), (n, family)
        verdicts.append(verdict)
    assert verdicts[400:] == [False, False, True] + [True, False, False, False] * 2
    assert 80 <= sum(verdicts) <= len(verdicts) - 80


def test_is_circuit_family_at_the_cap():
    # element 14 is the top bit of the table
    for family in (
        [{1, 2, 3}, {13, 14}],
        [{13, 14}, {1, 14}, {1, 13}],
        [{13, 14}, {1, 14}],
        [{1, 2, 14}, {1, 3, 14}],
        [{1, 2, 14}, {1, 3, 14}, {2, 3, 14}, {1, 2, 3}],
    ):
        assert is_circuit_family(14, family) == frozenset_is_circuit_family(14, family), family
    for family in ([{1}], [{15}], []):
        with pytest.raises(ValueError):
            is_circuit_family(15, family)
        with pytest.raises(ValueError):
            frozenset_is_circuit_family(15, family)


def test_circuit_matroid_above_the_axiom_check_cap():
    # no axiom check runs at n = 20; circuits and ranks come from the family
    assert 20 > AXIOM_CHECK_CAP
    big = CircuitMatroid(tuple(range(1, 21)), (frozenset({1, 2, 20}), frozenset({3, 4})))
    assert big.circuits() == (frozenset({3, 4}), frozenset({1, 2, 20}))
    assert big.rank_of([1, 2, 20]) == 2


def test_shadow_never_decides_dependence():
    # independent over Q, singular mod SHADOW_PRIME
    matrix = linalg.mat([[1, 0], [0, linalg.SHADOW_PRIME]])
    m = matroid_from_matrix(matrix)
    assert linalg.rank_mod_p(matrix) == 1
    assert m.rank_of([1, 2]) == 2
    assert m.is_independent([1, 2])
    assert m.circuits() == ()


def test_shadow_columns_with_the_prime_in_a_denominator_are_residues():
    # column (1/p, 1) scales to (1, p), whose residues are (1, 0)
    p = linalg.SHADOW_PRIME
    m = matroid_from_matrix([[Fraction(1, p), Fraction(1), Fraction(2)], [Fraction(1), Fraction(1, 3), Fraction(2, 3)]])
    assert m._shadow_columns == ([1, 0], [3, 1], [6, 2])
    assert [m.rank_of(s) for s in ([1], [1, 2], [2, 3], [1, 2, 3])] == [1, 2, 1, 2]
    assert m.circuits() == (frozenset({2, 3}),)


def test_cached_shadow_rank_equals_exact_rank():
    p = linalg.SHADOW_PRIME
    rng = random.Random(17)
    entries = (0, 1, -2, Fraction(3, 4), p, 2 * p, Fraction(1, p), Fraction(p, 5))
    for _ in range(60):
        d, n = rng.randint(1, 4), rng.randint(1, 6)
        matrix = [[Fraction(rng.choice(entries)) for _ in range(n)] for _ in range(d)]
        m = matroid_from_matrix(matrix)
        for size in range(1, n + 1):
            for subset in combinations(range(1, n + 1), size):
                assert m.rank_of(subset) == linalg.rank(linalg.column_submatrix(matrix, subset)), (matrix, subset)


def test_integer_columns_match_the_fractional_oracle():
    """Seeded products of fractional factors with one column over a
    denominator 3p, fresh or parallel to another column: the circuits equal
    the brute-force oracle, and every `rank_of` equals `linalg.rank` of
    the column submatrix.  The column's scale is a multiple of p, and its
    shadow is still the residues of its integer multiple."""
    p = linalg.SHADOW_PRIME
    rng = random.Random(43)
    for trial in range(40):
        d, n = rng.randint(1, 4), rng.randint(2, 6)
        r = rng.randint(1, d)
        a = [[rand_fraction_small(rng) for _ in range(r)] for _ in range(d)]
        b = [[rand_fraction_small(rng) for _ in range(n)] for _ in range(r)]
        matrix = [[sum((a[i][t] * b[t][j] for t in range(r)), Fraction(0)) for j in range(n)] for i in range(d)]
        j, k = rng.sample(range(n), 2)
        parallel = trial % 2 and any(row[k] for row in matrix)
        for row in matrix:
            row[j] = row[k] * Fraction(2, 3 * p) if parallel else Fraction(rng.randint(1, 9), 3 * p)
        m = matroid_from_matrix(matrix)
        assert m._shadow_columns[j] == linalg.vector_mod_p([row[j] for row in matrix])
        assert m.circuits() == brute_force_circuits(matrix), matrix
        for size in range(1, n + 1):
            for subset in combinations(range(1, n + 1), size):
                assert m.rank_of(subset) == linalg.rank(linalg.column_submatrix(matrix, subset)), (matrix, subset)


def test_shadow_columns_are_not_shared_between_instances():
    free = matroid_from_matrix(linalg.identity(2))
    assert free.rank_of([1, 2]) == 2
    parallel = matroid_from_matrix(linalg.mat([[1, 2], [0, 0]]))
    assert parallel.rank_of([1, 2]) == 1
    assert parallel.circuits() == (frozenset({1, 2}),)
    assert free._shadow_columns == ([1, 0], [0, 1])
    assert parallel._shadow_columns == ([1, 0], [2, 0])
    assert "_shadow_columns" in vars(free) and "_shadow_columns" in vars(parallel)


def test_linear_matroid_enumerates_its_circuits_once():
    free = matroid_from_matrix(linalg.identity(3))
    lines = matroid_from_matrix(concurrent_lines_matrix())
    assert free.circuits() == ()
    first = lines.circuits()
    assert first == Matroid.circuits(lines)
    assert lines.circuits() is first
    assert matroid_from_matrix(concurrent_lines_matrix()).circuits() == first
    sub = matroid_from_matrix(linalg.column_submatrix(concurrent_lines_matrix(), [1, 2, 3]))
    assert sub.circuits() == (frozenset({1, 2, 3}),)
    assert free.circuits() == ()


def _small_matrix(rng: random.Random) -> list[list[Fraction]]:
    """A d x n product of a d x r and an r x n integer matrix, r <= d, with
    some columns zeroed (loops) and some replaced by multiples of others
    (parallel pairs)."""
    d, n = rng.randint(1, 4), rng.randint(1, 7)
    r = rng.randint(0, d)
    a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(d)]
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    cols = [[Fraction(sum(a[i][t] * b[t][j] for t in range(r))) for i in range(d)] for j in range(n)]
    for j in range(n):
        roll = rng.random()
        if roll < 0.15:
            cols[j] = [Fraction(0)] * d
        elif roll < 0.35 and j:
            scale = rng.choice((1, -2, Fraction(1, 3)))
            cols[j] = [scale * x for x in cols[rng.randrange(j)]]
    return [[cols[j][i] for j in range(n)] for i in range(d)]


def test_circuits_match_the_brute_force_oracle():
    rng = random.Random(23)
    seen = {"loop": False, "parallel": False, "rank below rows": False}
    for _ in range(150):
        matrix = _small_matrix(rng)
        m = matroid_from_matrix(matrix)
        expected = brute_force_circuits(matrix)
        assert m.circuits() == Matroid.circuits(m) == expected, matrix
        seen["loop"] |= any(len(c) == 1 for c in expected)
        seen["parallel"] |= any(len(c) == 2 for c in expected)
        seen["rank below rows"] |= m.full_rank() < len(matrix)
    assert all(seen.values()), seen


def test_circuit_enumeration_queries_no_set_the_rank_bound_settles(monkeypatch):
    # a shadow circuit of size full_rank() + 1 is a circuit by the rank
    # bound; only smaller ones cost an exact rank, of exactly their columns
    exact = _spy_exact_columns(monkeypatch)
    rng = random.Random(29)
    offsets, settled = set(), 0
    for matrix in [concurrent_lines_matrix(), linalg.identity(3)] + [_small_matrix(rng) for _ in range(40)]:
        m = matroid_from_matrix(matrix)
        full = m.full_rank()
        exact.clear()
        circuits = m.circuits()
        assert circuits == brute_force_circuits(matrix), matrix
        assert sorted(map(len, exact)) == sorted(len(c) for c in circuits if len(c) <= full), matrix
        offsets.update(len(cols) - full for cols in exact)
        settled += sum(len(c) == full + 1 for c in circuits)
    assert settled and max(offsets) == 0


def _has_nonzero_minor(matrix, cols) -> bool:
    """Whether some square submatrix on exactly these columns has a nonzero
    exact determinant; the empty column set has the empty minor, 1."""
    return not cols or any(
        linalg.det([[matrix[i][j - 1] for j in cols] for i in rows]) for rows in combinations(range(len(matrix)), len(cols))
    )


def test_shadow_bases_from_the_minor_table_equal_the_brute_force_bases():
    """The minor table over [I_r | N] names exactly the r-sets of columns
    with a nonzero r x r exact determinant, r the rank, each once: on seeded
    small products with loops, parallel pairs and rank below the rows, and
    at r = 0 and r = n."""
    rng = random.Random(47)
    seen = {"loop": False, "parallel": False, "rank below rows": False, "r = 0": False, "r = n": False}
    matrices = [_small_matrix(rng) for _ in range(120)] + [linalg.identity(3), linalg.mat([[0, 0, 0], [0, 0, 0]])]
    for matrix in matrices:
        n = len(matrix[0])
        m = matroid_from_matrix(matrix)
        bases = m._shadow_bases()
        r = bases[0].bit_count()
        expected = [
            sum(1 << (j - 1) for j in cols) for cols in combinations(range(1, n + 1), r) if _has_nonzero_minor(matrix, cols)
        ]
        assert r == linalg.rank(matrix), matrix
        assert sorted(bases) == sorted(expected), matrix
        circuits = m.circuits()
        seen["loop"] |= any(len(c) == 1 for c in circuits)
        seen["parallel"] |= any(len(c) == 2 for c in circuits)
        seen["rank below rows"] |= 0 < r < len(matrix)
        seen["r = 0"] |= r == 0
        seen["r = n"] |= r == n
    assert all(seen.values()), seen


def _spy_exact_columns(monkeypatch) -> list[list[tuple[int, ...]]]:
    """Record the columns of every exact `integer_rank` call made in
    `matroid`, the exact route of `LinearMatroid`: it eliminates on the
    integer columns, one per row, in ground order.  A list per call keeps
    equal columns apart, so a parallel pair does not read as one column."""
    calls: list[list[tuple[int, ...]]] = []
    real = matroid_module.integer_rank

    def counted(m):
        calls.append([tuple(col) for col in m])
        return real(m)

    monkeypatch.setattr(matroid_module, "integer_rank", counted)
    return calls


def _columns(matrix, c) -> list[tuple[int, ...]]:
    """The columns c of the matrix in ground order, each scaled to integers
    by its denominator lcm."""
    return [tuple(linalg.integer_multiple([row[e - 1] for row in matrix])[1]) for e in sorted(c)]


def rand_fraction_small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7)))


def test_level_wise_circuits_match_the_oracle_on_fractional_matrices(monkeypatch):
    """Seeded products of fractional factors with loops and parallel columns:
    the circuits equal the brute-force oracle, and every circuit below size
    full_rank() + 1 was confirmed by an exact rank of exactly its columns."""
    exact = _spy_exact_columns(monkeypatch)
    rng = random.Random(31)
    sizes = set()
    for _ in range(60):
        d, n = rng.randint(1, 4), rng.randint(1, 7)
        r = rng.randint(0, d)
        a = [[rand_fraction_small(rng) for _ in range(r)] for _ in range(d)]
        b = [[rand_fraction_small(rng) for _ in range(n)] for _ in range(r)]
        matrix = [[sum((a[i][t] * b[t][j] for t in range(r)), Fraction(0)) for j in range(n)] for i in range(d)]
        if n > 1 and rng.random() < 0.5:
            for row in matrix:
                row[-1] = row[0] * Fraction(-2, 7)
        m = matroid_from_matrix(matrix)
        exact.clear()
        expected = brute_force_circuits(matrix)
        assert m.circuits() == expected, matrix
        full = m.full_rank()
        for c in expected:
            sizes.add(len(c) - full)
            if len(c) <= full:
                assert _columns(matrix, c) in exact, (matrix, c)
    assert {-1, 0, 1} <= sizes


def test_circuits_with_a_column_the_shadow_cannot_reduce(monkeypatch):
    """Columns 1 and 5 have denominator p.  Scaled to integers they have
    residues like any other column, so single columns, the singleton {1}
    among them, and sets independent mod p are decided by the shadow; only
    sets dependent mod p, the parallel pair {1, 2} among them, cost an exact
    rank, and the circuits equal the oracle."""
    p = linalg.SHADOW_PRIME
    matrix = [
        [Fraction(1, p), Fraction(1), Fraction(0), Fraction(2), Fraction(1)],
        [Fraction(1), Fraction(p), Fraction(1), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(3), Fraction(1), Fraction(1, p)],
    ]
    m = matroid_from_matrix(matrix)
    assert m._shadow_columns[0] == m._shadow_columns[1] == [1, 0, 0] and m._shadow_columns[4] == [0, 0, 1]
    exact = _spy_exact_columns(monkeypatch)
    assert m.circuits() == brute_force_circuits(matrix)
    assert frozenset({1, 2}) in m.circuits()
    assert _columns(matrix, [1, 2]) in exact
    assert _columns(matrix, [1, 3]) not in exact and _columns(matrix, [1, 3, 4]) not in exact
    assert _columns(matrix, [1]) not in exact


def test_circuits_when_the_shadow_rank_falls_below_the_rank_over_q(monkeypatch):
    """Columns (p, 1, 0) and (0, 1, 0) are independent over Q but parallel
    mod p.  The shadow circuit {1, 2} fails its exact confirmation, so the
    circuits come from `rank_of` queries alone, and {1, 2, 3}, dependent mod
    p, goes to an exact rank as well."""
    p = linalg.SHADOW_PRIME
    cols = [(p, 1, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, 0, 1)]
    matrix = [[Fraction(c[r]) for c in cols] for r in range(3)]
    assert linalg.rank_mod_p(linalg.column_submatrix(matrix, [1, 2])) == 1
    assert linalg.rank(linalg.column_submatrix(matrix, [1, 2])) == 2
    m = matroid_from_matrix(matrix)
    exact = _spy_exact_columns(monkeypatch)
    assert m.circuits() == brute_force_circuits(matrix)
    assert _columns(matrix, [1, 2]) in exact
    assert _columns(matrix, [1, 2, 3]) in exact
    assert all(c != frozenset({1, 2}) for c in m.circuits())


def _count_rank_queries(monkeypatch) -> list[int]:
    """Record the size of every `LinearMatroid.rank_of` query."""
    sizes: list[int] = []
    real = LinearMatroid.rank_of

    def counted(self, subset):
        subset = list(subset)
        sizes.append(len(subset))
        return real(self, subset)

    monkeypatch.setattr(LinearMatroid, "rank_of", counted)
    return sizes


def test_a_shadow_circuit_independent_over_q_sends_the_enumeration_to_rank_of(monkeypatch):
    """Where a shadow circuit is independent over Q the shadow has no
    circuits to offer, and `circuits` asks `rank_of` about every
    full_rank()-set; where every one is confirmed, `rank_of` answers
    full_rank() alone."""
    p = linalg.SHADOW_PRIME
    loop_mod_p = linalg.mat([[1, 0], [0, p]])
    pair_mod_p = [[Fraction(c[r]) for c in [(p, 1, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]] for r in range(3)]
    queries = _count_rank_queries(monkeypatch)
    for matrix in (loop_mod_p, pair_mod_p):
        m = matroid_from_matrix(matrix)
        assert m._shadow_circuits() is None
        queries.clear()
        assert m.circuits() == brute_force_circuits(matrix)
        full = m.full_rank()
        assert queries == [full] * math.comb(len(m.ground), full)
    lines = matroid_from_matrix(concurrent_lines_matrix())
    queries.clear()
    assert lines.circuits() == brute_force_circuits(concurrent_lines_matrix())
    assert queries == [7]
    assert lines._shadow_circuits() is not None


@pytest.mark.parametrize("m, n, r, count", [(3, 3, 1, 15), (3, 4, 2, 4), (4, 4, 2, 112)])
def test_completion_matroids_have_their_rank_and_every_minor_as_a_circuit(m, n, r, count):
    """The algebraic matroid of the m x n matrices of rank at most r on
    their entries (entry (i, j) is element (i-1)n + j) has rank (m+n-r)r,
    and the entries of every (r+1) x (r+1) submatrix form a circuit."""
    matroid = algebraic_matroid(matrix_product_map(m, n, r), random.Random(5))
    circuits = matroid.circuits()
    assert matroid.full_rank() == (m + n - r) * r
    assert len(circuits) == count
    for rows in combinations(range(1, m + 1), r + 1):
        for cols in combinations(range(1, n + 1), r + 1):
            assert frozenset((i - 1) * n + j for i in rows for j in cols) in circuits, (rows, cols)


def test_circuit_enumeration_runs_at_the_cap_and_refuses_one_more():
    at_cap = algebraic_matroid(matrix_product_map(4, 4, 2), random.Random(5))
    assert len(at_cap.ground) == matroid_module.ENUMERATION_CAP == 16
    assert len(at_cap.circuits()) == 112
    above = matroid_from_matrix([[Fraction(1)] * 17])
    with pytest.raises(ValueError) as exc:
        above.circuits()
    assert str(exc.value) == "circuit enumeration is capped at 16 elements, got 17"


def test_grid_circuit_family_satisfies_the_axioms():
    spec = GridSpec(k=3, l=3, s=3, t=3, d=3)
    family = grid_circuit_family(spec)
    assert is_circuit_family(9, family)
    # three row triples, three column triples, plus incomparable 4-subsets
    triples = [c for c in family if len(c) == 3]
    assert len(triples) == 6
    quads = [c for c in family if len(c) == 4]
    assert all(not any(t < q for t in triples) for q in quads)


def test_in_variety_decides_edge_dependence():
    H = Hypergraph.of(7, [{1, 2, 3}, {1, 4, 5}, {1, 6, 7}])
    assert in_variety(H, concurrent_lines_matrix())
    free = linalg.identity(3)
    assert not in_variety(Hypergraph.of(3, [{1, 2}]), free)
    assert in_variety(Hypergraph.of(2, [{1}]), linalg.mat([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        in_variety(Hypergraph.of(9, [{9}]), free)


def test_restriction_basics():
    # the restriction to a column subset: rank as in the whole matroid, and
    # exactly the whole matroid's circuits that lie inside the subset
    m = matroid_from_matrix(concurrent_lines_matrix())
    empty = matroid_from_matrix([[], [], []])
    assert empty.ground == () and empty.full_rank() == 0 and empty.circuits() == ()
    kept = [1, 2, 3, 4]
    sub = matroid_from_matrix(linalg.column_submatrix(concurrent_lines_matrix(), kept))
    assert sub.full_rank() == m.rank_of(kept)
    assert sub.circuits() == tuple(c for c in m.circuits() if c <= set(kept))


def test_circuit_matroid_rank_and_restriction():
    m = CircuitMatroid((1, 2, 3), (frozenset({1, 2, 3}),))
    assert m.full_rank() == 2
    assert m.is_independent({1, 2})
    assert m.rank_of({1, 2}) == m.rank_of({2, 3}) == 2
    assert m.rank_of({1}) == 1 and m.rank_of(()) == 0


def test_rank_oracle_enumeration_recovers_a_circuit_family():
    """`Matroid.circuits` on a matroid with no shadow state queries its rank
    oracle alone: on circuit-presented matroids it returns their family."""
    rng = random.Random(37)
    families = [grid_circuit_family(GridSpec(k=3, l=3, s=3, t=3, d=3))]
    families += [brute_force_circuits(_small_matrix(rng)) for _ in range(30)]
    for family in families:
        n = max((max(c) for c in family), default=0)
        m = CircuitMatroid(tuple(range(1, n + 1)), family)
        assert Matroid.circuits(m) == m.circuits() == family


def test_realize_grid_matroid_instance():
    spec = GridSpec(k=3, l=3, s=3, t=3, d=3)
    rng = child_rng(7, "grid-realization")
    mat = realize_grid_matroid(spec, rng)
    assert len(mat) == 3 and len(mat[0]) == 9
    assert linalg.rank(mat) == 3
    m = matroid_from_matrix(mat)
    assert m.circuits() == grid_circuit_family(spec)
    assert in_variety(grid_hypergraph(spec), mat)
    # every 4-subset is dependent in a rank-3 matroid
    assert all(m.is_dependent(c) for c in combinations(range(1, 10), 4))


def test_realize_grid_matroid_restriction_to_a_column_block():
    spec = GridSpec(k=3, l=3, s=3, t=3, d=3)
    mat = realize_grid_matroid(spec, child_rng(11, "grid-realization"))
    m = matroid_from_matrix(mat)
    assert m.rank_of([4, 5, 6]) == 2
    assert [c for c in m.circuits() if c <= {4, 5, 6}] == [frozenset({4, 5, 6})]


def test_realize_grid_matroid_on_the_three_by_four_grid():
    spec = GridSpec(k=3, l=4, s=3, t=3, d=3)
    mat = realize_grid_matroid(spec, child_rng(13, "grid-realization"))
    m = matroid_from_matrix(mat)
    assert m.full_rank() == 3
    assert m.circuits() == grid_circuit_family(spec)


def test_realize_grid_matroid_rejects_out_of_regime_specs():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        realize_grid_matroid(GridSpec(k=3, l=3, s=3, t=3, d=4), rng)  # d = s+t-2
    with pytest.raises(ValueError):
        realize_grid_matroid(GridSpec(k=3, l=3, s=2, t=3, d=3), rng)  # s < 3


def test_regime_arithmetic():
    spec = GridSpec(k=3, l=3, s=3, t=3, d=3)
    assert spec.in_realization_regime()
    assert (spec.s - 1) + (spec.t - 1) - spec.d == 1


def test_segre_two_by_two_has_a_single_four_circuit():
    pm = segre_map(2, 2)
    m = algebraic_matroid(pm, child_rng(3, "segre"))
    assert m.circuits() == (frozenset({1, 2, 3, 4}),)
    assert pm.display_labels() == ("11", "12", "21", "22")
    assert m.full_rank() == 3


def test_jacobian_gradients_keep_their_plans_across_draws():
    pm = matrix_product_map(2, 3, 2)
    rng = random.Random(61)
    points = [{v: Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for v in pm.ring.variables} for _ in range(2)]
    jacobians, plans = [], []
    for point in points:
        jacobians.append(pm.jacobian_at(point))
        plans.append([g._plan for row in pm._gradients for g in row])
    assert all(plan is not None for plan in plans[0])
    assert all(a is b for a, b in zip(*plans))
    for point, jacobian in zip(points, jacobians):
        assert jacobian == [[f.derivative(v).evaluate(point) for v in pm.ring.variables] for f in pm.coords]


def test_identity_parametrization_is_free():
    ring = PolyRing.of(Var("u", (i,)) for i in range(1, 6))
    pm = PolyMap(ring, tuple(ring.var(v) for v in ring.variables))
    m = algebraic_matroid(pm, child_rng(3, "free"))
    assert m.circuits() == ()
    assert m.full_rank() == 5


def test_three_by_three_rank_two_matroid():
    pm = matrix_product_map(3, 3, 2)
    m = algebraic_matroid(pm, child_rng(5, "product"))
    assert m.full_rank() == 8
    for sub in combinations(range(1, 10), 8):
        assert m.is_independent(sub)
    assert m.is_dependent(range(1, 10))
    assert m.circuits() == (frozenset(range(1, 10)),)


def test_linear_parametrization_matches_column_matroid():
    rng = random.Random(2)
    coeffs = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(5)]
    ring = PolyRing.of(Var("u", (i,)) for i in range(1, 4))
    coords = []
    for row in coeffs:
        total = ring.zero()
        for c, v in zip(row, ring.variables):
            total = total + c * ring.var(v)
        coords.append(total)
    pm = PolyMap(ring, tuple(coords))
    m = algebraic_matroid(pm, child_rng(4, "linear"))
    direct = matroid_from_matrix(linalg.transpose(coeffs))
    assert m.ground == direct.ground and m.circuits() == direct.circuits()


def test_disagreeing_jacobian_matroids_name_both_circuit_families(monkeypatch):
    """Draws that alternate between a free matroid and one 3-circuit never
    agree; the error names both circuit families."""
    pm = segre_map(2, 2)
    free = matroid_from_matrix(linalg.identity(4))
    triangle = matroid_from_matrix(linalg.mat([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]))
    made = []

    def alternate(matrix):
        made.append(matrix)
        return free if len(made) % 2 else triangle

    monkeypatch.setattr(matroid_module, "matroid_from_matrix", alternate)
    with pytest.raises(GenericityError, match="Jacobian matroid") as info:
        algebraic_matroid(pm, child_rng(3, "segre"))
    assert len(made) == 2 * GENERIC_ATTEMPTS
    assert f"() vs {triangle.circuits()}" in str(info.value)


def test_polymap_parse_round_trip():
    pm = segre_map(2, 2)
    text = "params u_1 u_2 v_1 v_2\n" + "\n".join(
        f"coord {lbl} {f.to_text()}" for lbl, f in zip(pm.display_labels(), pm.coords)
    )
    parsed = PolyMap.parse(text)
    assert parsed.coords == pm.coords
    assert parsed.labels == pm.display_labels()


def test_arrangement_signature_concurrent_lines():
    sig = arrangement_signature(concurrent_lines_matrix())
    assert sig.points == 7
    assert sig.lines == 3
    assert sig.line_sizes == (3, 3, 3)
    assert sig.multipoint_degrees == (3,)
    assert "lines 3" in sig.to_text()


def test_arrangement_signature_generic_points():
    rng = random.Random(33)
    sig = arrangement_signature(rand_matrix(rng, 3, 7))
    assert sig.lines == 0
    assert sig.multipoint_degrees == ()


def test_arrangement_signature_collinear_points():
    cols = [(1, i, 0) for i in range(6)]
    mat = [[Fraction(c[r]) for c in cols] for r in range(3)]
    sig = arrangement_signature(mat)
    assert sig.lines == 1
    assert sig.line_sizes == (6,)


def test_arrangement_signature_merges_parallel_columns_and_skips_loops():
    cols = [(1, 0, 0), (2, 0, 0), (0, 0, 0), (0, 1, 0), (1, 1, 0)]
    mat = [[Fraction(c[r]) for c in cols] for r in range(3)]
    sig = arrangement_signature(mat)
    assert sig.points == 3
    assert sig.lines == 1 and sig.line_sizes == (3,)


def arrangement_cases(seed: int) -> list[list[list[Fraction]]]:
    """Seeded 3 x n matrices, and one with no columns.  The first column is a
    fresh point; each later one is a zero column, a fractional multiple of an
    earlier column (parallel), a combination of two earlier columns
    (collinear), or a fresh point with small fractional entries."""
    rng = random.Random(seed)

    def nonzero() -> Fraction:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

    cases = [[[], [], []]]
    for _ in range(150):
        cols: list[list[Fraction]] = []
        for _ in range(rng.randint(1, 9)):
            kind = rng.randrange(4) if cols else 3
            if kind == 0:
                cols.append([Fraction(0)] * 3)
            elif kind == 1:
                c = nonzero()
                cols.append([c * x for x in rng.choice(cols)])
            elif kind == 2:
                a, b, c1, c2 = nonzero(), nonzero(), rng.choice(cols), rng.choice(cols)
                cols.append([a * x + b * y for x, y in zip(c1, c2)])
            else:
                cols.append([Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(3)])
        cases.append([[col[r] for col in cols] for r in range(3)])
    return cases


def test_arrangement_signature_matches_the_rank_oracle():
    cases = arrangement_cases(83)
    signatures = [arrangement_signature(m) for m in cases]
    assert any(sig.lines >= 2 for sig in signatures)
    assert any(sig.multipoint_degrees for sig in signatures)
    assert any(sig.points < len(m[0]) for sig, m in zip(signatures, cases))
    for sig, m in zip(signatures, cases):
        expected = rank_arrangement_signature(m)
        assert (sig.points, sig.lines, sig.line_sizes, sig.multipoint_degrees) == expected, m


def test_arrangement_signature_runs_no_exact_rank(monkeypatch):
    def spy(m):
        raise AssertionError("arrangement_signature called an exact rank")

    monkeypatch.setattr(linalg, "rank", spy)
    monkeypatch.setattr(matroid_module, "rank", spy)
    sig = arrangement_signature(concurrent_lines_matrix())
    assert (sig.points, sig.lines, sig.multipoint_degrees) == (7, 3, (3,))
    for m in arrangement_cases(84)[:20]:
        arrangement_signature(m)
