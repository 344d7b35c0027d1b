import gc
import random
import sys
import weakref
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from operator import add, le, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import det_by_permutations, naive_evaluate, perm_minor, random_polynomial, reference_key, reference_to_text
from cigrid import poly
from cigrid.ideals import Ideal
from cigrid.poly import (
    DEGREVLEX,
    LEX,
    MonomialOrder,
    PolyRing,
    SymbolicMatrix,
    Polynomial,
    Var,
    all_minors,
    generic_matrix,
    minor,
    normalize_sign,
    parse_polynomial,
    require_homogeneous,
    var,
)


def small_ring(names="xyz"):
    return PolyRing.of(Var(n) for n in names)


def weight_key(order, n, bits):
    """The packed descending key sum(w[i] * m[i]) of `MonomialOrder.weights`."""
    w = order.weights(n, bits)
    return lambda m: sum(map(mul, m, w))


def test_var_ordering_is_row_major():
    vs = [var("x", 2, 1), var("x", 1, 2), var("x", 1, 1)]
    assert sorted(vs) == [var("x", 1, 1), var("x", 1, 2), var("x", 2, 1)]
    assert str(var("x", 1, 2)) == "x_1_2"
    assert Var.parse("p_2_1_3") == var("p", 2, 1, 3)


def test_two_by_two_minor():
    X = generic_matrix(2, 2)
    f = minor(X, [1, 2], [1, 2])
    a = X.ring
    expected = a.var(var("x", 1, 1)) * a.var(var("x", 2, 2)) - a.var(var("x", 1, 2)) * a.var(var("x", 2, 1))
    assert f == expected


def test_one_by_one_minor_is_the_entry():
    X = generic_matrix(2, 3)
    assert minor(X, [1], [3]) == X.ring.var(var("x", 1, 3))


def test_three_by_seven_leading_minor_matches_permutation_expansion():
    X = generic_matrix(3, 7)
    f = minor(X, [1, 2, 3], [1, 2, 3])
    assert len(f.terms) == 6
    assert f.total_degree() == 3
    assert f == perm_minor(X, [1, 2, 3], [1, 2, 3])


def test_minor_rejects_mismatched_index_sets():
    X = generic_matrix(3, 3)
    with pytest.raises(ValueError):
        minor(X, [1, 2], [1])
    with pytest.raises(ValueError):
        minor(X, [1, 4], [1, 2])
    # repeated indices are not collapsed into a smaller minor
    for rows, cols in [([1, 1], [2, 2]), ([1, 2], [3, 3]), ([2, 2], [1, 3]), ([1, 2, 1], [1, 2, 3])]:
        with pytest.raises(ValueError, match="repeated row or column index"):
            minor(X, rows, cols)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_minor_equals_permutation_sum(size, data):
    X = generic_matrix(4, 5)
    rows = tuple(sorted(data.draw(st.sets(st.integers(1, 4), min_size=size, max_size=size))))
    cols = tuple(sorted(data.draw(st.sets(st.integers(1, 5), min_size=size, max_size=size))))
    assert minor(X, rows, cols) == perm_minor(X, rows, cols)


def test_ring_axioms_on_random_triples():
    ring = small_ring()
    rng = random.Random(7)
    for _ in range(40):
        f = random_polynomial(rng, ring)
        g = random_polynomial(rng, ring)
        h = random_polynomial(rng, ring)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


def test_evaluate_is_multiplicative_and_additive():
    ring = small_ring()
    rng = random.Random(11)
    for _ in range(30):
        f = random_polynomial(rng, ring)
        g = random_polynomial(rng, ring)
        point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for v in ring.variables}
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
        assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


def test_evaluate_commutator_is_zero():
    ring = small_ring("xy")
    x = ring.var(Var("x"))
    y = ring.var(Var("y"))
    f = x * y - y * x
    assert f.is_zero()
    assert f.evaluate({Var("x"): 3, Var("y"): 5}) == 0


def test_evaluate_two_by_two_minor_at_identity():
    X = generic_matrix(2, 2)
    f = minor(X, [1, 2], [1, 2])
    assert f.evaluate(X.assignment([[1, 0], [0, 1]])) == 1


def test_assignment_maps_entries_row_major_and_rejects_bad_input():
    X = generic_matrix(2, 3)
    point = X.assignment([[1, 2, 3], [4, 5, 6]])
    assert len(point) == len(X.ring.variables)
    assert {v: point[X.ring.position(v)] for v in X.ring.variables} == {
        Var("x", (i, j)): Fraction(3 * (i - 1) + j) for i in (1, 2) for j in (1, 2, 3)
    }
    assert X.assignment([[0, 0, 0], [7, 0, 0]])[X.ring.position(Var("x", (2, 1)))] == 7
    for values in ([[1, 2, 3]], [[1, 2], [3, 4]], [[1, 2, 3], [4, 5]]):
        with pytest.raises(ValueError, match="shape mismatch"):
            X.assignment(values)
    x, y = X.ring.var(Var("x", (1, 1))), X.ring.var(Var("x", (1, 2)))
    for entry in (x + y, X.ring.const(1)):
        mixed = SymbolicMatrix(X.ring, ((x, entry),))
        with pytest.raises(ValueError, match="single-variable"):
            mixed.assignment([[1, 2]])


def test_evaluate_rejects_unassigned_variable():
    ring = small_ring("xy")
    f = ring.var(Var("x")) + ring.var(Var("y"))
    with pytest.raises(ValueError):
        f.evaluate({Var("x"): 1})


def test_degree_six_product_evaluates_like_determinant_products():
    X = generic_matrix(3, 7)
    memo = {}
    f = minor(X, [1, 2, 3], [2, 3, 4], memo) * minor(X, [1, 2, 3], [5, 6, 7], memo) - minor(
        X, [1, 2, 3], [2, 3, 5], memo
    ) * minor(X, [1, 2, 3], [4, 6, 7], memo)
    rng = random.Random(3)
    values = [[Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(7)] for _ in range(3)]
    point = X.assignment(values)

    def sub(cols):
        return [[values[i][j - 1] for j in cols] for i in range(3)]

    direct = det_by_permutations(sub([2, 3, 4])) * det_by_permutations(sub([5, 6, 7])) - det_by_permutations(
        sub([2, 3, 5])
    ) * det_by_permutations(sub([4, 6, 7]))
    assert f.evaluate(point) == direct


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=3, max_size=3),
    st.lists(st.integers(0, 5), min_size=3, max_size=3),
    st.lists(st.integers(0, 5), min_size=3, max_size=3),
)
def test_monomial_orders_are_multiplicative(a, b, c):
    a, b, c = tuple(a), tuple(b), tuple(c)
    ac, bc = tuple(map(add, a, c)), tuple(map(add, b, c))
    ring = small_ring()
    orders = (LEX, DEGREVLEX, ring.elimination_order({Var("y")}), MonomialOrder("block", ((2, 0, 1),)))
    for order in orders:
        ra, rb = reference_key(order, a), reference_key(order, b)
        assert (ra < rb) == (reference_key(order, ac) < reference_key(order, bc))
        # the unit monomial is minimal
        assert reference_key(order, (0, 0, 0)) <= ra
        for bits in (4, 8):
            if max(sum(ac), sum(bc)) >= 1 << bits:
                continue  # the key orders monomials whose degree fits in a field
            key = weight_key(order, 3, bits)
            # descending: the larger monomial has the smaller key
            assert (key(a) < key(b)) == (ra > rb)
            assert key(ac) == key(a) + key(c) and key(bc) == key(b) + key(c)
            assert key((0, 0, 0)) >= key(a)


def test_block_order_prefers_the_elimination_block():
    ring = small_ring("xyz")
    order = ring.elimination_order({Var("x")})
    # any monomial containing x dominates any x-free monomial
    assert reference_key(order, (1, 0, 0)) > reference_key(order, (0, 5, 5))
    for bits in (4, 8):
        key = weight_key(order, 3, bits)
        assert key((1, 0, 0)) < key((0, 5, 5))


def test_text_round_trip():
    ring = PolyRing.of([var("x", 1, 1), var("x", 1, 2), var("x", 2, 1), var("x", 2, 2)])
    rng = random.Random(23)
    for _ in range(25):
        f = random_polynomial(rng, ring)
        assert parse_polynomial(f.to_text(), ring) == f
    f = parse_polynomial("2/3 * x_1_1^2 * x_2_2 - x_1_2 + 4", ring)
    assert f.evaluate({var("x", 1, 1): 3, var("x", 2, 2): 1, var("x", 1, 2): 4}) == Fraction(2, 3) * 9 - 4 + 4


def test_normalize_sign_makes_leading_coefficient_positive():
    X = generic_matrix(2, 2)
    f = minor(X, [1, 2], [1, 2])
    g = normalize_sign(f)
    assert g.leading()[1] > 0
    assert g == f or g == -f
    assert normalize_sign(g) == g


def test_all_minors_counts():
    X = generic_matrix(3, 4)
    assert len(all_minors(X, 3)) == 4
    pairs = [(rows, cols) for rows in combinations((1, 2, 3), 2) for cols in combinations((1, 2, 3, 4), 2)]
    assert all_minors(X, 2) == [perm_minor(X, rows, cols) for rows, cols in pairs]


def test_derivative_product_rule():
    ring = small_ring("xy")
    rng = random.Random(5)
    x = Var("x")
    for _ in range(20):
        f = random_polynomial(rng, ring)
        g = random_polynomial(rng, ring)
        lhs = (f * g).derivative(x)
        rhs = f.derivative(x) * g + f * g.derivative(x)
        assert lhs == rhs


def test_rename_moves_between_rings():
    ring = PolyRing.of([var("p", 1), var("p", 2)])
    target = PolyRing.of([var("x", 1, 1), var("x", 1, 2)])
    f = ring.var(var("p", 1)) * ring.var(var("p", 2))
    g = f.rename({var("p", 1): var("x", 1, 1), var("p", 2): var("x", 1, 2)}, target)
    assert g == target.var(var("x", 1, 1)) * target.var(var("x", 1, 2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), min_size=2, max_size=12))
def test_compiled_order_keys_match_their_definitions(monos):
    monos = sorted({tuple(m) for m in monos})
    ring = small_ring("wxyz")
    orders = [
        LEX,
        DEGREVLEX,
        ring.elimination_order({Var("x")}),
        ring.elimination_order({Var("w"), Var("y")}),
        ring.elimination_order(ring.variables),
        MonomialOrder("block", ((3, 1, 0, 2),)),
    ]
    for order in orders:
        ascending = sorted(monos, key=lambda m: reference_key(order, m))
        for bits in (4, 8):
            # the key orders monomials whose degree fits in a field
            fits = [m for m in ascending if sum(m) < 1 << bits]
            key = weight_key(order, 4, bits)
            assert sorted(fits, key=key) == fits[::-1]
            assert len({key(m) for m in fits}) == len(fits)
    # the text and leading-term key sorts like the packed degrevlex key
    assert sorted(monos, key=poly._descending) == sorted(monos, key=weight_key(DEGREVLEX, 4, 8))


def test_evaluate_matches_term_by_term_fractions():
    ring = small_ring("wxyz")
    rng = random.Random(41)
    cases = [random_polynomial(rng, ring, max_terms=6, max_exp=4) for _ in range(40)]
    cases += [ring.zero(), ring.const(Fraction(-7, 3)), ring.var(Var("x")) + Fraction(1, 2)]
    for f in cases:
        for _ in range(3):
            point = {v: Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for v in ring.variables}
            assert f.evaluate(point) == naive_evaluate(f, point)
            ints = {v: rng.randint(-5, 5) for v in ring.variables}
            assert f.evaluate(ints) == naive_evaluate(f, ints)
            assert type(f.evaluate(ints)) is Fraction


def test_positional_and_mapping_points_evaluate_like_term_by_term_fractions():
    """A point aligned with the ring's variables and the same point as a
    mapping give naive_evaluate's value: integer, rational, and mixed points
    (an int first and a Fraction later, or the other way round), exponents
    up to 4, zero and constant polynomials, and rational coefficients."""
    ring = small_ring("wxyz")
    rng = random.Random(47)
    cases = [random_polynomial(rng, ring, max_terms=6, max_exp=4) for _ in range(60)]
    cases += [ring.zero(), ring.const(Fraction(-7, 3)), ring.const(5), ring.var(Var("y")) ** 4 * Fraction(2, 9)]
    assert max(f.total_degree() for f in cases) >= 8
    for f in cases:
        for kind in ("int", "rational", "int first", "rational first"):
            values = [rng.randint(-6, 6) for _ in ring.variables]
            if kind != "int":
                values = [Fraction(x, rng.randint(1, 9)) for x in values]
            if kind == "int first":
                values[0] = rng.randint(-6, 6)
            if kind == "rational first":
                values[0] = Fraction(rng.randint(-6, 6), rng.randint(2, 9))
            mapping = dict(zip(ring.variables, values))
            expected = naive_evaluate(f, mapping)
            for point in (values, tuple(values), mapping):
                value = f.evaluate(point)
                assert value == expected and type(value) is Fraction
    with pytest.raises(ValueError, match="3 values for a ring of 4 variables"):
        cases[0].evaluate([1, 2, 3])


def test_building_and_printing_polynomials_builds_no_evaluation_plan():
    X = generic_matrix(3, 7)
    minors = [normalize_sign(g) for g in all_minors(X, 3)]
    texts = [g.to_text() for g in minors]
    product = minors[0] * minors[1] - minors[2]
    assert texts and all(g._plan is None for g in minors + [product])
    point = X.assignment([[i + 7 * r for i in range(7)] for r in range(3)])
    assert product.evaluate(point) == naive_evaluate(product, dict(zip(X.ring.variables, point)))
    assert product._plan is not None and all(g._plan is None for g in minors)


def test_evaluate_needs_only_the_support_and_rejects_unassigned_variables():
    ring = small_ring("xyz")
    x, y = ring.var(Var("x")), ring.var(Var("y"))
    f = Fraction(2, 3) * x**2 * y - 5 * y + Fraction(1, 7)
    assert f.evaluate({Var("x"): 3, Var("y"): Fraction(1, 2)}) == naive_evaluate(
        f, {Var("x"): 3, Var("y"): Fraction(1, 2)}
    )
    assert ring.zero().evaluate({}) == 0
    assert ring.const(4).evaluate({}) == 4
    with pytest.raises(ValueError, match="unassigned variable y"):
        f.evaluate({Var("x"): 1, Var("z"): 2})
    # a failed call leaves nothing behind that changes the next one
    assert f.evaluate({Var("x"): 1, Var("y"): 1}) == Fraction(2, 3) - 5 + Fraction(1, 7)


def test_points_with_floats_and_other_numbers_evaluate_exactly():
    """A value that is neither int nor Fraction counts as Fraction(value),
    also where the plan's own run on it fails: a float times a huge int
    overflows, and a Decimal does not mix with a Fraction."""
    ring = small_ring("xy")
    x, y = ring.var(Var("x")), ring.var(Var("y"))
    f = x * y + 1
    assert f.evaluate([0.1, 3]) == Fraction(46837436124653159, 36028797018963968)
    assert f.evaluate({Var("x"): 0.1, Var("y"): 3}) == Fraction(46837436124653159, 36028797018963968)
    g = Fraction(1, 3) * x**3 * y - 2 * y**2
    huge = 10**400 + 7
    for point in ([0.5, huge], [huge, 0.25], [Decimal("0.1"), Fraction(2, 3)], [True, 2.5], [Fraction(1, 3), 1e-5]):
        expected = naive_evaluate(g, dict(zip(ring.variables, point)))
        for value in (g.evaluate(point), g.evaluate(tuple(point)), g.evaluate(dict(zip(ring.variables, point)))):
            assert value == expected and type(value) is Fraction


def test_vanishes_at_is_evaluate_equal_to_zero_at_every_kind_of_point():
    """No Fraction is built, yet a float still counts as Fraction(value):
    x*y - 1 does not vanish at (3.0, 1/3), although the float product is
    1.0.  Points are checked as `evaluate` checks them."""
    ring = small_ring("xy")
    x, y = ring.var(Var("x")), ring.var(Var("y"))
    f = x * y - 1
    assert 3.0 * (1 / 3) == 1.0 and not f.vanishes_at([3.0, 1 / 3])
    rng = random.Random(53)
    cases = [f, x - y, Fraction(1, 3) * x**3 * y - 2 * y**2, ring.zero(), ring.const(Fraction(-7, 3))]
    cases += [random_polynomial(rng, ring, max_terms=4, max_exp=3) for _ in range(20)]
    huge = 10**400 + 7
    points = [[3, 3], [2, 0], [0.5, 0.5], [Fraction(1, 3), Fraction(1, 3)], [0.5, huge], [Decimal("0.1"), Fraction(2, 3)], [True, 2.5]]
    points += [[rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))] for _ in range(10)]
    outcomes = set()
    for g in cases:
        for point in points:
            expected = g.evaluate(point) == 0
            assert g.vanishes_at(point) == g.vanishes_at(dict(zip(ring.variables, point))) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}
    with pytest.raises(ValueError, match="1 values for a ring of 2 variables"):
        f.vanishes_at([1])
    with pytest.raises(ValueError, match="unassigned variable y"):
        f.vanishes_at({Var("x"): 1})


def test_wide_and_deep_polynomials_evaluate_without_recursion_errors():
    """A 2000-variable linear form (one Horner sum of 2001 parts) and a dense
    univariate polynomial of degree 300 (300 nested Horner steps), with a
    coefficient past the decimal-digit cap of int parsing."""
    rng = random.Random(53)
    width = 2000
    ring = PolyRing.of(Var("x", (i,)) for i in range(width))
    coefficients = [rng.randint(-9, 9) or 1 for _ in range(width)]
    zero = (0,) * width
    linear = Polynomial(ring, {zero[:i] + (1,) + zero[i + 1 :]: Fraction(c) for i, c in enumerate(coefficients)} | {zero: Fraction(-5, 7)})
    point = [rng.randint(-10**30, 10**30) for _ in range(width)]
    # the compiler's own recursion limit scales with the interpreter's: at 500
    # it cannot compile one expression of 2001 summands
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(500)
    try:
        value = linear.evaluate(point)
    finally:
        sys.setrecursionlimit(limit)
    assert value == sum(map(lambda c, v: c * v, coefficients, point)) - Fraction(5, 7)
    del linear
    ring = small_ring("x")
    dense = Polynomial(ring, {(e,): Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 9)) for e in range(301)})
    dense = dense + 10**5000 + 1
    for value in (3, Fraction(-7, 5), 10**20):
        assert dense.evaluate([value]) == naive_evaluate(dense, {Var("x"): value})


def test_variable_names_never_reach_the_plan():
    """Variables named like the plan's parameter and temporaries evaluate
    correctly; the compiled plan reads no global name and sees no builtins."""
    ring = PolyRing.of([Var("p"), Var("f"), Var("t", (0,)), Var("t", (1,)), Var("x")])
    rng = random.Random(59)
    for _ in range(20):
        g = random_polynomial(rng, ring, max_terms=8, max_exp=3)
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in ring.variables]
        assert g.evaluate(point) == naive_evaluate(g, dict(zip(ring.variables, point)))
        support, q, plan = g._plan
        if plan is not None:
            assert plan.__code__.co_names == ()
            assert plan.__globals__ == {"__builtins__": {}}
    for constant in (ring.zero(), ring.const(Fraction(3, 4))):
        value = constant.evaluate([1] * 5)
        assert value == sum(constant.terms.values()) and type(value) is Fraction and constant._plan[2] is None


def test_a_plan_dies_with_its_polynomial():
    X = generic_matrix(3, 3)
    f = minor(X, [1, 2, 3], [1, 2, 3])
    assert f.evaluate(list(range(9))) == 0
    gc.disable()
    try:
        plan = weakref.ref(f._plan[2])
        del f
        assert plan() is None
    finally:
        gc.enable()


def test_leading_is_the_largest_monomial_under_the_order_key():
    # the degrevlex leading term is the first term of the text form
    ring = PolyRing.of(Var("x", (i,)) for i in range(1, 7))
    rng = random.Random(47)
    homogeneous = 0
    for trial in range(120):
        f = random_polynomial(rng, ring, max_terms=15, max_exp=3)
        if trial % 2:
            # every term of degree 4, so degree never decides
            terms = {}
            for _ in range(rng.randint(2, 12)):
                m = [0] * 6
                for _ in range(4):
                    m[rng.randrange(6)] += 1
                terms[tuple(m)] = Fraction(rng.randint(1, 9) * rng.choice([-1, 1]), rng.randint(1, 5))
            f = Polynomial(ring, terms)
            homogeneous += len(f.terms) > 1
        if f.is_zero():
            continue
        m = max(f.terms, key=lambda mono: reference_key(DEGREVLEX, mono))
        assert f.leading() == (m, f.terms[m])
        assert f.to_text() == reference_to_text(f)
    assert homogeneous >= 50


def test_equal_polynomials_hash_equal():
    rng = random.Random(53)
    names = [Var("p", (i, j)) for i in (1, 2) for j in (1, 2, 3)]
    ring, twin = PolyRing.of(names), PolyRing.of(reversed(names))
    assert ring == twin and ring is not twin
    for _ in range(60):
        f = random_polynomial(rng, ring, max_terms=6)
        g = random_polynomial(rng, ring, max_terms=6)
        same = [Polynomial(twin, dict(reversed(f.terms.items()))), (f + g) - g, f.rename({}, twin)]
        for h in same:
            assert h == f and hash(h) == hash(f)
        assert len({f, *same}) == 1


def test_to_text_matches_the_reference_rendering():
    ring = PolyRing.of([var("p", 2, 1, 3), var("p", 1, 1, 1), var("x", 1, 2), var("y")])
    assert ring.names == ("p_1_1_1", "p_2_1_3", "x_1_2", "y")
    rng = random.Random(61)
    seen = set()
    for _ in range(200):
        f = random_polynomial(rng, ring, max_terms=6, max_exp=4)
        assert f.to_text() == reference_to_text(f)
        for m, c in f.terms.items():
            seen.add("negative" if c < 0 else "positive")
            seen.add("fraction" if c.denominator > 1 else "integer")
            seen.add("constant" if not any(m) else "monomial")
            seen.add("power" if max(m) > 1 else "linear")
        seen.add("zero" if f.is_zero() else "nonzero")
    assert seen == {"negative", "positive", "fraction", "integer", "constant", "monomial", "power", "linear", "zero", "nonzero"}
    p = ring.var(var("p", 2, 1, 3))
    for f, text in [
        (ring.zero(), "0"),
        (ring.const(-1), "-1"),
        (ring.const(Fraction(-3, 2)), "-3/2"),
        (-p, "-p_2_1_3"),
        (Fraction(-1, 3) * p**2 + 1, "-1/3 * p_2_1_3^2 + 1"),
        (p - Fraction(5, 7) * ring.var(Var("y")) ** 3, "-5/7 * y^3 + p_2_1_3"),
    ]:
        assert f.to_text() == reference_to_text(f) == text


def test_to_text_is_rendered_once():
    ring = small_ring()
    f = Fraction(2, 3) * ring.var(Var("x")) ** 2 - ring.var(Var("z"))
    first = f.to_text()
    assert f.to_text() is first
    assert str(f) is first


def test_equal_polynomials_built_in_different_term_orders_render_alike():
    ring = PolyRing.of([var("x", 1, 1), var("x", 1, 2), var("x", 2, 1), var("x", 2, 2)])
    rng = random.Random(67)
    for _ in range(40):
        f = random_polynomial(rng, ring, max_terms=6)
        g = random_polynomial(rng, ring, max_terms=6)
        items = list(f.terms.items())
        rng.shuffle(items)
        shuffled = Polynomial(ring, dict(items))
        assert shuffled.to_text() == f.to_text()
        assert (f + g).to_text() == (g + f).to_text() == reference_to_text(f + g)


def _entry(rng, ring):
    """A zero, a scaled variable or a sum of scaled monomials."""
    xs = [ring.var(v) for v in ring.variables]
    kind = rng.randrange(3)
    if kind == 0:
        return ring.zero()
    if kind == 1:
        return rng.choice(xs).scale(Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3)))
    return random_polynomial(rng, ring, max_terms=3, max_exp=2, bound=4)


def _symbolic(ring, rows):
    return SymbolicMatrix(ring, tuple(tuple(row) for row in rows))


def test_minor_of_general_entries_equals_the_permutation_sum():
    ring = small_ring("wxyz")
    rng = random.Random(71)
    for _ in range(60):
        d, n = rng.randint(1, 4), rng.randint(1, 4)
        X = _symbolic(ring, [[_entry(rng, ring) for _ in range(n)] for _ in range(d)])
        size = rng.randint(1, min(d, n))
        rows = rng.sample(range(1, d + 1), size)
        cols = rng.sample(range(1, n + 1), size)
        f = minor(X, rows, cols)
        assert f == perm_minor(X, rows, cols)
        assert all(c != 0 for c in f.terms.values())


def test_minor_of_high_powers_equals_the_permutation_sum():
    # size x the largest entry degree sets the packed digit: 2, 4 and 8
    # bytes, with entry exponents that overflow a narrower digit
    ring = small_ring("wxyz")
    w, x, y, z = (ring.var(Var(n)) for n in "wxyz")
    rng = random.Random(79)
    for top in (85, 200, 30000, 2**31):
        for size in (2, 3):
            for _ in range(6):
                pool = [
                    ring.zero(),
                    ring.const(Fraction(rng.randint(-5, 5), rng.randint(1, 7))),
                    _power(x, top).scale(Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 9))),
                    _power(y, top) * Fraction(2, 3) + _power(x, top // 2) * w * Fraction(-5, 7),
                    _power(z, top - 1) * y - Fraction(1, 4),
                ]
                X = _symbolic(ring, [[rng.choice(pool) for _ in range(size)] for _ in range(size)])
                f = minor(X, range(1, size + 1), range(1, size + 1))
                assert f == perm_minor(X, range(1, size + 1), range(1, size + 1))
                assert all(c != 0 for c in f.terms.values())
    # no digit wide enough: 3 x 2^63 needs more than 64 bits
    X = _symbolic(ring, [[_power(x, 2**63) if i == j else ring.zero() for j in range(3)] for i in range(3)])
    with pytest.raises(ValueError, match="too large"):
        minor(X, [1, 2], [1, 2])


def test_minor_digits_are_the_narrowest_whose_guard_bit_the_degree_cannot_reach():
    # a 2 x 2 minor of degree-63 entries has degree 126, below the guard bit
    # of an 8-bit digit; of degree-64 entries, 128, which needs 16 bits
    ring = small_ring("wxyz")
    w, x, y, z = (ring.var(Var(n)) for n in "wxyz")
    rng = random.Random(83)
    for top, bits in ((63, 8), (64, 16)):
        for _ in range(6):
            pool = [
                _power(x, top).scale(Fraction(rng.choice([-3, 1, 2]), rng.randint(1, 5))),
                _power(y, top - 1) * w + Fraction(1, 3),
                _power(z, top // 2) * _power(x, top - top // 2) - _power(w, top),
                ring.const(rng.randint(-4, 4)),
            ]
            X = _symbolic(ring, [[rng.choice(pool) for _ in range(2)] for _ in range(2)])
            assert X._packed[2].bits == bits
            f = minor(X, [1, 2], [1, 2])
            assert f == perm_minor(X, [1, 2], [1, 2])


@pytest.mark.parametrize("top, bits", [(1, 8), (64, 16)])
def test_minors_arrive_in_text_order(top, bits):
    # mixed-degree entries, so degree and then the reversed exponents decide;
    # a 2 x 2 minor of degree-64 entries needs 16-bit digits
    ring = small_ring("wxyz")
    w, x, y, z = (ring.var(Var(n)) for n in "wxyz")
    rng = random.Random(89 + top)
    pool = [
        x + 1,
        _power(x, 2 * top) * y - 3,
        _power(z, top) - Fraction(2, 3) * w,
        w * y + _power(y, top) * Fraction(-1, 4) + z,
        ring.const(rng.randint(-4, 4)),
    ]
    seen = 0
    for _ in range(30):
        size = rng.choice([2, 3] if bits == 8 else [2])
        rows = [[rng.choice(pool) for _ in range(size)] for _ in range(size)]
        rows[0][0] = pool[1]  # the widest entry sets the digits
        X = _symbolic(ring, rows)
        assert X._packed[2].bits == bits
        f = minor(X, range(1, size + 1), range(1, size + 1))
        if f.is_zero():
            continue
        seen += len({sum(m) for m in f.terms}) > 1
        g = minor(X, [size], [1])  # an entry, also in text order
        assert list(f.terms) == sorted(f.terms, key=poly._descending)
        assert list(f.terms) == sorted(f.terms, key=lambda m: reference_key(DEGREVLEX, m), reverse=True)
        m = min(f.terms, key=poly._descending)
        assert f.leading() == (m, f.terms[m])
        unordered = Polynomial(ring, dict(reversed(f.terms.items())))
        assert f.to_text() == unordered.to_text() == reference_to_text(f)
        assert (-unordered).to_text() == (-f).to_text() and (-unordered).leading() == (-f).leading()
        for h in (-f, normalize_sign(f)):
            assert list(h.terms) == list(f.terms)
            assert h.to_text() == Polynomial(ring, dict(reversed(h.terms.items()))).to_text()
        assert normalize_sign(f).leading()[1] > 0
        for h in (f + g, f * g, f.scale(Fraction(-3, 5)), f - f):
            assert h.to_text() == Polynomial(ring, dict(reversed(h.terms.items()))).to_text() == reference_to_text(h)
    assert seen >= 10


@pytest.mark.parametrize("top, bits", [(1, 8), (64, 16), (1 << 14, 32), (1 << 30, 64)])
def test_packed_minors_read_like_their_dense_terms(top, bits):
    # The same minor twice: f is read through its packed keys, and `dense`
    # has its terms built first.  Mixed-degree entries, as in
    # `test_minors_arrive_in_text_order`, so some exponents exceed 1.
    ring = small_ring("wxyz")
    w, x, y, z = (ring.var(Var(n)) for n in "wxyz")
    rng = random.Random(97 + top)
    pool = [
        x + 1,
        _power(x, 2 * top) * y - 3,
        _power(z, top) - Fraction(2, 3) * w,
        w * y + _power(y, top) * Fraction(-1, 4) + z,
        ring.const(rng.randint(-4, 4)),
    ]

    def readings(h):
        return [h.to_text(), h.leading(), hash(h), (-h).to_text(), (-h).leading(), normalize_sign(h).to_text(), hash(normalize_sign(h))]

    seen = 0
    for _ in range(20):
        size = rng.choice([2, 3] if bits == 8 else [2])
        rows = [[rng.choice(pool) for _ in range(size)] for _ in range(size)]
        rows[0][0] = pool[1]  # the widest entry sets the digits
        X = _symbolic(ring, rows)
        assert X._packed[2].bits == bits
        full = range(1, size + 1)
        f, dense = minor(X, full, full), minor(X, full, full)
        if f.is_zero():
            continue
        seen += 1
        pairs, q, packing = f._packed
        eager = {packing.unpack(k): Fraction(c, q) for k, c in pairs}
        # the terms are built beside the pairs: the form stays packed
        assert list(dense.terms.items()) == list(eager.items())
        assert type(dense) is poly._PackedPolynomial and dense._packed == (pairs, q, packing)
        unordered = Polynomial(ring, dict(reversed(eager.items())))
        before = readings(f)
        assert f._packed is not None  # text, leading term, hash and sign built no terms
        assert before[0] == unordered.to_text() == dense.to_text() == reference_to_text(dense)
        assert before == readings(dense)
        assert type(f) is poly._PackedPolynomial
        kept = list(pairs)
        assert list(f.terms.items()) == list(eager.items())
        assert type(f) is poly._PackedPolynomial and f._packed[0] == kept
        plain = Polynomial(f.ring, dict(f.terms))
        assert before == readings(f) == readings(plain) and -f == -plain
        assert list((-f).terms) == list(f.terms) and normalize_sign(f).leading()[1] > 0
        # equal polynomials hash equal in either form, and sets keep one
        parsed = parse_polynomial(before[0], ring)
        g = minor(X, full, full)
        assert hash(g) == hash(parsed) == hash(unordered) == hash(f)
        assert g == parsed == f and len({g, parsed, unordered}) == 1
        assert len(Ideal.of(ring, [minor(X, full, full), parsed, -parsed]).generators) == 2
    assert seen >= 10
    # a zero minor: two equal rows
    X = _symbolic(ring, [pool[:2], pool[:2]])
    zero = minor(X, [1, 2], [1, 2])
    assert not zero and zero.is_zero() and zero.to_text() == "0" and hash(zero) == hash(ring.zero())
    assert Ideal.of(ring, [zero, x, zero]).generators == (x,)


@pytest.mark.parametrize("bits", poly.Packing.WIDTHS)
@pytest.mark.parametrize("n", [1, 4, 96])
def test_packing_round_trips_adds_and_divides_below_the_guard_bit(n, bits):
    packing, limit = poly.Packing(n, bits), 1 << (bits - 1)
    rng = random.Random(1000 * n + bits)

    def split(degree):
        cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
        return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))

    for _ in range(40):
        b = split(rng.choice([0, 1, limit - 1, rng.randrange(limit)]))
        a = tuple(rng.randint(0, e) for e in b)
        other = split(rng.randrange(limit))
        packed = {m: packing.pack(m) for m in (a, b, other)}
        assert all(packing.unpack(k) == m for m, k in packed.items())
        # a product is one addition
        assert packed[a] + packing.pack(tuple(map(sub, b, a))) == packed[b]
        # divisibility is one subtraction and one guard-bit test
        for lo, hi in ((a, b), (b, a), (a, other), (other, b)):
            assert (not (packed[hi] - packed[lo]) & packing.guard) == all(map(le, lo, hi))
        # a sum sets a guard bit exactly when its degree reaches the limit
        assert bool((packed[b] + packed[other]) & packing.guard) == (sum(b) + sum(other) >= limit)
        # a monomial packs up to degree limit - 1 and overflows at the guard bit
        top = split(limit - 1)
        assert packing.unpack(packing.pack(top)) == top
        assert (packing.pack(top) + packing.pack(split(1))) & packing.guard
        i = rng.randrange(n)
        with pytest.raises(poly.DigitOverflow):
            packing.pack(top[:i] + (top[i] + 1,) + top[i + 1:])


def _power(v, e):
    """v^e built directly, without e - 1 multiplications."""
    ((m, c),) = v.terms.items()
    return Polynomial(v.ring, {tuple(e * k for k in m): c})


def test_minor_with_a_repeated_row_cancels_to_zero():
    ring = small_ring("wxyz")
    rng = random.Random(73)
    for size in (2, 3, 4):
        for _ in range(10):
            rows = [[_entry(rng, ring) for _ in range(size)] for _ in range(size - 1)]
            rows.insert(rng.randint(0, size - 1), rows[rng.randrange(size - 1)])
            X = _symbolic(ring, rows)
            f = minor(X, range(1, size + 1), range(1, size + 1))
            assert f.is_zero() and f.terms == {}
            assert perm_minor(X, range(1, size + 1), range(1, size + 1)).is_zero()


def test_sums_and_products_that_cancel_have_no_terms():
    R = small_ring()
    x, y, z = (R.var(Var(n)) for n in "xyz")
    f = Fraction(2, 3) * x * y - 5 * z + 1
    assert (f + (-f)).terms == {}
    assert (f - f).terms == {} and (f - f) == R.zero()
    assert ((x + y) * (x - y) - x * x + y * y).terms == {}
    # (x + y)(x - y): the xy cross terms cancel inside one product
    assert (x + y) * (x - y) == x**2 - y**2 and len(((x + y) * (x - y)).terms) == 2
    assert (f * R.zero()).terms == {} and (R.zero() * f).terms == {}
    assert (f * 0).terms == {}
    # rename that merges x and y into x: x - y becomes x - x = 0
    merged = (x - y).rename({Var("y"): Var("x")}, R)
    assert merged.terms == {} and merged.is_zero()
    assert all(c != 0 for c in ((x + 2 * y) * (x - 2 * y) + 4 * y * y).terms.values())


def test_minors_pass_the_grading_check_and_an_ungraded_generator_raises():
    X = generic_matrix(3, 5)
    groups = X.row_and_column_variables()
    assert [len(g) for g in groups] == [5, 5, 5, 3, 3, 3, 3, 3]
    assert groups[0][1] == Var("x", (1, 2)) and groups[3 + 1] == tuple(Var("x", (i, 2)) for i in (1, 2, 3))
    minors = all_minors(X, 2) + all_minors(X, 3)
    require_homogeneous(minors, groups)
    require_homogeneous(minors, [X.ring.variables])
    x = {(i, j): X.entry(i, j) for i in (1, 2, 3) for j in range(1, 6)}
    # homogeneous of total degree 2, but of degrees (2, 0) and (1, 1) in rows 1 and 2
    rows_differ = x[1, 1] * x[1, 2] - x[1, 1] * x[2, 2]
    require_homogeneous([rows_differ], [X.ring.variables])
    not_graded = [rows_differ, x[1, 1] + x[1, 1] * x[2, 2], minors[0] * minors[1] - minors[2]]
    for g in not_graded:
        with pytest.raises(ValueError, match="is not homogeneous") as info:
            require_homogeneous(minors + [g], groups)
        assert str(g) in str(info.value)
    with pytest.raises(ValueError, match="is not homogeneous"):
        require_homogeneous([x[1, 1] + 1], [X.ring.variables])


def test_the_grading_check_reads_a_minors_packed_keys_with_the_dense_verdict(monkeypatch):
    """`require_homogeneous` on a minor reads its packed keys and builds no
    dense terms; its verdict, message included, is that of the same
    polynomial in the dense form, homogeneous or not, at 8 and 16 bits."""
    R = small_ring("abcd")
    a, b, c, d = (R.var(Var(n)) for n in "abcd")
    matrices = [((a, b), (c, d)), ((a, b), (c, d * d + 1)), ((a * a, b), (c, d)), ((a**70, b), (c, d))]
    groups = [[R.variables], [R.variables[:2], R.variables[2:]], [R.variables[::3], R.variables[1:3]], [R.variables[:1]]]

    def verdict(g, groups):
        try:
            require_homogeneous([g], groups)
        except ValueError as exc:
            return str(exc)
        return None

    def packed_minor(entries):
        return minor(SymbolicMatrix(R, entries), [1, 2], [1, 2])

    dense = {(i, k): verdict(Polynomial(R, dict(packed_minor(m).terms)), g) for i, m in enumerate(matrices) for k, g in enumerate(groups)}
    unpacked = []
    monkeypatch.setattr(poly._PackedPolynomial, "_unpack_terms", lambda self: unpacked.append(self))
    packed = {}
    for i, m in enumerate(matrices):
        f = packed_minor(m)
        assert type(f) is poly._PackedPolynomial
        for k, g in enumerate(groups):
            packed[i, k] = verdict(f, g)
    assert unpacked == []
    assert packed == dense
    assert packed[0, 0] is None and packed[0, 2] is not None and packed[1, 0] is not None and packed[3, 1] is not None
    assert packed_minor(matrices[3])._packed[2].bits == 16
