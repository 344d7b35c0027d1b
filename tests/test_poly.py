import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import det_by_permutations, naive_evaluate, perm_minor, random_polynomial, reference_to_text
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
    for order in (LEX, DEGREVLEX):
        ka, kb = order.key(a), order.key(b)
        shifted = order.key(tuple(x + y for x, y in zip(a, c))), order.key(
            tuple(x + y for x, y in zip(b, c))
        )
        assert (ka < kb) == (shifted[0] < shifted[1])
        # the unit monomial is minimal
        assert order.key((0, 0, 0)) <= ka


def test_block_order_prefers_the_elimination_block():
    ring = small_ring("xyz")
    order = ring.elimination_order({Var("x")})
    # any monomial containing x dominates any x-free monomial
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))


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
    assert g.leading(DEGREVLEX)[1] > 0
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


def reference_key(order, exps):
    """The monomial-order keys written out directly from their definitions."""
    if order.kind == "lex":
        return exps
    if order.kind == "degrevlex":
        return (sum(exps), tuple(-e for e in reversed(exps)))
    return tuple(
        (sum(exps[p] for p in blk), tuple(-exps[p] for p in reversed(blk))) for blk in order.blocks
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), min_size=2, max_size=12))
def test_compiled_order_keys_match_their_definitions(monos):
    monos = [tuple(m) for m in monos]
    ring = small_ring("wxyz")
    orders = [
        LEX,
        DEGREVLEX,
        ring.elimination_order({Var("x")}),
        ring.elimination_order({Var("w"), Var("y")}),
        ring.elimination_order(ring.variables),
    ]
    for order in orders:
        for m in monos:
            assert order.key(m) == reference_key(order, m)
        ascending = sorted(set(monos), key=lambda m: reference_key(order, m))
        assert sorted(set(monos), key=order.descending_key) == ascending[::-1]


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


def test_leading_term_cache_follows_the_queried_order():
    ring = small_ring("wxyz")
    rng = random.Random(43)
    orders = [LEX, DEGREVLEX, ring.elimination_order({Var("z")}), ring.elimination_order({Var("w"), Var("x")})]
    for _ in range(30):
        f = random_polynomial(rng, ring, max_terms=6, max_exp=4)
        if f.is_zero():
            continue
        for order in orders * 2 + orders[::-1]:
            m = max(f.terms, key=lambda mono: reference_key(order, mono))
            assert f.leading(order) == (m, f.terms[m])
            # an equal order built separately hits the same answer
            twin = MonomialOrder(order.kind, order.blocks)
            assert f.leading(twin) == (m, f.terms[m])


def test_leading_is_the_largest_monomial_under_the_order_key():
    ring = PolyRing.of(Var("x", (i,)) for i in range(1, 7))
    orders = [
        LEX,
        DEGREVLEX,
        ring.elimination_order(ring.variables[:2]),
        ring.elimination_order(ring.variables[3:4]),
        ring.elimination_order(ring.variables[::2]),
    ]
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
        for order in orders:
            m = max(f.terms, key=order.key)
            assert order.largest(f.terms) == m
            assert Polynomial(ring, f.terms).leading(order) == (m, f.terms[m])
    assert homogeneous >= 50


def test_equal_polynomials_hash_equal():
    rng = random.Random(53)
    names = [Var("p", (i, j)) for i in (1, 2) for j in (1, 2, 3)]
    ring, twin = PolyRing.of(names), PolyRing.of(reversed(names))
    assert ring == twin and ring is not twin
    for _ in range(60):
        f = random_polynomial(rng, ring, max_terms=6)
        g = random_polynomial(rng, ring, max_terms=6)
        same = [Polynomial(twin, dict(reversed(f.terms.items()))), (f + g) - g, f.transfer(twin)]
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
    # size x the largest entry exponent sets the packed digit: 1, 2, 4 and 8
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
