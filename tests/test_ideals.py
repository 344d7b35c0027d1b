import gc
import hashlib
import random
import re
import weakref
from fractions import Fraction
from itertools import permutations, product
from operator import add, mul

import pytest

from helpers import (
    naive_division,
    naive_groebner,
    naive_reduced_groebner,
    naive_s_poly,
    random_polynomial,
    reference_eliminate,
    reference_intersect,
    reference_key,
    tuple_update,
)
from cigrid import ideals
from cigrid.ideals import (
    BudgetExceeded,
    Ideal,
    buchberger,
    eliminate,
    ideal_to_cas,
    ideal_to_text,
    intersect,
    normal_form,
    reduce_poly,
)
from cigrid.poly import (
    DEGREVLEX,
    LEX,
    DigitOverflow,
    MonomialOrder,
    Packing,
    PolyRing,
    Polynomial,
    SymbolicMatrix,
    Var,
    _PackedPolynomial,
    generic_matrix,
    minor,
    parse_polynomial,
)


def ring_xyz():
    return PolyRing.of([Var("x"), Var("y"), Var("z")])


def test_principal_ideal_basis_is_the_generator():
    ring = PolyRing.of([Var("x")])
    x = ring.var(Var("x"))
    gb = buchberger(Ideal.of(ring, [x]))
    assert gb.basis == (x,)


def test_monomial_ideal_is_already_a_basis():
    X = generic_matrix(3, 7)
    ring = X.ring
    gens = [X.entry(1, 1), X.entry(2, 1), X.entry(3, 1)]
    gb = buchberger(Ideal.of(ring, gens))
    assert set(gb.basis) == set(gens)


def test_one_nontrivial_s_pair_matches_naive_oracle():
    ring = ring_xyz()
    x, y, z = (ring.var(Var(n)) for n in "xyz")
    gens = [x * x - y, x * y - z]
    gb = buchberger(Ideal.of(ring, gens))
    oracle_basis = naive_groebner(gens)
    # same ideal: each side's basis reduces to zero against the other
    for g in gb.basis:
        assert naive_division(g, oracle_basis).is_zero()
    for g in oracle_basis:
        assert normal_form(g, gb).is_zero()


def test_normal_form_of_generators_is_zero():
    ring = ring_xyz()
    x, y, z = (ring.var(Var(n)) for n in "xyz")
    ideal = buchberger(Ideal.of(ring, [x * y - z, y * y - 1]))
    for g in ideal.generators:
        assert normal_form(g, ideal).is_zero()


def test_normal_form_of_one_is_one_for_proper_ideals():
    ring = ring_xyz()
    x, y, _ = (ring.var(Var(n)) for n in "xyz")
    ideal = buchberger(Ideal.of(ring, [x, y]))
    assert normal_form(ring.one(), ideal) == ring.one()


def test_ideal_of_keeps_each_nonzero_generator_once_in_first_seen_order():
    ring = ring_xyz()
    x, y, _ = (ring.var(Var(n)) for n in "xyz")
    f, g = x * y - 1, y - x
    assert Ideal.of(ring, [f, ring.zero(), g, f]).generators == (f, g)
    assert Ideal.of(ring, [g, f, g]).generators == (g, f)


def test_normal_form_requires_cached_basis():
    ring = ring_xyz()
    ideal = Ideal.of(ring, [ring.var(Var("x"))])
    with pytest.raises(ValueError):
        normal_form(ring.one(), ideal)


def test_column_one_minor_reduces_to_zero_modulo_column_entries():
    X = generic_matrix(3, 7)
    ring = X.ring
    column = Ideal.of(ring, [X.entry(1, 1), X.entry(2, 1), X.entry(3, 1)])
    column = buchberger(column)
    assert normal_form(minor(X, [1, 2, 3], [1, 2, 3]), column).is_zero()


def test_combinations_of_generators_reduce_to_zero():
    ring = ring_xyz()
    rng = random.Random(17)
    x, y, z = (ring.var(Var(n)) for n in "xyz")
    ideal = buchberger(Ideal.of(ring, [x * y - z, x + y]))
    for _ in range(15):
        q1 = random_polynomial(rng, ring, max_terms=3, max_exp=2)
        q2 = random_polynomial(rng, ring, max_terms=3, max_exp=2)
        f = q1 * ideal.generators[0] + q2 * ideal.generators[1]
        assert normal_form(f, ideal).is_zero()


def test_basis_is_independent_of_generator_order_as_an_ideal():
    ring = ring_xyz()
    x, y, z = (ring.var(Var(n)) for n in "xyz")
    gens = [x * x - y, x * y - z, y * y - x * z]
    a = buchberger(Ideal.of(ring, gens))
    b = buchberger(Ideal.of(ring, list(reversed(gens))))
    for g in a.basis:
        assert normal_form(g, b).is_zero()
    for g in b.basis:
        assert normal_form(g, a).is_zero()
    # reduced bases are unique given the order
    assert set(a.basis) == set(b.basis)


def test_budget_exhaustion_is_an_error():
    ring = ring_xyz()
    x, y, z = (ring.var(Var(n)) for n in "xyz")
    gens = [x * x - y, x * y - z]
    with pytest.raises(BudgetExceeded):
        buchberger(Ideal.of(ring, gens), max_pairs=0)
    with pytest.raises(BudgetExceeded):
        buchberger(Ideal.of(ring, gens), max_degree=1)


def test_eliminate_single_binomial_gives_zero_ideal():
    ring = PolyRing.of([Var("x"), Var("y")])
    x, y = ring.var(Var("x")), ring.var(Var("y"))
    out = eliminate(Ideal.of(ring, [x - y]), {Var("x")})
    assert out.generators == ()


def test_eliminate_keeps_the_projected_generator():
    ring = PolyRing.of([Var("x"), Var("y")])
    x, y = ring.var(Var("x")), ring.var(Var("y"))
    out = eliminate(Ideal.of(ring, [x - y, x]), {Var("x")})
    assert len(out.generators) == 1
    assert out.generators[0] == out.ring.var(Var("y"))


def test_intersection_of_coordinate_ideals():
    ring = PolyRing.of([Var("x"), Var("y")])
    x, y = ring.var(Var("x")), ring.var(Var("y"))
    out = intersect(Ideal.of(ring, [x]), Ideal.of(ring, [y]))
    assert len(out.generators) == 1
    assert out.generators[0] == out.ring.var(Var("x")) * out.ring.var(Var("y"))


def test_ideal_text_round_trip_and_cas_export():
    ring = ring_xyz()
    x, y, z = (ring.var(Var(n)) for n in "xyz")
    ideal = Ideal.of(ring, [x * y - z, x + 2 * y])
    text = ideal_to_text(ideal)
    lines = [ln for ln in text.splitlines() if ln]
    assert len(lines) == 2
    assert [parse_polynomial(ln, ring) for ln in lines] == list(ideal.generators)
    cas = ideal_to_cas(ideal)
    assert cas.startswith("ring R = QQ[x, y, z];")
    assert "ideal I =" in cas


def test_cached_basis_is_a_groebner_basis():
    ring = ring_xyz()
    x, y, z = (ring.var(Var(n)) for n in "xyz")
    for gens in ([x * x - y, x * y - z], [x * y - z, y * y - 1, x + z]):
        gb = buchberger(Ideal.of(ring, gens))
        for i, f in enumerate(gb.basis):
            for g in gb.basis[i + 1:]:
                s = naive_s_poly(f, g)
                assert naive_division(s, list(gb.basis)).is_zero()
        for g in gens:
            assert normal_form(g, gb).is_zero()


def test_contains_uses_membership():
    ring = ring_xyz()
    x, y, z = (ring.var(Var(n)) for n in "xyz")
    ideal = buchberger(Ideal.of(ring, [x - y]))
    assert normal_form((x - y) * z, ideal).is_zero()
    assert not normal_form(x + y, ideal).is_zero()


def test_reduce_poly_matches_textbook_division_under_every_order_kind():
    ring = PolyRing.of([Var("w"), Var("x"), Var("y"), Var("z")])
    orders = [LEX, DEGREVLEX, ring.elimination_order({Var("x"), Var("z")}), MonomialOrder("block", ((2, 0, 3, 1),))]
    rng = random.Random(29)
    for _ in range(40):
        f = random_polynomial(rng, ring, max_terms=6, max_exp=4)
        divisors = [g for g in (random_polynomial(rng, ring, max_terms=3, max_exp=2) for _ in range(3)) if g]
        for order in orders:
            assert reduce_poly(f, divisors, order) == naive_division(f, divisors, order)


def test_a_block_order_that_is_no_partition_is_rejected():
    # with y in no block, y would weigh 0 and share its key with 1: the basis
    # of (x - y, y^2 - 1) came out as [y^2], and x*y - 1 did not reduce to 0
    ring = PolyRing.of([Var("x"), Var("y")])
    x, y = ring.var(Var("x")), ring.var(Var("y"))
    gens = [x - y, y * y - 1]
    for blocks in (((0,),), ((0, 1), (1,)), ((0, 2), (1,))):
        order = MonomialOrder("block", blocks)
        with pytest.raises(ValueError, match=re.escape(f"blocks {blocks} do not partition")):
            buchberger(Ideal.of(ring, gens), order)
        with pytest.raises(ValueError, match=re.escape(f"blocks {blocks} do not partition")):
            reduce_poly(x * y - 1, gens, order)
    with pytest.raises(ValueError, match="unknown monomial order kind 'grlex'"):
        buchberger(Ideal.of(ring, gens), MonomialOrder("grlex"))
    gb = buchberger(Ideal.of(ring, gens), MonomialOrder("block", ((1,), (0,))))
    assert set(gb.basis) == {y - x, x * x - 1}
    assert normal_form(x * y - 1, gb).is_zero()


def _basis_set(polys):
    """A basis as a set of {monomial: (numerator, denominator)} item sets."""
    return {frozenset((m, (c.numerator, c.denominator)) for m, c in g.terms.items()) for g in polys}


def _sympy_set(sympy, exprs, symbols):
    return {
        frozenset((m, (int(c.p), int(c.q))) for m, c in sympy.Poly(e, *symbols).as_dict().items())
        for e in exprs
    }


def _sympy_basis(sympy, gens, ring, order):
    """sympy's reduced basis over QQ; its grevlex and lex rank the first
    symbol highest, as cigrid's orders do."""
    symbols = sympy.symbols([str(v) for v in ring.variables])
    exprs = [
        sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[s**e for s, e in zip(symbols, m)])
                    for m, c in g.terms.items()])
        for g in gens
    ]
    return _sympy_set(sympy, sympy.groebner(exprs, *symbols, order=order, domain="QQ").exprs, symbols)


def test_reduced_bases_match_sympy_groebner():
    sympy = pytest.importorskip("sympy")
    ring = ring_xyz()
    x, y, z = (ring.var(Var(n)) for n in "xyz")
    ideals = [[x * x - y, x * y - z], [x * y - z, y * y - 1, x + z], [x**3 - 2 * x * y, x * x * y - 2 * y * y + x]]
    rng = random.Random(31)
    for _ in range(6):
        gens = [random_polynomial(rng, ring, max_terms=3, max_exp=2) for _ in range(2)]
        ideals.append([g for g in gens if g])
    for gens in ideals:
        for order, name in ((DEGREVLEX, "grevlex"), (LEX, "lex")):
            ours = buchberger(Ideal.of(ring, gens), order)
            assert _basis_set(ours.basis) == _sympy_basis(sympy, gens, ring, name)
    X = generic_matrix(3, 7)
    lines = [minor(X, [1, 2, 3], cols) for cols in ([1, 2, 3], [1, 4, 5], [1, 6, 7])]
    ours = buchberger(Ideal.of(X.ring, lines), DEGREVLEX)
    assert _basis_set(ours.basis) == _sympy_basis(sympy, lines, X.ring, "grevlex")


def test_eliminate_matches_sympy_lex_elimination():
    sympy = pytest.importorskip("sympy")
    ring = ring_xyz()
    x, y, z = (ring.var(Var(n)) for n in "xyz")
    gens = [x * x - y, x * y - z, x - y * z + 1]
    small = eliminate(Ideal.of(ring, gens), {Var("x")})
    ours = buchberger(small, DEGREVLEX).basis
    # sympy: lex with x first, keep the x-free elements, then reduce in y, z
    symbols = sympy.symbols("x y z")
    sx, sy, sz = symbols
    lex = sympy.groebner([sx**2 - sy, sx * sy - sz, sx - sy * sz + 1], *symbols, order="lex", domain="QQ")
    free = [e for e in lex.exprs if sx not in e.free_symbols]
    theirs = sympy.groebner(free, sy, sz, order="grevlex", domain="QQ")
    assert ours and _basis_set(ours) == _sympy_set(sympy, theirs.exprs, (sy, sz))


def test_pair_budget_boundaries_of_the_three_lines_computations():
    # pins the reduced S-pair counts: 10 for the minor ideal's basis and 26
    # for the component intersection; a budget one lower must be exhausted.
    # The intersection's largest reduced S-pair has degree 8.
    from cigrid.verify import three_lines_fixture

    _, line_ideal, loop_ideal, lines_ideal, _ = three_lines_fixture()
    buchberger(line_ideal, max_pairs=10)
    with pytest.raises(BudgetExceeded, match="S-pair budget 9 exhausted"):
        buchberger(line_ideal, max_pairs=9)
    intersect(loop_ideal, lines_ideal, max_pairs=26)
    with pytest.raises(BudgetExceeded, match="S-pair budget 25 exhausted"):
        intersect(loop_ideal, lines_ideal, max_pairs=25)
    intersect(loop_ideal, lines_ideal, max_degree=8)
    with pytest.raises(BudgetExceeded, match="S-pair degree 8 exceeds budget 7"):
        intersect(loop_ideal, lines_ideal, max_degree=7)


def test_three_lines_reduced_basis_text_is_pinned():
    # sha256 of the intersection's generator text; it equals the line
    # ideal's reduced basis, as Example 3.1 says
    from cigrid.verify import three_lines_fixture

    _, line_ideal, loop_ideal, lines_ideal, _ = three_lines_fixture()
    digest = "e0853144fe60339253119a87a3b8c7d983b3cd52db67d1aec73c782d2d58eced"
    meet = intersect(loop_ideal, lines_ideal)
    assert hashlib.sha256(ideal_to_text(meet).encode()).hexdigest() == digest
    assert buchberger(line_ideal).basis == meet.generators


def test_pair_update_applies_each_criterion():
    # heads in x, y, z; head 6 = xy joins
    packing = Packing(3, 8)
    pack, unpack = packing.pack, packing.unpack
    heads = [pack(h) for h in [(2, 0, 0), (2, 1, 0), (2, 2, 0), (0, 0, 2), (0, 1, 2), (0, 2, 1), (1, 1, 0)]]
    active = [0, 1, 2, 3, 4, 5]
    live = {(0, 5): pack((2, 2, 1)), (1, 2): pack((2, 2, 0)), (3, 4): pack((0, 1, 2))}
    new = ideals._update(heads, active, live, packing)
    # (0, 6) and (1, 6) share lcm x^2y: F keeps the lower index; (2, 6) has
    # lcm x^2y^2, a proper multiple of x^2y: M; (3, 6) is coprime: product
    # criterion; (4, 6) has the coprime pair's lcm xyz^2, which no other lcm
    # divides: dropped with it; (5, 6) has lcm xy^2z
    assert new == [(0, 6), (5, 6)]
    # B drops (0, 5): xy divides x^2y^2z, and neither x^2y nor xy^2z equals
    # it; (1, 2) stays because lcm(2, 6) = x^2y^2 is its lcm, (3, 4) because
    # xy does not divide yz^2
    assert {pair: unpack(l) for pair, l in live.items()} == {(1, 2): (2, 2, 0), (3, 4): (0, 1, 2), (0, 6): (2, 1, 0), (5, 6): (1, 2, 1)}
    # xy divides x^2y and x^2y^2: they take no new pairs
    assert active == [0, 3, 4, 5, 6]


def _binomial_ideal(rng, ring):
    """3-5 generators of 2 or 3 terms in degree 1-3 with exponents up to 2:
    small supports, so many pair lcms are equal or divide one another."""
    gens = []
    for _ in range(rng.randint(3, 5)):
        terms = {}
        size = rng.choice([2, 2, 3])
        while len(terms) < size:
            m = tuple(rng.choice([0, 0, 1, 1, 2]) for _ in ring.variables)
            if 0 < sum(m) <= 3:
                terms[m] = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2, 3]))
        gens.append(Polynomial(ring, terms))
    return gens


def test_reduced_bases_match_the_all_pairs_oracle(monkeypatch):
    ring = PolyRing.of([Var("w"), Var("x"), Var("y"), Var("z")])
    orders = [LEX, DEGREVLEX, ring.elimination_order({Var("x"), Var("z")})]
    fired = {"B": 0, "M": 0, "F": 0}
    real = ideals._update

    def counting_update(heads, active, live, packing):
        exps = [packing.unpack(h) for h in heads]
        m = exps[-1]
        lcms = {i: tuple(map(max, exps[i], m)) for i in active}
        queued = len(live)
        new = real(heads, active, live, packing)
        fired["B"] += queued + len(new) - len(live)
        for i, l in lcms.items():
            shared = any(a and b for a, b in zip(exps[i], m))
            if shared and (i, len(heads) - 1) not in new:
                fired["F" if list(lcms.values()).count(l) > 1 else "M"] += 1
        return new

    monkeypatch.setattr(ideals, "_update", counting_update)
    rng = random.Random(41)
    for trial in range(30):
        gens = _binomial_ideal(rng, ring)
        order = orders[trial % 3]
        # lex reaches intermediate degree 25 on one ideal; the budget is not under test
        ours = buchberger(Ideal.of(ring, gens), order, max_degree=60)
        assert set(ours.basis) == naive_reduced_groebner(gens, order, cap=100000)
    assert all(fired.values()), fired


def _split(rng, degree, parts):
    cuts = sorted(rng.randint(0, degree) for _ in range(parts - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


def test_packed_key_and_divisibility_follow_the_order_and_the_exponents():
    # every monomial of degree 3 (ties in degree), and monomials whose
    # exponents and degree reach the largest value a digit holds
    ring = PolyRing.of([Var("w"), Var("x"), Var("y"), Var("z")])
    orders = [LEX, DEGREVLEX, ring.elimination_order({Var("x"), Var("z")}), MonomialOrder("block", ((2, 0, 3, 1),))]
    rng = random.Random(43)
    for bits in (8, 16):
        top = (1 << (bits - 1)) - 1
        monos = {m for m in product(range(4), repeat=4) if sum(m) == 3}
        for near in ((top, 0, 0, 0), (top - 1, 1, 0, 0), (top - 2, 1, 1, 0), (top - 1, 0, 0, 0)):
            monos |= set(permutations(near))
        monos |= {_split(rng, rng.choice([top, top - 1, rng.randint(0, top)]), 4) for _ in range(150)}
        monos = sorted(monos)
        packing = Packing(4, bits)
        with pytest.raises(DigitOverflow):
            packing.pack((top, 0, 1, 0))
        for order in orders:
            weights = order.weights(4, bits)
            keys = {m: sum(map(mul, m, weights)) for m in monos}
            assert len(set(keys.values())) == len(monos)
            assert sorted(monos, key=keys.get) == sorted(monos, key=lambda m: reference_key(order, m), reverse=True)
            # the key of a product is the sum of the keys, past the digit limit too
            pairs = zip(monos, rng.sample(monos, len(monos)))
            products = {tuple(map(add, a, b)): keys[a] + keys[b] for a, b in pairs}
            assert len(set(products.values())) == len(products)
            assert sorted(products, key=products.get) == sorted(products, key=lambda m: reference_key(order, m), reverse=True)
        packed = {m: packing.pack(m) for m in monos}
        for a, b in zip(monos, rng.sample(monos, len(monos))):
            assert packing.unpack(packed[a]) == a
            assert (not (packed[b] - packed[a]) & packing.guard) == all(i <= j for i, j in zip(a, b))


def test_a_digit_that_reaches_its_guard_bit_repacks_wider(monkeypatch):
    # under lex, x^3 modulo 2x - y^43 leaves y^129: past the 127 that an 8-bit digit holds
    widths = []

    class RecordingPacking(Packing):
        def __init__(self, n, bits):
            widths.append(bits)
            super().__init__(n, bits)

    monkeypatch.setattr(ideals, "Packing", RecordingPacking)
    ring = PolyRing.of([Var("x"), Var("y")])
    x, y = ring.var(Var("x")), ring.var(Var("y"))
    f, divisors = x**3 + Fraction(1, 2) * x * y, [2 * x - y**43]
    r = reduce_poly(f, divisors, LEX)
    assert widths == [8, 16]
    assert max(max(m) for m in r.terms) == 129
    assert r == naive_division(f, divisors, LEX)
    gens = [x - y**43, x**3 - y]
    assert set(buchberger(Ideal.of(ring, gens), LEX, max_degree=129).basis) == naive_reduced_groebner(gens, LEX)


def test_a_monomial_past_the_widest_digit_is_a_value_error():
    # built directly: degree 2^63 - 1 packs into 64-bit digits, 2^63 into none
    ring = PolyRing.of([Var("x"), Var("y")])
    gb = buchberger(Ideal.of(ring, [ring.var(Var("y")) - 1]))
    widest = Polynomial(ring, {(2**63 - 2, 1): Fraction(1)})
    assert normal_form(widest, gb) == Polynomial(ring, {(2**63 - 2, 0): Fraction(1)})
    with pytest.raises(ValueError, match="past the widest packed digit"):
        normal_form(Polynomial(ring, {(2**63, 0): Fraction(1)}), gb)


def test_normal_form_keeps_its_packed_basis_on_the_ideal_alone():
    ring = ring_xyz()
    x, y, z = (ring.var(Var(n)) for n in "xyz")
    gb = buchberger(Ideal.of(ring, [x * x - y, x * y - z]))
    # a hand-built ideal whose basis is not monic
    hand = Ideal(ring, gb.generators, tuple(g.scale(Fraction(-3, 2)) for g in gb.basis), DEGREVLEX)
    f = x**3 * y + Fraction(2, 3) * x * z - y * y + 5
    for ideal in (gb, hand):
        expected = reduce_poly(f, ideal.basis, ideal.basis_order)
        assert normal_form(f, ideal) == expected
        assert normal_form(f, ideal) == expected
    assert normal_form(f, gb) == normal_form(f, hand)
    ref = weakref.ref(hand)
    del hand, ideal
    gc.collect()
    assert ref() is None


def _random_heads(rng, n, bits, count):
    """Head sequences for the pair update: small exponents, so that lcms
    coincide and divide one another often, or digits up to half the digit
    limit, so that no lcm overflows."""
    if rng.random() < 0.5:
        return [tuple(rng.choice([0, 0, 1, 1, 2, 3]) for _ in range(n)) for _ in range(count)]
    half = (1 << (bits - 2)) - 1
    return [_split(rng, rng.choice([half, rng.randint(0, half)]), n) for _ in range(count)]


@pytest.mark.parametrize("bits", [8, 16])
def test_the_packed_pair_update_matches_the_tuple_update(monkeypatch, bits):
    # every join of random head sequences and of the head sequences that
    # buchberger joins under lex, degrevlex and a block order gives the same
    # new pairs, lcms and active list as the update on exponent tuples
    ring = PolyRing.of([Var("w"), Var("x"), Var("y"), Var("z")])
    packing = Packing(4, bits)
    joins = []
    real = ideals._update

    def checked(heads, active, live, packing):
        exps = [packing.unpack(h) for h in heads]
        tuple_active, tuple_live = list(active), {pair: packing.unpack(l) for pair, l in live.items()}
        expected = tuple_update(exps, tuple_active, tuple_live)
        new = real(heads, active, live, packing)
        assert new == expected
        assert {pair: packing.unpack(l) for pair, l in live.items()} == tuple_live
        assert active == tuple_active
        joins.append(len(new))
        return new

    rng = random.Random(47 + bits)
    for _ in range(60):
        heads, active, live = [], [], {}
        for h in _random_heads(rng, 4, bits, rng.randint(2, 12)):
            heads.append(packing.pack(h))
            checked(heads, active, live, packing)
    monkeypatch.setattr(ideals, "_update", checked)
    orders = [LEX, DEGREVLEX, ring.elimination_order({Var("x"), Var("z")})]
    for trial in range(12):
        order = orders[trial % 3]
        weights = order.weights(4, bits)
        gens = [ideals._terms(packing, weights, g) for g in _binomial_ideal(rng, ring)]
        ideals._buchberger(gens, packing, weights, 4000, 60)
    assert len(joins) > 400 and sum(joins) > 400
    top = 1 << (bits - 1)
    with pytest.raises(DigitOverflow):
        packing.lcm(packing.pack((top - 1, 0, 0, 0)), packing.pack((0, 1, 0, 0)))


def _small_ideal(rng, ring):
    """1-3 generators of 1-3 terms in degree 1-2, exponents up to 2."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            m = tuple(rng.choice([0, 0, 1, 2]) for _ in ring.variables)
            if 0 < sum(m) <= 2:
                terms[m] = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 1, 2]))
        gens.append(Polynomial(ring, terms))
    return Ideal.of(ring, gens)


def _outcome(run, *args, **budgets):
    try:
        out = run(*args, **budgets)
    except BudgetExceeded as exc:
        return str(exc)
    return out.ring, out.generators


@pytest.mark.parametrize("names", ["uvw", "suv", "abc"], ids=["t-first", "t-mid-ring", "t-last"])
def test_intersect_and_eliminate_match_the_polynomial_route(names):
    ring = PolyRing.of([Var(c) for c in names])
    t = Var("t")
    assert ring.extend([t]).position(t) == {"uvw": 0, "suv": 1, "abc": 3}[names]
    rng = random.Random(sum(map(ord, names)))
    for _ in range(25):
        a, b = _small_ideal(rng, ring), _small_ideal(rng, ring)
        ours = _outcome(intersect, a, b, max_pairs=300)
        assert ours == _outcome(reference_intersect, a, b, t, max_pairs=300)
        assert isinstance(ours, str) or ours[0] == ring
        big = ring.extend([t])
        ideal = Ideal.of(big, [g.rename({}, big) for g in a.generators] + [ring.var(ring.variables[0]).rename({}, big) * big.var(t) - 1])
        for kill in ({t}, {t, ring.variables[1]}):
            assert _outcome(eliminate, ideal, kill, max_pairs=300) == _outcome(reference_eliminate, ideal, kill, max_pairs=300)


def test_intersect_picks_an_auxiliary_variable_the_ring_lacks():
    ring = PolyRing.of([Var("t"), Var("tt"), Var("x")])
    t, tt, x = (ring.var(Var(n)) for n in ("t", "tt", "x"))
    a, b = Ideal.of(ring, [t, x * x]), Ideal.of(ring, [tt * x - t])
    out = intersect(a, b)
    assert out.ring == ring
    assert out.generators == reference_intersect(a, b, Var("ttt")).generators
    assert intersect(Ideal.of(ring, [t]), Ideal.of(ring, [x])).generators == (t * x,)


def test_the_engine_reads_minors_from_their_packed_keys(monkeypatch):
    # minors with q = 1, with q = 36, and packed at 16 bits, while the engine
    # also runs at 8; a dense generator of degree 130 moves the engine to 16
    # bits while the other minors stay packed at 8
    calls = []
    real = _PackedPolynomial._unpack_terms
    monkeypatch.setattr(_PackedPolynomial, "_unpack_terms", lambda self: calls.append(self) or real(self))
    X = generic_matrix(3, 7)
    ring = PolyRing.of([Var(n) for n in "wxyz"])
    w, x, y, z = (ring.var(v) for v in ring.variables)
    third = Fraction(1, 3)
    rational = SymbolicMatrix(ring, ((x * Fraction(1, 2), y + third), (z, 2 * w - 1), (x + w, y * third)))
    wide = SymbolicMatrix(ring, ((x**70, y**70), (z**70, w**70)))
    cases = []
    lines = [minor(X, [1, 2, 3], cols) for cols in ([1, 2, 3], [1, 4, 5], [1, 6, 7])]
    loop = Ideal.of(X.ring, [X.entry(1, 1), X.entry(2, 1), X.entry(3, 1)])
    cases.append((buchberger, (Ideal.of(X.ring, lines),), {}))
    cases.append((intersect, (loop, Ideal.of(X.ring, lines)), {}))
    two = [minor(rational, rows, [1, 2]) for rows in ([1, 2], [1, 3], [2, 3])]
    assert {g._packed[1] for g in two} == {36}
    cases.append((buchberger, (Ideal.of(ring, two),), {}))
    cases.append((intersect, (Ideal.of(ring, two[:2]), Ideal.of(ring, [x * y, two[2]])), {}))
    big = minor(wide, [1, 2], [1, 2])
    assert big._packed[2].bits == 16
    cases.append((buchberger, (Ideal.of(ring, [big, x - y]),), {"max_degree": 300}))
    cases.append((intersect, (Ideal.of(ring, [big]), Ideal.of(ring, [x])), {"max_degree": 300}))
    narrow = minor(generic_matrix(2, 2), [1, 2], [1, 2])
    deep = narrow.ring.var(narrow.ring.variables[0]) ** 130 - 1
    cases.append((buchberger, (Ideal.of(narrow.ring, [narrow, deep]),), {"max_degree": 300}))
    cases.append((intersect, (Ideal.of(narrow.ring, [narrow]), Ideal.of(narrow.ring, [deep])), {"max_degree": 300}))
    results = [run(*args, **budgets) for run, args, budgets in cases]
    # the engine ran at the narrowest width, so at the minors' own width
    # where nothing else is wider
    assert [list(got._packed) for got in results[::2]] == [[8], [8], [16], [16]]
    # a normal form keeps the scale 1/q of a minor's int coefficients
    gb = buchberger(Ideal.of(ring, [x * y - 1, z * z]))
    residues = [normal_form(g, gb) for g in two]
    assert calls == []
    for (run, args, budgets), got in zip(cases, results):
        dense = [Ideal(i.ring, tuple(Polynomial(i.ring, dict(g.terms)) for g in i.generators)) for i in args]
        want = run(*dense, **budgets)
        assert (got.basis, got.generators) == (want.basis, want.generators)
    assert residues == [normal_form(Polynomial(ring, dict(g.terms)), gb) for g in two]
    assert all(residues)


def test_intersect_keeps_each_generator_once():
    # as `Ideal.of` keeps it: a generator repeated in a hand-built ideal adds
    # no S-pair to the 26 the component intersection reduces
    from cigrid.verify import three_lines_fixture

    X, _, loop_ideal, lines_ideal, _ = three_lines_fixture()
    twice = Ideal(X.ring, loop_ideal.generators * 2)
    assert intersect(twice, lines_ideal, max_pairs=26).generators == intersect(loop_ideal, lines_ideal).generators
