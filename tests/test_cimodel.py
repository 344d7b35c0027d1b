import random
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ci_file_text, rank_by_minors, rational_tensor, state_flatten, statement_text, tensor_of
from cigrid import linalg
from cigrid.cimodel import (
    CIStatement,
    DiscreteModel,
    ModelVar,
    ci_ideal,
    ci_minor_generators,
    ci_minor_membership,
    flatten,
    mixture_parametrization_sample,
    parse_ci_file,
    prob_ring,
    tensor_assignment,
)
from cigrid.hypergraph import GridSpec, grid_ci_correspondence
from cigrid.poly import Polynomial, SymbolicMatrix, Var, all_minors, generic_matrix, normalize_sign


def two_binary_model():
    return DiscreteModel.of(ModelVar("X", 2), ModelVar("Y", 2))


def eq21_model():
    return DiscreteModel.of(
        ModelVar("X", 3),
        ModelVar("Y1", 3),
        ModelVar("Y2", 4),
        ModelVar("H1", 2, hidden=True),
        ModelVar("H2", 2, hidden=True),
    )


def test_model_validation():
    with pytest.raises(ValueError):
        DiscreteModel.of(ModelVar("X", 2), ModelVar("X", 3))
    with pytest.raises(ValueError):
        DiscreteModel.of(ModelVar("H", 2, hidden=True))
    with pytest.raises(ValueError):
        ModelVar("X", 0)


def test_statement_validation_rejects_hidden_on_either_side():
    model = eq21_model()
    CIStatement(("X",), ("Y1",), ("Y2", "H1")).validate(model)
    with pytest.raises(ValueError):
        CIStatement(("H1",), ("Y1",), ()).validate(model)
    with pytest.raises(ValueError):
        CIStatement(("X",), ("H2",), ()).validate(model)
    with pytest.raises(ValueError):
        CIStatement(("X",), ("X",), ()).validate(model)


def test_statement_text_round_trip():
    model = eq21_model()
    stmt = CIStatement(("X",), ("Y1",), ("Y2", "H1"))
    text = statement_text(stmt, model)
    assert text == "X _||_ Y1 | Y2 H1*"
    assert CIStatement.parse(text) == stmt


def test_flatten_two_slice_sum():
    entries = []
    # slices over Z: z=1 puts mass 1/2 at (1,1); z=2 puts mass 1/2 at (2,2)
    for x, y, z in product(range(1, 3), repeat=3):
        if (x, y, z) == (1, 1, 1) or (x, y, z) == (2, 2, 2):
            entries.append(Fraction(1, 2))
        else:
            entries.append(Fraction(0))
    P = tensor_of(("X", "Y", "Z"), (2, 2, 2), entries)
    M = flatten(P, rows=["X"], cols=["Y"], summed=["Z"])
    assert M == linalg.mat([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])


def test_flatten_without_sum_is_a_reshape():
    rng = random.Random(4)
    entries = [Fraction(rng.randint(0, 9), 10) for _ in range(8)]
    P = tensor_of(("X", "Y", "Z"), (2, 2, 2), entries)
    M = flatten(P, rows=["X"], cols=["Y", "Z"])
    flat = [x for row in M for x in row]
    assert sorted(flat) == sorted(entries)
    assert M[0][0] == P.get((1, 1, 1)) and M[1][3] == P.get((2, 2, 2))


def test_get_rejects_a_state_of_the_wrong_length():
    P = tensor_of(("X", "Y", "Z"), (2, 2, 2), range(8))
    assert P.get((1, 2, 1)) == 2
    for state in [(2,), (1, 2), (1, 1, 1, 1, 1)]:
        with pytest.raises(IndexError):
            P.get(state)


def test_prob_ring_orders_states_row_major_by_integer_index():
    model = DiscreteModel.of(ModelVar("X", 2), ModelVar("Y", 11), ModelVar("H", 2, hidden=True), ModelVar("Z", 3))
    states = list(product(range(1, 3), range(1, 12), range(1, 4)))
    variables = prob_ring(model).variables
    assert variables == tuple(Var("p", s) for s in states)
    # sorting by text would put p_1_10_1 before p_1_2_1
    assert sorted(variables, key=str) != list(variables)
    P = tensor_of(("X", "Y", "Z"), (2, 11, 3), range(len(states)))
    assert all(P.get(s) == i for i, s in enumerate(states))
    point = tensor_assignment(model, P)
    assert len(point) == len(variables)
    assert {v: point[i] for i, v in enumerate(variables)} == dict(zip(variables, P.entries))


def test_flatten_rejects_non_partition():
    P = tensor_of(("X", "Y"), (2, 2), [1, 0, 0, 0])
    with pytest.raises(ValueError):
        flatten(P, rows=["X"], cols=["X", "Y"])
    with pytest.raises(ValueError):
        flatten(P, rows=["X"], cols=[])


def test_flatten_of_rank_one_slices_has_bounded_rank():
    rng = random.Random(12)
    for _ in range(5):
        slices = []
        for _ in range(2):  # |Z| = 2 rank-one slices
            a = [Fraction(rng.randint(1, 9)) for _ in range(3)]
            b = [Fraction(rng.randint(1, 9)) for _ in range(3)]
            slices.append([[ai * bj for bj in b] for ai in a])
        entries = []
        for x, y in product(range(3), repeat=2):
            for z in range(2):
                entries.append(slices[z][x][y])
        P = tensor_of(("X", "Y", "Z"), (3, 3, 2), entries)
        M = flatten(P, rows=["X"], cols=["Y"], summed=["Z"])
        r = linalg.rank(M)
        assert r <= 2
        assert r == rank_by_minors(M)


def test_flatten_is_linear():
    rng = random.Random(31)
    mk = lambda: tensor_of(("X", "Y", "Z"), (2, 3, 2), [Fraction(rng.randint(-5, 5), 3) for _ in range(12)])
    P, Q = mk(), mk()
    FP = flatten(P, ["X"], ["Y"], ["Z"])
    FQ = flatten(Q, ["X"], ["Y"], ["Z"])
    S = tensor_of(("X", "Y", "Z"), (2, 3, 2), [a + b for a, b in zip(P.entries, Q.entries)])
    FS = flatten(S, ["X"], ["Y"], ["Z"])
    assert FS == [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(FP, FQ)]


def test_flatten_matches_the_state_by_state_sum():
    rng = random.Random(37)
    names = ("A", "B", "C", "D")
    for width in range(1, 5):
        for _ in range(6):
            shape = tuple(rng.randint(1, 3) for _ in range(width))
            entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(prod(shape))]
            P = tensor_of(names[:width], shape, entries)
            # every assignment of the variables to rows, cols or summed
            for roles in product(range(3), repeat=width):
                groups = [[n for n, r in zip(P.names, roles) if r == k] for k in range(3)]
                M = flatten(P, *groups)
                assert M == state_flatten(P, *groups)
                assert all(type(x) is Fraction for row in M for x in row)


def test_single_two_minor_for_marginal_independence():
    model = two_binary_model()
    gens = ci_minor_generators(CIStatement(("X",), ("Y",)), model)
    assert len(gens) == 1
    ring = prob_ring(model)
    p = lambda *s: ring.var(Var("p", s))
    expected = p(1, 1) * p(2, 2) - p(1, 2) * p(2, 1)
    assert gens[0] in (normalize_sign(expected), normalize_sign(-expected))
    assert gens[0] == normalize_sign(expected)


def test_eq21_first_statement_gives_four_cubics():
    model = eq21_model()
    gens = ci_minor_generators(CIStatement(("X",), ("Y1",), ("Y2", "H1")), model)
    assert len(gens) == 4
    assert all(g.total_degree() == 3 for g in gens)
    # each generator uses only coordinates of a single Y2 slice
    for g in gens:
        y2_values = {v.index[2] for v in g.support()}
        assert len(y2_values) == 1


def test_eq21_second_statement_gives_twelve_cubics():
    model = eq21_model()
    gens = ci_minor_generators(CIStatement(("X",), ("Y2",), ("Y1", "H2")), model)
    # 3 Y1-slices x C(3,3) row-triples x C(4,3) column-triples
    assert len(gens) == 3 * comb(3, 3) * comb(4, 3) == 12
    assert all(g.total_degree() == 3 for g in gens)


def test_generator_count_formula():
    model = DiscreteModel.of(
        ModelVar("A", 3),
        ModelVar("B", 4),
        ModelVar("C", 2),
        ModelVar("H", 2, hidden=True),
    )
    stmt = CIStatement(("A",), ("B",), ("C", "H"))
    gens = ci_minor_generators(stmt, model)
    h = 2
    assert len(gens) == 2 * comb(3, h + 1) * comb(4, h + 1)


def test_generator_count_formula_across_shapes():
    for a_card, b_card, c_card, h_card in [(2, 2, 1, 1), (3, 3, 2, 1), (4, 3, 1, 2), (3, 4, 3, 2)]:
        model = DiscreteModel.of(
            ModelVar("A", a_card),
            ModelVar("B", b_card),
            ModelVar("C", c_card),
            ModelVar("H", h_card, hidden=True),
        )
        gens = ci_minor_generators(CIStatement(("A",), ("B",), ("C", "H")), model)
        assert len(gens) == c_card * comb(a_card, h_card + 1) * comb(b_card, h_card + 1)


def test_multiple_hidden_conditioners_multiply_the_rank_bound():
    # two binary hidden variables in C force (2*2+1)-minors
    model = DiscreteModel.of(
        ModelVar("A", 5),
        ModelVar("B", 5),
        ModelVar("H1", 2, hidden=True),
        ModelVar("H2", 2, hidden=True),
    )
    gens = ci_minor_generators(CIStatement(("A",), ("B",), ("H1", "H2")), model)
    assert len(gens) == 1
    assert gens[0].total_degree() == 5
    # a rank-4 mixture kills the single 5-minor
    rng = random.Random(3)
    P = rational_tensor(*mixture_parametrization_sample(model, CIStatement(("A",), ("B",), ("H1", "H2")), rng))
    point = tensor_assignment(model, P)
    assert gens[0].evaluate(point) == 0
    assert linalg.rank(flatten(P, ["A"], ["B"])) <= 4


def test_ci_ideal_eq21_has_sixteen_generators():
    model = eq21_model()
    stmts = [
        CIStatement(("X",), ("Y1",), ("Y2", "H1")),
        CIStatement(("X",), ("Y2",), ("Y1", "H2")),
    ]
    ideal = ci_ideal(stmts, model)
    assert len(ideal.generators) == 16


def test_ci_ideal_empty_and_duplicate_statements():
    model = two_binary_model()
    assert ci_ideal([], model).generators == ()
    stmt = CIStatement(("X",), ("Y",))
    once = ci_ideal([stmt], model)
    twice = ci_ideal([stmt, stmt], model)
    assert once.generators == twice.generators


def test_mixture_sample_rank_one_kills_two_minors():
    model = DiscreteModel.of(ModelVar("X", 3), ModelVar("Y", 3), ModelVar("H", 1, hidden=True))
    conclusion = CIStatement(("X",), ("Y",), ("H",))
    rng = random.Random(5)
    P = rational_tensor(*mixture_parametrization_sample(model, conclusion, rng))
    M = flatten(P, ["X"], ["Y"])
    assert linalg.rank(M) <= 1
    gens = ci_minor_generators(CIStatement(("X",), ("Y",)), DiscreteModel.of(ModelVar("X", 3), ModelVar("Y", 3)))
    point = {Var("p", (i, j)): M[i - 1][j - 1] for i in range(1, 4) for j in range(1, 4)}
    assert all(g.evaluate(point) == 0 for g in gens)


def test_mixture_sample_is_fully_supported_and_normalized():
    model = eq21_model()
    conclusion = CIStatement(("X",), ("Y1", "Y2"), ("H2",))
    rng = random.Random(99)
    P = rational_tensor(*mixture_parametrization_sample(model, conclusion, rng))
    assert all(x > 0 for x in P.entries)
    assert sum(P.entries) == 1


def test_mixture_sample_kills_all_eq21_generators():
    model = eq21_model()
    stmts = [
        CIStatement(("X",), ("Y1",), ("Y2", "H1")),
        CIStatement(("X",), ("Y2",), ("Y1", "H2")),
    ]
    ideal = ci_ideal(stmts, model)
    conclusion = CIStatement(("X",), ("Y1", "Y2"), ("H2",))
    rng = random.Random(123)
    for _ in range(3):
        P = rational_tensor(*mixture_parametrization_sample(model, conclusion, rng))
        M = flatten(P, ["X"], ["Y1", "Y2"])
        assert linalg.rank(M) <= 2
        point = tensor_assignment(model, P)
        assert all(g.evaluate(point) == 0 for g in ideal.generators)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(2, 4),
    st.integers(1, 2),
    st.integers(0, 10**6),
)
def test_mixture_rank_bound_across_shapes(a_card, b_card, h, seed):
    model = DiscreteModel.of(
        ModelVar("A", a_card), ModelVar("B", b_card), ModelVar("H", h, hidden=True)
    )
    conclusion = CIStatement(("A",), ("B",), ("H",))
    P = rational_tensor(*mixture_parametrization_sample(model, conclusion, random.Random(seed)))
    M = flatten(P, ["A"], ["B"])
    assert linalg.rank(M) <= h
    assert all(x > 0 for x in P.entries) and sum(P.entries) == 1
    # all (h+1)-minors of the flattening vanish exactly
    from itertools import combinations

    for rows in combinations(range(a_card), h + 1):
        for cols in combinations(range(b_card), h + 1):
            sub = [[M[i][j] for j in cols] for i in rows]
            assert linalg.det(sub) == 0


def test_mixture_sample_rejects_observed_conditioning():
    model = eq21_model()
    rng = random.Random(1)
    with pytest.raises(ValueError):
        mixture_parametrization_sample(model, CIStatement(("X",), ("Y1", "Y2"), ("Y1",)), rng)


def test_marginal_statement_rejected_when_observed_variable_missing():
    model = eq21_model()
    with pytest.raises(ValueError):
        ci_minor_generators(CIStatement(("X",), ("Y1",), ("H1",)), model)


def test_ci_file_round_trip():
    model = eq21_model()
    stmts = [
        CIStatement(("X",), ("Y1",), ("Y2", "H1")),
        CIStatement(("X",), ("Y2",), ("Y1", "H2")),
    ]
    text = ci_file_text(model, stmts)
    model2, stmts2 = parse_ci_file(text)
    assert model2 == model
    assert stmts2 == stmts


@pytest.mark.parametrize(
    "spec",
    [GridSpec(k=3, l=4, s=3, t=3, d=3), GridSpec(k=2, l=3, s=2, t=2, d=2), GridSpec(k=3, l=3, s=2, t=3, d=2), GridSpec(k=2, l=2, s=2, t=2, d=3)],
    ids=["campaign", "2x3-t2", "3x3-s2-t3", "2x2-d3"],
)
def test_ci_minor_membership_equals_membership_in_all_the_minors(spec):
    """The one-minor test against the frozenset of every minor, for the
    conclusion and both premise statements, on the premise generators, every
    minor of the full X x (Y1, Y2) flattening, and non-minors: sign flips,
    products, sums, a changed coefficient, the zero polynomial and a
    polynomial of another ring."""
    model, statements = grid_ci_correspondence(spec)
    ring = prob_ring(model)
    width = spec.k * spec.l
    flat = SymbolicMatrix(
        ring, tuple(tuple(ring.var(v) for v in ring.variables[x * width : (x + 1) * width]) for x in range(spec.d))
    )
    minors = [normalize_sign(g) for size in range(1, min(spec.d, width) + 1) for g in all_minors(flat, size)]
    premise = list(ci_ideal(statements, model).generators)
    a, b = minors[-1], minors[-2]
    head = Polynomial(ring, dict([next(iter(a.terms.items()))]))
    others = [-g for g in premise + minors[-3:]] + [
        a * ring.var(ring.variables[0]),
        a + b,
        a + head,
        a * b,
        ring.zero(),
        generic_matrix(2, 2).ring.var(Var("x", (1, 1))),
    ]
    candidates = premise + minors + others
    for stmt in [CIStatement(("X",), ("Y1", "Y2"), ("H2",))] + statements:
        member = ci_minor_membership(stmt, model)
        expected = frozenset(ci_minor_generators(stmt, model))
        verdicts = [member(g) for g in candidates]
        assert verdicts == [g in expected for g in candidates], stmt
        assert {g for g, v in zip(candidates, verdicts) if v} == expected
    if spec.s == spec.t:
        conclusion = ci_minor_membership(CIStatement(("X",), ("Y1", "Y2"), ("H2",)), model)
        assert premise and all(map(conclusion, premise))
