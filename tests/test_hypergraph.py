import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from helpers import in_variety_by_edges, perm_minor, quadratic_minimal_edges, reference_to_text, statement_text
from cigrid import hypergraph, linalg
from cigrid.hypergraph import (
    GridSpec,
    Hypergraph,
    ci_generators_in_grid_coordinates,
    grid_ci_correspondence,
    grid_hypergraph,
    grid_matrix,
    grid_matrix_text,
    grid_vertex,
    hypergraph_ideal,
    in_variety,
)
from cigrid.poly import DEGREVLEX, generic_matrix, minor, normalize_sign
from cigrid.sampling import rand_matrix


def test_grid_matrix_four_by_seven():
    rows, cols = grid_matrix(4, 7)
    assert rows == [
        [1, 5, 9, 13, 17, 21, 25],
        [2, 6, 10, 14, 18, 22, 26],
        [3, 7, 11, 15, 19, 23, 27],
        [4, 8, 12, 16, 20, 24, 28],
    ]
    assert cols[0] == [1, 2, 3, 4] and cols[6] == [25, 26, 27, 28]
    assert grid_matrix_text(4, 7).splitlines()[0] == "1 5 9 13 17 21 25"


def test_grid_matrix_trivial_and_three_by_four():
    assert grid_matrix(1, 1) == ([[1]], [[1]])
    _, cols = grid_matrix(3, 4)
    assert cols == [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]]


def test_grid_rows_and_columns_partition_the_vertex_set():
    for k, l in [(2, 2), (3, 4), (4, 7), (1, 5)]:
        rows, cols = grid_matrix(k, l)
        assert sorted(v for r in rows for v in r) == list(range(1, k * l + 1))
        assert sorted(v for c in cols for v in c) == list(range(1, k * l + 1))
        for r in rows:
            for c in cols:
                assert len(set(r) & set(c)) == 1


def test_grid_hypergraph_three_three_on_three_by_four():
    H = grid_hypergraph(GridSpec(k=3, l=4, s=3, t=3))
    assert H.n == 12
    assert len(H.edges) == 16
    col_triples = [e for e in H.edges if e in {frozenset({1, 2, 3}), frozenset({4, 5, 6}), frozenset({7, 8, 9}), frozenset({10, 11, 12})}]
    assert len(col_triples) == 4


def test_grid_hypergraph_two_three_on_four_by_seven():
    H = grid_hypergraph(GridSpec(k=4, l=7, s=2, t=3))
    rows, cols = grid_matrix(4, 7)
    expected = {frozenset(e) for r in rows for e in combinations(r, 3)}
    expected |= {frozenset(e) for c in cols for e in combinations(c, 2)}
    # 2-subsets of columns never sit inside a row, and vice versa: all minimal
    assert set(H.edges) == {e for e in expected if not any(f < e for f in expected)}
    assert all(len(e) == 2 or not any(len(f) == 2 and f < e for f in H.edges) for e in H.edges)


def test_grid_hypergraph_singletons_when_sizes_are_one():
    H = grid_hypergraph(GridSpec(k=2, l=3, s=1, t=1))
    assert set(H.edges) == {frozenset({v}) for v in range(1, 7)}


def test_normalization_is_idempotent_and_drops_supersets():
    H = Hypergraph.of(5, [{1, 2}, {1, 2, 3}, {4, 5}])
    assert set(H.edges) == {frozenset({1, 2}), frozenset({4, 5})}
    assert Hypergraph.of(H.n, H.edges) == H


def test_minimal_edges_match_the_quadratic_definition():
    rng = random.Random(15)
    for _ in range(300):
        n = rng.randint(1, 9)
        family = [frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))) for _ in range(rng.randint(0, 12))]
        for e in list(family):
            kind = rng.randrange(4)
            if kind == 0:
                family.append(e)  # duplicate
            elif kind == 1 and e:
                family.append(e - {rng.choice(sorted(e))})  # nested below, possibly empty
            elif kind == 2:
                family.append(e | {rng.randint(1, n)})  # nested above
        family.append(frozenset())
        rng.shuffle(family)
        assert Hypergraph.of(n, family).edges == quadratic_minimal_edges(family), (n, family)


def test_normalization_preserves_variety_membership():
    raw_edges = [{1, 2}, {1, 2, 3}, {2, 4}, {2, 4, 5}]
    minimal = Hypergraph.of(5, raw_edges)
    rng = random.Random(6)
    for trial in range(8):
        m = rand_matrix(rng, 2, 5)
        if trial % 2 == 0:  # include members: force columns 2 and 4 parallel to 1
            for r in range(2):
                m[r][1] = 2 * m[r][0]
                m[r][3] = 3 * m[r][0]
        raw_member = all(
            linalg.rank(linalg.column_submatrix(m, e)) < len(e) for e in map(sorted, raw_edges)
        )
        assert raw_member == in_variety(minimal, m)


def test_ideal_of_the_four_by_six_grid_matches_leibniz_expansions():
    # the 96-variable ring of the construct benchmark's grid
    spec = GridSpec(4, 6, 4, 4, 4)
    H = grid_hypergraph(spec)
    X = generic_matrix(spec.d, spec.n)
    assert len(X.ring.variables) == 96
    expected = []
    for edge in H.edges:
        for rows in combinations(range(1, spec.d + 1), len(edge)):
            g = perm_minor(X, rows, edge)
            lead = max(g.terms, key=DEGREVLEX.key)
            expected.append(reference_to_text(-g if g.terms[lead] < 0 else g))
    assert len(expected) == 66
    assert hypergraph_ideal(H, spec.d).generator_texts() == expected


def test_hypergraph_text_round_trip():
    H = grid_hypergraph(GridSpec(k=3, l=3, s=2, t=2))
    assert Hypergraph.from_text(H.to_text()) == H
    assert H.to_text().splitlines()[0] == "9"


def test_three_lines_ideal_generators():
    H = Hypergraph.of(7, [{1, 2, 3}, {1, 4, 5}, {1, 6, 7}])
    ideal = hypergraph_ideal(H, 3)
    X = generic_matrix(3, 7)
    memo = {}
    expected = {
        normalize_sign(minor(X, [1, 2, 3], [1, 2, 3], memo)),
        normalize_sign(minor(X, [1, 2, 3], [1, 4, 5], memo)),
        normalize_sign(minor(X, [1, 2, 3], [1, 6, 7], memo)),
    }
    assert set(ideal.generators) == expected


def test_singleton_edges_give_column_entries():
    H = Hypergraph.of(3, [{2}])
    ideal = hypergraph_ideal(H, 2)
    X = generic_matrix(2, 3)
    assert set(ideal.generators) == {X.entry(1, 2), X.entry(2, 2)}


def test_oversized_edges_contribute_no_generators_but_still_gate_membership():
    H = Hypergraph.of(4, [{1, 2, 3, 4}])
    ideal = hypergraph_ideal(H, 2)
    assert ideal.generators == ()
    # any 2 x 4 matrix has rank <= 2 < 4, so membership is automatic
    assert in_variety(H, rand_matrix(random.Random(0), 2, 4))


def test_in_variety_zero_and_generic():
    H = grid_hypergraph(GridSpec(k=3, l=3, s=2, t=2))
    assert in_variety(H, linalg.zeros(3, 9))
    rng = random.Random(8)
    generic = rand_matrix(rng, 3, 9)
    assert not in_variety(H, generic)


def test_in_variety_matches_generator_vanishing():
    spec = GridSpec(k=3, l=3, s=2, t=2, d=2)
    H = grid_hypergraph(spec)
    ideal = hypergraph_ideal(H, 2)
    X = generic_matrix(2, H.n)
    rng = random.Random(21)
    for trial in range(6):
        if trial % 2 == 0:
            m = rand_matrix(rng, 2, 9)
        else:
            # rank-one matrices satisfy every 2-minor
            u = [Fraction(rng.randint(-9, 9)) for _ in range(2)]
            v = [Fraction(rng.randint(-9, 9)) for _ in range(9)]
            m = [[ui * vj for vj in v] for ui in u]
        point = X.assignment(m)
        vanish = all(g.evaluate(point) == 0 for g in ideal.generators)
        assert vanish == in_variety(H, m)


def seeded_rank_matrix(rng: random.Random, d: int, ncols: int, r: int):
    """A d x ncols matrix of rank exactly r, the product of factors with
    entries in {-1, 0, 1}, so zero, parallel and other special column sets
    are common."""
    while True:
        left = [[Fraction(rng.randint(-1, 1)) for _ in range(r)] for _ in range(d)]
        right = [[Fraction(rng.randint(-1, 1)) for _ in range(ncols)] for _ in range(r)]
        m = [[sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0)) for j in range(ncols)] for i in range(d)]
        if linalg.rank(m) == r:
            return m


def test_in_variety_matches_one_rank_per_edge():
    rng = random.Random(90)
    verdicts = set()
    above_rank = 0
    for d in range(1, 5):
        for r in range(d + 1):
            for _ in range(12):
                n = rng.randint(max(r, 1), 7)
                X = seeded_rank_matrix(rng, d, n + rng.randint(0, 2), r)
                families = [[rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]]
                families += [[range(1, size + 1)] for size in range(1, n + 1)]
                for edges in families:
                    H = Hypergraph.of(n, edges)
                    expected = in_variety_by_edges(H, X)
                    assert in_variety(H, X) == expected, (X, H)
                    verdicts.add(expected)
                    above_rank += any(len(e) > r for e in H.edges)
    assert verdicts == {True, False}
    assert above_rank > 0


def test_in_variety_when_a_small_dependent_edge_comes_first():
    # {1, 2} is parallel (rank 1), {3, 4} is independent, rank(X) = 2
    X = linalg.mat([[1, 2, 1, 0], [1, 2, 0, 1]])
    H = Hypergraph.of(4, [{1, 2}, {3, 4}])
    assert not in_variety_by_edges(H, X)
    assert not in_variety(H, X)
    assert in_variety(Hypergraph.of(4, [{1, 2}, {1, 3, 4}]), X)


def test_in_variety_of_a_zero_row_matrix():
    H = Hypergraph.of(3, [{1}, {2, 3}])
    assert in_variety_by_edges(H, [])
    assert in_variety(H, [])


def test_in_variety_takes_one_rank_of_a_member_whose_edges_exceed_its_rank(monkeypatch):
    calls = []

    def counting_rank(m):
        calls.append((len(m), len(m[0])))
        return linalg.integer_rank(m)

    monkeypatch.setattr(hypergraph, "integer_rank", counting_rank)
    H = grid_hypergraph(GridSpec(k=3, l=4, s=3, t=3))
    rng = random.Random(32)
    left, right = rand_matrix(rng, 3, 2), rand_matrix(rng, 2, 12)
    X = [[left[i][0] * right[0][j] + left[i][1] * right[1][j] for j in range(12)] for i in range(3)]
    assert in_variety(H, X)
    # one rank of the whole matrix, given as its 12 scaled columns
    assert calls == [(12, 3)]


def test_correspondence_model_cards():
    model, statements = grid_ci_correspondence(GridSpec(k=3, l=4, s=3, t=3, d=3))
    cards = {v.name: v.card for v in model.variables}
    assert cards == {"X": 3, "Y1": 3, "Y2": 4, "H1": 2, "H2": 2}
    hidden = {v.name for v in model.hidden()}
    assert hidden == {"H1", "H2"}
    assert [statement_text(s, model) for s in statements] == [
        "X _||_ Y1 | Y2 H1*",
        "X _||_ Y2 | Y1 H2*",
    ]


def test_correspondence_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        grid_ci_correspondence(GridSpec(k=3, l=3, s=1, t=2, d=3))


def test_eq21_generators_match_grid_ideal():
    spec = GridSpec(k=3, l=4, s=3, t=3, d=3)
    ci_side = ci_generators_in_grid_coordinates(spec)
    grid_side = hypergraph_ideal(grid_hypergraph(spec), spec.d).sign_normalized_set()
    assert ci_side == grid_side
    assert len(ci_side) == 16


def test_two_two_correspondence_uses_two_minors():
    spec = GridSpec(k=2, l=3, s=2, t=2, d=2)
    ci_side = ci_generators_in_grid_coordinates(spec)
    assert all(g.total_degree() == 2 for g in ci_side)
    grid_side = hypergraph_ideal(grid_hypergraph(spec), spec.d).sign_normalized_set()
    assert ci_side == grid_side


def test_correspondence_identity_across_small_grid_specs():
    for k in (2, 3, 4):
        for l in (2, 3, 4):
            for s in (2, 3):
                for t in (2, 3):
                    if s > k or t > l:
                        continue
                    for d in (1, 2, 3, 4):
                        spec = GridSpec(k=k, l=l, s=s, t=t, d=d)
                        ci_side = ci_generators_in_grid_coordinates(spec)
                        grid_side = hypergraph_ideal(grid_hypergraph(spec), d).sign_normalized_set()
                        assert ci_side == grid_side, spec


def test_grid_vertex_layout_is_column_major():
    assert grid_vertex(3, 1, 1) == 1
    assert grid_vertex(3, 3, 1) == 3
    assert grid_vertex(3, 1, 2) == 4
    assert grid_vertex(3, 3, 4) == 12
