import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from helpers import full_width_subgraph_circuits, pebble_game_rank, rank_by_minors, rational_rows, rref_rank
from cigrid import linalg, secrig
from cigrid.matroid import matroid_from_matrix
from cigrid.secrig import (
    Framework,
    _affine_dependence_stress,
    _affine_minors,
    _check_complete_subgraph_circuits,
    complete_graph_edges,
    expected_secant_dimension,
    generic_rigidity_check,
    integer_framework,
    random_framework,
    rigidity_matrix,
    rigidity_rank,
    rigidity_rank_formula,
    secant_dimension,
    segre_tangent_model,
    trivial_motions,
)
from cigrid.sampling import child_rng, mixture_matrix, rand_fraction, rand_nonzero_fraction


def as_matrix(point, m, n):
    return [[point[i * n + j] for j in range(n)] for i in range(m)]


def test_tangent_basis_contains_its_base_point():
    model = segre_tangent_model(3, 3)
    rng = child_rng(0, "tangent")
    point, tangents = model.draw(rng)
    stacked = [list(t) for t in tangents] + [list(point)]
    assert linalg.rank(stacked) == linalg.rank([list(t) for t in tangents])


def test_secant_dimensions_of_rank_one_three_by_three():
    model = segre_tangent_model(3, 3)
    rng = child_rng(1, "secant")
    assert secant_dimension(model, 1, rng) == 5
    assert secant_dimension(model, 2, rng) == 8
    assert secant_dimension(model, 3, rng) == 9


def test_secant_dimension_formula_on_more_shapes():
    rng = child_rng(2, "secant")
    assert secant_dimension(segre_tangent_model(3, 4), 2, rng) == 10
    assert secant_dimension(segre_tangent_model(4, 4), 3, rng) == 15


def test_expected_secant_dimension_matches_the_stacked_tangent_rank():
    """r(m+n-r) with r = min(k, m, n), for k past max(m, n): once k reaches
    min(m, n) the secant fills all m*n dimensions.  The former
    min(mn, k(m+n-k)) gave 3 for k = 3 on 2x2 and went negative past m+n."""
    rng = child_rng(6, "secant-expected")
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        for k in range(1, max(m, n) + 3):
            expected = expected_secant_dimension(m, n, k)
            assert secant_dimension(segre_tangent_model(m, n), k, rng) == expected, (m, n, k)
            assert expected == (m * n if k >= min(m, n) else k * (m + n - k))
    assert expected_secant_dimension(2, 2, 3) == 4


def test_segre_tangents_are_ints_drawn_from_the_same_stream():
    """u and v take the same `rand_nonzero_fraction` calls as before and are
    scaled to integers, so the rng ends in the same state, and the point,
    tangents and relations are ints: proportional to the rational ones."""
    m, n = 3, 4
    rng, twin = child_rng(8, "int-tangents"), child_rng(8, "int-tangents")
    point, tangents = segre_tangent_model(m, n).draw(rng)
    u = [rand_nonzero_fraction(twin) for _ in range(m)]
    v = [rand_nonzero_fraction(twin) for _ in range(n)]
    assert rng.getstate() == twin.getstate()
    rows = [list(t) for t in tangents]
    assert all(type(x) is int for x in point) and all(type(x) is int for row in rows for x in row)
    su, sv = linalg.integer_multiple(u)[0], linalg.integer_multiple(v)[0]
    assert list(point) == [ui * vj * su * sv for ui in u for vj in v]
    assert rows[0][::n] == [ui * su for ui in u] and rows[n][:n] == [vj * sv for vj in v]
    relations = segre_tangent_model(m, n).relations([tangents])
    assert all(type(x) is int for w in relations for x in w)
    assert linalg.certified_rank(rows, relations).rank == m + n - 1


def test_secant_dimension_monotone_and_capped():
    model = segre_tangent_model(2, 3)
    rng = child_rng(3, "secant")
    dims = [secant_dimension(model, k, rng) for k in (1, 2, 3)]
    assert dims == sorted(dims)
    assert all(d <= model.ambient for d in dims)
    base = dims[0]
    for k, d in enumerate(dims, start=1):
        assert d <= min(model.ambient, k * base)


def test_mixture_matrix_rank_and_positivity():
    rng = child_rng(4, "mixture")
    m1 = rational_rows(*mixture_matrix(rng, 3, 3, 1))
    assert linalg.rank(m1) <= 1
    assert all(x > 0 for row in m1 for x in row)
    assert sum(x for row in m1 for x in row) == 1
    # every 2-minor vanishes exactly
    for r1, r2 in combinations(range(3), 2):
        for c1, c2 in combinations(range(3), 2):
            assert m1[r1][c1] * m1[r2][c2] - m1[r1][c2] * m1[r2][c1] == 0

    m2 = rational_rows(*mixture_matrix(rng, 3, 3, 2))
    assert linalg.rank(m2) <= 2
    assert rank_by_minors(m2) <= 2
    for cols in combinations(range(1, 4), 3):
        assert linalg.det(linalg.column_submatrix(m2, cols)) == 0


def test_join_of_two_rank_one_points_has_rank_at_most_two():
    model = segre_tangent_model(3, 3)
    rng = child_rng(5, "join")
    a, b = rng.randint(1, 2**31), rng.randint(1, 2**31)
    # an arbitrary rational weight and one inside the open unit interval
    for lam in (rand_fraction(rng), Fraction(a, a + b)):
        (u, _), (v, _) = model.draw(rng), model.draw(rng)
        p = tuple(lam * x + (1 - lam) * y for x, y in zip(u, v))
        assert linalg.rank(as_matrix(p, 3, 3)) <= 2


def test_rigidity_matrix_single_edge():
    fw = Framework(2, ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))), ((1, 2),))
    R = rigidity_matrix(fw)
    assert len(R) == 1 and len(R[0]) == 4
    assert linalg.rank(R) == 1
    assert R[0] == [Fraction(-1), Fraction(-2), Fraction(1), Fraction(2)]


def test_rigidity_matrix_rejects_coincident_endpoints():
    fw = Framework(2, ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))), ((1, 2),))
    with pytest.raises(ValueError):
        rigidity_matrix(fw)


def test_triangle_rank_in_the_plane():
    rng = child_rng(6, "rigidity")
    fw = random_framework(3, 2, rng)
    assert linalg.rank(rigidity_matrix(fw)) == rigidity_rank_formula(3, 2) == 3


def test_k4_is_a_circuit_in_the_plane():
    rng = child_rng(7, "rigidity")
    fw = random_framework(4, 2, rng)
    R = rigidity_matrix(fw)
    assert linalg.rank(R) == 5 and len(R) == 6
    row_matroid = matroid_from_matrix(linalg.transpose(R))
    assert row_matroid.circuits() == (frozenset(range(1, 7)),)


def test_rigidity_row_pattern_and_kernel():
    rng = child_rng(8, "rigidity")
    n, d = 5, 3
    fw = random_framework(n, d, rng)
    R = rigidity_matrix(fw)
    for row in R:
        assert sum(1 for x in row if x != 0) == 2 * d
    # translations lie in the kernel
    written = []
    for c in range(d):
        v = [Fraction(0)] * (d * n)
        for i in range(n):
            v[i * d + c] = Fraction(1)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in R)
        written.append(v)
    # infinitesimal rotations lie in the kernel (one per coordinate pair)
    for a, b in combinations(range(d), 2):
        v = [Fraction(0)] * (d * n)
        for i, p in enumerate(fw.coords):
            v[i * d + a] = -p[b]
            v[i * d + b] = p[a]
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in R)
        written.append(v)
    motions = trivial_motions(fw)
    assert len(motions) == linalg.rank(motions) == linalg.rank(motions + written) == 6
    assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in R for v in motions)


def test_generic_rigidity_check_reports():
    rng = child_rng(9, "rigidity")
    rep = generic_rigidity_check(4, 2, rng, seed_note=9)
    assert rep.passed
    assert any("rank" in c.name for c in rep.checks)
    rep5 = generic_rigidity_check(5, 2, child_rng(10, "rigidity"), seed_note=10)
    assert rep5.passed
    assert any("5 complete 4-vertex edge sets" in c.name for c in rep5.checks)


def test_generic_rigidity_check_various_shapes():
    for n, d in [(3, 2), (4, 2), (5, 2), (5, 3), (6, 3)]:
        rep = generic_rigidity_check(n, d, child_rng(100 + n + 10 * d, "rigidity"))
        assert rep.passed, (n, d)


def test_generic_rigidity_check_retries_a_disagreeing_pair(monkeypatch):
    """A degenerate first configuration (collinear points in the plane)
    disagrees with the second on rank and circuit verdict; the check draws a
    new pair instead of failing, and reports the first draw of that pair."""
    made = []

    def first_collinear(n, d, rng, edges=None):
        fw = random_framework(n, d, rng, edges)
        if not made:
            fw = Framework(d, tuple((Fraction(i), Fraction(0)) for i in range(n)), fw.edges)
        made.append(fw)
        return fw

    monkeypatch.setattr(secrig, "random_framework", first_collinear)
    rep = generic_rigidity_check(4, 2, child_rng(9, "rigidity"))
    assert rep.passed
    assert len(made) == 4
    assert rep.checks[0].counts["rank"] == 5


def test_framework_text_round_trip():
    fw = random_framework(3, 2, child_rng(11, "fw"))
    assert Framework.from_text(fw.to_text()) == fw
    assert complete_graph_edges(3) == ((1, 2), (1, 3), (2, 3))


def _framework(d: int, points) -> Framework:
    coords = tuple(tuple(Fraction(x) for x in p) for p in points)
    return Framework(d, coords, complete_graph_edges(len(coords)))


def _subgraph_circuits(fw: Framework) -> tuple[bool, str]:
    return _check_complete_subgraph_circuits(fw, rigidity_matrix(fw))


def _stress(fw: Framework, verts: tuple[int, ...]) -> list[int]:
    return _affine_dependence_stress(verts, _affine_minors(fw, verts))


def _shadow_rows(fw: Framework) -> list[list[int] | None]:
    return [linalg.vector_mod_p(row) for row in rigidity_matrix(fw)]


def _spy_exact(monkeypatch) -> dict[str, list[tuple[int, int]]]:
    """Record the shape of every exact elimination the circuit check makes,
    directly or through `certified_rank`: `integer_rank` (the exact route of
    `certified_rank`), `rank`, and `kernel_basis`."""
    calls: dict[str, list[tuple[int, int]]] = {"integer_rank": [], "rank": [], "kernel_basis": []}
    for module, name in [(linalg, "integer_rank"), (linalg, "rank"), (linalg, "kernel_basis")]:
        real = getattr(module, name)

        def counted(m, real=real, name=name):
            calls[name].append((len(m), len(m[0])))
            return real(m)

        monkeypatch.setattr(module, name, counted)
    return calls


def _degenerate_framework(rng: random.Random, n: int, d: int) -> Framework:
    """Distinct points on a line (d = 2) or in a plane (d = 3)."""
    points = set()
    while len(points) < n:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        points.add((a, 2 * a + 1) if d == 2 else (a, b, a - b))
    return _framework(d, sorted(points))


def _small_integer_framework(rng: random.Random, n: int, d: int) -> Framework | None:
    """n distinct points with coordinates in [-2, 2]; with probability 2/3,
    d+1 of them at random positions are forced into one hyperplane a.x = c
    (a line for d = 2, a plane for d = 3) with a in {-1, 0, 1}^d.  None when
    the draw finds too few distinct points."""
    box = list(product(range(-2, 3), repeat=d))
    points = list(dict.fromkeys(rng.choice(box) for _ in range(4 * n)))[:n]
    if len(points) < n:
        return None
    if rng.random() < 2 / 3:
        a = rng.choice([v for v in product((-1, 0, 1), repeat=d) if any(v)])
        c = rng.randint(-1, 1)
        plane = [q for q in box if sum(x * y for x, y in zip(a, q)) == c]
        forced = rng.sample(range(n), d + 1)
        others = [q for i, q in enumerate(points) if i not in forced]
        free = [q for q in plane if q not in others]
        if len(free) < d + 1:
            return None
        for i, q in zip(forced, rng.sample(free, d + 1)):
            points[i] = q
    return _framework(d, points)


def test_subgraph_circuit_check_agrees_with_full_width_ranks(monkeypatch):
    """Seeded rational frameworks, points on a line or in a plane, and
    seeded small-integer frameworks at d = 2 and 3 with d+1 points forced
    into a hyperplane, so that zero minors stop the check at many subgraph
    positions: every verdict is the full-width one, and none needs a
    `certified_rank`, a mod-p rank, an exact rank or an exact left kernel."""
    rng = child_rng(12, "subgraph-circuits")
    cases = []
    for n, d in [(3, 1), (4, 1), (4, 2), (5, 2), (6, 2), (5, 3), (6, 3)]:
        cases.append(random_framework(n, d, rng))
        small = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(4 * n)]
        distinct = list(dict.fromkeys(small))[:n]
        if len(distinct) == n:
            cases.append(_framework(d, distinct))
        if d in (2, 3):
            cases.append(_degenerate_framework(rng, n, d))
    for d in (2, 3):
        for n in range(d + 2, d + 5):
            for _ in range(12):
                fw = _small_integer_framework(rng, n, d)
                if fw is not None:
                    cases.append(fw)
    outcomes = set()
    for fw in cases:
        expected = full_width_subgraph_circuits(fw, fw.d + 2)
        calls = _spy_elimination(monkeypatch)
        got = _subgraph_circuits(fw)
        monkeypatch.undo()
        assert got == expected, fw
        assert not any(calls.values()), (fw, calls)
        outcomes.add(got[1])
    stops = {why for why in outcomes if why}
    assert "" in outcomes and len(stops) >= 8, outcomes
    assert all(why.startswith("proper subset of the (") for why in stops)


def test_degenerate_frameworks_have_dependent_proper_subsets():
    rng = child_rng(13, "degenerate")
    for n, d in [(4, 2), (6, 2), (5, 3), (6, 3)]:
        ok, why = _subgraph_circuits(_degenerate_framework(rng, n, d))
        assert not ok and why.startswith("proper subset of the (1, 2, ")


def test_subgraph_circuit_check_never_trusts_the_shadow():
    p = linalg.SHADOW_PRIME
    # every row vanishes mod p, yet the triangle on a line is a circuit
    fw = _framework(1, [(0,), (p,), (2 * p,)])
    assert _subgraph_circuits(fw) == full_width_subgraph_circuits(fw, 3) == (True, "")
    assert linalg.rank_of_vectors_mod_p(_shadow_rows(fw)) == 0


def test_zero_entry_in_the_shadow_kernel_defers_to_the_exact_kernel(monkeypatch):
    """The mod-p rows lose edge (2, 3), whose length is p, so the shadow's
    kernel is (0, 0, 1).  The checked stress is an exact kernel vector with
    no zero entry, and it decides: the mod-p rank 2 meets the bound 3 - 1."""
    p = linalg.SHADOW_PRIME
    fw = _framework(1, [(0,), (1,), (1 + p,)])
    assert _shadow_rows(fw)[2] == [0, 0, 0]
    stress = _stress(fw, (1, 2, 3))
    assert all(stress) and linalg.certified_rank(rigidity_matrix(fw), [stress]) == (2, [stress])
    calls = _spy_exact(monkeypatch)
    assert _subgraph_circuits(fw) == full_width_subgraph_circuits(fw, 3) == (True, "")
    assert calls == {"integer_rank": [], "rank": [], "kernel_basis": []}


def test_shadow_kernel_with_a_zero_entry_is_not_trusted(monkeypatch):
    """Three of four planar points on a line: nullity 1, and the one
    dependency (the collinear triangle) leaves out the edges at the fourth
    point.  The affine dependence has l_4 = 0, so the stress has the same
    zeros; the zero minor of the collinear three decides, without an exact
    rank or left kernel of the block."""
    fw = _framework(2, [(0, 0), (1, 0), (3, 0), (1, 2)])
    R = rigidity_matrix(fw)
    assert len(R) - linalg.rank(R) == 1
    stress = _stress(fw, (1, 2, 3, 4))
    zeros = [True, True, False, True, False, False]
    assert [bool(x) for x in stress] == zeros
    [exact] = linalg.kernel_basis(linalg.transpose(R))
    assert [bool(x) for x in exact] == zeros
    calls = _spy_exact(monkeypatch)
    expected = (False, "proper subset of the (1, 2, 3, 4) edge set is dependent")
    assert _subgraph_circuits(fw) == expected
    assert calls == {"integer_rank": [], "rank": [], "kernel_basis": []}
    assert full_width_subgraph_circuits(fw, 4) == expected


def test_shadow_kernel_of_nullity_above_one_is_not_trusted(monkeypatch):
    """Four planar points on a line: nullity 3, every one-smaller subset is
    dependent.  Every affine minor is 0, so the first one decides, with no
    exact rank and no exact left kernel of the block."""
    fw = _framework(2, [(0, 0), (1, 0), (3, 0), (4, 0)])
    R = rigidity_matrix(fw)
    assert len(R) - linalg.rank(R) == 3
    expected = (False, "proper subset of the (1, 2, 3, 4) edge set is dependent")
    assert full_width_subgraph_circuits(fw, 4) == expected
    calls = _spy_exact(monkeypatch)
    assert _subgraph_circuits(fw) == expected
    assert calls == {"integer_rank": [], "rank": [], "kernel_basis": []}


def test_denominators_divisible_by_the_shadow_prime_defer_to_the_exact_kernel(monkeypatch):
    """A first point shifted by 1/p puts p in the scale of every row at
    that point.  The scaled rows still have residues mod p, a sound shadow:
    the certified rank equals the exact one.  The circuit check needs no
    shadow at all: the subgraph's d+2 affine minors (of the integer-scaled
    points) are nonzero and its stress passes the exact check, so the
    minors decide it with no exact rank and no exact left kernel."""
    p = linalg.SHADOW_PRIME
    rng = child_rng(16, "shadow-denominators")
    for n, d in [(3, 1), (4, 2), (5, 3)]:
        fw = random_framework(n, d, rng)
        coords = (tuple(Fraction(1, p) + x for x in fw.coords[0]),) + fw.coords[1:]
        fw = Framework(d, coords, fw.edges)
        R = rigidity_matrix(fw)
        scale, ints = linalg.integer_multiple(R[0])
        assert scale % p == 0 and linalg.vector_mod_p(R[0]) == [x % p for x in ints] and any(ints)
        assert rigidity_rank(fw, R) == linalg.certified_rank(R, []).rank == linalg.rank(R)
        calls = _spy_exact(monkeypatch)
        assert _subgraph_circuits(fw) == (True, "")
        # n = d + 2: one subgraph, decided by its minors and checked stress
        assert calls == {"integer_rank": [], "rank": [], "kernel_basis": []}
        assert full_width_subgraph_circuits(fw, d + 2) == (True, "")


def _spy_elimination(monkeypatch) -> dict[str, int]:
    """Count the block rank routes the circuit check can take:
    `certified_rank` as secrig calls it, and inside it the mod-p rank,
    `integer_rank`, `rank` and the exact left kernel."""
    calls = dict.fromkeys(["certified_rank", "rank_of_vectors_mod_p", "integer_rank", "rank", "kernel_basis"], 0)
    for module, name in [
        (secrig, "certified_rank"),
        (linalg, "rank_of_vectors_mod_p"),
        (linalg, "integer_rank"),
        (linalg, "rank"),
        (linalg, "kernel_basis"),
    ]:
        real = getattr(module, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_nonzero_minors_and_a_checked_stress_decide_with_no_elimination(monkeypatch):
    """Seeded complete frameworks, as drawn and scaled to integers: every
    (d+2)-subgraph has d+2 nonzero minors and a stress that passes the
    check, so the circuit check makes no `certified_rank`, mod-p rank,
    exact rank or exact left kernel call, and its verdict is the
    full-width one."""
    rng = child_rng(24, "minor-certificate")
    for n, d in [(4, 2), (6, 2), (5, 3), (8, 3)]:
        fw = random_framework(n, d, rng)
        expected = full_width_subgraph_circuits(fw, d + 2)
        assert expected == (True, "")
        for framework in (fw, integer_framework(fw)):
            calls = _spy_elimination(monkeypatch)
            assert _subgraph_circuits(framework) == expected, (n, d)
            assert not any(calls.values()), (n, d, calls)
            monkeypatch.undo()


def test_a_zero_minor_decides_with_no_elimination(monkeypatch):
    """Points in a common hyperplane (every minor 0), and seeded frameworks
    whose last point is moved to the centroid of the first d (some minors
    0): the first subgraph with a zero minor is not a circuit, with the
    full-width verdict, and no subgraph takes `certified_rank`, a mod-p
    rank, an exact rank or an exact left kernel."""
    rng = child_rng(25, "zero-minor")
    cases = [_degenerate_framework(rng, n, d) for n, d in [(4, 2), (6, 2), (5, 3), (6, 3)]]
    cases.append(_framework(2, [(0, 0), (1, 0), (3, 0), (1, 2)]))
    for n, d in [(5, 2), (6, 2), (6, 3)]:
        fw = random_framework(n, d, rng)
        centroid = tuple(sum(axis, Fraction(0)) / d for axis in zip(*fw.coords[:d]))
        cases.append(Framework(d, fw.coords[:-1] + (centroid,), fw.edges))
    for fw in cases:
        expected = full_width_subgraph_circuits(fw, fw.d + 2)
        assert not expected[0]
        calls = _spy_elimination(monkeypatch)
        assert _subgraph_circuits(fw) == expected, fw
        assert not any(calls.values()), (fw, calls)
        monkeypatch.undo()


def test_a_stress_that_fails_the_check_is_not_trusted(monkeypatch):
    """With `_affine_dependence_stress` replaced by an all-nonzero vector
    that is no self-stress, nonzero minors alone certify nothing: the first
    subgraph's check fails, and the verdict is a failure that names it, with
    no elimination.  `generic_rigidity_check` under the same patch reports
    `fail`, never `pass`."""
    rng = child_rng(26, "false-stress")
    for n, d in [(4, 2), (5, 2), (5, 3)]:
        fw = random_framework(n, d, rng)
        assert full_width_subgraph_circuits(fw, d + 2) == (True, "")
        monkeypatch.setattr(secrig, "_affine_dependence_stress", lambda verts, minors: [1] * comb(len(verts), 2))
        calls = _spy_elimination(monkeypatch)
        first = tuple(range(1, d + 3))
        assert _subgraph_circuits(fw) == (
            False,
            f"the affine-dependence stress of the {first} edge set fails its exact check",
        ), (n, d)
        assert not any(calls.values()), calls
        report = generic_rigidity_check(n, d, rng)
        assert report.status == "fail" and [c.status for c in report.checks] == ["pass", "fail"], (n, d)
        assert str(first) in report.checks[1].detail
        monkeypatch.undo()


def test_rigidity_rank_matches_exact_rank_on_seeded_and_degenerate_frameworks():
    """The certified rank against `linalg.rank` and the reduced row echelon
    form's rank (`helpers.rref_rank`): seeded frameworks on complete and
    sparse graphs, points on a line (d = 2) or in a plane (d = 3), a point
    off a line of three (some l_i = 0), and p in a denominator."""
    rng = child_rng(17, "certified-rigidity")
    p = linalg.SHADOW_PRIME
    frameworks = [_framework(2, [(0, 0), (1, 0), (3, 0), (1, 2)]), _framework(1, [(0,), (p,), (2 * p,)])]
    for n, d in [(2, 1), (4, 1), (3, 2), (5, 2), (7, 2), (4, 3), (6, 3), (8, 3)]:
        frameworks.append(random_framework(n, d, rng))
        edges = [e for e in complete_graph_edges(n) if rng.random() < 0.5]
        frameworks.append(random_framework(n, d, rng, edges))
        if d in (2, 3):
            frameworks.append(_degenerate_framework(rng, n, d))
        fw = frameworks[-2]
        frameworks.append(Framework(d, ((Fraction(1, p),) * d,) + fw.coords[1:], fw.edges))
    for fw in frameworks:
        R = rigidity_matrix(fw)
        assert rigidity_rank(fw, R) == linalg.rank(R) == rref_rank(R), fw
        if fw.n >= fw.d + 2 and fw.edges == complete_graph_edges(fw.n):
            assert _subgraph_circuits(fw) == full_width_subgraph_circuits(fw, fw.d + 2), fw


def test_integer_framework_changes_no_rank_or_circuit_verdict():
    """Scaling each axis to integers (`integer_framework`) against the
    framework as given: the rank of `rigidity_rank`, against
    `linalg.rank(rigidity_matrix(fw))` and `helpers.rref_rank`, and the
    circuit verdicts on d+2 vertices, against
    `full_width_subgraph_circuits`.  Seeded
    frameworks on complete and sparse graphs, points in a common hyperplane
    (integer and fractional), edges of length p, and p in a denominator.
    The scaled points' stresses are self-stresses of the unscaled matrix."""
    rng = child_rng(23, "integer-framework")
    p = linalg.SHADOW_PRIME
    frameworks = [
        _framework(1, [(0,), (p,), (2 * p,)]),
        _framework(1, [(0,), (1,), (1 + p,)]),
        _framework(2, [(0, 0), (p, 0), (1, 3), (Fraction(2, 3), 5)]),
        _framework(2, [(Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 3), 1), (1, Fraction(3, 2)), (Fraction(5, 7), Fraction(15, 14))]),
    ]
    for n, d in [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3), (6, 3)]:
        fw = random_framework(n, d, rng)
        frameworks.append(fw)
        frameworks.append(random_framework(n, d, rng, [e for e in complete_graph_edges(n) if rng.random() < 0.5]))
        if d in (2, 3):
            frameworks.append(_degenerate_framework(rng, n, d))
        frameworks.append(Framework(d, (tuple(x + Fraction(1, p) for x in fw.coords[0]),) + fw.coords[1:], fw.edges))
    verdicts = set()
    for fw in frameworks:
        scaled = integer_framework(fw)
        assert scaled.edges == fw.edges and all(type(x) is int for q in scaled.coords for x in q)
        R, S = rigidity_matrix(fw), rigidity_matrix(scaled)
        assert all(type(x) is int for row in S for x in row)
        assert rigidity_rank(scaled, S) == rigidity_rank(fw, R) == linalg.rank(R) == rref_rank(R), fw
        if fw.n >= fw.d + 2 and fw.edges == complete_graph_edges(fw.n):
            got = _check_complete_subgraph_circuits(scaled, S)
            assert got == full_width_subgraph_circuits(fw, fw.d + 2), fw
            verdicts.add(got[1].split(" ")[0])
            verts = tuple(range(1, fw.d + 3))
            block = [R[i] for i, e in enumerate(complete_graph_edges(fw.n)) if set(e) <= set(verts)]
            stress = _stress(scaled, verts)
            assert all(sum(w * row[c] for w, row in zip(stress, block)) == 0 for c in range(len(R[0])))
    assert verdicts == {"", "proper"}


def test_affine_dependence_stress_is_a_self_stress():
    rng = child_rng(18, "stress")
    for d in (1, 2, 3):
        fw = random_framework(d + 2, d, rng)
        verts = tuple(range(1, d + 3))
        stress = _stress(fw, verts)
        R = rigidity_matrix(fw)
        assert all(stress)
        assert all(sum(w * row[c] for w, row in zip(stress, R)) == 0 for c in range(d * (d + 2)))


def _kernel_route_stress(fw: Framework, verts: tuple[int, ...]) -> list[Fraction]:
    """The stress from one `Fraction` kernel vector of the (d+1) x (d+2)
    affine matrix: l with 1 at its free column, then w_uv = l_u l_v."""
    points = [fw.coords[v - 1] for v in verts]
    lam = linalg.kernel_basis([*map(list, zip(*points)), [Fraction(1)] * len(points)])[0]
    weight = dict(zip(verts, lam))
    return [weight[u] * weight[v] for u, v in combinations(verts, 2)]


def test_integer_stress_is_proportional_to_the_kernel_route():
    """Fractional coordinates at d = 1, 2 and 3, on every (d+2)-subset of a
    framework with two points to spare, and with one point in the affine
    span of others (a zero l_i): the integer-determinant stress is a nonzero
    integer multiple of the `Fraction` kernel route's stress."""
    rng = child_rng(21, "integer-stress")
    frameworks = [_framework(2, [(0, 0), (1, 0), (3, 0), (1, 2)])]
    for d in (1, 2, 3):
        fw = random_framework(d + 4, d, rng)
        assert any(x.denominator > 1 for p in fw.coords for x in p)
        frameworks.append(fw)
    for fw in frameworks:
        for verts in combinations(range(1, fw.n + 1), fw.d + 2):
            stress = _stress(fw, verts)
            expected = _kernel_route_stress(fw, verts)
            assert all(isinstance(w, int) for w in stress)
            [scale] = {Fraction(w) / x for w, x in zip(stress, expected) if x}
            assert scale > 0 and stress == [scale * x for x in expected]
    assert [bool(x) for x in _stress(frameworks[0], (1, 2, 3, 4))] == [
        True, True, False, True, False, False
    ]


def test_integer_stress_vanishes_in_a_common_hyperplane():
    """d + 2 points in a common hyperplane (on a line in the plane, in a
    plane in space, with fractional coordinates too) have every maximal
    minor 0: the stress is the zero vector, which is never counted, and the
    circuit check still returns the exact verdict."""
    rng = child_rng(22, "hyperplane-stress")
    frameworks = [_degenerate_framework(rng, n, d) for n, d in [(4, 2), (5, 2), (5, 3), (6, 3)]]
    # on the line y = 3x/2, and in the plane z = x - y
    line = [(Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 3), 1), (1, Fraction(3, 2)), (Fraction(5, 7), Fraction(15, 14))]
    frameworks.append(_framework(2, line))
    pairs = [(1, 0), (0, 1), (3, 5), (-1, 2), (4, -7)]
    frameworks.append(_framework(3, [(Fraction(a, 2), Fraction(b, 3), Fraction(a, 2) - Fraction(b, 3)) for a, b in pairs]))
    for fw in frameworks:
        for verts in combinations(range(1, fw.n + 1), fw.d + 2):
            assert not any(_stress(fw, verts))
        stress = _stress(fw, tuple(range(1, fw.d + 3)))
        assert linalg.certified_rank(rigidity_matrix(fw), [stress]).kernel == []
        assert _subgraph_circuits(fw) == full_width_subgraph_circuits(fw, fw.d + 2), fw


def test_segre_relations_are_independent_left_kernel_vectors():
    rng = child_rng(19, "segre-relations")
    for m, n, k in [(2, 2, 1), (3, 3, 2), (3, 4, 2), (4, 4, 3), (2, 3, 3)]:
        model = segre_tangent_model(m, n)
        bases = [model.draw(rng)[1] for _ in range(k)]
        rows = [list(t) for tangents in bases for t in tangents]
        relations = model.relations(bases)
        assert len(relations) == k * k
        for w in relations:
            assert all(sum(a * row[c] for a, row in zip(w, rows)) == 0 for c in range(m * n))
        # independent once k <= max(m, n): the v_b (or the u_a) are independent
        assert linalg.rank(relations) == k * k
        assert linalg.certified_rank(rows, relations).rank == linalg.rank(rows) == min(m * n, k * (m + n - k))


def test_generic_draws_make_no_exact_rank_call(monkeypatch):
    """On generic seeded draws the witnesses from theory close every gap:
    no exact `integer_rank` (the exact route of `certified_rank`) and no
    `rank` call in `secant_dimension` or `generic_rigidity_check`."""
    calls = []
    monkeypatch.setattr(linalg, "integer_rank", lambda m: calls.append(m) or 0)
    monkeypatch.setattr(linalg, "rank", lambda m: calls.append(m) or 0)
    rng = child_rng(20, "no-exact-rank")
    for m, n, k in [(3, 3, 1), (3, 3, 2), (3, 4, 2), (4, 4, 3), (6, 6, 4), (2, 3, 3)]:
        assert secant_dimension(segre_tangent_model(m, n), k, rng) == min(m * n, k * (m + n - k))
    for n, d in [(3, 2), (4, 2), (5, 2), (5, 3), (6, 3), (8, 3), (3, 1)]:
        assert generic_rigidity_check(n, d, rng).passed, (n, d)
    assert calls == []


def test_planar_rigidity_rank_matches_the_pebble_game():
    rng = child_rng(14, "pebble-game")
    all_independent = set()
    for _ in range(40):
        n = rng.randint(2, 8)
        edges = [e for e in complete_graph_edges(n) if rng.random() < 0.6]
        expected = pebble_game_rank(n, edges)
        fw = random_framework(n, 2, rng, edges)
        assert linalg.rank(rigidity_matrix(fw)) == expected, (n, edges)
        all_independent.add(expected == len(edges))
    assert all_independent == {True, False}
    assert pebble_game_rank(8, complete_graph_edges(8)) == rigidity_rank_formula(8, 2)
