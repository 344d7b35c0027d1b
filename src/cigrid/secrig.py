"""Secant dimensions via stacked tangent spaces, bar-joint frameworks, and
rigidity-matrix rank checks.

Dimensions are reported for affine cones; the projective dimension is one
less.  Every randomized answer goes through `sampling.generic_draw`: two
independent draws must agree or the computation fails loudly.  Secant and
rigidity-matrix ranks go through `linalg.certified_rank` with left-kernel
witnesses from theory: Segre relations between stacked tangents and the
trivial motions of a framework; where the bounds differ, its exact route is
`integer_rank`.  Whether a complete subgraph on d+2 vertices is a circuit
is decided by its d+2 affine minors alone: a zero minor puts d+1 of its
points in a hyperplane, so a proper subset of its rows is dependent, and
with every minor nonzero the self-stress from its affine dependence, once
it passes an exact check, certifies the circuit.  No elimination runs
there.  A framework is scaled to integer coordinates once
(`integer_framework`), so its rigidity matrix, blocks, motions and
stresses are ints and nothing is scaled again.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .linalg import Mat, certified_rank, content_lines, integer_det, integer_multiple, rationals, transpose
from .record import Record
from .report import CheckResult, WitnessReport
from .sampling import generic_draw, rand_fraction, rand_nonzero_fraction

Point = tuple[Fraction | int, ...]


class TangentModel(NamedTuple):
    """Sampler of (point, tangent-space basis) pairs with exact entries, and
    the linear relations that theory gives among tangent bases stacked in
    the order given: left-kernel vectors of the stacked rows."""

    name: str
    ambient: int
    draw: Callable[[random.Random], tuple[Point, list[Point]]]
    relations: Callable[[Sequence[list[Point]]], list[list[Fraction | int]]]


def segre_tangent_model(m: int, n: int) -> TangentModel:
    """Rank-one m x n matrices u v^T, flattened row-major into m*n space.

    The tangent space at u v^T is spanned by the u x e_j and e_i x v slabs.
    u and v are drawn as rationals and scaled to integers by their
    denominator lcms (`integer_multiple`): that scales whole slabs, which
    keeps the rank, and the relations hold for any u and v.  So the point,
    the tangents and the relations are ints, and `certified_rank` takes
    them as they are.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")

    def draw(rng: random.Random) -> tuple[Point, list[Point]]:
        u = integer_multiple([rand_nonzero_fraction(rng) for _ in range(m)])[1]
        v = integer_multiple([rand_nonzero_fraction(rng) for _ in range(n)])[1]
        point = tuple(ui * vj for ui in u for vj in v)
        tangents: list[Point] = []
        for j in range(n):
            vec = [0] * (m * n)
            for i in range(m):
                vec[i * n + j] = u[i]
            tangents.append(tuple(vec))
        for i in range(m):
            vec = [0] * (m * n)
            for j in range(n):
                vec[i * n + j] = v[j]
            tangents.append(tuple(vec))
        return point, tangents

    def relations(bases: Sequence[list[Point]]) -> list[list[int]]:
        """For each ordered pair (a, b) of points, sum_j v_b[j] (u_a x e_j)
        - sum_i u_a[i] (e_i x v_b) = 0, since both sums are u_a x v_b.  u is
        read off the first slab u x e_1 and v off the slab e_1 x v."""
        us = [[t[0][i * n] for i in range(m)] for t in bases]
        vs = [list(t[n][:n]) for t in bases]
        out = []
        for a, b in product(range(len(bases)), repeat=2):
            w = [0] * ((m + n) * len(bases))
            w[a * (m + n) : a * (m + n) + n] = vs[b]
            w[b * (m + n) + n : (b + 1) * (m + n)] = [-x for x in us[a]]
            out.append(w)
        return out

    return TangentModel(f"rank-one {m}x{n}", m * n, draw, relations)


def expected_secant_dimension(m: int, n: int, k: int) -> int:
    """Affine-cone dimension of the k-th secant of rank-one m x n matrices:
    the matrices of rank <= r = min(k, m, n), which have dimension
    r(m + n - r)."""
    r = min(k, m, n)
    return r * (m + n - r)


def secant_dimension(model: TangentModel, k: int, rng: random.Random) -> int:
    """Affine-cone dimension of the k-th secant: the rank of tangent bases
    stacked at k independent random points, certified with the model's
    relations, with a two-draw guard."""
    if k < 1:
        raise ValueError("need k >= 1")

    def draw() -> int:
        bases = [model.draw(rng)[1] for _ in range(k)]
        rows = [list(t) for tangents in bases for t in tangents]
        return certified_rank(rows, model.relations(bases)).rank

    return generic_draw(draw, lambda r: r, f"stacked tangent ranks of {model.name}, k={k}")


# -- bar-joint frameworks ------------------------------------------------------


class Framework(Record):
    """A graph with one rational configuration point per vertex (1-based)."""

    _fields = ("d", "coords", "edges")

    def __init__(self, d: int, coords: tuple[Point, ...], edges: tuple[tuple[int, int], ...]):
        if d < 1:
            raise ValueError("configuration dimension must be >= 1")
        for p in coords:
            if len(p) != d:
                raise ValueError("configuration point of wrong dimension")
        for u, v in edges:
            if u == v:
                raise ValueError(f"edge ({u}, {v}) has equal endpoints")
            if not (1 <= u <= len(coords) and 1 <= v <= len(coords)):
                raise ValueError(f"edge ({u}, {v}) out of range")
        self._set(d=d, coords=coords, edges=edges)

    @property
    def n(self) -> int:
        return len(self.coords)

    def to_text(self) -> str:
        lines = [f"{self.n} {self.d}"]
        lines += [" ".join(str(x) for x in p) for p in self.coords]
        lines += [f"{u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Framework":
        """Parse the `n d` header, exactly n coordinate lines of d rationals,
        then `u v` edge lines with endpoints in 1..n; anything else is a
        ValueError, never a silently reinterpreted line."""
        lines = content_lines(text)
        header = lines[0].split() if lines else []
        if len(header) != 2 or not all(t.isdigit() for t in header):
            raise ValueError(
                f"framework file needs an `n d` header of two non-negative integers, got {' '.join(header)!r}"
            )
        n, d = (int(t) for t in header)
        if n < 1:
            raise ValueError(f"framework header needs n >= 1, got {n}")
        if len(lines) < 1 + n:
            raise ValueError(f"framework header says {n} vertices but only {len(lines) - 1} lines follow it")
        misfit = "does not fit the format: an `n d` header, n coordinate lines of d rationals, then `u v` edge lines"
        coords = tuple(tuple(rationals(ln, f"coordinate line {ln!r} {misfit}")) for ln in lines[1 : 1 + n])
        for i, p in enumerate(coords, start=1):
            if len(p) != d:
                raise ValueError(f"coordinate line {i} has {len(p)} entries but the header says d = {d}")
        edges = []
        for ln in lines[1 + n :]:
            ends = ln.split()
            if len(ends) != 2 or not all(t.isdigit() and 1 <= int(t) <= n for t in ends):
                raise ValueError(f"edge line {ln!r} is not two endpoints in 1..{n}")
            edges.append((int(ends[0]), int(ends[1])))
        return Framework(d, coords, tuple(edges))


def complete_graph_edges(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u, v in combinations(range(1, n + 1), 2))


def random_framework(n: int, d: int, rng: random.Random, edges=None) -> Framework:
    coords = tuple(tuple(rand_fraction(rng) for _ in range(d)) for _ in range(n))
    return Framework(d, coords, tuple(edges) if edges is not None else complete_graph_edges(n))


def integer_framework(fw: Framework) -> Framework:
    """fw with each axis multiplied by the lcm of its denominators
    (`integer_multiple`), so its coordinates are ints.  Its rigidity matrix is
    R times a positive diagonal matrix on the columns: the rank, the row
    matroid and the left kernel (the self-stresses) are those of R, and the
    affine dependences of the points are kept."""
    axes = [integer_multiple(axis)[1] for axis in zip(*fw.coords)]
    # a tuple from a list, not an iterator: see linalg.integer_multiple
    return Framework(fw.d, tuple(list(zip(*axes))), fw.edges)


def rigidity_matrix(fw: Framework) -> Mat:
    """One row per edge {u, v}: the block p_u - p_v in u's coordinates and
    its negative in v's, with 0 elsewhere.  Coincident endpoints are
    rejected because the zero row would silently change the rank semantics."""
    rows: Mat = []
    for u, v in fw.edges:
        pu, pv = fw.coords[u - 1], fw.coords[v - 1]
        if pu == pv:
            raise ValueError(f"edge ({u}, {v}) has coincident endpoints")
        row = [0] * (fw.d * fw.n)
        for c in range(fw.d):
            row[(u - 1) * fw.d + c] = pu[c] - pv[c]
            row[(v - 1) * fw.d + c] = pv[c] - pu[c]
        rows.append(row)
    return rows


def rigidity_rank_formula(n: int, d: int) -> int:
    return d * n - comb(d + 1, 2)


def _edge_index(n: int) -> dict[tuple[int, int], int]:
    return {e: i + 1 for i, e in enumerate(complete_graph_edges(n))}


def trivial_motions(fw: Framework) -> list[list[Fraction | int]]:
    """The C(d+1, 2) trivial infinitesimal motions, each a right-kernel
    vector of the rigidity matrix: d translations, and for each coordinate
    pair a < b the rotation moving p by p_b in coordinate a and -p_a in
    coordinate b (Asimow & Roth, Trans. AMS 245, 1978)."""
    d = fw.d
    motions = [[int(c == a) for _ in fw.coords for c in range(d)] for a in range(d)]
    for a, b in combinations(range(d), 2):
        motion = [0] * (d * fw.n)
        for i, p in enumerate(fw.coords):
            motion[i * d + a] = p[b]
            motion[i * d + b] = -p[a]
        motions.append(motion)
    return motions


def rigidity_rank(fw: Framework, R: Mat) -> int:
    """Rank of the rigidity matrix R of fw, certified by its trivial
    motions: rank(R) <= dn - (rank of the motions)."""
    return certified_rank(transpose(R), trivial_motions(fw)).rank


def _affine_minors(fw: Framework, verts: Sequence[int]) -> dict[tuple[int, ...], int]:
    """det([p_j, 1] for j in S) for every (d+1)-subset S of `verts`, in
    increasing order, with the points of `integer_framework(fw)`: scaling an
    axis by its denominator lcm keeps every affine dependence, and
    `integer_det` builds no `Fraction`."""
    points = integer_framework(fw).coords
    return {s: integer_det([[*points[j - 1], 1] for j in s]) for s in combinations(verts, fw.d + 1)}


def _affine_dependence_stress(verts: tuple[int, ...], minors: dict[tuple[int, ...], int]) -> list[int]:
    """A self-stress of the complete graph on `verts`, one entry per edge in
    `combinations` order: w_uv = l_u l_v, where l is an affine dependence of
    the points (sum l_i p_i = 0, sum l_i = 0).
    At u, sum_v w_uv (p_u - p_v) = l_u (p_u sum_v l_v - sum_v l_v p_v) = 0.

    l_i = (-1)^i det([p_j, 1], j != i), read from `minors` (the
    `_affine_minors` of `verts` or of a superset): expanding along a
    repeated column shows that this l is a dependence.  It is 0 when the
    points lie in a common hyperplane."""
    lam = [(-1) ** i * minors[verts[:i] + verts[i + 1 :]] for i in range(len(verts))]
    weight = dict(zip(verts, lam))
    return [weight[u] * weight[v] for u, v in combinations(verts, 2)]


def _check_complete_subgraph_circuits(fw: Framework, R: Mat) -> tuple[bool, str]:
    """Whether the edge rows of every (d+2)-vertex complete subgraph of the
    rigidity matrix R form a circuit of the row matroid: dependent, all
    one-smaller subsets independent.

    The (d+1)-point affine minors, computed once per call and shared by
    every subgraph that holds those points, decide each subgraph with no
    elimination:
    - A zero minor puts those d+1 points in a common hyperplane.  There they
      have an affine dependence, so their K_{d+1} rows carry a nonzero
      self-stress and are dependent (Asimow & Roth, Trans. AMS 245, 1978):
      a proper subset of the edge set is dependent, and it is no circuit.
    - With every minor nonzero, K_{d+1} on verts[:d+1] has C(d+1, 2)
      independent rows, as those points are affinely independent (Asimow &
      Roth).  Attaching verts[d+1] to verts[:d] adds d rows (a Henneberg
      0-extension; Tay & Whiteley, Structural Topology 11, 1985).  Only
      they are nonzero in that vertex's columns, and there they form the
      d x d matrix [p_{d+2} - p_i], nonsingular as the minor of
      verts[:d] + (verts[d+1],) is nonzero.  So the rank is at least
      C(d+2, 2) - 1.  Every l_u is a nonzero minor up to sign, so the
      affine-dependence stress is nonzero, and once it passes the exact
      check w.block = 0 it gives rank <= rows - 1.  It spans the
      one-dimensional left kernel, and its entries l_u l_v are all nonzero:
      the rows form a circuit.

    Each subgraph's rows are cut down to its own vertices' columns, the
    only nonzero ones.  A stress that fails its check contradicts the
    proof above, so it can only mean a fault: it is a failed verdict that
    names the subgraph, never a pass."""
    index = _edge_index(fw.n)
    minors = _affine_minors(fw, range(1, fw.n + 1))
    for verts in combinations(range(1, fw.n + 1), fw.d + 2):
        if not all(minors[s] for s in combinations(verts, fw.d + 1)):
            return False, f"proper subset of the {verts} edge set is dependent"
        rows = [index[(u, v)] for u, v in combinations(verts, 2)]
        cols = [(v - 1) * fw.d + c for v in verts for c in range(fw.d)]
        block = [[R[r - 1][c] for c in cols] for r in rows]
        stress = _affine_dependence_stress(verts, minors)
        if any(sum(map(mul, stress, column)) for column in zip(*block)):
            return False, f"the affine-dependence stress of the {verts} edge set fails its exact check"
    return True, ""


def generic_rigidity_check(n: int, d: int, rng: random.Random, seed_note: int = 0) -> WitnessReport:
    """Rank of a random complete-graph framework against d*n - (d+1 choose 2),
    plus the complete-subgraph circuit test on d+2 vertices (skipped above
    8 vertices).  Two independent configurations must agree on both."""
    if n < d + 1:
        raise ValueError("need n >= d + 1")
    report = WitnessReport(name=f"rigidity n={n} d={d}", seed=seed_note, trials=2)
    expected = rigidity_rank_formula(n, d)

    def draw() -> tuple[int, tuple[bool, str] | None]:
        fw = integer_framework(random_framework(n, d, rng))
        R = rigidity_matrix(fw)
        return rigidity_rank(fw, R), _check_complete_subgraph_circuits(fw, R) if d + 2 <= n <= 8 else None

    r, circuit_outcome = generic_draw(draw, lambda x: (x[0], x[1] and x[1][0]), "rigidity (rank, circuit verdict)")
    report.add(
        CheckResult.outcome(
            f"rank equals {d}*{n} - C({d + 1},2) = {expected}",
            r == expected,
            detail=f"computed rank {r}",
            counts={"rank": r, "expected": expected},
        )
    )
    if circuit_outcome:
        ok, why = circuit_outcome
        count = comb(n, d + 2)
        report.add(
            CheckResult.outcome(
                f"all {count} complete {d + 2}-vertex edge sets are circuits",
                ok,
                detail=why,
            )
        )
    return report
