"""Hypergraphs, their determinantal ideals, and the grid family.

Vertices of a k x l grid are labeled column-major: cell (i, j) is vertex
(j-1)*k + i, so column j is the contiguous block {(j-1)k+1, ..., jk} and row i
is {i, k+i, ..., (l-1)k+i}.  The grid hypergraph takes all t-subsets of each
row and all s-subsets of each column.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, TypeVar

from .cimodel import CIStatement, DiscreteModel, ModelVar, ci_ideal
from .ideals import Ideal
from .linalg import Mat, content_lines, integer_multiple, integer_rank
from .poly import Var, generic_matrix, minor, normalize_sign
from .record import Record

S = TypeVar("S", bound=Iterable[int])


def minimal_sets(sets: Iterable[S]) -> list[S]:
    """The sets, which must come in nondecreasing size, that contain no
    earlier kept set, in the order given.

    A proper subset comes before its superset, and a set dropped for
    containing a kept set has that kept set inside it, so testing against
    kept sets suffices.  Kept set j is bit j, and `avoid[v]` holds the kept
    sets without v, for each v in some kept set: the kept sets inside e are
    those that avoid every such v outside e."""
    kept: list[S] = []
    avoid: dict[int, int] = {}
    for e in sets:
        members = set(e)
        inside = (1 << len(kept)) - 1
        for v, sets_without_v in avoid.items():
            if v not in members:
                inside &= sets_without_v
                if not inside:
                    break
        if inside:
            continue
        bit = 1 << len(kept)
        for v in avoid:
            if v not in members:
                avoid[v] |= bit
        for v in members:
            if v not in avoid:
                avoid[v] = bit - 1
        kept.append(e)
    return kept


class Hypergraph(NamedTuple):
    """Inclusion-minimal edge family on vertex set {1, ..., n}."""

    n: int
    edges: tuple[frozenset[int], ...]

    @staticmethod
    def of(n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        if n < 1:
            raise ValueError(f"hypergraph needs n >= 1 vertices, got n={n}")
        sets = {frozenset(e) for e in edges}
        sets.discard(frozenset())
        for e in sets:
            if min(e) < 1 or max(e) > n:
                raise ValueError(f"edge {sorted(e)} out of range for n={n}")
        return Hypergraph(n, tuple(minimal_sets(sorted(sets, key=lambda e: (len(e), sorted(e))))))

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines += [" ".join(str(v) for v in sorted(e)) for e in self.edges]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Hypergraph":
        """An `n` line, then one edge of vertex numbers per line."""
        lines = content_lines(text)
        if not lines:
            raise ValueError("empty hypergraph text")
        misfit = "does not fit the format: an `n` line, then one edge of vertex numbers per line"
        rows = []
        for ln in lines:
            try:
                rows.append([int(t) for t in ln.split()])
            except ValueError:
                raise ValueError(f"hypergraph line {ln!r} {misfit}") from None
        if len(rows[0]) != 1:
            raise ValueError(f"hypergraph line {lines[0]!r} {misfit}")
        for ln, edge in zip(lines[1:], rows[1:]):
            if len(set(edge)) != len(edge):
                raise ValueError(f"hypergraph line {ln!r} repeats a vertex; an edge lists each vertex once")
        return Hypergraph.of(rows[0][0], rows[1:])


class GridSpec(Record):
    """Grid shape (k rows, l columns), edge sizes (s per column, t per row),
    and the ambient matrix row count d.  `vars(spec)` is its fields, which
    the CLI's JSON payloads print."""

    _fields = ("k", "l", "s", "t", "d")

    def __init__(self, k: int, l: int, s: int, t: int, d: int = 0):
        if k < 1 or l < 1:
            raise ValueError("grid needs k, l >= 1")
        if not 1 <= s <= k:
            raise ValueError(f"need 1 <= s <= k, got s={s}, k={k}")
        if not 1 <= t <= l:
            raise ValueError(f"need 1 <= t <= l, got t={t}, l={l}")
        self._set(k=k, l=l, s=s, t=t, d=d)

    @property
    def n(self) -> int:
        return self.k * self.l

    def in_realization_regime(self) -> bool:
        """Whether the subspace realization construction applies:
        3 <= s <= t <= l, s <= k, and t <= d <= s + t - 3."""
        return (
            3 <= self.s <= self.t <= self.l
            and self.s <= self.k
            and self.t <= self.d <= self.s + self.t - 3
        )


def grid_vertex(k: int, i: int, j: int) -> int:
    """The label of cell (i, j) of a grid with k rows, all 1-based: cells
    are numbered down each column in turn."""
    return (j - 1) * k + i


def grid_matrix(k: int, l: int) -> tuple[list[list[int]], list[list[int]]]:
    """The k x l integer grid as its rows, and its columns (all 1-based)."""
    if k < 1 or l < 1:
        raise ValueError("grid needs k, l >= 1")
    rows = [[grid_vertex(k, i, j) for j in range(1, l + 1)] for i in range(1, k + 1)]
    cols = [[grid_vertex(k, i, j) for i in range(1, k + 1)] for j in range(1, l + 1)]
    return rows, cols


def grid_matrix_text(k: int, l: int) -> str:
    rows, _ = grid_matrix(k, l)
    return "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n"


def grid_hypergraph(spec: GridSpec) -> Hypergraph:
    """All t-subsets of each grid row and s-subsets of each grid column,
    normalized to inclusion-minimal edges."""
    rows, cols = grid_matrix(spec.k, spec.l)
    edges: list[tuple[int, ...]] = []
    for r in rows:
        edges.extend(combinations(r, spec.t))
    for c in cols:
        edges.extend(combinations(c, spec.s))
    return Hypergraph.of(spec.n, edges)


def hypergraph_ideal(H: Hypergraph, d: int) -> Ideal:
    """All |B|-minors supported on each edge B, over a generic d x n matrix.

    Edges larger than d contribute no generators: no square submatrix of that
    size exists, and a d-row matrix has rank at most d < |B|, so their rank
    condition holds everywhere.  `in_variety` settles such edges by the same
    bound, with one rank of the whole matrix.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    X = generic_matrix(d, H.n)
    memo: dict = {}
    return Ideal.of(
        X.ring,
        [
            normalize_sign(minor(X, rows, edge, memo))
            for edge in H.edges
            if len(edge) <= d
            for rows in combinations(range(1, d + 1), len(edge))
        ],
    )


def in_variety(H: Hypergraph, X: Mat) -> bool:
    """Exact membership: every edge's column submatrix drops rank.

    Each column is scaled once to integers (`integer_multiple`), which keeps
    the rank of every column subset, and ranks are `integer_rank`s.  A
    column submatrix has rank at most rank(X), so one elimination of the
    whole matrix settles every edge with more than rank(X) columns; only the
    smaller edges get an exact rank of their own."""
    if X and len(X[0]) < H.n:
        raise ValueError(f"matrix has {len(X[0])} columns, hypergraph needs {H.n}")
    cols = [integer_multiple(col)[1] for col in zip(*X)]
    r = integer_rank(cols)
    return all(len(edge) > r or integer_rank([cols[j - 1] for j in edge]) < len(edge) for edge in H.edges)


def grid_ci_correspondence(spec: GridSpec) -> tuple[DiscreteModel, list[CIStatement]]:
    """The three-observed-variable model whose CI ideal matches the grid
    hypergraph ideal.

    Cardinalities: |X| = d, |Y1| = k, |Y2| = l, |H1| = s-1, |H2| = t-1.  The
    generator sets agree up to sign under the renaming
    p_(x, y1, y2) -> x_(x, (y2-1)k + y1).
    """
    if spec.s < 2 or spec.t < 2:
        raise ValueError("correspondence needs s, t >= 2 so hidden cardinalities are >= 1")
    if spec.d < 1:
        raise ValueError("correspondence needs d >= 1")
    model = DiscreteModel.of(
        ModelVar("X", spec.d),
        ModelVar("Y1", spec.k),
        ModelVar("Y2", spec.l),
        ModelVar("H1", spec.s - 1, hidden=True),
        ModelVar("H2", spec.t - 1, hidden=True),
    )
    statements = [
        CIStatement(("X",), ("Y1",), ("Y2", "H1")),
        CIStatement(("X",), ("Y2",), ("Y1", "H2")),
    ]
    return model, statements


def ci_to_grid_renaming(spec: GridSpec) -> dict[Var, Var]:
    """Variable map p_(x, y1, y2) -> x_(x, grid vertex of (y1, y2))."""
    out = {}
    for x in range(1, spec.d + 1):
        for y1 in range(1, spec.k + 1):
            for y2 in range(1, spec.l + 1):
                out[Var("p", (x, y1, y2))] = Var("x", (x, grid_vertex(spec.k, y1, y2)))
    return out


def ci_generators_in_grid_coordinates(spec: GridSpec) -> frozenset:
    """CI ideal generators of the correspondence model, renamed into the
    generic-matrix coordinates and re-sign-normalized there."""
    model, statements = grid_ci_correspondence(spec)
    ideal = ci_ideal(statements, model)
    renaming = ci_to_grid_renaming(spec)
    target = generic_matrix(spec.d, spec.n).ring
    return frozenset(normalize_sign(g.rename(renaming, target)) for g in ideal.generators)
