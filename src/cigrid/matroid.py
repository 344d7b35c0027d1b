"""Matroids from exact matrices, circuit machinery, grid realizations,
algebraic matroids via Jacobians, and plane-arrangement signatures.

A linear matroid scales each column to integers once and reduces them mod p
once.  A rank query reads the mod-p rank of those residues, a lower bound,
and exact fraction-free elimination (`integer_rank`) decides wherever it
falls short, so no reported answer ever depends on the shadow alone.

Circuits come from the bases of the shadow: one Gauss–Jordan elimination
mod p gives [I_r | N], the nonzero minors of N name the bases, and a 2^n-bit
closure of the bases gives every independent set, the dependent sets, and
the minimal ones among those.  Each shadow circuit of size at most the rank
over Q is confirmed by an exact rank of its columns; the rank bound confirms
the larger ones.  Confirmed, the shadow's matroid is the matroid over Q,
because a set independent mod p is independent over Q and a set dependent
mod p holds a confirmed circuit.  If one confirmation fails, the circuits
come from the rank oracle alone, level by level.  Grid realizations use
`rank` and `kernel_basis`, which scale each rational matrix to integers for
the one fraction-free elimination: they eliminate each matrix once.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple

from .hypergraph import GridSpec, Hypergraph, grid_hypergraph, grid_vertex, in_variety
from .linalg import (
    SHADOW_PRIME,
    EchelonRow,
    Mat,
    content_lines,
    integer_det,
    integer_multiple,
    integer_rank,
    kernel_basis,
    parallel,
    rank,
    rank_of_vectors_mod_p,
    reduce_mod_p,
    transpose,
)
from .poly import PolyRing, Polynomial, Var, parse_polynomial
from .record import Record
from .sampling import GenericityError, generic_draw, rand_fraction, rand_matrix, rand_nonzero_fraction

ENUMERATION_CAP = 16
AXIOM_CHECK_CAP = 14
# Draws `realize_grid_matroid` tries before it reports non-genericity.
REALIZATION_ATTEMPTS = 32


class Matroid:
    """Ground set with a rank oracle; circuits are minimal dependent sets."""

    ground: tuple[int, ...]

    def rank_of(self, subset: Iterable[int]) -> int:
        raise NotImplementedError

    def full_rank(self) -> int:
        return self.rank_of(self.ground)

    def is_independent(self, subset: Iterable[int]) -> bool:
        subset = sorted(set(subset))
        return self.rank_of(subset) == len(subset)

    def is_dependent(self, subset: Iterable[int]) -> bool:
        return not self.is_independent(subset)

    def circuits(self) -> tuple[frozenset[int], ...]:
        """Minimal dependent sets, in (size, sorted) order.  Refuses ground
        sets above the enumeration cap.

        The instance's confirmed shadow circuits (`_shadow_circuits`) are
        the answer where it has them.  Otherwise `rank_of` alone decides:
        the bases are the full_rank()-sets of full rank, and the circuits
        are the minimal sets that lie in no basis (`_circuits_from_bases`)."""
        n = len(self.ground)
        if n > ENUMERATION_CAP:
            raise ValueError(f"circuit enumeration is capped at {ENUMERATION_CAP} elements, got {n}")
        found = self._shadow_circuits()
        if found is None:
            r = self.full_rank()
            bases = [sum(1 << i for i in c) for c in combinations(range(n), r) if self.rank_of([self.ground[i] for i in c]) == r]
            found = _circuits_from_bases(n, bases)
        circuits = [frozenset([self.ground[i] for i in c]) for c in found]
        return tuple(sorted(circuits, key=lambda c: (len(c), sorted(c))))

    def _shadow_circuits(self) -> list[tuple[int, ...]] | None:
        """The circuits as sorted ground positions, from a shadow of the
        matroid whose every circuit was confirmed exactly; None where the
        matroid has no such shadow, so that `circuits` asks `rank_of`."""
        return None


class LinearMatroid(Matroid, Record):
    """Column matroid of an exact rational matrix: `columns[i]` is the
    column of `ground[i]`."""

    _fields = ("ground", "columns")

    def __init__(self, ground: tuple[int, ...], columns: tuple[tuple[Fraction, ...], ...]):
        if len(ground) != len(columns):
            raise ValueError("one column per ground element required")
        self._set(ground=ground, columns=columns)

    # The cached properties below live in the instance's own __dict__, so no
    # two matroids share a position table, a shadow or a circuit family.
    @cached_property
    def _positions(self) -> dict[int, int]:
        return {e: i for i, e in enumerate(self.ground)}

    @cached_property
    def _integer_columns(self) -> tuple[list[int], ...]:
        """Each column times the lcm of its denominators (`integer_multiple`),
        computed once: scaling a column keeps every rank, so the shadow and
        the exact route both read these."""
        return tuple([integer_multiple(col)[1] for col in self.columns])

    @cached_property
    def _shadow_columns(self) -> tuple[list[int], ...]:
        """Each integer column reduced mod SHADOW_PRIME once."""
        return tuple([[x % SHADOW_PRIME for x in ints] for ints in self._integer_columns])

    def rank_of(self, subset: Iterable[int]) -> int:
        """The mod-p rank of the cached residues is a lower bound, and the
        rank wherever it meets min(|subset|, rows); elsewhere `integer_rank`
        of the integer columns decides."""
        pos = self._positions
        at = [pos[e] for e in sorted(set(subset))]
        lower = rank_of_vectors_mod_p([self._shadow_columns[i] for i in at])
        if lower == len(at) or lower == len(self._shadow_columns[0]):
            return lower
        return integer_rank([self._integer_columns[i] for i in at])

    def full_rank(self) -> int:
        return self._full_rank

    @cached_property
    def _full_rank(self) -> int:
        return self.rank_of(self.ground)

    def _shadow_bases(self) -> list[int]:
        """The position masks of the bases of the shadow columns mod p, the
        pivot columns' first.

        Gauss–Jordan elimination of the shadow's rows (`reduce_mod_p` each
        new row against the echelon rows so far, then the rows so far against
        it) gives [I | N] up to column order: its rows are 1 at their own
        pivot and 0 at the others.  With B the pivot columns, R a set of them
        and S an equally large set of the other columns, (B - R) | S is a
        basis exactly when the minor of those rows of [I | N] on the columns
        S is nonzero.  A minor of size k is the expansion along its last row
        into minors of size k - 1, which one dict holds by the mask R | S,
        nonzero ones only; the empty minor is 1."""
        p = SHADOW_PRIME
        rows: list[EchelonRow] = []
        for v in zip(*self._shadow_columns):
            if (new := reduce_mod_p(v, rows)) is not None:
                c, b = new
                rows = [(d, [(x - f * y) % p for x, y in zip(w, b)] if (f := w[c]) else w) for d, w in rows] + [new]
        basis = sum(1 << c for c, _ in rows)
        others = [j for j in range(len(self.ground)) if not basis >> j & 1]
        bases, smaller = [basis], {0: 1}
        for k in range(1, min(len(rows), len(others)) + 1):
            minors: dict[int, int] = {}
            column_sets = [(s, sum(1 << j for j in s)) for s in combinations(others, k)]
            for rs in combinations(range(len(rows)), k):
                c, last = rows[rs[-1]]
                above = sum(1 << rows[i][0] for i in rs[:-1])
                for s, s_mask in column_sets:
                    key, value = above | s_mask, 0
                    for j in s:  # signs (-1)^(k-1+index), by alternation
                        value = last[j] * smaller.get(key ^ 1 << j, 0) - value
                    if value := value % p:
                        minors[key | 1 << c] = value
                        bases.append(basis ^ key ^ 1 << c)
            smaller = minors
        return bases

    def _shadow_circuits(self) -> list[tuple[int, ...]] | None:
        """The circuits of the shadow matroid, once each is confirmed over Q.

        Each shadow circuit of size at most full_rank() is confirmed by
        `integer_rank` of exactly its integer columns; at size full_rank() + 1
        the rank bound confirms it.  Then the two matroids are equal: a set
        independent mod p is independent over Q, and a set dependent mod p
        holds a shadow circuit, dependent over Q.  One circuit independent
        over Q shows the shadow to be wrong for this matroid, and None sends
        `circuits` to `rank_of` queries alone."""
        found = _circuits_from_bases(len(self.ground), self._shadow_bases())
        full = self.full_rank()
        for c in found:
            if len(c) <= full and integer_rank([self._integer_columns[i] for i in c]) == len(c):
                return None
        return found

    def circuits(self) -> tuple[frozenset[int], ...]:
        return self._circuits

    @cached_property
    def _circuits(self) -> tuple[frozenset[int], ...]:
        return super().circuits()


class CircuitMatroid(Matroid, Record):
    """Matroid presented by its circuit family (assumed to satisfy the
    circuit axioms; see `is_circuit_family`)."""

    _fields = ("ground", "circuit_family")

    def __init__(self, ground: tuple[int, ...], circuit_family: tuple[frozenset[int], ...]):
        self._set(ground=ground, circuit_family=circuit_family)

    def _contains_circuit(self, s: frozenset[int]) -> bool:
        return any(c <= s for c in self.circuit_family)

    def rank_of(self, subset: Iterable[int]) -> int:
        # greedy is exact for matroid rank
        current: set[int] = set()
        for e in sorted(set(subset)):
            if not self._contains_circuit(frozenset(current | {e})):
                current.add(e)
        return len(current)

    def is_independent(self, subset: Iterable[int]) -> bool:
        return not self._contains_circuit(frozenset(subset))

    def circuits(self) -> tuple[frozenset[int], ...]:
        return tuple(sorted(self.circuit_family, key=lambda c: (len(c), sorted(c))))


def matroid_from_matrix(m: Mat) -> LinearMatroid:
    """Column matroid on the ground labels 1..n."""
    n = len(m[0]) if m else 0
    cols = tuple(tuple(row[j] for row in m) for j in range(n))
    return LinearMatroid(tuple(range(1, n + 1)), cols)


def _lacking(n: int) -> list[int]:
    """For each position i < n, the 2^n-bit int whose bit m is set for each
    mask m that lacks bit i: runs of 2^i set bits, period 2^(i+1), built by
    doubling."""
    lacking = []
    for step in (1 << i for i in range(n)):
        low, width = (1 << step) - 1, 2 * step
        while width < 1 << n:
            low |= low << width
            width *= 2
        lacking.append(low)
    return lacking


def _circuits_from_bases(n: int, bases: Iterable[int]) -> list[tuple[int, ...]]:
    """The circuits, as sorted positions in mask order, of the matroid on n
    positions with these basis masks.

    One 2^n-bit int holds bit m for each independent mask m: it starts as
    the bases' bits, and for each position i the bits of the masks that hold
    i are shifted down by 2^i and ORed in, which drops i from each of them.
    The other masks are dependent, and a dependent mask is a circuit unless
    one more pass, as in `is_circuit_family`, finds a dependent one-smaller
    subset of it."""
    lacking = _lacking(n)
    marks = bytearray(max((1 << n) >> 3, 1))
    for b in bases:
        marks[b >> 3] |= 1 << (b & 7)
    independent = int.from_bytes(marks, "little")
    for i, low in enumerate(lacking):
        independent |= independent >> (1 << i) & low
    dependent = independent ^ ((1 << (1 << n)) - 1)
    inside = 0
    for i, low in enumerate(lacking):
        inside |= (dependent & low) << (1 << i)
    masks = [m.start() for m in re.finditer("1", f"{dependent ^ inside:b}"[::-1])]  # character m is bit m
    return [tuple([i for i in range(n) if mask >> i & 1]) for mask in masks]


def is_circuit_family(n: int, family: Iterable[Iterable[int]]) -> bool:
    """Circuit axioms, checked exhaustively: no empty circuit, antichain, and
    circuit elimination.  Capped at n <= 14.

    Element e is bit e-1 of a mask.  One 2^n-bit int, `table`, holds bit m
    for each mask m that contains a circuit: it starts as the circuits' bits,
    and for each element i the bits of the masks that lack i are shifted up
    by 2^i and ORed in, which adds i to each of those masks, so after n such
    passes every superset of a circuit is in.  n more passes give the masks
    that properly contain a circuit, and elimination reads single bits of
    `table`'s bytes.
    """
    if n > AXIOM_CHECK_CAP:
        raise ValueError(f"circuit-axiom checking is capped at {AXIOM_CHECK_CAP} elements")
    circuits = [frozenset(c) for c in family]
    if len(set(circuits)) != len(circuits):
        return False
    for c in circuits:
        if not c or min(c) < 1 or max(c) > n:
            return False
    masks = [sum(1 << (e - 1) for e in c) for c in circuits]
    size = 1 << n
    every_mask = (1 << size) - 1
    lacking = _lacking(n)
    circuit_bits = sum([1 << mask for mask in masks])
    table = circuit_bits
    for i, low in enumerate(lacking):
        table |= (table & low) << (1 << i)
    # Circuits are distinct, so one lies properly inside another exactly when
    # some one-smaller subset of the larger contains a circuit.
    inside = 0
    for i, low in enumerate(lacking):
        inside |= (table & low) << (1 << i)
    if inside & circuit_bits:
        return False
    contains = table.to_bytes(max(size >> 3, 1), "little")
    # Elimination: for each element, every pair of circuits through it leaves
    # a circuit in their union once the element is removed.  Every set of
    # more than r elements contains a circuit, r being the largest size of a
    # set that contains none.  Two distinct circuits of an antichain have
    # |C1 | C2| >= max(|C1|, |C2|) + 1, so a pair with a circuit larger than
    # r leaves more than r elements: only circuits of size <= r are paired.
    # Mask 8j + k (k < 8) lies in byte j and has j.bit_count() +
    # k.bit_count() elements.
    free = (every_mask ^ table).to_bytes(len(contains), "little")
    r = max(j.bit_count() + max(k.bit_count() for k in range(8) if byte >> k & 1) for j, byte in enumerate(free) if byte)
    small = [mask for mask in masks if mask.bit_count() <= r]
    for bit in (1 << i for i in range(n)):
        through = [mask for mask in small if mask & bit]
        for i, c1 in enumerate(through):
            if not all(contains[m >> 3] >> (m & 7) & 1 for m in [(c1 | c2) ^ bit for c2 in through[i + 1:]]):
                return False
    return True


@lru_cache(maxsize=4)
def grid_circuit_family(spec: GridSpec) -> tuple[frozenset[int], ...]:
    """Inclusion-minimal members of the grid edges together with all
    (d+1)-subsets of the vertex set.  The family depends on the spec alone,
    so it is built once per spec and process."""
    H = grid_hypergraph(spec)
    candidates = set(H.edges)
    candidates.update(frozenset(c) for c in combinations(range(1, spec.n + 1), spec.d + 1))
    return Hypergraph.of(spec.n, candidates).edges


def realize_grid_matroid(spec: GridSpec, rng: random.Random) -> Mat:
    """A d x (k*l) rational matrix whose column at grid cell (i, j) lies in
    the intersection of a generic (t-1)-dimensional row subspace and a
    generic (s-1)-dimensional column subspace.

    Every row t-subset and column s-subset of the grid is then dependent; the
    draw is retried until the matrix also has full rank d.
    """
    if not spec.in_realization_regime():
        raise ValueError(
            "realization needs 3 <= s <= t <= l, s <= k, and t <= d <= s+t-3; "
            f"got {spec}"
        )
    d = spec.d
    expect_dim = (spec.s - 1) + (spec.t - 1) - d
    H = grid_hypergraph(spec)
    for _ in range(REALIZATION_ATTEMPTS):
        row_spaces = [rand_matrix(rng, d, spec.t - 1) for _ in range(spec.k)]
        col_spaces = [rand_matrix(rng, d, spec.s - 1) for _ in range(spec.l)]
        if any(rank(u) < spec.t - 1 for u in row_spaces):
            continue
        if any(rank(w) < spec.s - 1 for w in col_spaces):
            continue
        matrix: list[list[Fraction]] = [[Fraction(0)] * spec.n for _ in range(d)]
        ok = True
        for i in range(spec.k):
            for j in range(spec.l):
                u, w = row_spaces[i], col_spaces[j]
                stacked = [u_row + [-x for x in w_row] for u_row, w_row in zip(u, w)]
                kern = kernel_basis(stacked)
                if len(kern) != expect_dim:
                    ok = False
                    break
                coeffs = [rand_nonzero_fraction(rng) for _ in kern]
                a = [sum(c * v[r] for c, v in zip(coeffs, kern)) for r in range(spec.t - 1)]
                point = [sum(u[r][c] * a[c] for c in range(spec.t - 1)) for r in range(d)]
                if all(x == 0 for x in point):
                    ok = False
                    break
                vertex = grid_vertex(spec.k, i + 1, j + 1) - 1
                for r in range(d):
                    matrix[r][vertex] = point[r]
            if not ok:
                break
        if not ok:
            continue
        if rank(matrix) != d:
            continue
        if in_variety(H, matrix):
            return matrix
    raise GenericityError(f"no generic grid realization found in {REALIZATION_ATTEMPTS} attempts")


# -- algebraic matroids --------------------------------------------------------


class PolyMap(Record):
    """A polynomial parametrization: coordinates in a shared parameter ring."""

    _fields = ("ring", "coords", "labels")

    def __init__(self, ring: PolyRing, coords: tuple[Polynomial, ...], labels: tuple[str, ...] = ()):
        for f in coords:
            if f.ring != ring:
                raise ValueError("coordinate outside the parameter ring")
        if labels and len(labels) != len(coords):
            raise ValueError("one label per coordinate required")
        self._set(ring=ring, coords=coords, labels=labels)

    def display_labels(self) -> tuple[str, ...]:
        return self.labels or tuple(str(i) for i in range(1, len(self.coords) + 1))

    @cached_property
    def _gradients(self) -> tuple[tuple[Polynomial, ...], ...]:
        """Each coordinate's partial derivatives, built once, so each keeps
        its evaluation plan across `jacobian_at` calls."""
        return tuple(tuple(f.derivative(v) for v in self.ring.variables) for f in self.coords)

    def jacobian_at(self, point: dict[Var, Fraction]) -> Mat:
        """Rows are coordinate gradients with respect to the parameters."""
        return [[g.evaluate(point) for g in row] for row in self._gradients]

    @staticmethod
    def parse(text: str) -> "PolyMap":
        """Format: a `params` line, then at least one `coord <label> <polynomial>` line."""
        lines = content_lines(text)
        if not lines:
            raise ValueError("expected a leading 'params' line")
        head = lines[0].split()
        try:
            params = [Var.parse(tok) for tok in head[1:]] if head[0] == "params" else []
        except ValueError:
            params = []
        if not params:
            raise ValueError(f"parametrization line {lines[0]!r} does not fit the format `params <variable> ...`")
        if repeated := [tok for k, tok in enumerate(head[2:], 1) if params[k] in params[:k]]:
            raise ValueError(f"parametrization line {lines[0]!r} repeats parameter {repeated[0]!r}; each `params` variable is listed once")
        ring = PolyRing.of(params)
        spelling = dict(zip(params, head[1:]))
        misfit = "does not fit the format `coord <label> <polynomial>` in the `params` variables"
        if len(lines) == 1:
            raise ValueError(f"parametrization line {lines[0]!r} has no `coord <label> <polynomial>` line after it; at least one is needed")
        labels, coords = [], []
        for ln in lines[1:]:
            parts = ln.split(None, 2)
            if len(parts) != 3 or parts[0] != "coord":
                raise ValueError(f"parametrization line {ln!r} {misfit}")
            if parts[1] in labels:
                raise ValueError(f"parametrization line {ln!r} repeats label {parts[1]!r}; each `coord <label> <polynomial>` line needs its own label")
            labels.append(parts[1])
            try:
                coords.append(parse_polynomial(parts[2], ring))
            except (ValueError, KeyError, ZeroDivisionError):
                raise ValueError(f"parametrization line {ln!r} {misfit}") from None
            # `Var.parse` reads indices as integers, so u_01 would be u_1
            for tok in re.findall(r"[A-Za-z]+(?:_\d+)*", parts[2]):
                if (declared := spelling[Var.parse(tok)]) != tok:
                    raise ValueError(
                        f"parametrization line {ln!r} spells parameter {declared!r} as {tok!r}; "
                        "a `coord` line uses the `params` spelling"
                    )
        return PolyMap(ring, tuple(coords), tuple(labels))


def segre_map(m: int, n: int) -> PolyMap:
    """Rank-one m x n matrices u v^T, one coordinate per entry."""
    params = [Var("u", (i,)) for i in range(1, m + 1)] + [Var("v", (j,)) for j in range(1, n + 1)]
    ring = PolyRing.of(params)
    coords, labels = [], []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            coords.append(ring.var(Var("u", (i,))) * ring.var(Var("v", (j,))))
            labels.append(f"{i}{j}")
    return PolyMap(ring, tuple(coords), tuple(labels))


def matrix_product_map(m: int, n: int, r: int) -> PolyMap:
    """Rank <= r m x n matrices A B with A an m x r and B an r x n factor."""
    params = [Var("a", (i, t)) for i in range(1, m + 1) for t in range(1, r + 1)]
    params += [Var("b", (t, j)) for t in range(1, r + 1) for j in range(1, n + 1)]
    ring = PolyRing.of(params)
    coords, labels = [], []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            total = ring.zero()
            for t in range(1, r + 1):
                total = total + ring.var(Var("a", (i, t))) * ring.var(Var("b", (t, j)))
            coords.append(total)
            labels.append(f"{i}{j}")
    return PolyMap(ring, tuple(coords), tuple(labels))


def algebraic_matroid(pm: PolyMap, rng: random.Random) -> LinearMatroid:
    """Coordinate-dependence matroid of the parametrized set.

    The Jacobian is evaluated at two independent random rational points; a
    coordinate subset is independent exactly when its gradient rows are.  The
    two draws must induce the same matroid (circuit-for-circuit), otherwise
    the draw is retried and eventually reported as non-generic.
    """

    def draw() -> LinearMatroid:
        point = {v: rand_fraction(rng) for v in pm.ring.variables}
        return matroid_from_matrix(transpose(pm.jacobian_at(point)))

    return generic_draw(draw, lambda m: m.circuits(), "Jacobian matroid circuits at random points")


# -- arrangement signatures ---------------------------------------------------


class ArrangementSignature(NamedTuple):
    """Coarse projective-plane invariant: rank-2 flats with at least three
    points, their sizes, and how many such lines pass through each point
    that lies on more than one."""

    points: int
    lines: int
    line_sizes: tuple[int, ...]
    multipoint_degrees: tuple[int, ...]

    def to_text(self) -> str:
        sizes = ",".join(str(s) for s in self.line_sizes) or "-"
        degrees = ",".join(str(d) for d in self.multipoint_degrees) or "-"
        return (
            f"points {self.points} lines {self.lines} "
            f"sizes [{sizes}] multipoint-degrees [{degrees}]"
        )


def arrangement_signature(m: Mat) -> ArrangementSignature:
    """Signature of the column configuration of a 3 x n matrix.

    Zero columns are ignored; mutually parallel columns count as one
    projective point.  Equal signatures are necessary (not sufficient) for
    arrangement isomorphism.

    Each column is scaled once to integers (`integer_multiple`).  Parallel
    columns are found by the integer cross product (`parallel`).  The points
    are pairwise independent, so the line through points a and b holds
    exactly the points c with det(a, b, c) = 0 (`integer_det`).
    """
    if len(m) != 3:
        raise ValueError("arrangement signatures need a 3-row matrix")
    points: list[list[int]] = []
    for col in zip(*m):
        p = integer_multiple(col)[1]
        if any(p) and not any(parallel(q, p) for q in points):
            points.append(p)

    lines: set[frozenset[int]] = set()
    for a, b in combinations(points, 2):
        flat = frozenset(i for i, c in enumerate(points) if integer_det([a, b, c]) == 0)
        if len(flat) >= 3:
            lines.add(flat)

    degrees = [sum(1 for ln in lines if i in ln) for i in range(len(points))]
    multi = sorted((d for d in degrees if d >= 2), reverse=True)
    sizes = sorted((len(ln) for ln in lines), reverse=True)
    return ArrangementSignature(len(points), len(lines), tuple(sizes), tuple(multi))
