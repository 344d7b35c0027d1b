"""Secant dimensions via stacked tangent spaces, bar-joint frameworks, and
rigidity-matrix rank checks.

Dimensions are reported for affine cones; the projective dimension is one
less.  Every randomized answer goes through `sampling.generic_draw`: two
independent draws must agree or the computation fails loudly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable

from .linalg import Mat, kernel_basis, left_kernel_mod_p, rank, transpose, vector_mod_p
from .report import CheckResult, WitnessReport
from .sampling import generic_draw, rand_fraction, rand_nonzero_fraction

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class TangentModel:
    """Sampler of (point, tangent-space basis) pairs with exact entries."""

    name: str
    ambient: int
    draw: Callable[[random.Random], tuple[Point, list[Point]]]


def segre_tangent_model(m: int, n: int) -> TangentModel:
    """Rank-one m x n matrices u v^T, flattened row-major into m*n space.

    The tangent space at u v^T is spanned by the u x e_j and e_i x v slabs.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")

    def draw(rng: random.Random) -> tuple[Point, list[Point]]:
        u = [rand_nonzero_fraction(rng) for _ in range(m)]
        v = [rand_nonzero_fraction(rng) for _ in range(n)]
        point = tuple(ui * vj for ui in u for vj in v)
        tangents: list[Point] = []
        for j in range(n):
            vec = [Fraction(0)] * (m * n)
            for i in range(m):
                vec[i * n + j] = u[i]
            tangents.append(tuple(vec))
        for i in range(m):
            vec = [Fraction(0)] * (m * n)
            for j in range(n):
                vec[i * n + j] = v[j]
            tangents.append(tuple(vec))
        return point, tangents

    return TangentModel(f"rank-one {m}x{n}", m * n, draw)


def secant_dimension(model: TangentModel, k: int, rng: random.Random) -> int:
    """Affine-cone dimension of the k-th secant: the exact rank of tangent
    bases stacked at k independent random points, with a two-draw guard."""
    if k < 1:
        raise ValueError("need k >= 1")

    def draw() -> int:
        rows: list[list[Fraction]] = []
        for _ in range(k):
            _, tangents = model.draw(rng)
            rows.extend(list(t) for t in tangents)
        return rank(rows)

    return generic_draw(draw, lambda r: r, f"stacked tangent ranks of {model.name}, k={k}")


# -- bar-joint frameworks ------------------------------------------------------


@dataclass(frozen=True)
class Framework:
    """A graph with one rational configuration point per vertex (1-based)."""

    d: int
    coords: tuple[Point, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("configuration dimension must be >= 1")
        for p in self.coords:
            if len(p) != self.d:
                raise ValueError("configuration point of wrong dimension")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"edge ({u}, {v}) has equal endpoints")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u}, {v}) out of range")

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
        lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
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
        coords = tuple(tuple(Fraction(t) for t in ln.split()) for ln in lines[1 : 1 + n])
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


def rigidity_matrix(fw: Framework) -> Mat:
    """One row per edge {u, v}: the block p_u - p_v in u's coordinates and
    its negative in v's.  Coincident endpoints are rejected because the zero
    row would silently change the rank semantics."""
    rows: Mat = []
    for u, v in fw.edges:
        pu, pv = fw.coords[u - 1], fw.coords[v - 1]
        if pu == pv:
            raise ValueError(f"edge ({u}, {v}) has coincident endpoints")
        row = [Fraction(0)] * (fw.d * fw.n)
        for c in range(fw.d):
            row[(u - 1) * fw.d + c] = pu[c] - pv[c]
            row[(v - 1) * fw.d + c] = pv[c] - pu[c]
        rows.append(row)
    return rows


def rigidity_rank_formula(n: int, d: int) -> int:
    return d * n - comb(d + 1, 2)


def _edge_index(n: int) -> dict[tuple[int, int], int]:
    return {e: i + 1 for i, e in enumerate(complete_graph_edges(n))}


def _shadow_certifies_circuit(block: Mat) -> bool:
    """Whether one mod-p elimination proves every one-smaller row subset of
    a dependent block independent.

    A row subset missing row i is dependent exactly when some nonzero left
    kernel vector vanishes at i.  A one-dimensional left kernel mod p whose
    vector has no zero entry therefore makes every one-smaller subset
    independent mod p, and so over Q.  Any other shadow proves nothing."""
    rows = [vector_mod_p(row) for row in block]
    if any(row is None for row in rows):
        return False
    kernel = left_kernel_mod_p(rows)
    return len(kernel) == 1 and all(kernel[0])


def _check_complete_subgraph_circuits(fw: Framework, R: Mat, size: int) -> tuple[bool, str]:
    """Whether the edge rows of every `size`-vertex complete subgraph of the
    rigidity matrix R form a circuit of the row matroid: dependent, all
    one-smaller subsets independent.

    Each subgraph's rows are cut down to its own vertices' columns, the only
    nonzero ones, and one exact `rank` gives the nullity of the block.  The
    rows are a circuit exactly when the nullity is 1 and the left kernel
    vector has no zero entry: with nullity 0 they are independent, and with
    nullity 2 or more some kernel vector vanishes at any one row, so every
    one-smaller subset is dependent.  For nullity 1 the mod-p left kernel may
    certify the circuit; otherwise the exact left kernel decides."""
    index = _edge_index(fw.n)
    for verts in combinations(range(1, fw.n + 1), size):
        rows = [index[(u, v)] for u, v in combinations(verts, 2)]
        cols = [(v - 1) * fw.d + c for v in verts for c in range(fw.d)]
        block = [[R[r - 1][c] for c in cols] for r in rows]
        nullity = len(rows) - rank(block)
        if nullity == 0:
            return False, f"edge set of vertices {verts} is independent"
        if nullity == 1 and (_shadow_certifies_circuit(block) or all(kernel_basis(transpose(block))[0])):
            continue
        return False, f"proper subset of the {verts} edge set is dependent"
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
        fw = random_framework(n, d, rng)
        R = rigidity_matrix(fw)
        return rank(R), _check_complete_subgraph_circuits(fw, R, d + 2) if d + 2 <= n <= 8 else None

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
