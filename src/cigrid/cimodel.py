"""Discrete models, joint-probability tensors, flattenings, and CI ideals.

A model is an ordered list of named variables, each observed or hidden, with
states 1..cardinality.  The coordinate ring has one variable p_<states> per
joint outcome of the observed variables; a statement A _||_ B | C with hidden
conditioning variables turns into minor constraints on slices of that tensor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Callable, Iterable, Sequence

from .ideals import Ideal
from .linalg import Mat, content_lines
from .poly import PolyRing, Polynomial, Rat, SymbolicMatrix, Var, all_minors, minor, normalize_sign
from .sampling import mixture_matrix


@dataclass(frozen=True)
class ModelVar:
    name: str
    card: int
    hidden: bool = False

    def __post_init__(self):
        if self.card < 1:
            raise ValueError(f"variable {self.name} needs cardinality >= 1")


@dataclass(frozen=True)
class DiscreteModel:
    variables: tuple[ModelVar, ...]

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if not any(not v.hidden for v in self.variables):
            raise ValueError("at least one observed variable required")

    @staticmethod
    def of(*variables: ModelVar) -> "DiscreteModel":
        return DiscreteModel(tuple(variables))

    def observed(self) -> tuple[ModelVar, ...]:
        return tuple(v for v in self.variables if not v.hidden)

    def hidden(self) -> tuple[ModelVar, ...]:
        return tuple(v for v in self.variables if v.hidden)

    def get(self, name: str) -> ModelVar:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(f"no variable named {name!r}")


@dataclass(frozen=True)
class CIStatement:
    """A _||_ B | C.  A and B are observed; C may mix observed and hidden."""

    a: tuple[str, ...]
    b: tuple[str, ...]
    c: tuple[str, ...] = ()

    def validate(self, model: DiscreteModel) -> None:
        groups = (self.a, self.b, self.c)
        if not self.a or not self.b:
            raise ValueError("both sides of the independence must be nonempty")
        seen: set[str] = set()
        for grp in groups:
            for name in grp:
                model.get(name)
                if name in seen:
                    raise ValueError(f"variable {name} appears twice in the statement")
                seen.add(name)
        for name in self.a + self.b:
            if model.get(name).hidden:
                raise ValueError(f"hidden variable {name} may only appear in the conditioning set")

    @staticmethod
    def parse(text: str) -> "CIStatement":
        lhs, sep, rest = text.partition("_||_")
        if not sep:
            raise ValueError(f"missing _||_ in statement {text!r}")
        rhs, _, cond = rest.partition("|")

        def names(chunk: str) -> tuple[str, ...]:
            return tuple(tok.rstrip("*") for tok in chunk.replace(",", " ").split())

        return CIStatement(names(lhs), names(rhs), names(cond))


@dataclass(frozen=True)
class ProbTensor:
    """Dense tensor of exact rationals over named variables, row-major."""

    names: tuple[str, ...]
    shape: tuple[int, ...]
    entries: tuple[Rat, ...]

    def __post_init__(self):
        if len(self.names) != len(self.shape):
            raise ValueError("names and shape disagree")
        if len(self.entries) != prod(self.shape):
            raise ValueError("entry count does not match the shape")

    def get(self, state: Sequence[int]) -> Rat:
        """Entry at a 1-based joint state."""
        if len(state) != len(self.shape):
            raise IndexError(f"state {tuple(state)} needs {len(self.shape)} coordinates for shape {self.shape}")
        idx = 0
        for s, c in zip(state, self.shape):
            if not 1 <= s <= c:
                raise IndexError(f"state {state} out of range for shape {self.shape}")
            idx = idx * c + (s - 1)
        return self.entries[idx]


def _states(cards: Sequence[int]) -> list[tuple[int, ...]]:
    """All joint states, lexicographic, 1-based."""
    return [tuple(s) for s in product(*(range(1, c + 1) for c in cards))]


def _offsets(names: Sequence[str], shape: Sequence[int], group: Iterable[str]) -> list[int]:
    """Row-major offsets of the joint states of `group`'s variables (names
    not in `names` are ignored), in lexicographic order.  A joint state's
    entry sits at the sum of its groups' offsets."""
    group = set(group)
    out, stride = [0], 1
    for n, c in reversed(list(zip(names, shape))):
        if n in group:
            out = [s * stride + o for s in range(c) for o in out]
        stride *= c
    return out


def flatten(
    P: ProbTensor,
    rows: Iterable[str],
    cols: Iterable[str],
    summed: Iterable[str] = (),
) -> Mat:
    """Matrix whose (row-state, col-state) entry sums P over the summed
    variables.  rows/cols/summed must partition P's variables; index order is
    lexicographic in P's declared variable order."""
    rows, cols, summed = set(rows), set(cols), set(summed)
    if rows | cols | summed != set(P.names) or (rows & cols) or (rows & summed) or (cols & summed):
        raise ValueError("rows, cols and summed must partition the tensor's variables")
    E = P.entries
    row_offsets = _offsets(P.names, P.shape, rows)
    col_offsets = _offsets(P.names, P.shape, cols)
    if not summed:
        return [[E[r + c] for c in col_offsets] for r in row_offsets]
    sum_offsets = _offsets(P.names, P.shape, summed)
    return [[sum([E[r + c + z] for z in sum_offsets]) for c in col_offsets] for r in row_offsets]


def prob_ring(model: DiscreteModel) -> PolyRing:
    """Coordinate ring with one variable p_<joint state> per observed outcome.

    `Var` orders equal-length indices lexicographically, so the ring's i-th
    variable names the state at row-major offset i."""
    cards = [v.card for v in model.observed()]
    return PolyRing.of(Var("p", s) for s in _states(cards))


def tensor_assignment(model: DiscreteModel, P: ProbTensor) -> tuple[Rat, ...]:
    """The point of `prob_ring(model)` at the tensor: its row-major entries,
    which are the ring's variables in order (see `prob_ring`)."""
    obs = model.observed()
    if tuple(P.names) != tuple(v.name for v in obs) or tuple(P.shape) != tuple(v.card for v in obs):
        raise ValueError("tensor layout does not match the model's observed variables")
    return P.entries


def _block_layout(stmt: CIStatement, model: DiscreteModel) -> tuple[list[str], list[int], int]:
    """The observed names and cardinalities, and h, the product of the hidden
    cardinalities in C (1 when none), of a statement that must cover every
    observed variable."""
    stmt.validate(model)
    obs = model.observed()
    names = [v.name for v in obs]
    covered = set(stmt.a) | set(stmt.b) | set(stmt.c)
    missing = [n for n in names if n not in covered]
    if missing:
        raise ValueError(f"statement must mention every observed variable; missing {missing}")
    h = prod(model.get(n).card for n in stmt.c if model.get(n).hidden)
    return names, [v.card for v in obs], h


def ci_minor_generators(stmt: CIStatement, model: DiscreteModel) -> list[Polynomial]:
    """Minor constraints of one statement on the observed coordinate ring.

    With h the product of hidden cardinalities in C (h = 1 when none), every
    joint state of the observed part of C contributes all (h+1)-minors of the
    A-states x B-states block of coordinates.  A, B and C together must cover
    the observed variables; marginal statements are rejected rather than
    silently summed.
    """
    names, shape, h = _block_layout(stmt, model)
    ring = prob_ring(model)
    a_offsets = _offsets(names, shape, stmt.a)
    b_offsets = _offsets(names, shape, stmt.b)
    out: list[Polynomial] = []
    for c in _offsets(names, shape, stmt.c):
        block = SymbolicMatrix(
            ring, tuple(tuple(ring.var(ring.variables[a + b + c]) for b in b_offsets) for a in a_offsets)
        )
        out.extend(normalize_sign(g) for g in all_minors(block, h + 1))
    return out


def ci_minor_membership(stmt: CIStatement, model: DiscreteModel) -> Callable[[Polynomial], bool]:
    """The test "g is one of `ci_minor_generators(stmt, model)`", made
    without building them all.

    A nonzero minor of a block of distinct variables has support exactly its
    rows x columns.  So g can only be the minor on the A-states x B-states
    its support spans, inside the one C-state it touches: the test builds
    that one (h+1)-minor, sign-normalized, and compares."""
    names, _, h = _block_layout(stmt, model)
    ring = prob_ring(model)
    parts = [[i for i, n in enumerate(names) if n in group] for group in (stmt.a, stmt.b, stmt.c)]
    size = range(1, h + 2)

    def entry(cell: tuple[tuple[int, ...], ...]) -> Polynomial:
        state = [0] * len(names)
        for part, sub in zip(parts, cell):
            for i, x in zip(part, sub):
                state[i] = x
        return ring.var(Var("p", tuple(state)))

    def test(g: Polynomial) -> bool:
        if g.ring != ring:
            return False
        cells = [[tuple(v.index[i] for i in part) for part in parts] for v in g.support()]
        rows = sorted({a for a, _, _ in cells})
        cols = sorted({b for _, b, _ in cells})
        slices = {c for _, _, c in cells}
        if len(rows) != h + 1 or len(cols) != h + 1 or len(slices) != 1:
            return False
        (c,) = slices
        block = SymbolicMatrix(ring, tuple(tuple(entry((a, b, c)) for b in cols) for a in rows))
        return g == normalize_sign(minor(block, size, size))

    return test


def ci_ideal(statements: Sequence[CIStatement], model: DiscreteModel) -> Ideal:
    """Union of the statements' minor constraints, deduplicated up to sign."""
    return Ideal.of(prob_ring(model), [g for stmt in statements for g in ci_minor_generators(stmt, model)])


def mixture_parametrization_sample(
    model: DiscreteModel,
    conclusion: CIStatement,
    rng: random.Random,
) -> tuple[int, ProbTensor]:
    """A fully supported rational distribution on the observed variables whose
    A x B flattening has rank at most the hidden cardinality of C.

    The conclusion must have the shape A _||_ B | H with C consisting of
    hidden variables only and A, B covering all observed variables; the
    sample is a convex combination of h product distributions.  It is
    returned as the common denominator of `mixture_matrix` and the tensor of
    integer numerators over it: the distribution is P / den.
    """
    conclusion.validate(model)
    if any(not model.get(n).hidden for n in conclusion.c):
        raise ValueError("the conditioning set of the conclusion must be hidden")
    obs = model.observed()
    names = tuple(v.name for v in obs)
    shape = tuple(v.card for v in obs)
    if set(conclusion.a) | set(conclusion.b) != set(names):
        raise ValueError("A and B must cover the observed variables")
    h = prod(model.get(n).card for n in conclusion.c)
    a_offsets = _offsets(names, shape, conclusion.a)
    b_offsets = _offsets(names, shape, conclusion.b)
    den, matrix = mixture_matrix(rng, len(a_offsets), len(b_offsets), h)
    entries = [0] * prod(shape)
    for a, row in zip(a_offsets, matrix):
        for b, x in zip(b_offsets, row):
            entries[a + b] = x
    return den, ProbTensor(names, shape, tuple(entries))


def parse_ci_file(text: str) -> tuple[DiscreteModel, list[CIStatement]]:
    """Model plus statements from the text format:

        X=3 Y1=3 Y2=4 H1*=2 H2*=2
        X _||_ Y1 | Y2 H1*
        X _||_ Y2 | Y1 H2*

    The first non-comment line declares variables (a trailing * on the name
    marks a hidden variable); each further line is one statement.
    """
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty model file")
    variables = []
    for tok in lines[0].split():
        name, _, c = tok.partition("=")
        if not c.isdigit():
            raise ValueError(
                f"variable declaration {tok!r} in line {lines[0]!r} is not name=states with an integer state count"
            )
        hidden = name.endswith("*")
        variables.append(ModelVar(name.rstrip("*"), int(c), hidden))
    model = DiscreteModel(tuple(variables))
    statements = [CIStatement.parse(ln) for ln in lines[1:]]
    for stmt in statements:
        stmt.validate(model)
    return model, statements
