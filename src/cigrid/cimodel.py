"""Discrete models, joint-probability tensors, flattenings, and CI ideals.

A model is an ordered list of named variables, each observed or hidden, with
states 1..cardinality.  The coordinate ring has one variable p_<states> per
joint outcome of the observed variables; a statement A _||_ B | C with hidden
conditioning variables turns into minor constraints on slices of that tensor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable, Sequence

from .ideals import Ideal
from .linalg import Mat
from .poly import PolyRing, Polynomial, SymbolicMatrix, Var, all_minors, normalize_sign
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
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.names) != len(self.shape):
            raise ValueError("names and shape disagree")
        if len(self.entries) != prod(self.shape):
            raise ValueError("entry count does not match the shape")

    def get(self, state: Sequence[int]) -> Fraction:
        """Entry at a 1-based joint state."""
        idx = 0
        for s, c in zip(state, self.shape):
            if not 1 <= s <= c:
                raise IndexError(f"state {state} out of range for shape {self.shape}")
            idx = idx * c + (s - 1)
        return self.entries[idx]


def _states(cards: Sequence[int]) -> list[tuple[int, ...]]:
    """All joint states, lexicographic, 1-based."""
    return [tuple(s) for s in product(*(range(1, c + 1) for c in cards))]


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
    declared = list(P.names)
    if rows | cols | summed != set(declared) or (rows & cols) or (rows & summed) or (cols & summed):
        raise ValueError("rows, cols and summed must partition the tensor's variables")
    # Row-major strides: a joint state's entry sits at the sum of one offset
    # per variable, so a group's states are offsets, in lexicographic order.
    card = dict(zip(P.names, P.shape))
    stride, step = {}, 1
    for n in reversed(declared):
        stride[n] = step
        step *= card[n]

    def offsets(group: set[str]) -> list[int]:
        out = [0]
        for n in declared:
            if n in group:
                out = [o + s * stride[n] for o in out for s in range(card[n])]
        return out

    E = P.entries
    col_offsets = offsets(cols)
    if not summed:
        return [[E[r + c] for c in col_offsets] for r in offsets(rows)]
    sum_offsets = offsets(summed)
    return [[sum([E[r + c + z] for z in sum_offsets]) for c in col_offsets] for r in offsets(rows)]


def prob_ring(model: DiscreteModel) -> PolyRing:
    """Coordinate ring with one variable p_<joint state> per observed outcome."""
    cards = [v.card for v in model.observed()]
    return PolyRing.of(Var("p", s) for s in _states(cards))


def tensor_assignment(model: DiscreteModel, P: ProbTensor) -> dict[Var, Fraction]:
    """Map each coordinate variable to the tensor entry it names."""
    obs = model.observed()
    if tuple(P.names) != tuple(v.name for v in obs) or tuple(P.shape) != tuple(v.card for v in obs):
        raise ValueError("tensor layout does not match the model's observed variables")
    return {Var("p", s): P.get(s) for s in _states([v.card for v in obs])}


def ci_minor_generators(stmt: CIStatement, model: DiscreteModel) -> list[Polynomial]:
    """Minor constraints of one statement on the observed coordinate ring.

    With h the product of hidden cardinalities in C (h = 1 when none), every
    joint state of the observed part of C contributes all (h+1)-minors of the
    A-states x B-states block of coordinates.  A, B and C together must cover
    the observed variables; marginal statements are rejected rather than
    silently summed.
    """
    stmt.validate(model)
    obs_names = [v.name for v in model.observed()]
    covered = set(stmt.a) | set(stmt.b) | set(stmt.c)
    missing = [n for n in obs_names if n not in covered]
    if missing:
        raise ValueError(f"statement must mention every observed variable; missing {missing}")

    ring = prob_ring(model)
    h = prod(model.get(n).card for n in stmt.c if model.get(n).hidden)
    obs_c = [n for n in obs_names if n in stmt.c]
    a_vars = [n for n in obs_names if n in stmt.a]
    b_vars = [n for n in obs_names if n in stmt.b]
    card = {v.name: v.card for v in model.variables}
    a_states = _states([card[n] for n in a_vars])
    b_states = _states([card[n] for n in b_vars])
    position = {n: i for i, n in enumerate(obs_names)}

    size = h + 1
    out: list[Polynomial] = []
    if size > min(len(a_states), len(b_states)):
        return out
    for c_state in _states([card[n] for n in obs_c]):
        entries = []
        for a_state in a_states:
            row = []
            for b_state in b_states:
                state = [0] * len(obs_names)
                for n, s in zip(a_vars, a_state):
                    state[position[n]] = s
                for n, s in zip(b_vars, b_state):
                    state[position[n]] = s
                for n, s in zip(obs_c, c_state):
                    state[position[n]] = s
                row.append(ring.var(Var("p", tuple(state))))
            entries.append(tuple(row))
        block = SymbolicMatrix(ring, tuple(entries))
        out.extend(normalize_sign(g) for g in all_minors(block, size))
    return out


def ci_ideal(statements: Sequence[CIStatement], model: DiscreteModel) -> Ideal:
    """Union of the statements' minor constraints, deduplicated up to sign."""
    ring = prob_ring(model)
    seen: set[Polynomial] = set()
    gens: list[Polynomial] = []
    for stmt in statements:
        for g in ci_minor_generators(stmt, model):
            if g not in seen:
                seen.add(g)
                gens.append(g)
    return Ideal.of(ring, gens)


def mixture_parametrization_sample(
    model: DiscreteModel,
    conclusion: CIStatement,
    rng: random.Random,
) -> ProbTensor:
    """A fully supported rational distribution on the observed variables whose
    A x B flattening has rank at most the hidden cardinality of C.

    The conclusion must have the shape A _||_ B | H with C consisting of
    hidden variables only and A, B covering all observed variables; the
    sample is a convex combination of h product distributions.
    """
    conclusion.validate(model)
    if any(not model.get(n).hidden for n in conclusion.c):
        raise ValueError("the conditioning set of the conclusion must be hidden")
    obs = model.observed()
    obs_names = [v.name for v in obs]
    if set(conclusion.a) | set(conclusion.b) != set(obs_names):
        raise ValueError("A and B must cover the observed variables")
    h = prod(model.get(n).card for n in conclusion.c) if conclusion.c else 1
    a_vars = [n for n in obs_names if n in conclusion.a]
    b_vars = [n for n in obs_names if n in conclusion.b]
    card = {v.name: v.card for v in model.variables}
    a_states = _states([card[n] for n in a_vars])
    b_states = _states([card[n] for n in b_vars])
    matrix = mixture_matrix(rng, len(a_states), len(b_states), h)

    position = {n: i for i, n in enumerate(obs_names)}
    shape = tuple(v.card for v in obs)
    values: dict[tuple[int, ...], Fraction] = {}
    for i, a_state in enumerate(a_states):
        for j, b_state in enumerate(b_states):
            state = [0] * len(obs_names)
            for n, s in zip(a_vars, a_state):
                state[position[n]] = s
            for n, s in zip(b_vars, b_state):
                state[position[n]] = s
            values[tuple(state)] = matrix[i][j]
    entries = tuple(values[s] for s in _states(list(shape)))
    return ProbTensor(tuple(obs_names), shape, entries)


def parse_ci_file(text: str) -> tuple[DiscreteModel, list[CIStatement]]:
    """Model plus statements from the text format:

        X=3 Y1=3 Y2=4 H1*=2 H2*=2
        X _||_ Y1 | Y2 H1*
        X _||_ Y2 | Y1 H2*

    The first non-comment line declares variables (a trailing * on the name
    marks a hidden variable); each further line is one statement.
    """
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
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
