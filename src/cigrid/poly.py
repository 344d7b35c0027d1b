"""Sparse multivariate polynomials with exact rational coefficients.

Variables carry structured integer indices (``x_1_2``, ``p_2_1_3``) and are
totally ordered row-major by (base, index), so polynomial output is
deterministic.  Coefficients are `fractions.Fraction`; all operations are
exact and all values are immutable after construction.
"""

from __future__ import annotations

import re
import struct
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, count
from math import lcm, prod
from operator import add, itemgetter, neg
from typing import Any, Callable, Iterable

Rat = Fraction | int


@dataclass(frozen=True, order=True)
class Var:
    """A named indeterminate such as x_1_2 (base "x", index (1, 2))."""

    base: str
    index: tuple[int, ...] = ()

    def __str__(self) -> str:
        return self.base + "".join(f"_{i}" for i in self.index)

    @staticmethod
    def parse(text: str) -> "Var":
        m = re.fullmatch(r"([A-Za-z]+)((?:_\d+)*)", text)
        if m is None:
            raise ValueError(f"not a variable name: {text!r}")
        idx = tuple(int(p) for p in m.group(2).split("_") if p)
        return Var(m.group(1), idx)


def var(base: str, *index: int) -> Var:
    return Var(base, tuple(index))


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on monomials given as a key function on exponent tuples.

    kind: "lex" (first variable dominates), "degrevlex" (graded, ties broken
    by the reversed exponent vector), or "block" (compare block by block,
    degrevlex inside each block; the first block is the elimination block).
    blocks holds variable positions for "block" orders.

    Both keys are compiled once per order: `key` sorts ascending, and
    `descending_key` orders monomials the opposite way, so a min-heap on it
    pops the largest monomial first.
    """

    kind: str
    blocks: tuple[tuple[int, ...], ...] = ()
    key: Callable[[tuple[int, ...]], Any] = field(init=False, repr=False, compare=False)
    descending_key: Callable[[tuple[int, ...]], Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key, descending_key = _compile_order(self.kind, self.blocks)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "descending_key", descending_key)

    def __str__(self) -> str:
        return self.kind

    def largest(self, monomials: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
        """The largest monomial.  Under lex that is the largest plain tuple;
        otherwise it is the smallest under `descending_key`, which negates
        nothing per monomial."""
        if self.kind == "lex":
            return max(monomials)
        return min(monomials, key=self.descending_key)


def _picker(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The items at `positions` (exponents, or a point's values), always as a
    tuple."""
    if len(positions) >= 2:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda exps: (exps[p],)
    return lambda exps: ()


def _compile_order(kind: str, blocks: tuple[tuple[int, ...], ...]):
    """(ascending key, descending key) of a monomial order.  Within a graded
    block, the ascending key is (degree, negated reversed exponents); its
    exact negation (-degree, reversed exponents) sorts the other way."""
    if kind == "lex":
        return (lambda exps: exps), (lambda exps: tuple(map(neg, exps)))
    if kind == "degrevlex":
        return (
            lambda exps: (sum(exps), tuple(map(neg, reversed(exps)))),
            lambda exps: (-sum(exps), exps[::-1]),
        )
    if kind == "block":
        pickers = [_picker(tuple(reversed(blk))) for blk in blocks]

        def key(exps):
            return tuple([(sum(part), tuple(map(neg, part))) for part in [pick(exps) for pick in pickers]])

        def descending_key(exps):
            return tuple([(-sum(part), part) for part in [pick(exps) for pick in pickers]])

        return key, descending_key
    raise ValueError(f"unknown monomial order kind {kind!r}")


LEX = MonomialOrder("lex")
DEGREVLEX = MonomialOrder("degrevlex")


@dataclass(frozen=True)
class PolyRing:
    """A polynomial ring over Q with a fixed, row-major-sorted variable tuple."""

    variables: tuple[Var, ...]
    _positions: dict[Var, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if tuple(sorted(set(self.variables))) != self.variables:
            raise ValueError("ring variables must be sorted and distinct")
        object.__setattr__(self, "_positions", {v: i for i, v in enumerate(self.variables)})

    @staticmethod
    def of(variables: Iterable[Var]) -> "PolyRing":
        return PolyRing(tuple(sorted(set(variables))))

    @cached_property
    def names(self) -> tuple[str, ...]:
        """The text form of each variable, built once per ring."""
        return tuple(str(v) for v in self.variables)

    def position(self, v: Var) -> int:
        try:
            return self._positions[v]
        except KeyError:
            raise KeyError(f"{v} is not a variable of this ring") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: Rat) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * len(self.variables): c})

    def var(self, v: Var) -> "Polynomial":
        exps = [0] * len(self.variables)
        exps[self.position(v)] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def elimination_order(self, kill: Iterable[Var]) -> MonomialOrder:
        """Block order whose first block is `kill`: monomials touching `kill`
        dominate all others, so Groebner leading terms witness elimination."""
        kill = set(kill)
        first = tuple(i for i, v in enumerate(self.variables) if v in kill)
        rest = tuple(i for i, v in enumerate(self.variables) if v not in kill)
        missing = kill - set(self.variables)
        if missing:
            raise KeyError(f"not ring variables: {sorted(map(str, missing))}")
        return MonomialOrder("block", (first, rest))

    def extend(self, extra: Iterable[Var]) -> "PolyRing":
        return PolyRing.of(self.variables + tuple(extra))


class Polynomial:
    """Map from exponent tuples to nonzero rational coefficients.

    Never mutate `terms` after construction; arithmetic returns new values.
    That is what makes the cached leading term (per order, last queried), the
    evaluation plan (built on the first `evaluate`) and the text (rendered on
    the first `to_text`) safe to keep.
    """

    __slots__ = ("ring", "terms", "_hash", "_lead", "_plan", "_text")

    def __init__(self, ring: PolyRing, terms: dict[tuple[int, ...], Fraction]):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c != 0}
        self._hash: int | None = None
        self._lead: tuple[MonomialOrder, tuple[tuple[int, ...], Fraction]] | None = None
        self._plan: tuple | None = None
        self._text: str | None = None

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def support(self) -> set[Var]:
        out: set[Var] = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    out.add(self.ring.variables[i])
        return out

    def leading(self, order: MonomialOrder = DEGREVLEX) -> tuple[tuple[int, ...], Fraction]:
        cached = self._lead
        if cached is not None and (cached[0] is order or cached[0] == order):
            return cached[1]
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = order.largest(self.terms)
        lead = (m, self.terms[m])
        self._lead = (order, lead)
        return lead

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        # The monomials alone: equal polynomials have equal monomial sets, and
        # a frozenset of a dict reuses the hashes the dict stores.
        if self._hash is None:
            self._hash = hash(frozenset(self.terms))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("polynomials live in different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            old = terms.get(m)
            terms[m] = c if old is None else old + c
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                old = terms.get(m)
                terms[m] = c1 * c2 if old is None else old + c1 * c2
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c: Rat) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.ring.zero()
        return Polynomial(self.ring, {m: k * c for m, k in self.terms.items()})

    # -- calculus / evaluation ----------------------------------------------

    def derivative(self, v: Var) -> "Polynomial":
        pos = self.ring.position(v)
        terms: dict[tuple[int, ...], Fraction] = {}
        for m, c in self.terms.items():
            e = m[pos]
            if e:
                m2 = m[:pos] + (e - 1,) + m[pos + 1:]
                terms[m2] = terms.get(m2, Fraction(0)) + c * e
        return Polynomial(self.ring, terms)

    def evaluate(self, point: Sequence[Rat] | Mapping[Var, Rat]) -> Fraction:
        """Exact value at a point: a sequence aligned with `ring.variables`,
        or a mapping that assigns every variable appearing in self.

        The plan, built on the first call, keeps each term as its coefficient
        times q (the lcm of the coefficient denominators), an integer c, and
        a picker of the ring positions it multiplies, with multiplicity.  At
        an integer point the value is sum(c * prod(pick(point))) / q.  At
        x_i = a_i / b_i it is the same sum on the numerators, each term
        times its missing denominator powers D // prod(pick(b)), over q * D,
        where D = prod b_i^E_i and E_i is the largest exponent of x_i.
        """
        if self._plan is None:
            self._plan = self._evaluation_plan()
        support, tops, q, terms = self._plan
        width = len(self.ring.variables)
        if isinstance(point, Mapping):
            values = [0] * width
            for i in support:
                v = self.ring.variables[i]
                if v not in point:
                    raise ValueError(f"unassigned variable {v}")
                values[i] = point[v]
            point = values
        elif len(point) != width:
            raise ValueError(f"point has {len(point)} values for a ring of {width} variables")
        # The sum is an int exactly when every picked value is one.
        if not support or type(point[support[0]]) is int:
            total = sum([c * prod(pick(point)) for c, pick in terms])
            if type(total) is int:
                return Fraction(total, q)
        numerators, denominators, scale = list(point), [1] * width, 1
        for i, top in zip(support, tops):
            x = point[i] if isinstance(point[i], (int, Fraction)) else Fraction(point[i])
            numerators[i], denominators[i] = x.numerator, x.denominator
            scale *= x.denominator**top
        total = sum([c * prod(pick(numerators)) * (scale // prod(pick(denominators))) for c, pick in terms])
        return Fraction(total, q * scale)

    def _evaluation_plan(self):
        """(support positions, their largest exponents, q, [(c, picker)])."""
        # tuples come from lists, not generators: see linalg.integer_multiple
        tops = list(map(max, zip(*self.terms)))
        support = tuple([i for i, top in enumerate(tops) if top])
        q = lcm(*[c.denominator for c in self.terms.values()])
        terms = [
            (c.numerator * (q // c.denominator), _picker([i for i in support for _ in range(m[i])]))
            for m, c in self.terms.items()
        ]
        return support, tuple([tops[i] for i in support]), q, terms

    def rename(self, mapping: Mapping[Var, Var], target: PolyRing) -> "Polynomial":
        """Ring morphism sending each support variable through `mapping`."""
        terms: dict[tuple[int, ...], Fraction] = {}
        width = len(target.variables)
        for m, c in self.terms.items():
            exps = [0] * width
            for i, e in enumerate(m):
                if e:
                    v = self.ring.variables[i]
                    w = mapping.get(v, v)
                    exps[target.position(w)] += e
            m2 = tuple(exps)
            old = terms.get(m2)
            terms[m2] = c if old is None else old + c
        return Polynomial(target, terms)

    def transfer(self, target: PolyRing) -> "Polynomial":
        """Re-express in a ring containing all support variables."""
        return self.rename({}, target)

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        """Terms in decreasing degrevlex order; rendered on the first call."""
        if self._text is not None:
            return self._text
        names = self.ring.names
        parts: list[str] = []
        for m in sorted(self.terms, key=DEGREVLEX.descending_key):
            body = str(self.terms[m])
            negative = body[0] == "-"
            if negative:
                body = body[1:]
            factors = [names[i] if m[i] == 1 else f"{names[i]}^{m[i]}" for i in compress(count(), m)]
            if factors:
                if body != "1":
                    factors.insert(0, body)
                body = " * ".join(factors)
            if parts:
                parts.append(("- " if negative else "+ ") + body)
            else:
                parts.append("-" + body if negative else body)
        self._text = " ".join(parts) if parts else "0"
        return self._text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


def require_homogeneous(generators: Iterable[Polynomial], groups: Sequence[Iterable[Var]]) -> None:
    """Raise ValueError naming the first generator whose terms do not all have
    the same degree in each group's variables.

    Such a generator g has degree D_G in group G, so dividing every variable
    by the product of the scales s_G of the groups it lies in gives
    g(x / s) = g(x) / prod_G s_G^D_G: g vanishes at a scaled point exactly
    when it vanishes at the unscaled one.  Every minor is homogeneous in each
    row's and each column's variables."""
    member: dict[Var, list[int]] = {}
    for k, group in enumerate(groups):
        for v in group:
            member.setdefault(v, []).append(k)
    for g in generators:
        groups_of = [member.get(v, ()) for v in g.ring.variables]
        degrees = set()
        for m in g.terms:
            degree = [0] * len(groups)
            for i, e in enumerate(m):
                if e:
                    for k in groups_of[i]:
                        degree[k] += e
            degrees.add(tuple(degree))
        if len(degrees) > 1:
            raise ValueError(f"generator {g} is not homogeneous in each of the {len(groups)} variable groups")


def normalize_sign(f: Polynomial) -> Polynomial:
    """Flip the sign so the degrevlex leading coefficient is positive (0 stays 0)."""
    if f.is_zero():
        return f
    _, c = f.leading(DEGREVLEX)
    return -f if c < 0 else f


_TERM_RE = re.compile(
    r"(?P<coeff>\d+(?:/\d+)?)|(?P<var>[A-Za-z]+(?:_\d+)*)(?:\^(?P<exp>\d+))?"
)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse the textual form produced by `Polynomial.to_text`.

    Accepts sums of terms like ``2/3 * x_1_1^2 * x_2_2 - p_1_2 + 4``.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return ring.zero()
    # signed chunks: a leading sign is optional, every later chunk has one
    parts = re.split(r"([+-])", text)
    if parts[0]:
        parts.insert(0, "+")
    else:
        del parts[0]
    width = len(ring.variables)
    total = ring.zero()
    for sign, chunk in zip(parts[::2], parts[1::2]):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"malformed polynomial text: {text!r}")
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0] * width
        for factor in chunk.split("*"):
            factor = factor.strip()
            m = _TERM_RE.fullmatch(factor)
            if m is None:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            if m.group("coeff"):
                coeff *= Fraction(m.group("coeff"))
            else:
                exps[ring.position(Var.parse(m.group("var")))] += int(m.group("exp") or 1)
        total = total + Polynomial(ring, {tuple(exps): coeff})
    return total


# -- symbolic matrices and minors ---------------------------------------------


@dataclass(frozen=True)
class SymbolicMatrix:
    """A rectangular array of polynomials; rows and columns are 1-based."""

    ring: PolyRing
    entries: tuple[tuple[Polynomial, ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entries), len(self.entries[0]) if self.entries else 0)

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i - 1][j - 1]

    @cached_property
    def _entry_vars(self) -> tuple[Var, ...]:
        """The variable of each entry, row-major; a ValueError if some entry
        does not involve exactly one variable."""
        out = []
        for row in self.entries:
            for e in row:
                sup = e.support()
                if len(sup) != 1:
                    raise ValueError("assignment requires single-variable entries")
                out.append(next(iter(sup)))
        return tuple(out)

    def assignment(self, values: Sequence[Sequence[Rat]]) -> list[Rat]:
        """The values, row-major: the point of `Polynomial.evaluate` that
        gives each entry its value.  The entries must be the ring's
        variables in ring order, as those of `generic_matrix` are."""
        d, n = self.shape
        if len(values) != d or any(len(row) != n for row in values):
            raise ValueError("value matrix shape mismatch")
        if self._entry_vars != self.ring.variables:
            raise ValueError("assignment requires entries that are the ring's variables in ring order")
        return [x for row in values for x in row]

    @cached_property
    def _packed(self) -> tuple[tuple, int, struct.Struct]:
        """(entries, q, codec): the entries as packed integers, the form
        `minor` expands.

        Each exponent tuple is one int with a fixed-width digit per ring
        position, position i at digit i (`codec` converts), so multiplying
        monomials is adding ints.  A digit holds size x the largest entry
        exponent for the largest minor the matrix has, so no product's digit
        carries into the next.  Each coefficient is an integer over q, the
        lcm of the entries' denominators, so a size-s minor over these
        integers is q^s times the minor over Q."""
        polys = [e for row in self.entries for e in row]
        top = max([max(m, default=0) for e in polys for m in e.terms], default=0)
        bits = (min(self.shape) * top).bit_length()
        code = next((code for code, size in (("B", 8), ("H", 16), ("I", 32), ("Q", 64)) if bits <= size), None)
        if code is None:
            raise ValueError(f"entry exponent {top} is too large to expand minors of")
        codec = struct.Struct(f"<{len(self.ring.variables)}{code}")
        q = lcm(*[c.denominator for e in polys for c in e.terms.values()])
        entries = tuple(
            tuple(
                tuple((int.from_bytes(codec.pack(*m), "little"), c.numerator * (q // c.denominator)) for m, c in e.terms.items())
                for e in row
            )
            for row in self.entries
        )
        return entries, q, codec

    def row_and_column_variables(self) -> list[tuple[Var, ...]]:
        """The variables of each row, then of each column: the groups in which
        every minor is homogeneous (`require_homogeneous`)."""
        d, n = self.shape
        variables = self._entry_vars
        return [variables[i * n : (i + 1) * n] for i in range(d)] + [variables[j::n] for j in range(n)]


def generic_matrix(d: int, n: int) -> SymbolicMatrix:
    """d x n matrix of fresh indeterminates x_i_j, row-major ordered."""
    vs = [Var("x", (i, j)) for i in range(1, d + 1) for j in range(1, n + 1)]
    ring = PolyRing.of(vs)
    entries = tuple(
        tuple(ring.var(Var("x", (i, j))) for j in range(1, n + 1))
        for i in range(1, d + 1)
    )
    return SymbolicMatrix(ring, entries)


# A packed sub-minor: packed monomial -> integer coefficient (see `SymbolicMatrix._packed`).
MinorMemo = dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]]


def minor(
    X: SymbolicMatrix,
    rows: Iterable[int],
    cols: Iterable[int],
    memo: MinorMemo | None = None,
) -> Polynomial:
    """Determinant of the submatrix on 1-based row/column index sets.

    Expanded by Laplace recursion along the first row; the sign convention is
    the Leibniz formula with both index sets taken in increasing order.  The
    expansion runs on `X`'s packed entries; `memo` holds packed sub-minors of
    `X` and may be shared by calls on the same matrix.
    """
    rows = tuple(sorted(rows))
    cols = tuple(sorted(cols))
    d, n = X.shape
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    if not rows:
        raise ValueError("empty index sets")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError(f"repeated row or column index in rows {list(rows)}, columns {list(cols)}")
    if rows[0] < 1 or rows[-1] > d or cols[0] < 1 or cols[-1] > n:
        raise ValueError("index out of range")
    if memo is None:
        memo = {}
    entries, q, codec = X._packed
    packed = _minor_rec(entries, rows, cols, memo)
    # one Fraction per distinct coefficient, not per term
    values = {c: Fraction(c, q ** len(rows)) for c in set(packed.values()) if c}
    decode, nbytes = codec.unpack, codec.size
    return Polynomial(X.ring, {decode(k.to_bytes(nbytes, "little")): values[c] for k, c in packed.items() if c})


def _minor_rec(entries, rows, cols, memo) -> dict[int, int]:
    key = (rows, cols)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if len(rows) == 1:
        result = dict(entries[rows[0] - 1][cols[0] - 1])
    else:
        # Every Laplace term e_{i0,j} * M_j, its sign folded into the entry's
        # coefficients, goes into one accumulator.  Multiplying packed
        # monomials is one int addition.
        row, rest = entries[rows[0] - 1], rows[1:]
        acc: dict[int, int] = {}
        get = acc.get
        for t, j in enumerate(cols):
            e = row[j - 1]
            if not e:
                continue
            sub = _minor_rec(entries, rest, cols[:t] + cols[t + 1:], memo).items()
            for k1, c1 in e:
                if t % 2:
                    c1 = -c1
                for k2, c2 in sub:
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
        result = acc
    memo[key] = result
    return result


def all_minors(X: SymbolicMatrix, size: int) -> list[Polynomial]:
    """All size x size minors, sharing one memo of sub-minors."""
    d, n = X.shape
    memo: MinorMemo = {}
    return [
        minor(X, rows, cols, memo)
        for rows in combinations(range(1, d + 1), size)
        for cols in combinations(range(1, n + 1), size)
    ]
