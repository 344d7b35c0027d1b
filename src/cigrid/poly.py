"""Sparse multivariate polynomials with exact rational coefficients.

Variables carry structured integer indices (``x_1_2``, ``p_2_1_3``) and are
totally ordered row-major by (base, index), so polynomial output is
deterministic.  Coefficients are `fractions.Fraction`; all operations are
exact and all values are immutable after construction.

Each monomial order has one definition, the linear weights of
`MonomialOrder.weights` that the packed Groebner engine (`ideals`) sorts by.
Text and leading terms follow the one degrevlex key `_descending`.  Minors and
the Groebner engine pack monomials into ints the one way `Packing` defines.
A polynomial's form is fixed when it is built: a minor keeps its packed
monomials, in text order from one int sort, for life, and its dense `terms`
are built beside them only when read.  A polynomial hashes by its leading
monomial and term count, alike in either form.

`Polynomial.evaluate` compiles each polynomial, once, into straight-line Python
code: its greedy multivariate Horner form, exact on int and `Fraction` values.
"""

from __future__ import annotations

import re
import struct
from collections import Counter
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, count
from math import lcm
from operator import add, itemgetter
from typing import Any, Iterable, NamedTuple

from .record import Record

Rat = Fraction | int


class Var(NamedTuple):
    """A named indeterminate such as x_1_2 (base "x", index (1, 2)), ordered
    by (base, index)."""

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


class MonomialOrder(NamedTuple):
    """A total order on the monomials (exponent tuples) of a ring.

    kind: "lex" (first variable dominates), "degrevlex" (graded, ties broken
    by the reversed exponent vector), or "block" (compare block by block,
    degrevlex inside each block; the first block is the elimination block).
    blocks holds variable positions for "block" orders, and must partition
    the ring's positions.  `weights` is the order's one definition.
    """

    kind: str
    blocks: tuple[tuple[int, ...], ...] = ()

    def __str__(self) -> str:
        return self.kind

    def weights(self, n: int, bits: int) -> list[int]:
        """Weights w of the descending key sum(w[i] * m[i]) on an n-variable
        ring: the larger the monomial, the smaller its key.

        The key packs the order's comparison into `bits`-wide fields, most
        significant first: lex compares the negated exponents; a graded
        block compares its negated degree, then its exponents from the last
        one back.  The key is linear, so key(m * q) = key(m) + key(q), and
        it orders every monomial whose degree fits in a field."""
        if self.kind == "lex":
            return [-1 << (bits * (n - 1 - i)) for i in range(n)]
        if self.kind == "degrevlex":
            blocks = (range(n),)
        elif self.kind == "block":
            blocks = self.blocks
            if sorted([i for block in blocks for i in block]) != list(range(n)):
                raise ValueError(f"blocks {blocks} do not partition the positions 0..{n - 1} of the ring")
        else:
            raise ValueError(f"unknown monomial order kind {self.kind!r}")
        weights, shift = [0] * n, 0
        for block in reversed(blocks):
            for i in block:
                weights[i], shift = 1 << shift, shift + bits
            for i in block:
                weights[i] -= 1 << shift
            shift += bits
        return weights


def _descending(m: tuple[int, ...]) -> tuple:
    """The degrevlex sort key of text and leading terms: the larger the
    monomial, the smaller its key."""
    return (-sum(m), m[::-1])


LEX = MonomialOrder("lex")
DEGREVLEX = MonomialOrder("degrevlex")


class DigitOverflow(Exception):
    """A monomial's degree reaches the guard bit of its packed digits."""


class Packing:
    """Monomials of an n-variable ring as ints (packed exponent vectors:
    Bachmann & Schoenemann, ISSAC 1998; Monagan & Pearce, CASC 2007), the
    one encoding that minors and the Groebner engine share.

    Digit i holds exponent i and digit n the total degree, least significant
    first, each `bits` wide (one of `WIDTHS`) with a guard bit on top.  A
    monomial packs only while its degree, and so each of its digits, stays
    below the guard bit; `pack` raises `DigitOverflow` otherwise.  Then a
    product is one addition, and a divides b exactly when b - a sets no
    guard bit, since a digit of b smaller than a's borrows from the guard bit
    above it.  A sum whose digits reach a guard bit has overflowed.  One
    `struct` codec of n digits packs the exponents, below the degree digit,
    and unpacks them with `unpack_from`, which never reads the degree digit
    back.  `lcm` takes the per-digit max with the guard bits."""

    WIDTHS = (8, 16, 32, 64)

    def __init__(self, n: int, bits: int):
        codec = struct.Struct(f"<{n}{'BHIQ'[self.WIDTHS.index(bits)]}")
        self.bits, self.top, self.size = bits, n * bits, (n + 1) * bits // 8
        digit = bits // 8
        self.guard = int.from_bytes((1 << (bits - 1)).to_bytes(digit, "little") * (n + 1), "little")
        # a 1 in each digit above the lowest: times the exponents, its degree
        # digit is their sum
        self._ones = int.from_bytes(bytes(digit) + (1).to_bytes(digit, "little") * n, "little")
        self._exponents, self._degree = (1 << self.top) - 1, ((1 << bits) - 1) << self.top
        self._pack, self._unpack = codec.pack, codec.unpack_from

    def pack(self, m: tuple[int, ...]) -> int:
        degree = sum(m)
        if degree >> (self.bits - 1):
            raise DigitOverflow
        # the degree shifted in: a call `_pack(*m, degree)` copies m once more
        return int.from_bytes(self._pack(*m), "little") | degree << self.top

    def unpack(self, mono: int) -> tuple[int, ...]:
        return self._unpack(mono.to_bytes(self.size, "little"))

    def lcm(self, a: int, b: int) -> int:
        """The least common multiple of two packed monomials.  A digit of
        (a | guard) - b keeps its guard bit exactly where a's digit is the
        larger, and borrows from nothing, so that mask picks each digit's
        max; the degree digit is then the exponents' sum, and `DigitOverflow`
        if it reaches the guard bit."""
        t = ((a | self.guard) - b) & self.guard
        e = (b ^ ((a ^ b) & (t - (t >> (self.bits - 1))))) & self._exponents
        degree = e * self._ones & self._degree
        if degree & self.guard:
            raise DigitOverflow
        return e | degree


class PolyRing(Record):
    """A polynomial ring over Q with a fixed, row-major-sorted variable tuple."""

    _fields = ("variables",)

    def __init__(self, variables: tuple[Var, ...]):
        if tuple(sorted(set(variables))) != variables:
            raise ValueError("ring variables must be sorted and distinct")
        self._set(variables=variables, _positions={v: i for i, v in enumerate(variables)})

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

    A polynomial's form is fixed when it is built: a minor is a
    `_PackedPolynomial` for life, every other polynomial a plain one.  The
    hash is that of the leading monomial and the term count, so equal
    polynomials hash equal in either form.

    Never mutate `terms` after construction; arithmetic returns new values.
    That is what makes the cached degrevlex leading term, the evaluation plan
    (built on the first `evaluate`) and the text (rendered on the first
    `to_text`) safe to keep.
    """

    __slots__ = ("ring", "terms", "_hash", "_lead", "_plan", "_text")

    def __init__(self, ring: PolyRing, terms: dict[tuple[int, ...], Fraction]):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c != 0}
        self._hash: int | None = None
        self._lead: tuple[tuple[int, ...], Fraction] | None = None
        self._plan: tuple | None = None
        self._text: str | None = None

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _count(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def monomials(self) -> Iterable[tuple[int, ...]]:
        """The exponent tuples of the terms."""
        return self.terms

    def support(self) -> set[Var]:
        return {self.ring.variables[i] for m in self.terms for i in compress(count(), m)}

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """The degrevlex leading term, the first term of the text form."""
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            m = min(self.terms, key=_descending)
            self._lead = (m, self.terms[m])
        return self._lead

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        # The leading monomial and the term count: equal polynomials share
        # both in either form, and a packed one unpacks one key for them.
        if self._hash is None:
            self._hash = hash((self.leading()[0], self._count()) if self else ())
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
        # lowering the exponent at pos is one-to-one on the terms that have it
        pos = self.ring.position(v)
        return Polynomial(self.ring, {m[:pos] + (m[pos] - 1,) + m[pos + 1 :]: c * m[pos] for m, c in self.terms.items() if m[pos]})

    def evaluate(self, point: Sequence[Rat] | Mapping[Var, Rat]) -> Fraction:
        """Exact value at a point: a sequence aligned with `ring.variables`,
        or a mapping that assigns every variable appearing in self.  It is
        `Fraction(plan(point), q)` for every kind of point (`_evaluation_plan`),
        and a value neither int nor `Fraction` counts as `Fraction(value)`."""
        return Fraction(*self._plan_value(point))

    def vanishes_at(self, point: Sequence[Rat] | Mapping[Var, Rat]) -> bool:
        """`evaluate(point) == 0`, with no `Fraction` built."""
        return self._plan_value(point)[0] == 0

    def _plan_value(self, point: Sequence[Rat] | Mapping[Var, Rat]) -> tuple[Rat, int]:
        """(plan(point), q): q times the value at the point, an int or a
        `Fraction`; see `evaluate`."""
        if self._plan is None:
            self._plan = self._evaluation_plan()
        support, q, plan = self._plan
        if isinstance(point, Mapping):
            names = self.ring.variables
            if missing := [names[i] for i in support if names[i] not in point]:
                raise ValueError(f"unassigned variable {missing[0]}")
            point = {i: point[names[i]] for i in support}
        elif len(point) != len(self.ring.variables):
            raise ValueError(f"point has {len(point)} values for a ring of {len(self.ring.variables)} variables")
        if plan is None:
            return next(iter(self.terms.values()), 0), 1
        try:
            value = plan(point)
        except (TypeError, OverflowError):
            value = None
        if not isinstance(value, (int, Fraction)):  # a float entered the plan, or failed in it
            value = plan({i: x if isinstance(x := point[i], (int, Fraction)) else Fraction(x) for i in support})
        return value, q

    def _evaluation_plan(self):
        """(support positions, q, plan): q is the lcm of the coefficient
        denominators and plan(x) = q * self(x), the Horner code of `_horner`
        compiled once with no builtins (None when nothing varies), popped from
        its namespace so that no cycle keeps it alive.  It only adds,
        subtracts, multiplies and takes int powers: exact on int and
        `Fraction` values, while a float makes `Fraction(plan(x), q)` or the
        run fail, and `evaluate` reruns on `Fraction(value)`s."""
        q = lcm(*[c.denominator for c in self.terms.values()])
        # one sparse monomial dict per term, built here and divided in place
        terms = [({i: m[i] for i in compress(count(), m)}, c.numerator * (q // c.denominator)) for m, c in self.terms.items()]
        support = tuple(sorted({i for mono, _ in terms for i in mono}))
        if not support:
            return support, q, None
        lines: list[str] = []
        negative, product = _horner(terms, lines)
        namespace: dict[str, Any] = {"__builtins__": {}}
        exec(compile("def plan(x):\n " + "\n ".join(lines + [f"return {'-' * negative}{product}"]), "<plan>", "exec"), namespace)
        return support, q, namespace.pop("plan")

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

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        """Terms in decreasing degrevlex order; rendered on the first call."""
        if self._text is not None:
            return self._text
        parts: list[str] = []
        for body, factors in self._text_terms():
            negative = body[0] == "-"
            if negative:
                body = body[1:]
            if factors:
                body = factors if body == "1" else f"{body} * {factors}"
            if parts:
                parts.append(("- " if negative else "+ ") + body)
            else:
                parts.append("-" + body if negative else body)
        self._text = " ".join(parts) if parts else "0"
        return self._text

    def _text_terms(self) -> Iterable[tuple[str, str]]:
        """(coefficient text, monomial text) of each term, in text order."""
        names, terms = self.ring.names, self.terms
        for m in sorted(terms, key=_descending):
            yield str(terms[m]), " * ".join([names[i] if m[i] == 1 else f"{names[i]}^{m[i]}" for i in compress(count(), m)])

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


class _PackedPolynomial(Polynomial):
    """A minor in the packed form: `_packed` is (pairs, q, packing), its terms
    as (flipped packed key, nonzero int coefficient) pairs over the
    denominator q, sorted, so in text order (see `minor`).  Its text, leading
    term, negation, zero test and hash read the pairs.  The first read of
    `terms` builds the dense dict from them, in the same order, into the
    `terms` slot, so `__getattr__` never runs again; the pairs are kept and
    go on answering.  The `__getattr__` is on this class alone: on
    `Polynomial` it would make every attribute read of every polynomial
    about 2x slower."""

    __slots__ = ("_packed",)

    def __init__(self, ring: PolyRing, pairs: list[tuple[int, int]], q: int, packing: Packing):
        self.ring, self._packed = ring, (pairs, q, packing)
        self._hash = self._lead = self._plan = self._text = None

    def __getattr__(self, name: str):
        if name != "terms":
            raise AttributeError(f"'Polynomial' object has no attribute {name!r}")
        return self._unpack_terms()

    def _unpack_terms(self) -> dict[tuple[int, ...], Fraction]:
        # `unpack_from` never reads the flipped degree digit; one Fraction
        # per distinct coefficient, not per term
        pairs, q, packing = self._packed
        values = {c: Fraction(c, q) for c in {c for _, c in pairs}}
        decode, size = packing._unpack, packing.size
        self.terms = {decode(k.to_bytes(size, "little")): values[c] for k, c in pairs}
        return self.terms

    def is_zero(self) -> bool:
        return False

    def __bool__(self) -> bool:
        return True

    def _count(self) -> int:
        return len(self._packed[0])

    def monomials(self) -> Iterable[tuple[int, ...]]:
        # unpacked from the keys, the dense terms left unbuilt
        pairs, _, packing = self._packed
        return [packing.unpack(k) for k, _ in pairs]

    def total_degree(self) -> int:
        # the first pair has the largest degree, its digit flipped
        pairs, _, packing = self._packed
        return (pairs[0][0] >> packing.top) ^ ((1 << packing.bits) - 1)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        if self._lead is None:
            pairs, q, packing = self._packed
            self._lead = (packing.unpack(pairs[0][0]), Fraction(pairs[0][1], q))
        return self._lead

    def __neg__(self) -> "Polynomial":
        pairs, q, packing = self._packed
        return _PackedPolynomial(self.ring, [(k, -c) for k, c in pairs], q, packing)

    def _text_terms(self) -> Iterable[tuple[str, str]]:
        # At 8 bits a key's bytes are the exponents, and the names of the
        # nonzero ones the factors; when their count is the degree digit,
        # every exponent is 1.
        pairs, q, packing = self._packed
        names, size, top, mask = self.ring.names, packing.size, packing.top, (1 << packing.bits) - 1
        decode = None if packing.bits == 8 else packing._unpack
        bodies = {c: str(Fraction(c, q)) for c in {c for _, c in pairs}}
        for k, c in pairs:
            digits = k.to_bytes(size, "little")
            if decode is not None:
                digits = decode(digits)
            factors = list(compress(names, digits))
            if len(factors) != (k >> top) ^ mask:
                factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(factors, filter(None, digits))]
            yield bodies[c], " * ".join(factors)


def _horner(terms: list[tuple[dict[int, int], int]], lines: list[str]) -> tuple[bool, str]:
    """Append the code of the greedy Horner form of `terms` (position ->
    exponent dicts, divided in place, with int coefficients) to `lines`, and
    return (negative, product) with the form's value -product if negative.
    The code holds positions, exponents, ints and x[ ] + - * ** = t<k>."""
    if len(terms) == 1:
        [(mono, c)] = terms
        factors = [f"x[{i}]" + f"**{e}" * (e > 1) for i, e in mono.items()]
        # hex past 64 bits: the decimal text of a huge int is capped (int_max_str_digits)
        return c < 0, "*".join([hex(abs(c)) if abs(c) >> 64 else str(abs(c))] * (abs(c) != 1 or not factors) + factors)
    parts: list[tuple[bool, str]] = []
    while terms:
        # the variable in the most terms left (max() keeps the first, lowest
        # position of a tie) at its least power there; only the quotient
        # recurses, so the depth is at most the total degree
        counts = Counter(sorted([i for mono, _ in terms for i in mono]))
        i = max(counts, key=counts.__getitem__, default=None)
        if counts[i] < 2:  # no variable is shared (or none is left): each term is a part alone
            parts += [_horner([term], lines) for term in terms]
            break
        inner = [term for term in terms if i in term[0]]
        terms = [term for term in terms if i not in term[0]]
        e = min([mono[i] for mono, _ in inner])
        for mono, _ in inner:
            mono[i] -= e
            if not mono[i]:
                del mono[i]
        negative, product = _horner(inner, lines)
        parts.append((negative, f"x[{i}]" + f"**{e}" * (e > 1) + f"*{product}" * (product != "1")))
    # one assignment per sum; if every part is negative, negate them all, and
    # put a positive part first, so the code has no unary minus
    negative = all(neg for neg, _ in parts)
    parts = sorted([(neg != negative, p) for neg, p in parts], key=itemgetter(0))
    text = [parts[0][1]] + [("- " if neg else "+ ") + p for neg, p in parts[1:]]
    name = f"t{len(lines)}"
    # 64 parts per line: the compiler recurses once per `+` of a chain
    lines += [f"{name} = {name + ' ' if k else ''}" + " ".join(text[k : k + 64]) for k in range(0, len(text), 64)]
    return negative, name


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
        for m in g.monomials():
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
    _, c = f.leading()
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


class SymbolicMatrix(Record):
    """A rectangular array of polynomials; rows and columns are 1-based."""

    _fields = ("ring", "entries")

    def __init__(self, ring: PolyRing, entries: tuple[tuple[Polynomial, ...], ...]):
        self._set(ring=ring, entries=entries)

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
    def _packed(self) -> tuple[tuple, int, Packing]:
        """(entries, q, packing): the entries' monomials packed by `packing`,
        the form `minor` expands, so multiplying monomials is adding ints.

        The digits are the narrowest whose guard bit the total degree of the
        largest minor the matrix has cannot reach, so no product's digit
        carries into the next.  Each coefficient is an integer over q, the
        lcm of the entries' denominators, so a size-s minor over these
        integers is q^s times the minor over Q."""
        polys = [e for row in self.entries for e in row]
        degree = min(self.shape) * max([e.total_degree() for e in polys], default=0)
        packing = next((Packing(len(self.ring.variables), bits) for bits in Packing.WIDTHS if not degree >> (bits - 1)), None)
        if packing is None:
            raise ValueError(f"minors of degree {degree} are too large to expand")
        q = lcm(*[c.denominator for e in polys for c in e.terms.values()])
        # tuples from lists, not generators: see linalg.integer_multiple
        entries = tuple(
            [tuple([tuple([(packing.pack(m), c.numerator * (q // c.denominator)) for m, c in e.terms.items()]) for e in row]) for row in self.entries]
        )
        return entries, q, packing

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
    entries, q, packing = X._packed
    packed = _minor_rec(entries, rows, cols, memo)
    # With its degree digit flipped, a packed key's int order is text order
    # (`_descending`): the larger degree first, then the smaller exponents
    # from the last one back.  The result keeps these sorted pairs, and its
    # dense `terms` are built on their first read.
    flip = ((1 << packing.bits) - 1) << packing.top
    pairs = sorted([(k ^ flip, c) for k, c in packed.items() if c])
    return _PackedPolynomial(X.ring, pairs, q ** len(rows), packing) if pairs else X.ring.zero()


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
