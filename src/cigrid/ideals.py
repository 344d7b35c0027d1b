"""Ideals, a budgeted Buchberger engine, normal forms, and elimination.

The Groebner machinery is deliberately small: it targets ideals in at most a
couple dozen variables with short generator lists.  Budgets (maximum S-pairs
reduced, maximum degree touched) are hard limits; exceeding one raises
`BudgetExceeded` rather than returning anything partial.

The engine runs on packed monomials (Bachmann & Schoenemann, ISSAC 1998).
`Polynomial`s are packed on entry and only remainders and reduced bases are
unpacked, once, at the end; `normal_form` keeps its packed basis on the
`Ideal`.  A monomial is one int: a digit per variable and one for the total
degree, each with a guard bit on top.  A product is one addition, and a
divides b exactly when b - a sets no guard bit.  A digit that reaches its
guard bit, on packing or in a new product term, raises `_Overflow` and the
computation reruns at twice the width, so no digit wraps.  Each term carries
the order's descending key, a linear function of the exponents, so the key
of m * q is key(m) + key(q).  Coefficients are `int` while integral, else
`Fraction`.  `_update` works on exponent tuples.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from operator import le, lshift, mul
from typing import Iterable, Sequence

from .poly import DEGREVLEX, MonomialOrder, PolyRing, Polynomial, Var, normalize_sign

DEFAULT_MAX_PAIRS = 4000
DEFAULT_MAX_DEGREE = 24
DIGIT_BITS = 8  # starting width of a packed exponent or degree digit, guard bit included


class BudgetExceeded(RuntimeError):
    """A Groebner computation hit its step or degree budget."""


@dataclass(frozen=True)
class Ideal:
    """Generators over a ring, with an optional cached Groebner basis."""

    ring: PolyRing
    generators: tuple[Polynomial, ...]
    basis: tuple[Polynomial, ...] | None = None
    basis_order: MonomialOrder | None = None
    # digit width -> (packing, packed basis), filled by buchberger and normal_form
    _packed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for g in self.generators:
            if g.ring != self.ring:
                raise ValueError("generator outside the ideal's ring")

    @staticmethod
    def of(ring: PolyRing, generators: Iterable[Polynomial]) -> "Ideal":
        """The nonzero generators, each kept once, in first-seen order."""
        return Ideal(ring, tuple(dict.fromkeys(g for g in generators if not g.is_zero())))

    def generator_texts(self) -> list[str]:
        return [g.to_text() for g in self.generators]

    def sign_normalized_set(self) -> frozenset[Polynomial]:
        return frozenset(normalize_sign(g) for g in self.generators if not g.is_zero())


class _Overflow(Exception):
    """A packed digit reached its guard bit: repack wider and start over."""


class _Packing:
    """Monomials of an n-variable ring as ints: digit i holds exponent i and
    digit n the total degree, each `bits` wide with a guard bit on top; and
    the descending key of one order, a linear function of the exponents."""

    def __init__(self, order: MonomialOrder, n: int, bits: int):
        self.bits, self.top, self.mask = bits, n * bits, (1 << bits) - 1
        self.shifts = range(0, n * bits, bits)
        self.guard = sum(1 << (s + bits - 1) for s in range(0, self.top + 1, bits))
        # The key packs the order's comparison into `bits`-wide fields, most
        # significant first: lex compares the negated exponents; a graded
        # block compares its negated degree, then its exponents from the last
        # one back.  A field holds the degree of any product of two packed
        # monomials, so the key of an overflowed product equals no other key.
        if order.kind == "lex":
            self.weights = [-1 << (bits * (n - 1 - i)) for i in range(n)]
            return
        self.weights, shift = [0] * n, 0
        for block in reversed(order.blocks if order.kind == "block" else (range(n),)):
            for i in block:
                self.weights[i], shift = 1 << shift, shift + bits
            for i in block:
                self.weights[i] -= 1 << shift
            shift += bits

    def pack(self, m: tuple[int, ...]) -> tuple[int, int]:
        """(descending key, packed monomial)."""
        degree = sum(m)
        if degree >> (self.bits - 1):
            raise _Overflow
        return sum(map(mul, m, self.weights)), sum(map(lshift, m, self.shifts)) | degree << self.top

    def unpack(self, mono: int) -> tuple[int, ...]:
        return tuple([(mono >> s) & self.mask for s in self.shifts])

    def terms(self, f: Polynomial) -> list:
        """f's terms as (key, monomial, coefficient), largest monomial first."""
        return sorted([(*self.pack(m), c.numerator if c.denominator == 1 else c) for m, c in f.terms.items()])

    def polynomial(self, ring: PolyRing, terms: list) -> Polynomial:
        return Polynomial(ring, {self.unpack(m): Fraction(c) for _, m, c in terms})


def _widening(run):
    """run(bits) from DIGIT_BITS, doubling the width on each overflow."""
    bits = DIGIT_BITS
    while True:
        try:
            return run(bits)
        except _Overflow:
            bits *= 2


def _quotient(a, b):
    """a / b exactly: an int when integral, else a Fraction."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _monic(terms: list) -> list:
    c = terms[0][2]
    return terms if c == 1 else [(k, m, _quotient(tc, c)) for k, m, tc in terms]


def _divisor(terms: list) -> tuple:
    """(head key, head monomial, head coefficient, tail terms)."""
    return (*terms[0], terms[1:])


def _reduce(terms: list, divisors: list, guard: int, first: list = ()) -> list:
    """Fully reduced remainder of the terms, largest first, by heap division
    (Monagan & Pearce, CASC 2007): a min-heap of descending keys yields the
    largest pending term, which the first divisor whose head divides it
    cancels, or else the remainder takes.  Heap entries of terms that
    cancelled to zero are skipped.  `first`, if given, replaces `divisors`
    for the largest term alone: an S-polynomial is f times its cofactor,
    with its head cancelled by g."""
    work = {k: c for k, _, c in terms}
    monos = {k: m for k, m, _ in terms}
    if any(m & guard for m in monos.values()):
        raise _Overflow
    heap = list(work)
    heapq.heapify(heap)
    remainder = []
    get = work.get
    while heap:
        k = heapq.heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue
        m = monos[k]
        for gk, gm, gc, tail in first or divisors:
            q = m - gm
            if q & guard:
                continue
            kq = k - gk
            scale = -c if gc == 1 else _quotient(-c, gc)
            for tk, tm, tc in tail:
                tk += kq
                old = get(tk)
                if old is None:
                    tm += q
                    if tm & guard:
                        raise _Overflow
                    work[tk] = scale * tc
                    monos[tk] = tm
                    heapq.heappush(heap, tk)
                else:
                    s = old + scale * tc
                    if s:
                        work[tk] = s
                    else:
                        del work[tk]
            break
        else:
            remainder.append((k, m, c))
        first = ()
    return remainder


def reduce_poly(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Fully reduced remainder of f modulo the basis (multivariate division),
    with the divisor choice of textbook division: the first basis element
    whose leading monomial divides the largest pending one."""
    return normal_form(f, Ideal(f.ring, (), tuple(basis), order)) if basis else f


def buchberger(
    ideal: Ideal,
    order: MonomialOrder = DEGREVLEX,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> Ideal:
    """Return the ideal with a cached reduced Groebner basis.

    Deterministic given the order and the generator sequence: pairs are
    processed in normal-selection order with index tie-breaks.  The input
    generators and every new basis element join through the Gebauer-Moeller
    pair update (`_update`), which drops pairs whose S-polynomials are known
    to reduce to zero.  `max_pairs` and `max_degree` count only the pairs
    that are reduced.  Budgets are hard errors, never silent truncation.
    """
    gens = [g for g in ideal.generators if not g.is_zero()]
    for g in gens:
        if g.total_degree() > max_degree:
            raise BudgetExceeded(f"generator degree {g.total_degree()} exceeds budget {max_degree}")
    width = len(ideal.ring.variables)
    return _widening(lambda bits: _buchberger(ideal, gens, order, _Packing(order, width, bits), max_pairs, max_degree))


def _buchberger(ideal, gens, order, packing, max_pairs, max_degree) -> Ideal:
    guard = packing.guard
    # monic divisors, their heads as tuples, and `_update`'s state; the queue
    # is in normal selection: smallest lcm under the order, then smallest
    # indices, each pair's key computed once, when the pair is created
    basis, heads, active, live, queue = [], [], [], {}, []

    def join(terms: list) -> None:
        basis.append(_divisor(_monic(terms)))
        heads.append(packing.unpack(terms[0][1]))
        for i, j in _update(heads, active, live):
            heapq.heappush(queue, (order.key(live[i, j]), i, j))

    for g in gens:
        join(packing.terms(g))
    processed = 0
    while queue:
        _, i, j = heapq.heappop(queue)
        l = live.pop((i, j), None)
        if l is None:  # dropped by criterion B after it was queued
            continue
        if sum(l) > max_degree:
            raise BudgetExceeded(f"S-pair degree {sum(l)} exceeds budget {max_degree}")
        processed += 1
        if processed > max_pairs:
            raise BudgetExceeded(f"S-pair budget {max_pairs} exhausted")
        # S(f, g): f times the cofactor of its head in the lcm, its head
        # cancelled by g in the reduction's first step
        key, mono = packing.pack(l)
        fk, fm, _, tail = basis[i]
        s_terms = [(key, mono, 1)] + [(tk + key - fk, tm + mono - fm, tc) for tk, tm, tc in tail]
        r = _reduce(s_terms, basis, guard, [basis[j]])
        if not r:
            continue
        degree = max([m >> packing.top for _, m, _ in r])
        if degree > max_degree:
            raise BudgetExceeded(f"basis degree {degree} exceeds budget {max_degree}")
        join(r)

    reduced = _interreduce(basis, guard)
    out = Ideal(ideal.ring, ideal.generators, tuple(packing.polynomial(ideal.ring, t) for t in reduced), order)
    out._packed[packing.bits] = (packing, [_divisor(t) for t in reduced])
    return out


def _update(
    heads: list[tuple[int, ...]],
    active: list[int],
    live: dict[tuple[int, int], tuple[int, ...]],
) -> list[tuple[int, int]]:
    """The Gebauer-Moeller update (Gebauer & Moeller, J. Symbolic Comput. 6,
    1988) in the UPDATE form of Becker & Weispfenning, *Groebner Bases*
    (1993): the last head, k, joins.

    `active` lists the elements that take new pairs and `live` maps each
    queued pair to its lcm; both are updated in place.  Returns the new pairs.

    - Criterion B: a queued pair (i, j) is dropped when head k divides its
      lcm and both lcm(i, k) and lcm(j, k) differ from it.
    - Criteria M and F: a new pair (i, k) is dropped when another new pair's
      lcm divides its lcm, properly or (among equal lcms) with a lower rank.
      A pair ranks by (heads not coprime, i), so an equal-lcm group with a
      coprime pair keeps that one.  Sorted by degree, a pair's lcm can only
      be divided by the lcm of a pair before it, and checking the survivors
      is enough, since divisibility is transitive.
    - Product criterion: a surviving pair with coprime heads is dropped; it
      still shadows the pairs above it, as in Becker & Weispfenning.
    - An element whose head is divisible by head k takes no new pairs; it
      stays a divisor.
    """
    k = len(heads) - 1
    m = heads[k]
    for (i, j), l in list(live.items()):
        if all(map(le, m, l)) and tuple(map(max, heads[i], m)) != l and tuple(map(max, heads[j], m)) != l:
            del live[i, j]
    candidates = []
    for i in active:
        l = tuple(map(max, heads[i], m))
        candidates.append((sum(l), any(map(min, heads[i], m)), i, l))
    candidates.sort()
    minimal: list[tuple[int, ...]] = []
    new: list[tuple[int, int]] = []
    for _, shared, i, l in candidates:
        if any(all(map(le, low, l)) for low in minimal):
            continue
        minimal.append(l)
        if shared:
            live[i, k] = l
            new.append((i, k))
    active[:] = [i for i in active if not all(map(le, m, heads[i]))]
    active.append(k)
    return new


def _interreduce(basis: list[tuple], guard: int) -> list[list]:
    """The reduced basis, as term lists, smallest leading monomial first."""
    # minimalize: walk in ascending leading-term order, drop anything whose
    # leading monomial an already-kept element divides (divisors sort first)
    kept: list[tuple] = []
    for g in sorted(basis, key=lambda g: -g[0]):
        if all((g[1] - h[1]) & guard for h in kept):
            kept.append(g)
    # fully reduce each survivor against the others
    out = []
    for idx, (k, m, c, tail) in enumerate(kept):
        r = _reduce([(k, m, c), *tail], kept[:idx] + kept[idx + 1:], guard)
        if r:
            out.append(_monic(r))
    out.sort(key=lambda t: -t[0][0])
    return out


def normal_form(f: Polynomial, ideal: Ideal) -> Polynomial:
    """Fully reduced remainder; zero exactly when f lies in the ideal.  The
    packed basis is kept on the ideal for the next call."""
    if ideal.basis is None or ideal.basis_order is None:
        raise ValueError("ideal has no cached Groebner basis; run buchberger first")
    if f.ring != ideal.ring:
        raise ValueError("polynomial outside the ideal's ring")

    def run(bits):
        if bits not in ideal._packed:
            packing = _Packing(ideal.basis_order, len(f.ring.variables), bits)
            ideal._packed[bits] = (packing, [_divisor(packing.terms(g)) for g in ideal.basis])
        packing, divisors = ideal._packed[bits]
        return packing.polynomial(f.ring, _reduce(packing.terms(f), divisors, packing.guard))

    return _widening(run)


def eliminate(
    ideal: Ideal,
    kill: Iterable[Var],
    max_pairs: int = DEFAULT_MAX_PAIRS,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> Ideal:
    """Generators of the ideal's intersection with the subring that omits
    `kill`, computed via a block elimination order."""
    kill = set(kill)
    order = ideal.ring.elimination_order(kill)
    gb = buchberger(ideal, order, max_pairs=max_pairs, max_degree=max_degree)
    keep = [i for i, v in enumerate(ideal.ring.variables) if v not in kill]
    small = PolyRing.of([ideal.ring.variables[i] for i in keep])
    # an element lies in the subring when its monomials keep their degree
    out = [g for g in gb.basis or () if all(sum(m) == sum([m[i] for i in keep]) for m in g.terms)]
    return Ideal.of(small, [Polynomial(small, {tuple([m[i] for i in keep]): c for m, c in g.terms.items()}) for g in out])


def intersect(
    a: Ideal,
    b: Ideal,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> Ideal:
    """Ideal intersection via the auxiliary-variable trick:
    (t*a + (1-t)*b) with t eliminated."""
    if a.ring != b.ring:
        raise ValueError("ideals live in different rings")
    t = Var("t")
    if t in a.ring.variables:
        t = Var("tt")
        if t in a.ring.variables:
            raise ValueError("no free auxiliary variable name available")
    big = a.ring.extend([t])
    tp = big.var(t)
    gens = [tp * g.transfer(big) for g in a.generators]
    gens += [(big.one() - tp) * g.transfer(big) for g in b.generators]
    return eliminate(Ideal.of(big, gens), {t}, max_pairs=max_pairs, max_degree=max_degree)


def ideal_to_text(ideal: Ideal) -> str:
    """One generator per line, terms in degrevlex order."""
    return "".join(f"{text}\n" for text in ideal.generator_texts())


def ideal_to_cas(ideal: Ideal) -> str:
    """A neutral computer-algebra script: ring declaration plus the ideal I,
    terms in degrevlex order."""
    vars_txt = ", ".join(ideal.ring.names)
    lines = [f"ring R = QQ[{vars_txt}];", f"order {DEGREVLEX};", "ideal I ="]
    if ideal.generators:
        body = ",\n".join(f"  {text}" for text in ideal.generator_texts())
        lines.append(body + ";")
    else:
        lines.append("  0;")
    return "\n".join(lines) + "\n"
