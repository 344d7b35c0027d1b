"""Ideals, a budgeted Buchberger engine, normal forms, and elimination.

The Groebner machinery is deliberately small: it targets ideals in at most a
couple dozen variables with short generator lists.  Budgets (maximum S-pairs
reduced, maximum degree touched) are hard limits; exceeding one raises
`BudgetExceeded` rather than returning anything partial.

The engine runs on monomials packed by `poly.Packing`, whose docstring holds
the layout: a product is one addition and a divisibility test one
subtraction.  Dense `Polynomial`s are packed on entry, a minor's packed keys
are read as they are, and only remainders and reduced bases are unpacked,
once, at the end; `normal_form` keeps its packed basis on the `Ideal`, and
`eliminate` and `intersect` project the packed basis.  A digit that reaches
its guard bit, on packing or in a new product term, raises `DigitOverflow`
and the computation reruns at the next of `Packing.WIDTHS`, so no digit
wraps; past 64 bits it is a `ValueError`.  Each term carries the order's
descending key, the linear function of the exponents that
`MonomialOrder.weights` defines, so the key of m * q is key(m) + key(q), and
the pair queue ranks each pair by its lcm's key.  Coefficients are `int`
while integral, else `Fraction`.  `_update` works on the packed heads and
lcms.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import count
from operator import mul
from typing import Iterable, Sequence

from .poly import DEGREVLEX, DigitOverflow, MonomialOrder, Packing, PolyRing, Polynomial, Var, _PackedPolynomial, normalize_sign
from .record import Record

DEFAULT_MAX_PAIRS = 4000
DEFAULT_MAX_DEGREE = 24


class BudgetExceeded(RuntimeError):
    """A Groebner computation hit its step or degree budget."""


class Ideal(Record):
    """Generators over a ring, with an optional cached Groebner basis."""

    _fields = ("ring", "generators", "basis", "basis_order")

    def __init__(
        self,
        ring: PolyRing,
        generators: tuple[Polynomial, ...],
        basis: tuple[Polynomial, ...] | None = None,
        basis_order: MonomialOrder | None = None,
    ):
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator outside the ideal's ring")
        # _packed: digit width -> (packing, order weights, packed basis), filled by buchberger and normal_form
        self._set(ring=ring, generators=generators, basis=basis, basis_order=basis_order, _packed={})

    @staticmethod
    def of(ring: PolyRing, generators: Iterable[Polynomial]) -> "Ideal":
        """The nonzero generators, each kept once, in first-seen order."""
        return Ideal(ring, tuple(dict.fromkeys(g for g in generators if not g.is_zero())))

    def generator_texts(self) -> list[str]:
        return [g.to_text() for g in self.generators]

    def sign_normalized_set(self) -> frozenset[Polynomial]:
        return frozenset(normalize_sign(g) for g in self.generators if not g.is_zero())


def _terms(packing: Packing, weights: list[int], f: Polynomial) -> list:
    """f's terms as (descending key, packed monomial, coefficient), largest
    monomial first.  A key field of `weights` holds the degree of any
    product of two packed monomials, so the key of an overflowed product
    equals no other key.  A minor's packed keys are read as they are: its
    degree digit flipped back and its int coefficients scaled by 1/q, and
    repacked only when its digits are of another width."""
    if isinstance(f, _PackedPolynomial):
        pairs, q, own = f._packed
        decode, size, flip = own._unpack, own.size, ((1 << own.bits) - 1) << own.top
        out = []
        for k, c in pairs:
            m = decode(k.to_bytes(size, "little"))
            mono = k ^ flip if own.bits == packing.bits else packing.pack(m)
            out.append((sum(map(mul, m, weights)), mono, c if q == 1 else _quotient(c, q)))
        return sorted(out)
    pack = packing.pack
    return sorted([(sum(map(mul, m, weights)), pack(m), c.numerator if c.denominator == 1 else c) for m, c in f.terms.items()])


def _widening(run):
    """run(bits) at each width of `Packing.WIDTHS` in turn, until no digit overflows."""
    for bits in Packing.WIDTHS:
        try:
            return run(bits)
        except DigitOverflow:
            pass
    raise ValueError(f"a monomial degree reaches 2^{bits - 1}, past the widest packed digit")


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
        raise DigitOverflow
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
                        raise DigitOverflow
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
    _check_degrees([g.total_degree() for g in gens], max_degree)
    n = len(ideal.ring.variables)

    def run(bits):
        packing, weights = Packing(n, bits), order.weights(n, bits)
        reduced = _buchberger([_terms(packing, weights, g) for g in gens], packing, weights, max_pairs, max_degree)
        unpack = packing.unpack
        out = Ideal(ideal.ring, ideal.generators, tuple(Polynomial(ideal.ring, {unpack(m): Fraction(c) for _, m, c in t}) for t in reduced), order)
        out._packed[bits] = (packing, weights, [_divisor(t) for t in reduced])
        return out

    return _widening(run)


def _check_degrees(degrees: Iterable[int], max_degree: int) -> None:
    for degree in degrees:
        if degree > max_degree:
            raise BudgetExceeded(f"generator degree {degree} exceeds budget {max_degree}")


def _buchberger(gens: list, packing: Packing, weights: list[int], max_pairs: int, max_degree: int) -> list[list]:
    """The reduced Groebner basis of the generators, each a term list of
    `_terms`, as term lists, smallest leading monomial first."""
    guard, top, unpack = packing.guard, packing.top, packing.unpack
    if any(m & guard for terms in gens for _, m, _ in terms):
        raise DigitOverflow
    # monic divisors, their packed heads, and `_update`'s state; the queue
    # is in normal selection: smallest lcm under the order (largest packed
    # key), then smallest indices, each key computed once, when the pair is
    # created
    basis, heads, active, live, queue = [], [], [], {}, []

    def join(terms: list) -> None:
        basis.append(_divisor(_monic(terms)))
        heads.append(terms[0][1])
        for i, j in _update(heads, active, live, packing):
            heapq.heappush(queue, (-sum(map(mul, unpack(live[i, j]), weights)), i, j))

    for g in gens:
        join(g)
    processed = 0
    while queue:
        neg_key, i, j = heapq.heappop(queue)
        mono = live.pop((i, j), None)
        if mono is None:  # dropped by criterion B after it was queued
            continue
        if mono >> top > max_degree:
            raise BudgetExceeded(f"S-pair degree {mono >> top} exceeds budget {max_degree}")
        processed += 1
        if processed > max_pairs:
            raise BudgetExceeded(f"S-pair budget {max_pairs} exhausted")
        # S(f, g): f times the cofactor of its head in the lcm, its head
        # cancelled by g in the reduction's first step
        key = -neg_key
        fk, fm, _, tail = basis[i]
        s_terms = [(key, mono, 1)] + [(tk + key - fk, tm + mono - fm, tc) for tk, tm, tc in tail]
        r = _reduce(s_terms, basis, guard, [basis[j]])
        if not r:
            continue
        degree = max([m >> top for _, m, _ in r])
        if degree > max_degree:
            raise BudgetExceeded(f"basis degree {degree} exceeds budget {max_degree}")
        join(r)
    return _interreduce(basis, guard)


def _update(heads: list[int], active: list[int], live: dict[tuple[int, int], int], packing: Packing) -> list[tuple[int, int]]:
    """The Gebauer-Moeller update (Gebauer & Moeller, J. Symbolic Comput. 6,
    1988) in the UPDATE form of Becker & Weispfenning, *Groebner Bases*
    (1993): the last head, k, joins.  Heads and lcms are monomials packed by
    `packing`: m divides l when l - m sets no guard bit, `Packing.lcm` is
    the per-digit max, and two heads are coprime when their lcm is their
    product, a + b.

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
    guard, top, lcm = packing.guard, packing.top, packing.lcm
    k = len(heads) - 1
    m = heads[k]
    for (i, j), l in list(live.items()):
        if not (l - m) & guard and lcm(heads[i], m) != l and lcm(heads[j], m) != l:
            del live[i, j]
    candidates = []
    for i in active:
        h = heads[i]
        l = lcm(h, m)
        candidates.append((l >> top, l != h + m, i, l))
    candidates.sort()
    minimal: list[int] = []
    new: list[tuple[int, int]] = []
    for _, shared, i, l in candidates:
        for low in minimal:
            if not (l - low) & guard:
                break
        else:
            minimal.append(l)
            if shared:
                live[i, k] = l
                new.append((i, k))
    active[:] = [i for i in active if (heads[i] - m) & guard]
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
            n = len(f.ring.variables)
            packing, weights = Packing(n, bits), ideal.basis_order.weights(n, bits)
            ideal._packed[bits] = (packing, weights, [_divisor(_terms(packing, weights, g)) for g in ideal.basis])
        packing, weights, divisors = ideal._packed[bits]
        return Polynomial(f.ring, {packing.unpack(m): Fraction(c) for _, m, c in _reduce(_terms(packing, weights, f), divisors, packing.guard)})

    return _widening(run)


def eliminate(
    ideal: Ideal,
    kill: Iterable[Var],
    max_pairs: int = DEFAULT_MAX_PAIRS,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> Ideal:
    """Generators of the ideal's intersection with the subring that omits
    `kill`, computed via a block elimination order."""
    ring, kill = ideal.ring, set(kill)
    order = ring.elimination_order(kill)
    gens = [g for g in ideal.generators if not g.is_zero()]
    _check_degrees([g.total_degree() for g in gens], max_degree)
    n = len(ring.variables)
    small = PolyRing.of([v for v in ring.variables if v not in kill])

    def run(bits):
        packing, weights = Packing(n, bits), order.weights(n, bits)
        reduced = _buchberger([_terms(packing, weights, g) for g in gens], packing, weights, max_pairs, max_degree)
        return _project(reduced, packing, [ring.position(v) for v in kill], small)

    return _widening(run)


def _project(reduced: list[list], packing: Packing, positions: list[int], small: PolyRing) -> Ideal:
    """The elements of a packed reduced basis with no digit at `positions`,
    in the subring `small` of the other variables: the zero digits are
    dropped, and each monomial is unpacked once."""
    bits = packing.bits
    drops = [((1 << (p * bits)) - 1, p * bits) for p in sorted(positions, reverse=True)]
    kill = sum(((1 << bits) - 1) << shift for _, shift in drops)
    unpack = Packing(len(small.variables), bits).unpack
    out = []
    for t in reduced:
        if any(m & kill for _, m, _ in t):
            continue
        terms = {}
        for _, m, c in t:
            for low, shift in drops:
                m = (m & low) | (m >> (shift + bits)) << shift
            terms[unpack(m)] = Fraction(c)
        out.append(Polynomial(small, terms))
    return Ideal.of(small, out)


def intersect(
    a: Ideal,
    b: Ideal,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> Ideal:
    """Ideal intersection via the auxiliary-variable trick:
    (t*a + (1-t)*b) with t eliminated, t being the first of t, tt, ttt, ...
    that the ring lacks.  The generators t*g and (1-t)*g are built in the
    engine's packing: g's packed terms with a zero digit inserted at t's
    position, plus t."""
    if a.ring != b.ring:
        raise ValueError("ideals live in different rings")
    ring = a.ring
    t = Var(next(name for name in map("t".__mul__, count(1)) if name not in ring.names))
    big = ring.extend([t])
    order, p, n = big.elimination_order({t}), big.position(t), len(ring.variables)
    a_gens = [g for g in a.generators if not g.is_zero()]
    b_gens = [g for g in b.generators if not g.is_zero()]
    _check_degrees([g.total_degree() + 1 for g in a_gens + b_gens], max_degree)

    def run(bits):
        packing, weights = Packing(n + 1, bits), order.weights(n + 1, bits)
        small, small_weights = Packing(n, bits), weights[:p] + weights[p + 1:]
        split = p * bits
        low, tk, tm = (1 << split) - 1, weights[p], 1 << split | 1 << packing.top

        def lift(g):
            return [(k, (m & low) | (m >> split) << (split + bits), c) for k, m, c in _terms(small, small_weights, g)]

        gens = [[(k + tk, m + tm, c) for k, m, c in lift(g)] for g in a_gens]
        for g in b_gens:
            terms = lift(g)
            gens.append(sorted(terms + [(k + tk, m + tm, -c) for k, m, c in terms]))
        # each generator once, as `Ideal.of` keeps it
        reduced = _buchberger(list(dict.fromkeys(map(tuple, gens))), packing, weights, max_pairs, max_degree)
        return _project(reduced, packing, [p], ring)

    return _widening(run)


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
