"""Ideals, a budgeted Buchberger engine, normal forms, and elimination.

The Groebner machinery is deliberately small: it targets ideals in at most a
couple dozen variables with short generator lists.  Budgets (maximum S-pairs
reduced, maximum degree touched) are hard limits; exceeding one raises
`BudgetExceeded` rather than returning anything partial.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, Sequence

from .poly import DEGREVLEX, MonomialOrder, PolyRing, Polynomial, Var, normalize_sign

DEFAULT_MAX_PAIRS = 4000
DEFAULT_MAX_DEGREE = 24


class BudgetExceeded(RuntimeError):
    """A Groebner computation hit its step or degree budget."""


@dataclass(frozen=True)
class Ideal:
    """Generators over a ring, with an optional cached Groebner basis."""

    ring: PolyRing
    generators: tuple[Polynomial, ...]
    basis: tuple[Polynomial, ...] | None = None
    basis_order: MonomialOrder | None = None

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


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(le, a, b))


def _mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def _mono_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(sub, a, b))


def _mono_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def _term_times(f: Polynomial, mono: tuple[int, ...], coeff: Fraction) -> Polynomial:
    return Polynomial(f.ring, {_mono_mul(m, mono): c * coeff for m, c in f.terms.items()})


def reduce_poly(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Fully reduced remainder of f modulo the basis (multivariate division).

    Heap division (Monagan & Pearce, CASC 2007): the pending terms live in a
    dict, and a min-heap of descending keys yields the largest pending
    monomial.  Each step cancels that monomial with the first basis element
    whose leading monomial divides it, or moves it to the remainder.  Every
    monomial a step adds is smaller than the one it cancels, so a monomial
    that leaves the dict never comes back; heap entries whose monomial
    cancelled to zero are skipped when popped.
    """
    if not basis:
        return f
    divisors = [(*g.leading(order), g.terms) for g in basis]
    key = order.descending_key
    work = dict(f.terms)
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict[tuple[int, ...], Fraction] = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for gm, gc, gterms in divisors:
            if _divides(gm, m):
                q = _mono_div(m, gm)
                scale = -c / gc
                for tm, tc in gterms.items():
                    if tm == gm:
                        continue
                    tm = _mono_mul(tm, q)
                    old = work.get(tm)
                    if old is None:
                        work[tm] = scale * tc
                        heapq.heappush(heap, (key(tm), tm))
                    else:
                        s = old + scale * tc
                        if s:
                            work[tm] = s
                        else:
                            del work[tm]
                break
        else:
            remainder[m] = c
    return Polynomial(f.ring, remainder)


def _s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    fm, fc = f.leading(order)
    gm, gc = g.leading(order)
    l = _mono_lcm(fm, gm)
    return _term_times(f, _mono_div(l, fm), 1 / fc) - _term_times(g, _mono_div(l, gm), 1 / gc)


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
    basis: list[Polynomial] = []
    heads: list[tuple[int, ...]] = []
    active: list[int] = []
    live: dict[tuple[int, int], tuple[int, ...]] = {}
    # normal selection: smallest lcm under the order, then smallest indices;
    # each pair's key is computed once, when the pair is created
    queue: list[tuple] = []

    def join(f: Polynomial) -> None:
        m, c = f.leading(order)
        basis.append(f.scale(1 / c))
        heads.append(m)
        for i, j in _update(heads, active, live):
            heapq.heappush(queue, (order.key(live[i, j]), i, j))

    for g in gens:
        join(g)
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
        r = reduce_poly(_s_polynomial(basis[i], basis[j], order), basis, order)
        if r.is_zero():
            continue
        if r.total_degree() > max_degree:
            raise BudgetExceeded(f"basis degree {r.total_degree()} exceeds budget {max_degree}")
        join(r)

    reduced = _interreduce(basis, order)
    return Ideal(ideal.ring, ideal.generators, tuple(reduced), order)


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
      stays a divisor for `reduce_poly`.
    """
    k = len(heads) - 1
    m = heads[k]
    for (i, j), l in list(live.items()):
        if _divides(m, l) and _mono_lcm(heads[i], m) != l and _mono_lcm(heads[j], m) != l:
            del live[i, j]
    candidates = []
    for i in active:
        l = _mono_lcm(heads[i], m)
        candidates.append((sum(l), l != _mono_mul(heads[i], m), i, l))
    candidates.sort()
    minimal: list[tuple[int, ...]] = []
    new: list[tuple[int, int]] = []
    for _, shared, i, l in candidates:
        if any(_divides(low, l) for low in minimal):
            continue
        minimal.append(l)
        if shared:
            live[i, k] = l
            new.append((i, k))
    active[:] = [i for i in active if not _divides(m, heads[i])]
    active.append(k)
    return new


def _interreduce(basis: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    # minimalize: walk in ascending leading-term order, drop anything whose
    # leading monomial an already-kept element divides (divisors sort first)
    basis = sorted((g for g in basis if not g.is_zero()), key=lambda g: order.key(g.leading(order)[0]))
    kept: list[Polynomial] = []
    for g in basis:
        gm = g.leading(order)[0]
        if any(_divides(h.leading(order)[0], gm) for h in kept):
            continue
        kept.append(g)
    # fully reduce each survivor against the others
    out: list[Polynomial] = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        r = reduce_poly(g, others, order) if others else g
        if not r.is_zero():
            _, c = r.leading(order)
            out.append(r.scale(1 / c))
    out.sort(key=lambda g: order.key(g.leading(order)[0]))
    return out


def normal_form(f: Polynomial, ideal: Ideal) -> Polynomial:
    """Fully reduced remainder; zero exactly when f lies in the ideal."""
    if ideal.basis is None or ideal.basis_order is None:
        raise ValueError("ideal has no cached Groebner basis; run buchberger first")
    if f.ring != ideal.ring:
        raise ValueError("polynomial outside the ideal's ring")
    return reduce_poly(f, ideal.basis, ideal.basis_order)


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
    keep = [v for v in ideal.ring.variables if v not in kill]
    small = PolyRing.of(keep) if keep else PolyRing(())
    out = []
    for g in gb.basis or ():
        if all(v not in kill for v in g.support()):
            out.append(g.transfer(small))
    return Ideal.of(small, out)


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
