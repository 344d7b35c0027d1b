"""Independent oracles and fixture builders used by the test suite.

The oracles deliberately re-derive answers by routes different from the
library: permutation-sum determinants, a determinant that tracks its sign
swap by swap, kernels read off the reduced row echelon form, minor-search
ranks, monomial-order keys written out from their definitions, a naive
textbook Groebner routine on those keys with none of the library's
selection strategy or criteria, the pair update on exponent tuples,
elimination and intersection through dense polynomial arithmetic, the
circuit checks and the minimal-edge
filter written out with frozensets, the bitmask circuit-axiom check with
every pair of circuits eliminated, circuits found by an exact rank of every
subset, arrangement signatures from 3x2 and 3x3 `Fraction` ranks, full-width
exact ranks for rigidity circuits, a (2,3)-pebble game for generic rigidity
in the plane, variety membership by one exact rank per edge, the witness
draws summed as `Fraction` products of `rng.randint` values, the example
3.1 draws built in `Fraction`s from the same calls, polynomial text
rendered factor by factor from each `Var`, and flattenings read state by
state through `ProbTensor.get`.

The builders write the test-only inputs the library only ever reads: CI
statements and CI model files as text, and tensors from plain entries.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from operator import le

from cigrid.cimodel import CIStatement, DiscreteModel, ProbTensor
from cigrid.linalg import column_submatrix, rank
from cigrid.poly import DEGREVLEX, PolyRing, Polynomial, SymbolicMatrix
from cigrid import sampling
from cigrid.secrig import complete_graph_edges, rigidity_matrix


def perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def perm_minor(X: SymbolicMatrix, rows, cols) -> Polynomial:
    """Leibniz expansion of the (rows, cols) minor, fully independent of the
    library's Laplace recursion."""
    rows = sorted(rows)
    cols = sorted(cols)
    total = X.ring.zero()
    for perm in permutations(range(len(cols))):
        term = X.ring.const(perm_sign(perm))
        for r, p in zip(rows, perm):
            term = term * X.entry(r, cols[p])
        total = total + term
    return total


def det_by_permutations(m) -> Fraction:
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        prod = Fraction(perm_sign(perm))
        for i, p in enumerate(perm):
            prod *= m[i][p]
        total += prod
    return total


def rank_by_minors(m) -> int:
    """Largest r such that some r x r submatrix has nonzero determinant."""
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    for r in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), r):
            for cols in combinations(range(ncols), r):
                sub = [[m[i][j] for j in cols] for i in rows]
                if det_by_permutations(sub) != 0:
                    return r
    return 0


def swap_tracking_det(m) -> Fraction:
    """Determinant by a square elimination of its own: the sign flips at each
    row swap and the product of pivots accumulates column by column."""
    work = [list(row) for row in m]
    n = len(work)
    if any(len(row) != n for row in work):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            sign = -sign
        result *= work[c][c]
        inv = Fraction(1) / work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] * inv
            if f:
                for j in range(c, n):
                    work[i][j] -= f * work[c][j]
    return sign * result


def rref_kernel_basis(m) -> list[list[Fraction]]:
    """Right-kernel basis read off the reduced row echelon form (each pivot
    scaled to 1 and cleared above and below): for free column f, 1 at f and
    minus column f of the reduced rows at the pivot columns."""
    if not m:
        return []
    work = [list(row) for row in m]
    nrows, ncols = len(work), len(work[0])
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = Fraction(1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -work[r][f]
        basis.append(v)
    return basis


def reference_key(order, exps):
    """The monomial-order keys written out directly from their definitions."""
    if order.kind == "lex":
        return exps
    if order.kind == "degrevlex":
        return (sum(exps), tuple(-e for e in reversed(exps)))
    return tuple(
        (sum(exps[p] for p in blk), tuple(-exps[p] for p in reversed(blk))) for blk in order.blocks
    )


# Both memos are keyed by identity, so nothing is hashed but the monomials;
# each entry keeps what its ids name alive, so no id is reused.
_KEYS: dict = {}  # id(order) -> (order, {monomial: reference key})
_LEADING: dict = {}  # (id(f), id(order)) -> (f, order, leading term)


def _reference_lead(f: Polynomial, order) -> tuple[tuple[int, ...], Fraction]:
    """f's leading term under `reference_key`, each key memoized per (order,
    monomial): most monomials of a division step are those of the step
    before."""
    entry = _KEYS.get(id(order))
    if entry is None:
        entry = _KEYS[id(order)] = (order, {})
    keys = entry[1]
    for m in f.terms:
        if m not in keys:
            keys[m] = reference_key(order, m)
    m = max(f.terms, key=keys.__getitem__)
    return m, f.terms[m]


def reference_leading(f: Polynomial, order) -> tuple[tuple[int, ...], Fraction]:
    """`_reference_lead` memoized per (polynomial, order), for the divisors
    and basis elements that the oracles below ask about again and again."""
    hit = _LEADING.get((id(f), id(order)))
    if hit is None:
        if len(_LEADING) >= 4096:
            _LEADING.clear()
        hit = _LEADING[id(f), id(order)] = (f, order, _reference_lead(f, order))
    return hit[2]


def naive_division(f: Polynomial, divisors, order=DEGREVLEX) -> Polynomial:
    """Textbook multivariate division, written without reusing the library's
    reducer internals."""
    rem = f.ring.zero()
    p = f
    heads = [(g, *reference_leading(g, order)) for g in divisors]
    while not p.is_zero():
        m, c = _reference_lead(p, order)
        reduced = False
        for g, gm, gc in heads:
            if all(map(le, gm, m)):
                quot_mono = tuple(b - a for a, b in zip(gm, m))
                q = Polynomial(f.ring, {quot_mono: c / gc})
                p = p - q * g
                reduced = True
                break
        if not reduced:
            head = Polynomial(f.ring, {m: c})
            rem = rem + head
            p = p - head
    return rem


def naive_s_poly(f: Polynomial, g: Polynomial, order=DEGREVLEX) -> Polynomial:
    fm, fc = reference_leading(f, order)
    gm, gc = reference_leading(g, order)
    l = tuple(max(a, b) for a, b in zip(fm, gm))
    qf = Polynomial(f.ring, {tuple(b - a for a, b in zip(fm, l)): 1 / fc})
    qg = Polynomial(f.ring, {tuple(b - a for a, b in zip(gm, l)): 1 / gc})
    return qf * f - qg * g


def naive_groebner(gens, order=DEGREVLEX, cap: int = 200):
    """Unoptimized Buchberger: no criteria, first-come pair processing."""
    basis = [g for g in gens if not g.is_zero()]
    queue = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    steps = 0
    while queue:
        steps += 1
        if steps > cap:
            raise RuntimeError("oracle cap exceeded")
        i, j = queue.pop(0)
        r = naive_division(naive_s_poly(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            basis.append(r)
            k = len(basis) - 1
            queue.extend((i2, k) for i2 in range(k))
    return basis


def naive_reduced_groebner(gens, order=DEGREVLEX, cap: int = 200) -> set[Polynomial]:
    """The reduced basis from `naive_groebner`: keep each element whose head
    no kept head divides (divisors have lower degree, so visit by degree),
    reduce each survivor by the others, and scale it to leading coefficient 1."""
    basis = sorted(naive_groebner(gens, order, cap), key=lambda g: sum(reference_leading(g, order)[0]))
    kept = []
    for g in basis:
        gm = reference_leading(g, order)[0]
        if not any(all(a <= b for a, b in zip(reference_leading(h, order)[0], gm)) for h in kept):
            kept.append(g)
    out = set()
    for idx, g in enumerate(kept):
        r = naive_division(g, kept[:idx] + kept[idx + 1:], order)
        out.add(r.scale(1 / reference_leading(r, order)[1]))
    return out


def tuple_update(heads, active, live):
    """The Gebauer-Moeller pair update on exponent tuples: head k, the last,
    joins; `live` maps each queued pair to its lcm tuple.  Criterion B drops
    a queued pair whose lcm head k divides unless lcm(i, k) or lcm(j, k) is
    that lcm; candidates sort by (degree, heads not coprime, i), and one
    whose lcm a kept candidate's lcm divides is dropped (M and F); kept
    coprime candidates take no pair (product criterion); an element whose
    head head k divides leaves `active`.  Returns the new pairs."""
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
    minimal = []
    new = []
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


def reference_eliminate(ideal, kill, **budgets):
    """Elimination through dense polynomials: `buchberger` under the block
    order, then the basis elements whose monomials keep their degree on the
    other variables, projected term by term."""
    from cigrid.ideals import Ideal, buchberger

    kill = set(kill)
    gb = buchberger(ideal, ideal.ring.elimination_order(kill), **budgets)
    keep = [i for i, v in enumerate(ideal.ring.variables) if v not in kill]
    small = PolyRing.of([ideal.ring.variables[i] for i in keep])
    out = [g for g in gb.basis if all(sum(m) == sum(m[i] for i in keep) for m in g.terms)]
    return Ideal.of(small, [Polynomial(small, {tuple(m[i] for i in keep): c for m, c in g.terms.items()}) for g in out])


def reference_intersect(a, b, t, **budgets):
    """(t*a + (1-t)*b) with t eliminated, every generator built by
    `Polynomial` arithmetic after moving it into the ring with t."""
    from cigrid.ideals import Ideal

    big = a.ring.extend([t])
    tp = big.var(t)
    gens = [tp * g.rename({}, big) for g in a.generators]
    gens += [(big.one() - tp) * g.rename({}, big) for g in b.generators]
    return reference_eliminate(Ideal.of(big, gens), {t}, **budgets)


def naive_evaluate(f: Polynomial, point) -> Fraction:
    """Term-by-term `Fraction` evaluation; a missing variable is a KeyError."""
    total = Fraction(0)
    for m, c in f.terms.items():
        term = Fraction(c)
        for v, e in zip(f.ring.variables, m):
            if e:
                term *= Fraction(point[v]) ** e
        total += term
    return total


def reference_to_text(f: Polynomial) -> str:
    """Terms in decreasing degrevlex order, each coefficient's magnitude from
    `abs` and each factor from `str` of its `Var`."""
    if not f.terms:
        return "0"
    parts: list[str] = []
    for m in sorted(f.terms, key=lambda m: reference_key(DEGREVLEX, m), reverse=True):
        c = f.terms[m]
        factors = [str(f.ring.variables[i]) + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = " * ".join(factors)
        else:
            body = " * ".join([str(mag)] + factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def random_polynomial(rng: random.Random, ring, max_terms=4, max_exp=3, bound=20) -> Polynomial:
    terms = {}
    width = len(ring.variables)
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) if rng.random() < 0.5 else 0 for _ in range(width))
        coeff = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if coeff:
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Polynomial(ring, {m: c for m, c in terms.items() if c})


def frozenset_is_circuit_family(n: int, family) -> bool:
    """The circuit axioms checked pair by pair over frozensets: no empty
    circuit, no duplicates, antichain, and circuit elimination."""
    if n > 14:
        raise ValueError("circuit-axiom checking is capped at 14 elements")
    circuits = [frozenset(c) for c in family]
    if len(set(circuits)) != len(circuits):
        return False
    if any(not c or min(c) < 1 or max(c) > n for c in circuits):
        return False
    if any(c1 != c2 and c1 <= c2 for c1 in circuits for c2 in circuits):
        return False
    for i, c1 in enumerate(circuits):
        for c2 in circuits[i + 1:]:
            for e in c1 & c2:
                rest = (c1 | c2) - {e}
                if not any(c3 <= rest for c3 in circuits):
                    return False
    return True


def all_pairs_is_circuit_family(n: int, family) -> bool:
    """The bitmask circuit-axiom check that pairs every two circuits through
    each element in the elimination axiom, whatever their sizes."""
    if n > 14:
        raise ValueError("circuit-axiom checking is capped at 14 elements")
    circuits = [frozenset(c) for c in family]
    if len(set(circuits)) != len(circuits):
        return False
    if any(not c or min(c) < 1 or max(c) > n for c in circuits):
        return False
    masks = [sum(1 << (e - 1) for e in c) for c in circuits]
    bits = [1 << i for i in range(n)]
    contains_a_circuit = bytearray(1 << n)
    for mask in masks:
        contains_a_circuit[mask] = 1
    for mask in range(1, 1 << n):
        if not contains_a_circuit[mask] and any(contains_a_circuit[mask ^ b] for b in bits if mask & b):
            contains_a_circuit[mask] = 1
    if any(contains_a_circuit[mask ^ b] for mask in masks for b in bits if mask & b):
        return False
    for b in bits:
        through = [mask for mask in masks if mask & b]
        for i, c1 in enumerate(through):
            if not all(contains_a_circuit[(c1 | c2) ^ b] for c2 in through[i + 1:]):
                return False
    return True


def quadratic_minimal_edges(edges) -> tuple[frozenset[int], ...]:
    """Inclusion-minimal nonempty members of a set family, each compared
    with every other, in (size, sorted) order."""
    sets = {frozenset(e) for e in edges} - {frozenset()}
    minimal = [e for e in sets if not any(f < e for f in sets)]
    return tuple(sorted(minimal, key=lambda e: (len(e), sorted(e))))


def brute_force_circuits(m) -> tuple[frozenset[int], ...]:
    """Minimal dependent column sets of a matrix (labels 1..n): an exact rank
    of every column subset, then the dependent sets with no dependent proper
    subset, in (size, sorted) order."""
    n = len(m[0]) if m else 0
    dependent = [
        frozenset(c)
        for size in range(1, n + 1)
        for c in combinations(range(1, n + 1), size)
        if rank(column_submatrix(m, c)) < size
    ]
    return tuple(c for c in dependent if not any(d < c for d in dependent))


def rank_arrangement_signature(m) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """(points, lines, line sizes, multipoint degrees) of the columns of a
    3 x n matrix by exact `Fraction` ranks: a nonzero column is a new point
    unless a 3x2 rank with an earlier point is 1, and the line through two
    points holds every point whose 3x3 rank with them is 2."""
    cols = [list(col) for col in zip(*m)]
    reps: list[list[Fraction]] = []
    for col in cols:
        if any(col) and not any(rank([[p[r], col[r]] for r in range(3)]) == 1 for p in reps):
            reps.append(col)
    lines = set()
    for a, b in combinations(range(len(reps)), 2):
        if rank([[reps[a][r], reps[b][r]] for r in range(3)]) != 2:
            continue
        flat = frozenset(
            c for c in range(len(reps)) if rank([[reps[a][r], reps[b][r], reps[c][r]] for r in range(3)]) == 2
        )
        if len(flat) >= 3:
            lines.add(flat)
    degree = [sum(1 for ln in lines if p in ln) for p in range(len(reps))]
    multi = tuple(sorted((d for d in degree if d >= 2), reverse=True))
    return len(reps), len(lines), tuple(sorted((len(ln) for ln in lines), reverse=True)), multi


def in_variety_by_edges(H, X) -> bool:
    """Variety membership written out: every edge's column submatrix has an
    exact rank below the edge's size."""
    return all(rank(column_submatrix(X, e)) < len(e) for e in H.edges)


def fraction_mixture_matrix(rng: random.Random, m: int, n: int, k: int):
    """The mixture draw as `Fraction` products: simplex points lam, then a_t
    and b_t for each t, each as integer weights over their sum, and
    entry (i, j) accumulated as sum_t lam_t * a_t[i] * b_t[j]."""

    def simplex(size):
        weights = [rng.randint(1, sampling.DEFAULT_BOUND) for _ in range(size)]
        total = sum(weights)
        return [Fraction(w, total) for w in weights]

    lam = simplex(k)
    out = [[Fraction(0)] * n for _ in range(m)]
    for t in range(k):
        a = simplex(m)
        b = simplex(n)
        for i in range(m):
            for j in range(n):
                out[i][j] += lam[t] * a[i] * b[j]
    return out


def rational_rows(den: int, rows) -> list[list[Fraction]]:
    """Integer numerators over one denominator, as `Fraction`s."""
    return [[Fraction(x, den) for x in row] for row in rows]


def rational_tensor(den: int, P: ProbTensor) -> ProbTensor:
    """A tensor of integer numerators over one denominator, as `Fraction`s."""
    return ProbTensor(P.names, P.shape, tuple(Fraction(x, den) for x in P.entries))


def randint_fraction(rng: random.Random) -> Fraction:
    """A random rational from two `rng.randint` calls, numerator first, with
    the library's bound read at call time: the stream the library's draws
    must reproduce from the rng's bits."""
    bound = sampling.DEFAULT_BOUND
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def randint_nonzero_fraction(rng: random.Random) -> Fraction:
    while True:
        x = randint_fraction(rng)
        if x:
            return x


def randint_matrix(rng: random.Random, d: int, n: int) -> list[list[Fraction]]:
    return [[randint_fraction(rng) for _ in range(n)] for _ in range(d)]


def fraction_bounded_rank_draw(rng: random.Random, d: int, n: int, r: int):
    """A d x n draw of rank at most r: random d x r and r x n factors and
    their product summed as `Fraction` products."""
    left = randint_matrix(rng, d, r)
    right = randint_matrix(rng, r, n)
    return [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(n)] for i in range(d)]


def fraction_loop_draw(rng: random.Random):
    """The loop-component draw as `Fraction`s: a random 3 x 7 matrix with
    its first column set to zero."""
    m = randint_matrix(rng, 3, 7)
    for row in m:
        row[0] = Fraction(0)
    return m


def fraction_concurrent_lines_draw(rng: random.Random):
    """The concurrent-lines draw as `Fraction`s: an apex and three
    directions, redrawn while the apex is zero or two of the four are
    parallel (a 3 x 2 rank below 2), then columns a * apex + b * d, two per
    direction, after the apex column."""
    while True:
        apex = [randint_fraction(rng) for _ in range(3)]
        dirs = [[randint_fraction(rng) for _ in range(3)] for _ in range(3)]
        if not any(apex):
            continue
        vectors = [apex] + dirs
        if any(rank([u, v]) < 2 for u, v in combinations(vectors, 2)):
            continue
        cols = [apex]
        for d in dirs:
            for _ in range(2):
                a = randint_nonzero_fraction(rng)
                b = randint_nonzero_fraction(rng)
                cols.append([a * apex[r] + b * d[r] for r in range(3)])
        return [[col[r] for col in cols] for r in range(3)]


def statement_text(stmt: CIStatement, model: DiscreteModel | None = None) -> str:
    """`A _||_ B | C`, with hidden variables of the model marked by `*`."""
    def mark(name: str) -> str:
        return name + "*" if model is not None and model.get(name).hidden else name

    left, right, cond = (" ".join(mark(n) for n in group) for group in (stmt.a, stmt.b, stmt.c))
    return f"{left} _||_ {right}" + (f" | {cond}" if stmt.c else "")


def ci_file_text(model: DiscreteModel, statements) -> str:
    """A CI model file: the variable declarations, then one statement a line."""
    decl = " ".join(f"{v.name}{'*' if v.hidden else ''}={v.card}" for v in model.variables)
    body = "\n".join(statement_text(stmt, model) for stmt in statements)
    return decl + "\n" + body + ("\n" if body else "")


def tensor_of(names, shape, entries) -> ProbTensor:
    return ProbTensor(tuple(names), tuple(shape), tuple(Fraction(x) for x in entries))


def state_flatten(P: ProbTensor, rows, cols, summed=()) -> list[list[Fraction]]:
    """Each flattening entry as a `Fraction` sum of `P.get` over the summed
    states, every joint state assembled coordinate by coordinate."""
    card = dict(zip(P.names, P.shape))
    groups = [[n for n in P.names if n in group] for group in (rows, cols, summed)]
    states = [list(product(*(range(1, card[n] + 1) for n in names))) for names in groups]
    out = []
    for rs in states[0]:
        line = []
        for cs in states[1]:
            total = Fraction(0)
            for zs in states[2]:
                joint = dict(zip(groups[0], rs)) | dict(zip(groups[1], cs)) | dict(zip(groups[2], zs))
                total += P.get([joint[n] for n in P.names])
            line.append(total)
        out.append(line)
    return out


def full_width_subgraph_circuits(fw, size: int) -> tuple[bool, str]:
    """Complete-subgraph circuit test on whole rigidity-matrix rows: one exact
    rank for the edge set and one for each one-smaller subset."""
    R = rigidity_matrix(fw)
    index = {e: i for i, e in enumerate(complete_graph_edges(fw.n))}
    for verts in combinations(range(1, fw.n + 1), size):
        rows = [R[index[e]] for e in combinations(verts, 2)]
        if rank(rows) >= len(rows):
            return False, f"edge set of vertices {verts} is independent"
        for drop in range(len(rows)):
            kept = rows[:drop] + rows[drop + 1:]
            if rank(kept) < len(kept):
                return False, f"proper subset of the {verts} edge set is dependent"
    return True, ""


def pebble_game_rank(n: int, edges) -> int:
    """Size of a maximal (2,3)-sparse subset of the edges on vertices 1..n,
    the rank of the generic 2-dimensional rigidity matroid (Laman 1970), by
    the pebble game of Jacobs and Hendrickson (1997).

    Each vertex starts with two pebbles.  An edge is accepted when four
    pebbles can be gathered on its endpoints; one of them then covers it,
    and the edge is directed away from the endpoint that gave it."""
    pebbles = [2] * (n + 1)
    heads: list[list[int]] = [[] for _ in range(n + 1)]

    def fetch(root: int, other: int) -> bool:
        # Depth-first search along directed edges for a free pebble away from
        # both endpoints; reversing the path brings that pebble to `root`.
        parent = {root: root, other: other}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in heads[x]:
                if y in parent:
                    continue
                parent[y] = x
                if pebbles[y]:
                    pebbles[y] -= 1
                    pebbles[root] += 1
                    while y != root:
                        x = parent[y]
                        heads[x].remove(y)
                        heads[y].append(x)
                        y = x
                    return True
                stack.append(y)
        return False

    accepted = 0
    for u, v in edges:
        while pebbles[u] + pebbles[v] < 4:
            if not (pebbles[u] < 2 and fetch(u, v)) and not (pebbles[v] < 2 and fetch(v, u)):
                break
        if pebbles[u] + pebbles[v] == 4:
            pebbles[u] -= 1
            heads[u].append(v)
            accepted += 1
    return accepted
