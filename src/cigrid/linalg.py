"""Exact linear algebra over the rationals (plus a prime-field shadow).

Matrices are plain lists of lists of `Fraction` or int.  Everything here is
small dense elimination; answers are exact, never floating point.  There is
one exact elimination, the fraction-free (Bareiss) pass `_fraction_free` on
integers.  `integer_rank` and `integer_det` (and so `det`) run it as given;
`rank` runs it on the columns, `kernel_basis` on the rows, each scaled to
integers by its denominator lcm (`integer_multiple`), which keeps the rank
and the right kernel.  `certified_rank` takes it after scaling each column
once, and so do `matroid.LinearMatroid` and `hypergraph.in_variety`.

The mod-p shadow reads vectors already scaled to integers: their residues
mod p are defined for every vector, and a minor nonzero mod p is a nonzero
integer, so a mod-p rank is always a lower bound on the rank over Q.
`certified_rank` pairs that bound with checked witnesses and exact
elimination; `matroid.LinearMatroid.rank_of` pairs it with exact elimination
alone, on residues it reduced once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterable, NamedTuple, Sequence

Mat = list[list[Fraction]]

# Prime of the mod-p shadow.  A mod-p rank is a lower bound on the rank over
# Q; `certified_rank` pairs it with an upper bound from checked witnesses.
# The largest prime below 2^30: CPython stores ints in 30-bit digits
# (`sys.int_info.bits_per_digit`), so every residue is one digit and each
# `% p` of a product takes the one-digit divisor path, where 2^31 - 1 made
# every residue two digits and every reduction a long division.
SHADOW_PRIME = 2**30 - 35


def mat(rows: Sequence[Sequence]) -> Mat:
    return [[Fraction(x) for x in row] for row in rows]


def zeros(d: int, n: int) -> Mat:
    return [[Fraction(0)] * n for _ in range(d)]


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(m: Sequence[Sequence[Fraction]]) -> Mat:
    return [list(col) for col in zip(*m)] if m else []


def column_submatrix(m: Sequence[Sequence[Fraction]], cols: Iterable[int]) -> Mat:
    """Columns selected by 1-based indices, in increasing order."""
    idx = sorted(set(cols))
    return [[row[j - 1] for j in idx] for row in m]


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank: the pivots of `_fraction_free` on the columns of m, each
    scaled to integers by its denominator lcm (rank m = rank m^T)."""
    return len(_fraction_free([integer_multiple(col)[1] for col in zip(*m)])[1])


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant: each row times the lcm of its denominators
    (`integer_multiple`), the `integer_det` of those integer rows, divided by
    the product of the scales."""
    scaled = [integer_multiple(row) for row in m]
    return Fraction(integer_det([ints for _, ints in scaled]), prod(scale for scale, _ in scaled))


def _fraction_free(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) forward elimination of an integer matrix:
    (echelon rows, 0-based pivot columns, sign of the row swaps).

    The pivot in column c is the first nonzero entry at or below the current
    row, swapped up; a column with none is skipped, and the pass stops once
    every row holds a pivot.  After k pivots every entry below them is the
    (k+1)-minor on the pivot rows and columns plus its own row and column, so
    each division by the previous pivot is exact (Sylvester's identity) and
    no `Fraction` is built.  A pivot row is final from its pivot rightwards;
    the entries left of its pivot are stale.  The last pivot is the minor on
    all pivot rows and columns."""
    work = [list(row) for row in m]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    sign, prev, r = 1, 1, 0
    for c in range(ncols):
        if not work[r][c]:
            for pivot in range(r + 1, nrows):
                if work[pivot][c]:
                    break
            else:
                continue  # no pivot in this column
            work[r], work[pivot] = work[pivot], work[r]
            sign = -sign
        pivots.append(c)
        row_r, a = work[r], work[r][c]
        r += 1
        if r == nrows:
            break
        for row_i in work[r:]:
            b = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (row_i[j] * a - b * row_r[j]) // prev
        prev = a
    return work, pivots, sign


def integer_det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by `_fraction_free`
    elimination: the signed last pivot at full rank, otherwise 0 (and 1, the
    empty product, for a 0 x 0 matrix)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    rows, pivots, sign = _fraction_free(m)
    return (sign * rows[-1][-1] if n else 1) if len(pivots) == n else 0


def integer_rank(m: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix by `_fraction_free` elimination.
    Scaling rows or columns by nonzero integers keeps the rank, so a rational
    matrix scaled to integers (`integer_multiple`) has the same rank here."""
    return len(_fraction_free(m)[1])


def parallel(u: Sequence[int], v: Sequence[int]) -> bool:
    """Whether two integer 3-vectors are linearly dependent, that is, whether
    their cross product is zero: the same test as rank([u, v]) < 2."""
    return u[1] * v[2] == u[2] * v[1] and u[2] * v[0] == u[0] * v[2] and u[0] * v[1] == u[1] * v[0]


def kernel_basis(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel {v : m v = 0}: for each free column f, the
    unique kernel vector with 1 at f and 0 at the other free columns.

    Each row is scaled to integers by its denominator lcm, which keeps the
    right kernel, and eliminated by `_fraction_free`.  The pivot entries come
    by back-substitution through its echelon rows, which reads only the final
    entries right of each pivot: a pivot column c > f gets 0, so row r only
    reads columns c+1..f."""
    ncols = len(m[0]) if m else 0
    rows, pivots, _ = _fraction_free([integer_multiple(row)[1] for row in m])
    bottom_up = [*zip(rows, pivots)][::-1]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in bottom_up:
            if c < f:
                v[c] = -sum(v[j] * row[j] for j in range(c + 1, f + 1)) / row[c]
        basis.append(v)
    return basis


def rank_mod_p(m: Sequence[Sequence[Fraction]], p: int = SHADOW_PRIME) -> int:
    """Rank of the matrix with each column scaled to integers by its
    denominator lcm, reduced mod p.

    Column scaling keeps the rank over Q, so the mod-p rank never exceeds
    the exact rank; equality with the column count certifies linear
    independence over Q.
    """
    return rank_of_vectors_mod_p([vector_mod_p(col, p) for col in zip(*m)], p)


def integer_multiple(v: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the vector's denominators, and the vector times it."""
    # star-args from a list, not a generator: a generator's argument tuple is
    # shrunk to fit, and CPython keeps each freed one in its tuple cache of
    # that size (up to 2000 per size) without drawing on it again
    scale = lcm(*[x.denominator for x in v])
    return scale, [x.numerator * (scale // x.denominator) for x in v]


def vector_mod_p(v: Sequence[Fraction], p: int = SHADOW_PRIME) -> list[int]:
    """The vector times the lcm of its denominators, reduced mod p.  A
    nonzero scale changes neither ranks nor which combinations vanish, so a
    caller may reduce each vector once and eliminate on the results many
    times."""
    return [x % p for x in integer_multiple(v)[1]]


EchelonRow = tuple[int, list[int]]


def reduce_mod_p(v: Sequence[int], basis: Iterable[EchelonRow], p: int = SHADOW_PRIME) -> EchelonRow | None:
    """A vector already reduced mod p (see `vector_mod_p`), reduced against
    echelon rows (pivot position, row with entry 1 there): None when it lies
    in their span mod p, otherwise the new echelon row, pivoted at the
    remainder's first nonzero position."""
    for c, b in basis:
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, b)]
    return echelon_row(v, p)


def echelon_row(v: Sequence[int], p: int = SHADOW_PRIME) -> EchelonRow | None:
    """A remainder mod p as an echelon row: its first nonzero position, and
    the vector scaled to 1 there; None for the zero vector."""
    for c, x in enumerate(v):
        if x:
            inv = pow(x, -1, p)
            return c, [y * inv % p for y in v]
    return None


def rank_of_vectors_mod_p(vectors: Iterable[Sequence[int]], p: int = SHADOW_PRIME) -> int:
    """Rank over GF(p) of vectors already reduced mod p: each one is reduced
    against the echelon rows so far, and a nonzero remainder joins them."""
    basis: list[EchelonRow] = []
    for v in vectors:
        row = reduce_mod_p(v, basis, p)
        if row is not None:
            basis.append(row)
    return len(basis)


class CertifiedRank(NamedTuple):
    """An exact rank, and the given witnesses proved to lie in the left
    kernel (nonzero, and each checked by an exact product)."""

    rank: int
    kernel: list[Sequence[Fraction]]


def certified_rank(m: Sequence[Sequence[Fraction]], witnesses: Iterable[Sequence[Fraction]]) -> CertifiedRank:
    """Exact rank of m from two bounds, with exact elimination only where
    they differ.

    A matrix of ints is taken as it is; otherwise each column is scaled once
    to integers by its denominator lcm, which keeps the rank and the left
    kernel.  A witness w counts only after the exact integer check w.m = 0
    on those integers (w scaled by its own lcm, and zero entries of w and m
    skipped), so every counted witness lies in the left kernel.  The upper
    bound is min(rows, cols, rows - r_w), with r_w the mod-p rank of the
    counted witnesses; the lower bound is the mod-p rank of the integer
    matrix, reduced from whichever side has fewer vectors (rank m = rank
    m^T).  A mod-p rank of integer vectors never exceeds their rank over Q,
    so both bounds are sound, and when they meet that is the rank.
    Otherwise `integer_rank` of the same vectors decides."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    if all(type(x) is int for row in m for x in row):
        rows = m
    else:
        rows = list(zip(*[integer_multiple(col)[1] for col in zip(*m)]))
    nonzero = None  # each row's nonzero entries, built for the first witness
    kernel: list[Sequence[Fraction]] = []
    kernel_mod_p: list[list[int]] = []
    for w in witnesses:
        ints = integer_multiple(w)[1]
        if len(w) != nrows or not any(ints):
            continue
        if nonzero is None:
            nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
        product = [0] * ncols
        for x, row in zip(ints, nonzero):
            if x:
                for j, y in row:
                    product[j] += x * y
        if not any(product):
            kernel.append(w)
            kernel_mod_p.append([x % SHADOW_PRIME for x in ints])
    upper = min(nrows, ncols, nrows - rank_of_vectors_mod_p(kernel_mod_p))
    vectors = rows if nrows <= ncols else list(zip(*rows))
    lower = rank_of_vectors_mod_p([x % SHADOW_PRIME for x in v] for v in vectors)
    if lower == upper:
        return CertifiedRank(lower, kernel)
    return CertifiedRank(integer_rank(vectors), kernel)


def matrix_to_text(m: Sequence[Sequence[Fraction]]) -> str:
    """`d n` header, then one row of rationals per line."""
    d = len(m)
    n = len(m[0]) if m else 0
    lines = [f"{d} {n}"]
    for row in m:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def content_lines(text: str) -> list[str]:
    """The stripped lines of an input file, less blank lines and `#` comments."""
    return [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]


def matrix_from_text(text: str) -> Mat:
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2 or not all(t.isdigit() for t in header):
        raise ValueError(f"matrix file needs a `d n` header of two non-negative integers, got {lines[0]!r}")
    d, n = (int(t) for t in header)
    if d == 0:
        # a matrix with no rows keeps no trace of its n columns
        raise ValueError(f"matrix header {lines[0]!r} has d = 0 rows; a matrix file needs d >= 1")
    if len(lines) != d + 1:
        raise ValueError(f"expected {d} rows, found {len(lines) - 1}")
    misfit = "does not fit the format: a `d n` header, then one row of n rationals per line"
    rows = []
    for ln in lines[1:]:
        row = rationals(ln, f"matrix line {ln!r} {misfit}")
        if len(row) != n:
            raise ValueError(f"matrix line {ln!r} has {len(row)} entries but the header says n = {n}")
        rows.append(row)
    return rows


def rationals(line: str, error: str) -> list[Fraction]:
    """The whitespace-separated rationals of one text line; a ValueError
    with the message `error` when a token is not a rational."""
    try:
        return [Fraction(t) for t in line.split()]
    except (ValueError, ZeroDivisionError):
        raise ValueError(error) from None
