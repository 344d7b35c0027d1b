"""Independent cross-checks, run once per benchmark run outside timing.

Each check compares a `cigrid` answer with one computed by sympy:

- groebner: the reduced degrevlex basis of the three-lines minor ideal
  against `sympy.groebner`;
- rank: exact ranks of matrices the `rank` workload builds (a rigidity
  matrix, stacked secant tangents, a grid realization and its edge columns,
  a Segre Jacobian) against sympy's rank over QQ, and the mod-p shadow rank
  against its contract (never above the exact rank);
- grid-ideal: the generator text `cigrid ideal --grid` prints for the
  `construct` workload against Leibniz-expanded 4 x 4 determinants of the
  grid edges, compared after parsing with sympy.

Without sympy every check reads `skipped`, never `pass`.
"""

from __future__ import annotations

import random
import traceback
from itertools import combinations, permutations
from pathlib import Path

CHECKS = ("groebner", "rank", "grid-ideal")


def run(seed: int, work: Path) -> dict[str, str]:
    try:
        import sympy
    except ImportError:
        return dict.fromkeys(CHECKS, "skipped")
    checks = {
        "groebner": lambda: _groebner(sympy),
        "rank": lambda: _ranks(sympy, random.Random(seed)),
        "grid-ideal": lambda: _grid_ideal(sympy, work),
    }
    verdicts = {}
    for name, check in checks.items():
        try:
            verdicts[name] = "pass" if check() else "fail"
        except Exception:  # an oracle that crashes has not confirmed anything
            traceback.print_exc()
            verdicts[name] = "fail"
    return verdicts


def _to_sympy(sympy, p, symbols):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[s**e for s, e in zip(symbols, m) if e])
        for m, c in p.terms.items()
    ])


def _groebner(sympy) -> bool:
    from cigrid.ideals import buchberger
    from cigrid.verify import three_lines_fixture

    X, line_ideal, _, _, _ = three_lines_fixture()
    # sympy's grevlex ranks the first generator highest, as cigrid's degrevlex
    # ranks the first ring variable highest.
    symbols = sympy.symbols([str(v) for v in X.ring.variables])
    ours = {sympy.expand(_to_sympy(sympy, g, symbols)) for g in buchberger(line_ideal).basis}
    theirs = sympy.groebner([_to_sympy(sympy, g, symbols) for g in line_ideal.generators], *symbols, order="grevlex")
    return ours == {sympy.expand(e) for e in theirs.exprs}


def _ranks(sympy, rng: random.Random) -> bool:
    from cigrid.hypergraph import GridSpec
    from cigrid.linalg import column_submatrix, rank, rank_mod_p
    from cigrid.matroid import PolyMap, realize_grid_matroid
    from cigrid.sampling import rand_fraction
    from cigrid.secrig import random_framework, rigidity_matrix, segre_tangent_model

    stacked = []
    model = segre_tangent_model(6, 6)
    for _ in range(4):
        _, tangents = model.draw(rng)
        stacked += [list(t) for t in tangents]
    realization = realize_grid_matroid(GridSpec(k=3, l=4, s=3, t=3, d=3), rng)
    segre = PolyMap.parse((Path(__file__).parent / "inputs" / "segre3x4.map").read_text())
    jacobian = segre.jacobian_at({v: rand_fraction(rng) for v in segre.ring.variables})
    matrices = [
        rigidity_matrix(random_framework(8, 3, rng)),
        stacked,
        realization,
        column_submatrix(realization, [1, 2, 3]),
        column_submatrix(realization, [1, 4, 7]),
        jacobian,
    ]
    for m in matrices:
        exact = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m]).to_DM().rank()
        shadow = rank_mod_p(m)
        if rank(m) != exact or (shadow is not None and shadow > exact):
            return False
    return True


def _grid_ideal(sympy, work: Path) -> bool:
    from cigrid.cli import main

    k, l, s, t, d = 4, 6, 4, 4, 4
    out = work / "oracle"
    argv = ["ideal", "--grid", "--k", str(k), "--l", str(l), "--s", str(s), "--t", str(t), "--d", str(d)]
    if main([*argv, "--out", str(out)]) != 0:
        return False
    lines = (out / "generators.txt").read_text().splitlines()
    ours = {sympy.expand(sympy.sympify(line.replace("^", "**"))) for line in lines}

    # vertex (i, j) of the k x l grid is (j-1)k + i; edges are the t-subsets
    # of each row and the s-subsets of each column, here all of size d
    rows = [[(j - 1) * k + i for j in range(1, l + 1)] for i in range(1, k + 1)]
    cols = [[(j - 1) * k + i for i in range(1, k + 1)] for j in range(1, l + 1)]
    edges = {e for r in rows for e in combinations(r, t)} | {e for c in cols for e in combinations(c, s)}
    x = [[sympy.Symbol(f"x_{i}_{j}") for j in range(1, k * l + 1)] for i in range(1, d + 1)]
    expected = []
    for edge in sorted(edges):
        terms = []
        for perm in permutations(range(d)):
            inversions = sum(perm[a] > perm[b] for a in range(d) for b in range(a + 1, d))
            terms.append((-1) ** inversions * sympy.Mul(*[x[r][edge[perm[r]] - 1] for r in range(d)]))
        expected.append(sympy.Add(*terms))
    return len(ours) == len(expected) and all(e in ours or -e in ours for e in expected)
