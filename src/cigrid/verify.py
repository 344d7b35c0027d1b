"""Exact sampling witnesses and containment checks for the decomposition,
realizability, intersection-axiom, rigidity, and secant-dimension claims.

Each campaign is the triple (symbolic containment, exact vanishing witnesses,
exact separation witnesses); full symbolic reverse containments are attempted
under an explicit Groebner budget and reported as verified or inconclusive,
never silently assumed.  All randomness derives from the report seed.

A campaign's fixed inputs are built once per process by a bounded
`lru_cache`d fixture, keyed by its spec: `three_lines_fixture`,
`rank_two_fixture` and `intersection_fixture` hold the generators (with
their compiled evaluation plans) and run their grading and membership checks
when they build, and theorem32 reads the cached `grid_circuit_family`.
Inputs only, never verdicts: no Groebner basis, intersection, rank or
anything computed from a draw is cached, so every call still draws,
evaluates and tallies afresh.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .cimodel import CIStatement, DiscreteModel, ci_ideal, ci_minor_membership, flatten, mixture_parametrization_sample, tensor_assignment
from .hypergraph import (
    GridSpec,
    Hypergraph,
    grid_ci_correspondence,
    grid_hypergraph,
    hypergraph_ideal,
    in_variety,
)
from .ideals import DEFAULT_MAX_DEGREE, DEFAULT_MAX_PAIRS, BudgetExceeded, Ideal, buchberger, intersect, normal_form
from .linalg import Mat, integer_rank, parallel, rank
from . import matroid
from .matroid import (
    grid_circuit_family,
    is_circuit_family,
    matroid_from_matrix,
    realize_grid_matroid,
)
from .poly import Polynomial, Rat, SymbolicMatrix, generic_matrix, minor, require_homogeneous
from .report import INCONCLUSIVE, CheckResult, WitnessReport
from .sampling import GenericityError, child_rng, common_denominator, rand_fraction_pairs
from .secrig import expected_secant_dimension, generic_rigidity_check, secant_dimension, segre_tangent_model

GRID_REALIZATION_ATTEMPTS = 3


class ScaledMatrix(NamedTuple):
    """The exact matrix with entries values[i][j] / (row_scales[i] * col_scales[j]).

    Scaling rows and columns by nonzero numbers keeps the rank of every
    column subset, and a polynomial homogeneous in each row's and each
    column's variables (`require_homogeneous`) vanishes at the matrix exactly
    when it vanishes at `values`.  So tests of a draw run on `values`, in
    integers when they are integers; only a logged draw is made rational."""

    values: Sequence[Sequence[Rat]]
    row_scales: Sequence[int]
    col_scales: Sequence[int]

    def rational(self) -> Mat:
        return [
            [Fraction(x, r * c) for x, c in zip(row, self.col_scales)]
            for row, r in zip(self.values, self.row_scales)
        ]


class ComponentSampler(NamedTuple):
    """Named procedure drawing exact matrices on a prescribed component."""

    name: str
    draw: Callable[[random.Random], ScaledMatrix]


# -- fixtures -------------------------------------------------------------------


@lru_cache(maxsize=1)
def three_lines_fixture():
    """The seven-point configuration with collinear triples {1,2,3}, {1,4,5},
    {1,6,7}: its minor ideal, the loop component, and the concurrent-lines
    component with its degree-six generator.  The draws are scaled matrices,
    tested on their integer values, so the build checks that every generator
    is homogeneous in each row's and each column's variables."""
    X = generic_matrix(3, 7)
    memo: dict = {}
    m123 = minor(X, [1, 2, 3], [1, 2, 3], memo)
    m145 = minor(X, [1, 2, 3], [1, 4, 5], memo)
    m167 = minor(X, [1, 2, 3], [1, 6, 7], memo)
    deg6 = minor(X, [1, 2, 3], [2, 3, 4], memo) * minor(X, [1, 2, 3], [5, 6, 7], memo) - minor(
        X, [1, 2, 3], [2, 3, 5], memo
    ) * minor(X, [1, 2, 3], [4, 6, 7], memo)
    line_minors = (m123, m145, m167)
    loop_ideal = Ideal.of(X.ring, [X.entry(1, 1), X.entry(2, 1), X.entry(3, 1)])
    lines_ideal = Ideal.of(X.ring, line_minors + (deg6,))
    require_homogeneous(loop_ideal.generators + lines_ideal.generators, X.row_and_column_variables())
    return X, Ideal.of(X.ring, line_minors), loop_ideal, lines_ideal, deg6


@lru_cache(maxsize=1)
def rank_two_fixture() -> tuple[Hypergraph, Ideal, SymbolicMatrix]:
    """The twelve-vertex triple system, its ideal of 3-minors, and the
    generic 3 x 12 matrix whose minors they are.  The draws are scaled
    matrices, tested on their integer values, so the build checks that every
    minor is homogeneous in each row's and each column's variables."""
    H = twelve_vertex_triple_system()
    ideal = hypergraph_ideal(H, 3)
    X = generic_matrix(3, H.n)
    require_homogeneous(ideal.generators, X.row_and_column_variables())
    return H, ideal, X


@lru_cache(maxsize=4)
def intersection_fixture(spec: GridSpec) -> tuple[DiscreteModel, Ideal, CIStatement, int]:
    """The grid instance's model, its premise CI ideal, the conclusion
    statement X _||_ (Y1, Y2) | H2, and how many premise generators are
    minors of the conclusion's flattening.  The draws are integer numerators
    over one denominator, so the build checks that the premise is
    homogeneous."""
    model, statements = grid_ci_correspondence(spec)
    premise = ci_ideal(statements, model)
    require_homogeneous(premise.generators, [premise.ring.variables])
    conclusion_stmt = CIStatement(("X",), ("Y1", "Y2"), ("H2",))
    inside = sum(map(ci_minor_membership(conclusion_stmt, model), premise.generators))
    return model, premise, conclusion_stmt, inside


def twelve_vertex_triple_system() -> Hypergraph:
    """Sixteen triples on twelve vertices: the four column triples of a 3 x 4
    grid plus all triples inside each of its three four-element rows."""
    edges = [
        {1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12},
        {1, 4, 7}, {10, 1, 4}, {10, 4, 7}, {10, 1, 7},
        {2, 5, 8}, {11, 5, 8}, {11, 2, 8}, {11, 2, 5},
        {3, 6, 9}, {12, 6, 9}, {12, 3, 9}, {12, 3, 6},
    ]
    return Hypergraph.of(12, edges)


def sampler_loop_component() -> ComponentSampler:
    """First column zero, remaining six columns random rational.

    The 3 x 7 rationals are drawn as pairs (`rand_fraction_pairs`), the
    first of each row discarded, and each row's six scaled to integers by
    the lcm of their denominators (`common_denominator`), which is that
    row's scale."""

    def draw(rng: random.Random) -> ScaledMatrix:
        pairs = rand_fraction_pairs(rng, 21)
        rows = [common_denominator(pairs[i + 1 : i + 7]) for i in (0, 7, 14)]
        return ScaledMatrix([[0] + ints for _, ints in rows], [scale for scale, _ in rows], [1] * 7)

    return ComponentSampler("loop-component", draw)


def sampler_concurrent_lines() -> ComponentSampler:
    """An apex point and two further points on each of three lines through
    it; degenerate draws (zero apex, parallel directions) are resampled.

    In integers, the apex is p / s_apex and a direction q / s_d
    (`common_denominator` of its drawn pairs), and a point a * apex + b * d
    on its line, with nonzero a, b = (k_a, k_b) / l, is the column
    k_a s_d p + k_b s_apex q over the scale l s_apex s_d."""

    def draw(rng: random.Random) -> ScaledMatrix:
        while True:
            pairs = rand_fraction_pairs(rng, 12)
            s_apex, p = common_denominator(pairs[:3])
            ds = [common_denominator(pairs[i : i + 3]) for i in (3, 6, 9)]
            if not any(p) or any(parallel(u, v) for u, v in combinations([p] + [q for _, q in ds], 2)):
                continue
            coeffs = rand_fraction_pairs(rng, 12, nonzero=True)
            cols, scales = [p], [s_apex]
            for i, (s_d, q) in enumerate(ds):
                for j in (4 * i, 4 * i + 2):
                    l, (ka, kb) = common_denominator(coeffs[j : j + 2])
                    cols.append([ka * s_d * x + kb * s_apex * y for x, y in zip(p, q)])
                    scales.append(l * s_apex * s_d)
            return ScaledMatrix([list(row) for row in zip(*cols)], [1] * 3, scales)

    return ComponentSampler("concurrent-lines", draw)


def sampler_bounded_rank(d: int, n: int, r: int, name: str | None = None) -> ComponentSampler:
    """Random d x n matrices of rank at most r, drawn as a product of random
    d x r and r x n rational factors L and R.

    Each row of L and each column of R is scaled to integers by the lcm of
    its denominators (`common_denominator` of its drawn pairs), so the draw
    is the integer product N = L'R' with row scales r_i and column scales
    c_j: (LR)_ij = N_ij / (r_i c_j)."""

    def draw(rng: random.Random) -> ScaledMatrix:
        pairs = rand_fraction_pairs(rng, d * r + r * n)
        left = [common_denominator(pairs[i * r : i * r + r]) for i in range(d)]
        cols = [common_denominator(pairs[d * r + j :: n]) for j in range(n)]
        return ScaledMatrix(
            [[sum(map(mul, a, b)) for _, b in cols] for _, a in left],
            [scale for scale, _ in left],
            [scale for scale, _ in cols],
        )

    return ComponentSampler(name or f"rank<={r}", draw)


# -- campaign helpers -----------------------------------------------------------


def _vanishing_checks(
    report: WitnessReport,
    sampler: ComponentSampler,
    X: SymbolicMatrix,
    generators: Sequence[tuple[str, Polynomial]],
    trials: int,
    rng: random.Random,
) -> None:
    zeros = {name: 0 for name, _ in generators}
    for _ in range(trials):
        m = sampler.draw(rng)
        point = X.assignment(m.values)
        for name, g in generators:
            if g.vanishes_at(point):
                zeros[name] += 1
            else:
                report.log(f"{sampler.name} / {name}", m.rational())
    for name, _ in generators:
        report.add(CheckResult.tally(f"{sampler.name}: {name} vanishes on every draw", "zeros", zeros[name], trials))


def _separation_check(
    report: WitnessReport,
    sampler: ComponentSampler,
    X: SymbolicMatrix,
    name: str,
    predicate: Callable[[Sequence[Rat]], bool],
    trials: int,
    rng: random.Random,
) -> None:
    """Count draws where the predicate (generic nonvanishing) holds; draws
    where it fails are logged and resampled, and must stay at zero."""
    nonzero = 0
    zero_draws = 0
    budget = 10 * trials
    while nonzero < trials and zero_draws + nonzero < budget:
        m = sampler.draw(rng)
        point = X.assignment(m.values)
        if predicate(point):
            nonzero += 1
        else:
            zero_draws += 1
            report.log(f"{sampler.name} / zero draw for {name}", m.rational())
    # Every draw counts, so a zero draw fails the check although it was
    # resampled; the counts still report the trials asked for.
    check = CheckResult.tally(
        f"{sampler.name}: {name} is nonzero on every accepted draw", "nonzero", nonzero, nonzero + zero_draws
    )
    check.counts.update(zero_draws_resampled=zero_draws, trials=trials)
    report.add(check)


# -- verifications ---------------------------------------------------------------


def verify_three_lines_decomposition(
    trials: int = 100,
    seed: int = 0,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> WitnessReport:
    """Two-component decomposition of the three-concurrent-lines ideal:
    symbolic containments, vanishing witnesses on both components, separation
    witnesses between them, and a budget-gated reverse containment."""
    report = WitnessReport(
        name="example31",
        seed=seed,
        trials=trials,
        budgets={"max_pairs": max_pairs, "max_degree": max_degree},
    )
    X, line_ideal, loop_ideal, lines_ideal, deg6 = three_lines_fixture()
    names = ("[123]", "[145]", "[167]")
    line_minors = list(zip(names, line_ideal.generators))

    # symbolic containment in the loop component (monomial basis)
    loop_gb = buchberger(loop_ideal)
    ok = all(normal_form(g, loop_gb).is_zero() for _, g in line_minors)
    report.add(CheckResult.outcome("line minors reduce to zero modulo the loop component", ok))

    # containment in the concurrent-lines component is generator identity
    ok = all(g in set(lines_ideal.generators) for _, g in line_minors)
    report.add(CheckResult.outcome("line minors appear among the concurrent-lines generators", ok))

    loop = sampler_loop_component()
    lines = sampler_concurrent_lines()
    rng_loop = child_rng(seed, "example31/loop")
    rng_lines = child_rng(seed, "example31/lines")
    rng_sep_loop = child_rng(seed, "example31/loop-separation")
    rng_sep_lines = child_rng(seed, "example31/lines-separation")

    loop_coords = [("x_1_1", X.entry(1, 1)), ("x_2_1", X.entry(2, 1)), ("x_3_1", X.entry(3, 1))]
    _vanishing_checks(report, loop, X, loop_coords + line_minors, trials, rng_loop)
    _vanishing_checks(report, lines, X, line_minors + [("[234][567]-[235][467]", deg6)], trials, rng_lines)

    _separation_check(
        report, loop, X, "[234][567]-[235][467]",
        lambda point: not deg6.vanishes_at(point),
        trials, rng_sep_loop,
    )
    _separation_check(
        report, lines, X, "some first-column coordinate",
        lambda point: any(not g.vanishes_at(point) for _, g in loop_coords),
        trials, rng_sep_lines,
    )

    # reverse containment, attempted under budget
    name = "intersection of the two components reduces into the minor ideal"
    try:
        line_gb = buchberger(line_ideal, max_pairs=max_pairs, max_degree=max_degree)
        meet = intersect(loop_ideal, lines_ideal, max_pairs=max_pairs, max_degree=max_degree)
        residues = [normal_form(g, line_gb) for g in meet.generators]
        ok = all(r.is_zero() for r in residues)
        report.add(CheckResult.outcome(name, ok, detail=f"{len(meet.generators)} intersection generators checked"))
    except BudgetExceeded as exc:
        report.add(CheckResult(name, INCONCLUSIVE, detail=f"budget exhausted: {exc}"))
    return report


def verify_rank_two_component(trials: int = 100, seed: int = 0) -> WitnessReport:
    """Rank-at-most-two matrices land in the variety of the twelve-vertex
    triple system and kill all sixteen of its minors, with a full-rank
    separation sanity check."""
    report = WitnessReport(name="example32", seed=seed, trials=trials)
    H, ideal, X = rank_two_fixture()
    report.add(CheckResult.outcome("fixture has 16 triple edges on 12 vertices", len(H.edges) == 16 and H.n == 12))

    rank2 = sampler_bounded_rank(3, 12, 2)
    rng = child_rng(seed, "example32/rank2")
    members = 0
    vanishing = 0
    for _ in range(trials):
        m = rank2.draw(rng)
        point = X.assignment(m.values)
        if in_variety(H, m.values):
            members += 1
        else:
            report.log(f"{rank2.name} outside the variety", m.rational())
        if all(g.vanishes_at(point) for g in ideal.generators):
            vanishing += 1
    report.add(CheckResult.tally("rank<=2 samples lie in the variety", "members", members, trials))
    report.add(CheckResult.tally("rank<=2 samples kill all 16 generators exactly", "vanishing", vanishing, trials))

    rank1 = sampler_bounded_rank(3, 12, 1)
    m = rank1.draw(child_rng(seed, "example32/rank1"))
    report.add(CheckResult.outcome("a rank<=1 sample is also a member", in_variety(H, m.values)))

    generic = sampler_bounded_rank(3, 12, 3, name="rank3-generic")
    _separation_check(
        report,
        generic,
        X,
        "some generator",
        lambda point: any(not g.vanishes_at(point) for g in ideal.generators),
        min(trials, 10),
        child_rng(seed, "example32/generic"),
    )
    return report


def verify_intersection_axiom(
    spec: GridSpec | None = None,
    trials: int = 100,
    seed: int = 0,
) -> WitnessReport:
    """Hidden-variable intersection axiom at a grid instance: every premise
    generator is syntactically a minor of the full flattening (conclusion
    containment when s = t), and fully supported rational mixture samples
    kill every premise generator exactly, their X x (Y1, Y2) flattenings
    having rank at most t - 1."""
    if spec is None:
        spec = GridSpec(k=3, l=4, s=3, t=3, d=3)
    if spec.s != spec.t:
        raise ValueError("the minor comparison needs s = t; use a square-size spec")
    report = WitnessReport(name="intersection-axiom", seed=seed, trials=trials)
    model, premise, conclusion_stmt, inside = intersection_fixture(spec)
    report.add(
        CheckResult.tally(
            "every premise generator is a minor of the full flattening", "inside", inside, len(premise.generators), "generators"
        )
    )

    rng = child_rng(seed, "intersection-axiom/mixture")
    vanish = 0
    supported = 0
    low_rank = 0
    for _ in range(trials):
        den, P = mixture_parametrization_sample(model, conclusion_stmt, rng)
        point = tensor_assignment(model, P)
        if all(g.vanishes_at(point) for g in premise.generators):
            vanish += 1
        if all(x > 0 for x in P.entries) and sum(P.entries) == den:
            supported += 1
        flat = flatten(P, ["X"], ["Y1", "Y2"])
        if integer_rank(flat) <= spec.t - 1:
            low_rank += 1
        else:
            report.log("mixture flattening rank too high", [[Fraction(x, den) for x in row] for row in flat])
    report.add(CheckResult.tally("mixture samples kill every premise generator exactly", "vanishing", vanish, trials))
    report.add(CheckResult.tally("mixture samples are fully supported rational distributions", "supported", supported, trials))
    report.add(CheckResult.tally(f"mixture flattenings have rank at most t-1 = {spec.t - 1}", "low_rank", low_rank, trials))
    return report


def verify_grid_realization(spec: GridSpec | None = None, seed: int = 0) -> WitnessReport:
    """Subspace realization of the grid matroid: full rank, dependent edges,
    circuit set equal to the grid family, and the circuit axioms."""
    if spec is None:
        spec = GridSpec(k=3, l=3, s=3, t=3, d=3)
    report = WitnessReport(name="theorem32", seed=seed, trials=GRID_REALIZATION_ATTEMPTS)
    family = grid_circuit_family(spec)
    H = grid_hypergraph(spec)

    # Read the caps where `matroid` reads them, so the two never disagree.
    enumerable = spec.n <= matroid.ENUMERATION_CAP
    matrix = None
    circuits_equal = False
    for attempt in range(GRID_REALIZATION_ATTEMPTS):
        rng = child_rng(seed, f"theorem32/draw{attempt}")
        try:
            matrix = realize_grid_matroid(spec, rng)
        except GenericityError:
            continue
        realized = matroid_from_matrix(matrix)
        circuits_equal = enumerable and realized.circuits() == family
        if circuits_equal or not enumerable:
            break

    report.add(CheckResult.outcome("a realization was drawn", matrix is not None))
    if matrix is None:
        return report
    realized_rank = rank(matrix)
    report.add(
        CheckResult.outcome(
            f"realization has rank {spec.d}",
            realized_rank == spec.d,
            counts={"rank": realized_rank},
        )
    )
    report.add(CheckResult.outcome("every grid edge is dependent", in_variety(H, matrix)))
    if enumerable:
        report.add(
            CheckResult.outcome(
                "circuits equal the minimal grid family",
                circuits_equal,
                counts={"circuits": len(realized.circuits()), "family": len(family)},
            )
        )
    else:
        report.add(CheckResult("circuits equal the minimal grid family", INCONCLUSIVE, detail="ground set above the enumeration cap"))
    if spec.n <= matroid.AXIOM_CHECK_CAP:
        report.add(CheckResult.outcome("the grid family satisfies the circuit axioms", is_circuit_family(spec.n, family)))
    else:
        report.add(CheckResult("the grid family satisfies the circuit axioms", INCONCLUSIVE, detail="ground set above the axiom-check cap"))
    return report


RIGIDITY_CASES = ((2, 3), (2, 4), (2, 5), (3, 5), (3, 6))


def verify_rigidity_battery(seed: int = 0) -> WitnessReport:
    """Rigidity-matrix ranks across the standard case battery, with the
    complete-subgraph circuit checks where the vertex count allows."""
    report = WitnessReport(name="rigidity", seed=seed, trials=len(RIGIDITY_CASES))
    for d, n in RIGIDITY_CASES:
        rng = child_rng(seed, f"rigidity/d{d}n{n}")
        sub = generic_rigidity_check(n, d, rng, seed_note=seed)
        for check in sub.checks:
            report.add(CheckResult(f"(d={d}, n={n}) {check.name}", check.status, check.detail, check.counts))
    return report


TERRACINI_CASES = ((3, 3, 1), (3, 3, 2), (3, 4, 2), (4, 4, 3))


def verify_secant_battery(seed: int = 0) -> WitnessReport:
    """Stacked-tangent secant dimensions of rank-one matrix cones against
    `expected_secant_dimension`, each recomputed exactly."""
    report = WitnessReport(name="terracini", seed=seed, trials=len(TERRACINI_CASES))
    for m, n, k in TERRACINI_CASES:
        rng = child_rng(seed, f"terracini/m{m}n{n}k{k}")
        model = segre_tangent_model(m, n)
        dim = secant_dimension(model, k, rng)
        expected = expected_secant_dimension(m, n, k)
        report.add(
            CheckResult.outcome(
                f"secant {k} of rank-one {m}x{n} has cone dimension {expected} (projective {expected - 1})",
                dim == expected,
                counts={"computed": dim, "expected": expected},
            )
        )
    return report


# Campaign name -> function.  Every campaign takes `seed`; its other keyword
# parameters (`trials`, `max_pairs`, `max_degree`, `spec`) are exactly the
# `cigrid verify` flags it accepts, so the CLI dispatches from the signature.
VERIFICATIONS = {
    "example31": verify_three_lines_decomposition,
    "example32": verify_rank_two_component,
    "intersection-axiom": verify_intersection_axiom,
    "theorem32": verify_grid_realization,
    "rigidity": verify_rigidity_battery,
    "terracini": verify_secant_battery,
}
