import hashlib
import inspect
import random
import sys
from fractions import Fraction

import pytest

from helpers import fraction_bounded_rank_draw, fraction_concurrent_lines_draw, fraction_loop_draw, rational_tensor
from cigrid.cimodel import CIStatement, DiscreteModel, ModelVar, ci_ideal, mixture_parametrization_sample, tensor_assignment
from cigrid.cli import main
from cigrid.hypergraph import GridSpec, grid_ci_correspondence, grid_hypergraph, hypergraph_ideal
from cigrid import hypergraph, sampling, verify
from cigrid.ideals import Ideal
from cigrid.linalg import integer_multiple, parallel, rank
from cigrid.matroid import grid_circuit_family, matroid_from_matrix
from cigrid.poly import Polynomial, generic_matrix
from cigrid.report import FAIL, INCONCLUSIVE, PASS, CheckResult, WitnessReport
from cigrid.sampling import child_rng, rand_fraction, rand_nonzero_fraction
from cigrid.verify import (
    VERIFICATIONS,
    ComponentSampler,
    ScaledMatrix,
    _separation_check,
    intersection_fixture,
    rank_two_fixture,
    sampler_bounded_rank,
    sampler_concurrent_lines,
    sampler_loop_component,
    three_lines_fixture,
    twelve_vertex_triple_system,
    verify_grid_realization,
    verify_intersection_axiom,
    verify_rank_two_component,
    verify_rigidity_battery,
    verify_secant_battery,
    verify_three_lines_decomposition,
)


def test_fixture_matches_the_grid_construction():
    H = twelve_vertex_triple_system()
    assert H == grid_hypergraph(GridSpec(k=3, l=4, s=3, t=3))


def test_loop_sampler_kills_all_fixture_generators():
    X, line_ideal, loop_ideal, _, deg6 = three_lines_fixture()
    sampler = sampler_loop_component()
    rng = child_rng(0, "t")
    for _ in range(5):
        m = sampler.draw(rng)
        point = X.assignment(m.values)
        assert all(g.evaluate(point) == 0 for g in loop_ideal.generators)
        assert all(g.evaluate(point) == 0 for g in line_ideal.generators)
        assert deg6.evaluate(point) != 0  # generic separation witness


def test_concurrent_lines_sampler_lies_on_its_component():
    X, line_ideal, loop_ideal, lines_ideal, _ = three_lines_fixture()
    sampler = sampler_concurrent_lines()
    rng = child_rng(1, "t")
    for _ in range(5):
        m = sampler.draw(rng)
        point = X.assignment(m.values)
        assert all(g.evaluate(point) == 0 for g in lines_ideal.generators)
        assert any(g.evaluate(point) != 0 for g in loop_ideal.generators)


def test_three_lines_fixture_builds_no_evaluation_plan():
    X, line_ideal, loop_ideal, lines_ideal, deg6 = three_lines_fixture.__wrapped__()
    built = line_ideal.generators + loop_ideal.generators + lines_ideal.generators
    assert all(g._plan is None for g in built)


def test_concurrent_lines_sampler_realizes_the_expected_circuits():
    sampler = sampler_concurrent_lines()
    m = sampler.draw(child_rng(2, "t"))
    matroid = matroid_from_matrix(m.values)
    triples = sorted(sorted(c) for c in matroid.circuits() if len(c) == 3)
    assert triples == [[1, 2, 3], [1, 4, 5], [1, 6, 7]]


def test_example31_samplers_keep_the_random_stream_of_the_fraction_draws(monkeypatch):
    """Each integer draw stands for the matrix the `Fraction` construction
    builds from an identically seeded rng, and leaves the rng in the same
    state.  Seeds 60 and up draw entries with numerators in -2..2 over 1..2,
    so some draws have a zero apex or parallel directions and are redrawn."""
    cases = [(sampler_loop_component(), fraction_loop_draw), (sampler_concurrent_lines(), fraction_concurrent_lines_draw)]
    for seed in range(120):
        if seed == 60:
            monkeypatch.setattr(sampling, "DEFAULT_BOUND", 2)
        for sampler, reference in cases:
            rng, ref_rng = random.Random(seed), random.Random(seed)
            m = sampler.draw(rng)
            assert m.rational() == reference(ref_rng)
            assert rng.getstate() == ref_rng.getstate()
            assert all(type(x) is int for row in m.values for x in row)
            assert len(m.row_scales) == 3 and len(m.col_scales) == 7


def test_integer_parallel_test_equals_the_rank_test():
    rng = random.Random(43)
    pairs = []
    for _ in range(200):
        u = [rand_fraction(rng) for _ in range(3)]
        pairs.append((u, [rand_fraction(rng) for _ in range(3)]))
        pairs.append((u, [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) * x for x in u]))
    zero = [Fraction(0)] * 3
    pairs += [(zero, zero), (zero, [Fraction(1, 3), Fraction(-2), Fraction(0)])]
    pairs += [([Fraction(1, 2), Fraction(0), Fraction(-3, 4)], [Fraction(2, 3), Fraction(0), Fraction(-1)])]
    pairs += [([Fraction(1, 2), Fraction(0), Fraction(-3, 4)], [Fraction(2, 3), Fraction(0), Fraction(1)])]
    pairs += [([Fraction(0), Fraction(5, 7), Fraction(0)], [Fraction(0), Fraction(-1, 9), Fraction(0)])]
    verdicts = set()
    for u, v in pairs:
        verdict = parallel(integer_multiple(u)[1], integer_multiple(v)[1])
        assert verdict == (rank([u, v]) < 2), (u, v)
        assert verdict == parallel(integer_multiple(v)[1], integer_multiple(u)[1])
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_concurrent_lines_draws_follow_the_rank_based_resampling_stream():
    def rank_draw(rng):
        # the sampler written with Fraction ranks for its degeneracy tests
        while True:
            apex = [rand_fraction(rng) for _ in range(3)]
            dirs = [[rand_fraction(rng) for _ in range(3)] for _ in range(3)]
            if all(x == 0 for x in apex) or any(rank([apex, d]) < 2 for d in dirs):
                continue
            if any(rank([dirs[a], dirs[b]]) < 2 for a in range(3) for b in range(a + 1, 3)):
                continue
            cols = [apex]
            for d in dirs:
                for _ in range(2):
                    a, b = rand_nonzero_fraction(rng), rand_nonzero_fraction(rng)
                    cols.append([a * apex[r] + b * d[r] for r in range(3)])
            return [[cols[j][r] for j in range(7)] for r in range(3)]

    sampler = sampler_concurrent_lines()
    for seed in range(20):
        ours, theirs = child_rng(seed, "lines"), child_rng(seed, "lines")
        for _ in range(3):
            assert sampler.draw(ours).rational() == rank_draw(theirs)
        assert ours.random() == theirs.random()


def test_bounded_rank_sampler_shapes():
    sampler = sampler_bounded_rank(3, 12, 2)
    m = sampler.draw(child_rng(3, "t"))
    assert len(m.values) == 3 and len(m.values[0]) == 12
    assert len(m.row_scales) == 3 and len(m.col_scales) == 12


@pytest.mark.parametrize("d, n, r", [(3, 12, 2), (3, 12, 1), (3, 12, 3), (1, 1, 1), (2, 3, 5), (4, 2, 3), (3, 4, 0)])
def test_bounded_rank_draw_matches_the_fraction_formula_and_the_rng_stream(d, n, r):
    sampler = sampler_bounded_rank(d, n, r)
    for seed in range(15):
        rng, old = random.Random(seed), random.Random(seed)
        drawn = sampler.draw(rng)
        assert drawn.rational() == fraction_bounded_rank_draw(old, d, n, r)
        assert rng.getstate() == old.getstate()
        assert all(type(x) is int for row in drawn.values for x in row)
        assert all(type(s) is int and s > 0 for s in [*drawn.row_scales, *drawn.col_scales])


def test_generators_vanish_at_integer_draws_exactly_where_at_rational_ones():
    """200 seeded draws per sampler: bounded-rank matrices of rank 2 and 3
    against the example32 generators, and mixture tensors of rank 2 and 3
    against the intersection-axiom premise generators.  The zero pattern at
    the integer values equals the one at the rationals they stand for; at
    rank 3 the generators do not all vanish, at rank 2 they do."""
    H = twelve_vertex_triple_system()
    X = generic_matrix(3, H.n)
    generators = hypergraph_ideal(H, 3).generators
    for r in (2, 3):
        sampler, rng = sampler_bounded_rank(3, 12, r), random.Random(r)
        patterns = set()
        for _ in range(200):
            m = sampler.draw(rng)
            at_integers = [g.evaluate(X.assignment(m.values)) == 0 for g in generators]
            assert at_integers == [g.evaluate(X.assignment(m.rational())) == 0 for g in generators]
            patterns.add(all(at_integers))
        assert patterns == {r == 2}

    spec = GridSpec(k=3, l=4, s=3, t=3, d=3)
    model, statements = grid_ci_correspondence(spec)
    premise = ci_ideal(statements, model).generators
    for h in (2, 3):
        sampled = DiscreteModel.of(*model.observed(), ModelVar("H", h, hidden=True))
        conclusion, rng = CIStatement(("X",), ("Y1", "Y2"), ("H",)), random.Random(10 + h)
        patterns = set()
        for _ in range(200):
            den, P = mixture_parametrization_sample(sampled, conclusion, rng)
            at_integers = [g.evaluate(tensor_assignment(model, P)) == 0 for g in premise]
            rational = tensor_assignment(model, rational_tensor(den, P))
            assert at_integers == [g.evaluate(rational) == 0 for g in premise]
            patterns.add(all(at_integers))
        assert patterns == {h == 2}


@pytest.mark.parametrize("campaign, target", [(verify_rank_two_component, "hypergraph_ideal"), (verify_intersection_axiom, "ci_ideal")])
def test_a_campaign_with_an_ungraded_generator_raises(request, monkeypatch, campaign, target):
    """The witness campaigns test their draws on integer values, which is
    exact only for generators homogeneous in each scaled group.  The check
    runs when the cached fixture builds, so the cache is cleared before the
    patched call and again after the test, and no patched fixture outlives
    it."""
    original = getattr(verify, target)

    def with_an_ungraded_generator(*args):
        ideal = original(*args)
        g = ideal.generators[0]
        bad = g + ideal.ring.var(ideal.ring.variables[0])
        return Ideal.of(ideal.ring, (*ideal.generators, bad))

    fixture = {"hypergraph_ideal": rank_two_fixture, "ci_ideal": intersection_fixture}[target]
    request.addfinalizer(fixture.cache_clear)
    fixture.cache_clear()
    monkeypatch.setattr(verify, target, with_an_ungraded_generator)
    with pytest.raises(ValueError, match="is not homogeneous"):
        campaign(trials=1, seed=0)


@pytest.mark.parametrize(
    "campaign, fixture", [(verify_rank_two_component, rank_two_fixture), (verify_intersection_axiom, intersection_fixture)], ids=["example32", "intersection-axiom"]
)
def test_a_second_campaign_call_builds_no_evaluation_plan(monkeypatch, campaign, fixture):
    """The first call after a cleared cache compiles the generators' plans;
    a second call in the same process reuses them and writes the same
    report."""
    built = []
    compile_plan = Polynomial._evaluation_plan

    def counting(self):
        built.append(self)
        return compile_plan(self)

    monkeypatch.setattr(Polynomial, "_evaluation_plan", counting)
    fixture.cache_clear()
    first = campaign(trials=5, seed=7).to_text()
    assert len(built) >= 16
    built.clear()
    assert campaign(trials=5, seed=7).to_text() == first
    assert built == []


def test_cached_fixtures_equal_a_fresh_build():
    def same_ideal(a, b):
        return a.ring == b.ring and [g.terms for g in a.generators] == [g.terms for g in b.generators]

    (H, ideal, X), (H0, ideal0, X0) = rank_two_fixture(), rank_two_fixture.__wrapped__()
    assert (H, X) == (H0, X0) and same_ideal(ideal, ideal0)
    spec = GridSpec(k=3, l=4, s=3, t=3, d=3)
    (model, premise, stmt, inside), (model0, premise0, stmt0, inside0) = intersection_fixture(spec), intersection_fixture.__wrapped__(spec)
    assert (model, stmt, inside) == (model0, stmt0, inside0) and same_ideal(premise, premise0)
    assert grid_circuit_family(spec) == grid_circuit_family.__wrapped__(spec)


def test_the_intersection_fixture_is_keyed_by_its_spec():
    """A non-default square spec run after the default one in the same
    process writes what it writes from a cleared cache."""
    other = GridSpec(k=2, l=3, s=2, t=2, d=2)
    default = verify_intersection_axiom(trials=5, seed=7).to_text()
    warm = verify_intersection_axiom(other, trials=5, seed=7).to_text()
    intersection_fixture.cache_clear()
    assert verify_intersection_axiom(other, trials=5, seed=7).to_text() == warm != default


def test_the_witness_campaigns_run_no_fraction_rank(monkeypatch):
    """Every module binding of `linalg.rank` is spied on; the two witness
    campaigns make no call, and theorem32 shows the spy is live."""
    calls = []

    def spy(m):
        calls.append(m)
        return rank(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("cigrid") and getattr(module, "rank", None) is rank:
            monkeypatch.setattr(module, "rank", spy)
    verify_rank_two_component(trials=20, seed=7)
    verify_intersection_axiom(trials=20, seed=7)
    assert calls == []
    verify_grid_realization(seed=7)
    assert calls


def draws_digest(draws) -> str:
    """sha256 of the draws' entries, one line of `str` fractions per matrix
    row or tensor."""
    text = "\n".join(" ".join(str(x) for x in row) for row in draws)
    return hashlib.sha256(text.encode()).hexdigest()


# The first 20 draws of the example32 and intersection-axiom streams at seed
# 7; report bytes do not show draw values.
BOUNDED_RANK_DIGEST = "a47cf3b47ab74a91757e3fd3aea09a3eacf6a19cc38ce49fac4dabec414107b2"
MIXTURE_DIGEST = "bf083a207b879ae050e3e0cc8745680c791a4f5bf58d0832239229a4c0f5a912"


def test_campaign_draws_are_pinned():
    rng = child_rng(7, "example32/rank2")
    sampler = sampler_bounded_rank(3, 12, 2)
    rows = [row for _ in range(20) for row in sampler.draw(rng).rational()]
    assert draws_digest(rows) == BOUNDED_RANK_DIGEST

    model, _ = grid_ci_correspondence(GridSpec(k=3, l=4, s=3, t=3, d=3))
    conclusion = CIStatement(("X",), ("Y1", "Y2"), ("H2",))
    rng = child_rng(7, "intersection-axiom/mixture")
    tensors = [rational_tensor(*mixture_parametrization_sample(model, conclusion, rng)).entries for _ in range(20)]
    assert draws_digest(tensors) == MIXTURE_DIGEST


def test_three_lines_decomposition_report():
    report = verify_three_lines_decomposition(trials=20, seed=7)
    assert report.status in ("pass", "inconclusive")
    # the sampling side must always pass; only the symbolic reverse
    # containment may be inconclusive under a tight budget
    for check in report.checks:
        if "intersection of the two components" in check.name:
            assert check.status in ("pass", "inconclusive")
        else:
            assert check.status == "pass", check
    assert report.counterexamples == []


def test_three_lines_reverse_containment_verifies_under_default_budget():
    report = verify_three_lines_decomposition(trials=2, seed=1)
    reverse = [c for c in report.checks if "intersection of the two components" in c.name]
    assert len(reverse) == 1
    assert reverse[0].status == "pass"


def test_three_lines_tight_budget_is_inconclusive_not_failing():
    report = verify_three_lines_decomposition(trials=2, seed=1, max_pairs=5, max_degree=8)
    reverse = [c for c in report.checks if "intersection of the two components" in c.name]
    assert reverse[0].status == "inconclusive"
    assert report.status == "inconclusive"
    assert report.exit_code == 3


def test_rank_two_component_report():
    report = verify_rank_two_component(trials=20, seed=5)
    assert report.passed, report.to_text()


def test_intersection_axiom_report():
    report = verify_intersection_axiom(trials=20, seed=3)
    assert report.passed, report.to_text()
    inside = [c for c in report.checks if "minor of the full flattening" in c.name][0]
    assert inside.counts == {"inside": 16, "generators": 16}


def test_intersection_axiom_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        verify_intersection_axiom(GridSpec(k=3, l=4, s=2, t=3, d=3), trials=1, seed=0)


def test_grid_realization_report():
    report = verify_grid_realization(GridSpec(k=3, l=3, s=3, t=3, d=3), seed=11)
    assert report.passed, report.to_text()


def test_rigidity_battery():
    report = verify_rigidity_battery(seed=2)
    assert report.passed, report.to_text()


def test_secant_battery():
    report = verify_secant_battery(seed=2)
    assert report.passed, report.to_text()


def test_reports_are_reproducible():
    a = verify_rank_two_component(trials=10, seed=42)
    b = verify_rank_two_component(trials=10, seed=42)
    assert a.to_text() == b.to_text()
    assert a.to_json() == b.to_json()
    c = verify_rank_two_component(trials=10, seed=43)
    assert c.to_text() != a.to_text() or c.passed  # different seed may differ in samples, not verdicts


# Faults that make campaigns log counterexamples: each replaces one library
# function the campaigns use to decide a witness.
FAULTS = {
    "none": None,
    "every rank is full": (verify, "integer_rank", lambda m: min(len(m), len(m[0]))),
    "every in-variety rank is full": (hypergraph, "integer_rank", lambda m: min(len(m), len(m[0]))),
    "no draw is in the variety": (verify, "in_variety", lambda H, X: False),
    "every polynomial value is 1": (Polynomial, "evaluate", lambda self, point: Fraction(1)),
    "every polynomial value is 0": (Polynomial, "evaluate", lambda self, point: Fraction(0)),
}


@pytest.mark.parametrize("seed", [7, 123])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_report_listing_counterexamples_never_passes(monkeypatch, fault, seed):
    if FAULTS[fault] is not None:
        monkeypatch.setattr(*FAULTS[fault])
    listing = []
    for name, campaign in sorted(VERIFICATIONS.items()):
        kwargs = {"trials": 3} if "trials" in inspect.signature(campaign).parameters else {}
        report = campaign(seed=seed, **kwargs)
        if report.counterexamples:
            listing.append(name)
            assert report.status != "pass", report.to_text()
    assert bool(listing) == (fault != "none")


# sha256 of the report text of example32 and intersection-axiom at
# --trials 5 under each fault.  A failing report lists its counterexamples,
# so these digests also pin how a logged draw renders: as the rational
# matrix it stands for, whatever values the campaign tested.
FAULT_REPORT_DIGESTS = {
    ('every polynomial value is 1', 'example32', 7): "9243603ec6c44127c73e5679a9a3478f7e1fcd587c0cf685163fadde2c07e38d",
    ('every polynomial value is 1', 'example32', 123): "55883ebecf01a4bf3ff5e3cc2c5526a2048f9ac678c0b0d76e382e80088aff70",
    ('every polynomial value is 1', 'intersection-axiom', 7): "77022c22d0bd9325913d232c5a9b79f58df0dbae2da6ff36b71606a000fc7d16",
    ('every polynomial value is 1', 'intersection-axiom', 123): "a0f8d2a3728c352792224732eeaec15a497e5c5a49265ee7e872d51433af668e",
    ('every polynomial value is 0', 'example32', 7): "d49b82fd56817795fb47d6a3562e4b1e7cae1b6be59e59b0518ceb753c839f7d",
    ('every polynomial value is 0', 'example32', 123): "5ccfc8501699f5cefb31c2b90bda0dcd7cb4386325ff4774a171248b127f6dd6",
    ('every polynomial value is 0', 'intersection-axiom', 7): "9cde911ecaf58a2f7487150b4e897464a361d244d7474598ac04489602fd88e0",
    ('every polynomial value is 0', 'intersection-axiom', 123): "3a59dde98455076bbef5b767f9eee6cd19e577ec6cf11bf9bc2aab9eafacc08e",
    ('no draw is in the variety', 'example32', 7): "a218bec3ec7211a1a83923cb5f2e7fe3d5f8313f909d46922ae7d23aab37b051",
    ('no draw is in the variety', 'example32', 123): "718d4c62843f5c2b177a093d0c9d2c21daad5e97204e3537eb4bbd2d16e39293",
    ('no draw is in the variety', 'intersection-axiom', 7): "9cde911ecaf58a2f7487150b4e897464a361d244d7474598ac04489602fd88e0",
    ('no draw is in the variety', 'intersection-axiom', 123): "3a59dde98455076bbef5b767f9eee6cd19e577ec6cf11bf9bc2aab9eafacc08e",
    ('every rank is full', 'example32', 7): "52416449d011e190230244fc0a49f6a552d9311c5fdcc5e5a61f89ab472d2aee",
    ('every rank is full', 'example32', 123): "6122d8df4cf7d7ecf7d4c7d3aa9928344b1d8aa68ecea9b175706a56213204f3",
    ('every rank is full', 'intersection-axiom', 7): "1182e3121ae5ffcd3fb2103815d7f0a9c6f85a4c23c5320a1b25584d28d5a605",
    ('every rank is full', 'intersection-axiom', 123): "7590439de9c40a7c04eeaf28e33a637f0328087f4d4ac200baac9836eee75d06",
    ('every in-variety rank is full', 'example32', 7): "a218bec3ec7211a1a83923cb5f2e7fe3d5f8313f909d46922ae7d23aab37b051",
    ('every in-variety rank is full', 'example32', 123): "718d4c62843f5c2b177a093d0c9d2c21daad5e97204e3537eb4bbd2d16e39293",
    ('every in-variety rank is full', 'intersection-axiom', 7): "9cde911ecaf58a2f7487150b4e897464a361d244d7474598ac04489602fd88e0",
    ('every in-variety rank is full', 'intersection-axiom', 123): "3a59dde98455076bbef5b767f9eee6cd19e577ec6cf11bf9bc2aab9eafacc08e",
}


@pytest.mark.parametrize("fault, campaign, seed", sorted(FAULT_REPORT_DIGESTS))
def test_fault_report_text_is_pinned(monkeypatch, fault, campaign, seed):
    monkeypatch.setattr(*FAULTS[fault])
    text = VERIFICATIONS[campaign](trials=5, seed=seed).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == FAULT_REPORT_DIGESTS[fault, campaign, seed]


def test_some_pinned_fault_reports_render_counterexamples(monkeypatch):
    logged = set()
    for fault, campaign, seed in FAULT_REPORT_DIGESTS:
        with monkeypatch.context() as patch:
            patch.setattr(*FAULTS[fault])
            if VERIFICATIONS[campaign](trials=5, seed=seed).counterexamples:
                logged.add(campaign)
    assert logged == {"example32", "intersection-axiom"}


def test_a_full_rank_mixture_flattening_fails_the_intersection_axiom(monkeypatch):
    monkeypatch.setattr(verify, "integer_rank", lambda m: 3)
    report = verify_intersection_axiom(trials=5, seed=7)
    assert report.status == "fail"
    assert len(report.counterexamples) == 5
    check = [c for c in report.checks if c.name.startswith("mixture flattenings have rank at most")]
    assert [(c.status, c.counts) for c in check] == [("fail", {"low_rank": 0, "trials": 5})]


def test_theorem32_above_a_patched_enumeration_cap_is_inconclusive(monkeypatch):
    """A 3 x 3 grid has nine elements; with the matroid module's cap at 8 the
    circuit comparison is inconclusive instead of raising."""
    from cigrid import matroid

    monkeypatch.setattr(matroid, "ENUMERATION_CAP", 8)
    report = verify_grid_realization(GridSpec(k=3, l=3, s=3, t=3, d=3), seed=7)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["circuits equal the minimal grid family"] == "inconclusive"
    assert statuses["the grid family satisfies the circuit axioms"] == "pass"
    assert report.status == "inconclusive" and report.exit_code == 3


def test_report_log_keeps_the_first_five_counterexamples_rendered():
    report = WitnessReport(name="log", seed=0, trials=7)
    for i in range(7):
        report.log(f"draw {i}", [[Fraction(i), Fraction(1, 2)]])
    assert report.counterexamples == [f"draw {i}:\n1 2\n{i} 1/2\n" for i in range(5)]


@pytest.mark.parametrize(
    "hits, total, status", [(3, 3, PASS), (2, 3, FAIL), (0, 3, FAIL), (0, 0, INCONCLUSIVE)]
)
def test_a_tally_passes_only_when_every_counted_item_held(hits, total, status):
    check = CheckResult.tally("counted", "held", hits, total, "items")
    assert (check.status, check.counts, check.detail) == (status, {"held": hits, "items": total}, "")
    assert CheckResult.tally("counted", "held", hits, total).counts == {"held": hits, "trials": total}


# Each campaign's trial-counted checks, and how many of them are separations:
# example31's ten vanishing checks and two separations; example32's members,
# vanishing and one separation; intersection-axiom's three mixture counts.
TRIAL_COUNTED = {"example31": (12, 2), "example32": (3, 1), "intersection-axiom": (3, 0)}


@pytest.mark.parametrize("campaign", sorted(TRIAL_COUNTED))
def test_a_campaign_with_zero_trials_is_inconclusive_never_pass(capsys, campaign):
    report = VERIFICATIONS[campaign](trials=0, seed=7)
    counted = [c for c in report.checks if "trials" in c.counts]
    assert len(counted) == TRIAL_COUNTED[campaign][0]
    for check in counted:
        assert check.status == INCONCLUSIVE, check
        assert set(check.counts.values()) == {0}, check
    separations = [c for c in counted if "nonzero on every accepted draw" in c.name]
    assert len(separations) == TRIAL_COUNTED[campaign][1]
    for check in separations:
        assert check.counts == {"nonzero": 0, "zero_draws_resampled": 0, "trials": 0}
    assert all(c.status == PASS for c in report.checks if c not in counted)
    assert report.status == INCONCLUSIVE and report.exit_code == 3
    assert report.counterexamples == []
    # the CLI refuses the zero trials that the library reports as inconclusive
    assert main(["verify", campaign, "--trials", "0"]) == 2
    assert capsys.readouterr().err == "error: --trials must be at least 1\n"


@pytest.mark.parametrize("answers, status", [([True] * 4, PASS), ([False] + [True] * 4, FAIL), ([False] * 40, FAIL)])
def test_a_separation_check_fails_on_any_zero_draw_although_it_resamples(answers, status):
    """A zero draw is resampled, so the accepted draws still reach `trials`,
    but the check counts every draw and fails."""
    report = WitnessReport(name="separation", seed=0, trials=4)
    sampler = ComponentSampler("constant", lambda rng: ScaledMatrix([[1, 2], [3, 4]], [1, 1], [1, 1]))
    answer = iter(answers)
    _separation_check(report, sampler, generic_matrix(2, 2), "f", lambda point: next(answer), 4, random.Random(0))
    zero_draws = answers.count(False)
    assert report.checks[0].status == status
    assert report.checks[0].counts == {"nonzero": answers.count(True), "zero_draws_resampled": zero_draws, "trials": 4}
    assert len(report.counterexamples) == min(zero_draws, 5)
