"""cigrid's records behave as the dataclasses they replace, and importing the
CLI loads neither `dataclasses` nor `inspect`."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cigrid.cimodel import CIStatement, DiscreteModel, ModelVar, ProbTensor
from cigrid.hypergraph import GridSpec, Hypergraph
from cigrid.ideals import Ideal
from cigrid.matroid import ArrangementSignature, CircuitMatroid, LinearMatroid, PolyMap
from cigrid.poly import MonomialOrder, PolyRing, SymbolicMatrix, Var
from cigrid.report import CheckResult, WitnessReport
from cigrid.secrig import Framework, TangentModel
from cigrid.verify import ComponentSampler

RING = PolyRing((Var("u"), Var("v")))
U, V = RING.var(Var("u")), RING.var(Var("v"))


def draw(rng):
    return rng


def relations(bases):
    return []


# class -> (required arguments, {defaulted field: default}, an unequal instance)
RECORDS = {
    Var: (("x", (1, 2)), {}, Var("x", (2, 1))),
    MonomialOrder: (("block",), {"blocks": ()}, MonomialOrder("lex")),
    PolyRing: (((Var("u"), Var("v")),), {}, PolyRing((Var("u"),))),
    SymbolicMatrix: ((RING, ((U, V),)), {}, SymbolicMatrix(RING, ((V, U),))),
    Ideal: ((RING, (U,)), {"basis": None, "basis_order": None}, Ideal(RING, (V,))),
    ModelVar: (("X", 2), {"hidden": False}, ModelVar("X", 2, True)),
    DiscreteModel: (((ModelVar("X", 2),),), {}, DiscreteModel((ModelVar("Y", 2),))),
    CIStatement: ((("X",), ("Y",)), {"c": ()}, CIStatement(("X",), ("Y",), ("Z",))),
    ProbTensor: ((("X",), (2,), (Fraction(1, 3), Fraction(2, 3))), {}, ProbTensor(("X",), (2,), (Fraction(1, 2), Fraction(1, 2)))),
    Hypergraph: ((3, (frozenset({1, 2}),)), {}, Hypergraph(3, (frozenset({2, 3}),))),
    GridSpec: ((3, 4, 3, 2), {"d": 0}, GridSpec(3, 4, 3, 2, 3)),
    LinearMatroid: (((1, 2), ((Fraction(1),), (Fraction(2),))), {}, LinearMatroid((1, 2), ((Fraction(1),), (Fraction(0),)))),
    CircuitMatroid: (((1, 2), (frozenset({1, 2}),)), {}, CircuitMatroid((1, 2), ())),
    PolyMap: ((RING, (U, V)), {"labels": ()}, PolyMap(RING, (U, V), ("a", "b"))),
    ArrangementSignature: ((7, 3, (3, 3, 3), (3,)), {}, ArrangementSignature(7, 3, (3, 3, 3), ())),
    TangentModel: (("segre", 4, draw, relations), {}, TangentModel("segre", 5, draw, relations)),
    Framework: ((2, ((0, 0), (1, 0)), ((1, 2),)), {}, Framework(2, ((0, 0), (1, 1)), ((1, 2),))),
    CheckResult: (("c", "pass"), {"detail": "", "counts": {}}, CheckResult("c", "fail")),
    WitnessReport: (("w", 7, 10), {"budgets": {}, "checks": [], "counterexamples": []}, WitnessReport("w", 8, 10)),
    ComponentSampler: (("loop", draw), {}, ComponentSampler("lines", draw)),
}
MUTABLE = (CheckResult, WitnessReport)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_construct_compare_hash_and_show_as_their_dataclasses_did(cls):
    required, defaults, unequal = RECORDS[cls]
    fields = cls._fields
    assert fields[len(required):] == tuple(defaults)
    x = cls(*required)
    values = required + tuple(defaults.values())
    assert tuple(getattr(x, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == x == cls(*values)
    assert x != unequal and not x == unequal and type(unequal) is cls
    assert x != object()
    assert repr(x) == f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    if cls in MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(x)
        setattr(x, fields[0], "renamed")
        assert getattr(x, fields[0]) == "renamed"
    else:
        assert hash(x) == hash(values)
        assert {x: 1}[cls(*values)] == 1
        with pytest.raises(AttributeError):
            setattr(x, fields[0], values[0])


def test_records_of_two_classes_differ_even_with_equal_fields():
    ground, columns = (1, 2), ((Fraction(1),), (Fraction(2),))
    assert LinearMatroid(ground, columns) != CircuitMatroid(ground, columns)


def test_record_defaults_are_fresh_per_instance():
    a, b = CheckResult("a", "pass"), CheckResult("b", "pass")
    assert a.counts is not b.counts
    r, s = WitnessReport("r", 0, 1), WitnessReport("s", 0, 1)
    r.add(a)
    assert s.checks == [] and r.budgets is not s.budgets and r.counterexamples is not s.counterexamples


def test_reprs_that_reach_users_are_pinned():
    assert repr(GridSpec(2, 2, 2, 2, 2)) == "GridSpec(k=2, l=2, s=2, t=2, d=2)"
    assert list(vars(GridSpec(3, 4, 3, 2))) == ["k", "l", "s", "t", "d"]
    assert repr(Var("x", (1, 2))) == "Var(base='x', index=(1, 2))"
    assert repr(CIStatement(("X",), ("Y",))) == "CIStatement(a=('X',), b=('Y',), c=())"
    assert repr(ModelVar("H", 2, True)) == "ModelVar(name='H', card=2, hidden=True)"


def test_vars_sort_by_base_then_index():
    vs = [Var("y"), Var("x", (2, 1)), Var("x", (1, 2)), Var("x", (1,)), Var("p", (3,))]
    assert sorted(vs) == sorted(vs, key=lambda v: (v.base, v.index))
    assert sorted(vs) == [Var("p", (3,)), Var("x", (1,)), Var("x", (1, 2)), Var("x", (2, 1)), Var("y")]
    assert Var("x", (1, 2)) < Var("x", (2,)) <= Var("x", (2,))


def test_validated_records_still_refuse_bad_fields():
    with pytest.raises(ValueError, match="need 1 <= s <= k"):
        GridSpec(2, 2, 3, 1)
    with pytest.raises(ValueError, match="cardinality"):
        ModelVar("X", 0)
    with pytest.raises(ValueError, match="sorted and distinct"):
        PolyRing((Var("v"), Var("u")))
    with pytest.raises(ValueError, match="out of range"):
        Framework(1, ((0,),), ((1, 2),))


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    """`python -S`: no `site`, so no `.pth` file can import either first."""
    code = (
        "import sys\n"
        "import cigrid.cli\n"
        "from cigrid.verify import three_lines_fixture\n"
        "three_lines_fixture()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": str(src)}, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
