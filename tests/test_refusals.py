"""Refusals of malformed library input, one row each: the error class and a fragment of its message.

Each row builds or calls one public entry point (or a table type's join
onto a target, which every combination goes through) with one thing wrong, so the check
that catches it is named by the row's id.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from valkit import relations
from valkit.algebra import Knowledgebase, PotentialAlgebra
from valkit.contextuality import (
    EmpiricalModel,
    MeasurementScenario,
    possibilistic_model,
    probabilistic_model,
)
from valkit.disagreement import search_truth_valuations
from valkit.core import Assignment, VariableUniverse, dom
from valkit.errors import ArgumentError, CapabilityError, DomainError, UniverseMismatchError
from valkit.feasibility import LinearSystem
from valkit.potentials import Potential, _join
from valkit.relations import Relation, empty_relation, full_relation, relation_leq

U = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1"))])
V = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1", "2"))])  # same names, another frame for y
X0, X1 = Assignment.of({"x": "0"}), Assignment.of({"x": "1"})
HALF = Fraction(1, 2)


def potential(universe=U, value=HALF):
    return Potential.from_table(universe, dom("x"), {X0: value, X1: value})


def relation(universe=U, name="x"):
    return full_relation(universe, dom(name))


def uniform(universe, name):
    frame = universe.frame(name).values
    return Potential.from_table(universe, dom(name), {Assignment.of({name: v}): Fraction(1, len(frame)) for v in frame})


SCENARIO_XY = MeasurementScenario(U, (("x",), ("y",)))
MODEL = EmpiricalModel(SCENARIO_XY, (relation(), relation(name="y")))

REFUSALS = {
    "Relation.of: no rows": (lambda: Relation.of(U, []), ArgumentError, "zero rows"),
    "Relation.of: mixed domains": (
        lambda: Relation.of(U, [{"x": "0"}, {"y": "0"}]),
        DomainError,
        "does not match relation domain",
    ),
    "Relation.from_rows: wrong row length": (
        lambda: Relation.from_rows(U, ["x", "y"], [("0",)]),
        ArgumentError,
        "does not match variables",
    ),
    "Relation.from_rows: value outside the frame": (
        lambda: Relation.from_rows(U, ["x"], [("2",)]),
        ArgumentError,
        "not in the frame of 'x'",
    ),
    "relation_leq: universe mismatch": (
        lambda: relation_leq(relation(), relation(V)),
        UniverseMismatchError,
        "different variable universes",
    ),
    "Potential.from_table: missing entry": (
        lambda: Potential.from_table(U, dom("x"), {X0: HALF}),
        DomainError,
        "missing table entry",
    ),
    "Potential.from_table: value outside the carrier": (
        lambda: potential(value=Fraction(-1)),
        ArgumentError,
        "outside the nonneg-rational carrier",
    ),
    "Potential.from_table: stray assignment": (
        lambda: Potential.from_table(U, dom("x"), {X0: HALF, X1: HALF, Assignment.of({"y": "0"}): HALF}),
        ArgumentError,
        "is not a point of the domain's frame product",
    ),
    "Potential.__call__: wrong domain": (
        lambda: potential()(Assignment.of({"y": "0"})),
        DomainError,
        "is not a point of the domain",
    ),
    "Potential.__call__: label outside the frame": (
        lambda: potential()(Assignment.of({"x": "9"})),
        DomainError,
        "label '9' is not in the frame of 'x'",
    ),
    "PotentialAlgebra.leq: no order": (
        lambda: PotentialAlgebra(U).leq(potential(), potential()),
        CapabilityError,
        "potentials[nonneg-rational] is not ordered",
    ),
    "probabilistic_model: missing context": (
        lambda: probabilistic_model(U, [("x",), ("y",)], {("x",): {("0",): 1}}),
        ArgumentError,
        "sections: missing contexts [('y',)]",
    ),
    "possibilistic_model: missing context": (
        lambda: possibilistic_model(U, [("x",), ("y",)], {("x",): [("0",)]}),
        ArgumentError,
        "supports: missing contexts [('y',)]",
    ),
    "probabilistic_model: float value": (
        lambda: probabilistic_model(U, [("x", "y")], {("x", "y"): {("0", "0"): 0.5, ("1", "1"): 0.5}}),
        ArgumentError,
        "value 0.5 is outside the nonneg-rational carrier",
    ),
    "probabilistic_model: unreadable value": (
        lambda: probabilistic_model(U, [("x", "y")], {("x", "y"): {("0", "0"): "half"}}),
        ArgumentError,
        "cannot parse 'half' as a rational",
    ),
    "probabilistic_model: zero denominator": (
        lambda: probabilistic_model(U, [("x", "y")], {("x", "y"): {("0", "0"): "1/0"}}),
        ArgumentError,
        "cannot parse '1/0' as a rational",
    ),
    "probabilistic_model: outcome longer than its context": (
        lambda: probabilistic_model(
            U, [("x", "y")], {("x", "y"): {("0", "0"): "1/4", ("0", "0", "junk"): "1/2", ("1", "1"): "1/2"}}
        ),
        ArgumentError,
        "row ('0', '0', 'junk') does not match variables ('x', 'y')",
    ),
    "probabilistic_model: outcome shorter than its context": (
        lambda: probabilistic_model(U, [("x", "y")], {("x", "y"): {("0",): 1}}),
        ArgumentError,
        "row ('0',) does not match variables ('x', 'y')",
    ),
    "potentials._join: universe mismatch": (
        lambda: _join(potential(), potential(V), dom("x")),
        UniverseMismatchError,
        "different variable universes",
    ),
    "potentials._join: target outside the union": (
        lambda: _join(potential(), potential(), dom("x", "y")),
        DomainError,
        "target not within the combined domain",
    ),
    "relations._join: target outside the union": (
        lambda: relations._join(relation(), relation(), dom("x", "y")),
        DomainError,
        "target not within the combined domain; offending variables: ['y']",
    ),
    "relations._join: target outside the union, empty operand": (
        lambda: relations._join(relation(), empty_relation(U, dom("x")), dom("x", "y")),
        DomainError,
        "target not within the combined domain; offending variables: ['y']",
    ),
    "Knowledgebase: mixed kinds": (
        lambda: Knowledgebase(U, (relation(), potential())),
        ArgumentError,
        "one algebra",
    ),
    "Knowledgebase: another universe": (
        lambda: Knowledgebase(U, (relation(V),)),
        ArgumentError,
        "over a different universe",
    ),
    "Knowledgebase: unknown valuation type": (
        lambda: Knowledgebase(U, (SimpleNamespace(universe=U),)).algebra(),
        ArgumentError,
        "no algebra known for valuations of type SimpleNamespace",
    ),
    "search_truth_valuations: potential knowledgebase": (
        lambda: search_truth_valuations(Knowledgebase(U, (potential(),))),
        CapabilityError,
        "defined for relation knowledgebases",
    ),
    "MeasurementScenario: empty context": (
        lambda: MeasurementScenario(U, (("x", "y"), ())),
        ArgumentError,
        "contexts must be nonempty",
    ),
    "EmpiricalModel: wrong section count": (
        lambda: EmpiricalModel(SCENARIO_XY, (relation(),)),
        ArgumentError,
        "one section per context",
    ),
    "EmpiricalModel: section domain unlike its context": (
        lambda: EmpiricalModel(SCENARIO_XY, (relation(name="y"), relation())),
        ArgumentError,
        "does not match context ('x',)",
    ),
    "EmpiricalModel: potential as a possibilistic section": (
        lambda: EmpiricalModel(SCENARIO_XY, (potential(), relation(name="y"))),
        ArgumentError,
        "all knowledgebase members must come from one algebra",
    ),
    "EmpiricalModel: possibilistic section over another universe": (
        lambda: EmpiricalModel(SCENARIO_XY, (relation(), relation(V, name="y"))),
        ArgumentError,
        "knowledgebase member built over a different universe",
    ),
    "EmpiricalModel: probabilistic section over another universe": (
        lambda: EmpiricalModel(SCENARIO_XY, (potential(), uniform(V, "y"))),
        ArgumentError,
        "knowledgebase member built over a different universe",
    ),
    "EmpiricalModel.section_for: unknown context": (
        lambda: MODEL.section_for(("x", "y")),
        ArgumentError,
        "is not a context of this scenario",
    ),
    "VariableUniverse: empty name": (
        lambda: VariableUniverse.of([("", ("0",))]),
        ArgumentError,
        "variable names must be nonempty",
    ),
    "LinearSystem: right-hand side of an undeclared row": (
        lambda: LinearSystem(("x",), ("r1",), {("r1", "x"): 1}, {"r1": 1, "r9": -5}),
        ArgumentError,
        "right-hand side names undeclared row 'r9'",
    ),
    "LinearSystem: a bool entry": (
        lambda: LinearSystem(("c",), ("r",), {("r", "c"): True}, {"r": True}),
        ArgumentError,
        "entry ('r', 'c') must be an int or a Fraction, not True",
    ),
    "LinearSystem: a bool right-hand side": (
        lambda: LinearSystem(("c",), ("r",), {("r", "c"): 1}, {"r": True}),
        ArgumentError,
        "right-hand side of row 'r' must be a nonnegative int or Fraction, not True",
    ),
    "Assignment.value: missing variable": (
        lambda: X0.value("y"),
        DomainError,
        "variable 'y' not in assignment domain",
    ),
    "Potential: a key outside the frame": (
        lambda: Potential(U, dom("x"), {("0",): HALF, ("zzz",): HALF}),
        DomainError,
        "row ('zzz',) is not a point of the domain's frame product",
    ),
    "Potential: a key of the wrong arity": (
        lambda: Potential(U, dom("x"), {("0",): HALF, ("1", "0"): HALF}),
        DomainError,
        "row ('1', '0') is not a point of the domain's frame product",
    ),
    "Potential: a negative value": (
        lambda: Potential(U, dom("x"), {("0",): Fraction(-1, 2), ("1",): Fraction(3, 2)}),
        ArgumentError,
        "value Fraction(-1, 2) is outside the nonneg-rational carrier",
    ),
    "Potential: a bool value": (
        lambda: Potential(U, dom("x"), {("0",): True, ("1",): 0}),
        ArgumentError,
        "value True is outside the nonneg-rational carrier",
    ),
    "Potential: a float value": (
        lambda: Potential(U, dom("x"), {("0",): 0.5, ("1",): HALF}),
        ArgumentError,
        "value 0.5 is outside the nonneg-rational carrier",
    ),
    "Potential: a string value": (
        lambda: Potential(U, dom("x"), {("0",): "1/2", ("1",): HALF}),
        ArgumentError,
        "value '1/2' is outside the nonneg-rational carrier",
    ),
}


@pytest.mark.parametrize("call, error, fragment", REFUSALS.values(), ids=REFUSALS.keys())
def test_malformed_input_is_refused(call, error, fragment):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert fragment in str(raised.value)
