"""Record semantics: what every value type of valkit promises as a value.

Each record class is pinned by one representative instance: its field names
in order, and its `repr` as a golden string. Around that the module checks
what a frozen record gives: `==` and `hash` agree, uncompared fields stay out
of `==`, `hash` and `repr`, records of different classes are never equal,
assignment and deletion raise `AttributeError`, construction works
positionally, by keyword and with defaults, a wrong arity or an unknown
keyword raises `TypeError`, and the `__post_init__` checks still fire.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from valkit.algebra import AxiomCheck, Knowledgebase
from valkit.builtins import BUILTINS, BuiltinSpec
from valkit.contextuality import (
    ContextualityReport,
    EmpiricalModel,
    MeasurementScenario,
    NoSignallingVerdict,
)
from valkit.core import Assignment, Frame, VariableUniverse, dom
from valkit.disagreement import AgreementReport, GlobalVerdict, LocalVerdict
from valkit.documents import ParsedInput
from valkit.errors import ArgumentError, DomainError
from valkit.feasibility import FarkasCertificate, FeasibilityResult, LinearSystem
from valkit.inference import InferenceProblem, JoinTree
from valkit.potentials import Potential
from valkit.relations import Relation

# One variable, so that every domain is a frozenset of at most one name and
# every repr below is the same under any hash seed.
U = VariableUniverse.of([("x", ("0", "1"))])
R = Relation(U, dom("x"), frozenset({("1",)}))
UNIT = Relation(U, dom(), frozenset({()}))
P = Potential.from_table(
    U,
    dom("x"),
    {Assignment.of({"x": "0"}): Fraction(1, 4), Assignment.of({"x": "1"}): Fraction(3, 4)},
)
KB = Knowledgebase(U, (R,))
SYSTEM = LinearSystem(("c",), ("r",), {("r", "c"): Fraction(1)}, {"r": Fraction(1)})
CERTIFICATE = FarkasCertificate((("r", Fraction(-1)),))
SCENARIO = MeasurementScenario(U, (("x",),))
LIAR = next(spec for spec in BUILTINS if spec.name == "liar(n)")

# class -> (field names in order, representative instance, golden repr)
RECORDS = {
    Frame: (("values",), Frame(("0", "1")), "Frame(values=('0', '1'))"),
    VariableUniverse: (
        ("entries",),
        U,
        "VariableUniverse(entries=(('x', Frame(values=('0', '1'))),))",
    ),
    Assignment: (("items",), Assignment.of({"x": "1"}), "(x=1)"),
    Relation: (("universe", "domain", "tuples"), R, "Relation[x]{(x=1)}"),
    Potential: (
        ("universe", "domain", "table"),
        P,
        "Potential[x|nonneg-rational]{(x=0)->1/4, (x=1)->3/4}",
    ),
    Knowledgebase: (
        ("universe", "valuations"),
        KB,
        "Knowledgebase(universe=VariableUniverse(entries=(('x', Frame(values=('0', '1'))),)), "
        "valuations=(Relation[x]{(x=1)},))",
    ),
    AxiomCheck: (
        ("axiom", "passed", "cases", "counterexample"),
        AxiomCheck("idempotency", True, 5),
        "AxiomCheck(axiom='idempotency', passed=True, cases=5, counterexample=None)",
    ),
    InferenceProblem: (
        ("knowledgebase", "query"),
        InferenceProblem(KB, dom("x")),
        "InferenceProblem(knowledgebase=Knowledgebase(universe=VariableUniverse(entries=(('x', "
        "Frame(values=('0', '1'))),)), valuations=(Relation[x]{(x=1)},)), query=frozenset({'x'}))",
    ),
    JoinTree: (
        ("knowledgebase", "order", "cliques", "parents", "homes"),
        JoinTree(KB, ("x",), (R, UNIT), (1,), (0,)),
        "JoinTree(knowledgebase=Knowledgebase(universe=VariableUniverse(entries=(('x', "
        "Frame(values=('0', '1'))),)), valuations=(Relation[x]{(x=1)},)), order=('x',), "
        "cliques=(Relation[x]{(x=1)}, Relation[∅]{(*)}), parents=(1,), homes=(0,))",
    ),
    LinearSystem: (
        ("columns", "rows", "entries", "rhs"),
        SYSTEM,
        "LinearSystem(columns=('c',), rows=('r',), entries={('r', 'c'): Fraction(1, 1)}, "
        "rhs={'r': Fraction(1, 1)})",
    ),
    FarkasCertificate: (
        ("coefficients",),
        CERTIFICATE,
        "FarkasCertificate(coefficients=(('r', Fraction(-1, 1)),))",
    ),
    FeasibilityResult: (
        ("feasible", "solution", "certificate"),
        FeasibilityResult(True, {"c": Fraction(1)}),
        "FeasibilityResult(feasible=True, solution={'c': Fraction(1, 1)}, certificate=None)",
    ),
    LocalVerdict: (
        ("agrees", "pair", "overlap", "projections"),
        LocalVerdict(False, (1, 2), dom("x"), (R, UNIT)),
        "LocalVerdict(agrees=False, pair=(1, 2), overlap=frozenset({'x'}), "
        "projections=(Relation[x]{(x=1)}, Relation[∅]{(*)}))",
    ),
    GlobalVerdict: (
        ("agrees", "truth", "witness_index", "projected", "certificate", "system"),
        GlobalVerdict(False, None, 2, R, CERTIFICATE, SYSTEM),
        "GlobalVerdict(agrees=False, truth=None, witness_index=2, projected=Relation[x]{(x=1)}, "
        "certificate=FarkasCertificate(coefficients=(('r', Fraction(-1, 1)),)))",
    ),
    AgreementReport: (
        ("local", "global_agreement", "complete_disagreement"),
        AgreementReport(LocalVerdict(True), GlobalVerdict(True, R), False),
        "AgreementReport(local=LocalVerdict(agrees=True, pair=None, overlap=None, projections=None), "
        "global_agreement=GlobalVerdict(agrees=True, truth=Relation[x]{(x=1)}, witness_index=None, "
        "projected=None, certificate=None), complete_disagreement=False)",
    ),
    MeasurementScenario: (
        ("universe", "contexts"),
        SCENARIO,
        "MeasurementScenario(universe=VariableUniverse(entries=(('x', Frame(values=('0', '1'))),)), "
        "contexts=(('x',),))",
    ),
    EmpiricalModel: (
        ("scenario", "sections"),
        EmpiricalModel(SCENARIO, (P,)),
        "EmpiricalModel(scenario=MeasurementScenario(universe=VariableUniverse(entries=(('x', "
        "Frame(values=('0', '1'))),)), contexts=(('x',),)), "
        "sections=(Potential[x|nonneg-rational]{(x=0)->1/4, (x=1)->3/4},))",
    ),
    NoSignallingVerdict: (
        ("passed", "pair", "overlap", "marginals"),
        NoSignallingVerdict(False, (("x",), ("x",)), dom(), (UNIT, UNIT)),
        "NoSignallingVerdict(passed=False, pair=(('x',), ('x',)), overlap=frozenset(), "
        "marginals=(Relation[∅]{(*)}, Relation[∅]{(*)}))",
    ),
    ContextualityReport: (
        (
            "gamma",
            "strongly_contextual",
            "logically_contextual",
            "probabilistically_contextual",
            "classification",
            "lc_witness",
            "sc_context",
            "feasibility",
        ),
        ContextualityReport(R, False, True, None, "LC", (("x",), Assignment.of({"x": "0"}))),
        "ContextualityReport(gamma=Relation[x]{(x=1)}, strongly_contextual=False, logically_contextual=True, "
        "probabilistically_contextual=None, classification='LC', lc_witness=(('x',), (x=0)), "
        "sc_context=None, feasibility=None)",
    ),
    ParsedInput: (
        ("kind", "payload"),
        ParsedInput("knowledgebase", KB),
        "ParsedInput(kind='knowledgebase', payload=Knowledgebase(universe=VariableUniverse(entries=(('x', "
        "Frame(values=('0', '1'))),)), valuations=(Relation[x]{(x=1)},)))",
    ),
    BuiltinSpec: (
        ("name", "kind", "summary", "factory"),
        LIAR,
        "BuiltinSpec(name='liar(n)', kind='knowledgebase', summary='cycle of biconditionals with one negated "
        "edge (pass a length, e.g. liar(3))', factory=None)",
    ),
}

CLASSES = list(RECORDS)


def _values(instance, fields):
    return [getattr(instance, name) for name in fields]


def _hash(instance):
    """The record's hash, or None when one of its compared fields is unhashable."""
    try:
        return hash(instance)
    except TypeError:
        return None


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_the_representative_record_keeps_its_repr(cls):
    _, instance, golden = RECORDS[cls]
    assert type(instance) is cls
    assert repr(instance) == golden


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction_give_equal_records(cls):
    fields, instance, golden = RECORDS[cls]
    values = _values(instance, fields)
    positional = cls(*values)
    keyword = cls(**dict(zip(fields, values)))
    for copy in (positional, keyword):
        assert copy is not instance
        assert copy == instance and not copy != instance
        assert _values(copy, fields) == values
        assert repr(copy) == golden
        assert _hash(copy) == _hash(instance)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_wrong_arity_or_unknown_keyword_raises_type_error(cls):
    fields, instance, _ = RECORDS[cls]
    values = _values(instance, fields)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=None)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise_attribute_error(cls):
    fields, instance, golden = RECORDS[cls]
    for name in (fields[0], fields[-1], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(instance, name, None)
        with pytest.raises(AttributeError):
            delattr(instance, name)
    assert repr(instance) == golden


def test_equal_records_hash_equal_and_differing_fields_compare_unequal():
    assert Frame(("0", "1")) == Frame(("0", "1"))
    assert hash(Frame(("0", "1"))) == hash(Frame(("0", "1")))
    assert Frame(("0", "1")) != Frame(("1", "0"))
    assert hash(Assignment.of({"x": "1"})) == hash(Assignment((("x", "1"),)))
    assert Assignment.of({"x": "1"}) != Assignment.of({"x": "0"})
    assert hash(R) == hash(Relation(U, dom("x"), frozenset({("1",)})))
    assert R != Relation(U, dom("x"), frozenset({("0",)}))
    assert {AxiomCheck("a", True, 1), AxiomCheck("a", True, 1), AxiomCheck("a", True, 2)} == {
        AxiomCheck("a", True, 1),
        AxiomCheck("a", True, 2),
    }
    assert P == Potential(U, dom("x"), {("0",): Fraction(1, 4), ("1",): Fraction(3, 4)})
    assert P != Potential(U, dom("x"), {("0",): Fraction(3, 4), ("1",): Fraction(1, 4)})


def test_uncompared_fields_stay_out_of_equality_hash_and_repr():
    with_system = GlobalVerdict(False, witness_index=2, system=SYSTEM)
    without = GlobalVerdict(False, witness_index=2)
    assert with_system == without and hash(with_system) == hash(without)
    assert repr(with_system) == repr(without)
    assert "system" not in repr(with_system)
    assert with_system.system is SYSTEM and without.system is None


def test_records_of_different_classes_are_never_equal():
    for a, b in combinations(CLASSES, 2):
        x, y = RECORDS[a][1], RECORDS[b][1]
        assert x != y and not x == y, (a.__name__, b.__name__)
    # The same field values under another class, or as a plain tuple, are not equal.
    assert LocalVerdict(True) != NoSignallingVerdict(True)
    assert Frame(("0", "1")) != (("0", "1"),)
    assert FarkasCertificate(()) != Assignment(())


def test_defaults_fill_the_fields_left_out():
    verdict = LocalVerdict(True)
    assert (verdict.agrees, verdict.pair, verdict.overlap, verdict.projections) == (True, None, None, None)
    result = FeasibilityResult(False, certificate=CERTIFICATE)
    assert (result.feasible, result.solution, result.certificate) == (False, None, CERTIFICATE)
    assert GlobalVerdict(True).system is None
    assert AxiomCheck("a", True, 1) == AxiomCheck(axiom="a", passed=True, cases=1, counterexample=None)
    assert ContextualityReport(R, False, False, False, "NC").feasibility is None


def test_post_init_checks_still_fire():
    with pytest.raises(ArgumentError, match="at least one value"):
        Frame(())
    with pytest.raises(ArgumentError, match="duplicate value labels"):
        Frame(("0", "0"))
    with pytest.raises(ArgumentError, match="duplicate variable names"):
        VariableUniverse((("x", Frame(("0",))), ("x", Frame(("1",)))))
    with pytest.raises(DomainError):
        Relation(U, dom("y"), frozenset())
    with pytest.raises(DomainError, match="must be total"):
        Potential(U, dom("x"), {("0",): Fraction(1)})
    with pytest.raises(ArgumentError, match="at least one valuation"):
        Knowledgebase(U, ())
    with pytest.raises(DomainError, match="outside the joint domain"):
        InferenceProblem(Knowledgebase(U, (UNIT,)), dom("x"))
    with pytest.raises(ArgumentError, match="undeclared row"):
        LinearSystem(("c",), ("r",), {("s", "c"): Fraction(1)}, {})
    with pytest.raises(ArgumentError, match="at least one context"):
        MeasurementScenario(U, ())
    wider = VariableUniverse.of([("x", ("0", "1", "2"))])  # the same name, a wider frame
    with pytest.raises(ArgumentError, match="built over a different universe"):
        EmpiricalModel(SCENARIO, (Relation(wider, dom("x"), frozenset({("1",)})),))


def test_post_init_derived_state_is_kept():
    assert U.vars == dom("x") and U.frame("x") == Frame(("0", "1"))
    assert dict(P.table) == {("0",): Fraction(1, 4), ("1",): Fraction(3, 4)}
