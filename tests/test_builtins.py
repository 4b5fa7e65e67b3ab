from fractions import Fraction

import pytest

from valkit.algebra import Knowledgebase
from valkit.builtins import BUILTINS, builtin, liar_knowledgebase
from valkit.contextuality import EmpiricalModel, classify, gamma, possibilistic_model
from valkit.core import Assignment
from valkit.disagreement import check_global_agreement_adjoint
from valkit.errors import ArgumentError


def test_bell_spot_values():
    model = builtin("bell")
    assert model.section_for(("a2", "b2"))(Assignment.of({"a2": "0", "b2": "0"})) == Fraction(1, 8)
    assert model.section_for(("a1", "b1"))(Assignment.of({"a1": "1", "b1": "0"})) == 0


def test_liar_parameterized_builtin():
    kb = builtin("liar(4)")
    assert isinstance(kb, Knowledgebase)
    assert len(kb) == 4
    assert kb.joint_domain == frozenset({"s1", "s2", "s3", "s4"})


def test_unknown_builtin_raises():
    with pytest.raises(ArgumentError):
        builtin("bogus")
    with pytest.raises(ArgumentError):
        builtin("liar(x)")


def test_builtin_registry_names():
    names = [spec.name for spec in BUILTINS]
    assert names == ["bell", "hardy", "ghz", "pr-box", "liar(n)", "malawi", "screening"]
    kinds = {spec.name: spec.kind for spec in BUILTINS}
    assert kinds["bell"] == "empirical-model"
    assert kinds["malawi"] == "knowledgebase"


def test_every_builtin_resolves():
    for spec in BUILTINS:
        name = "liar(3)" if spec.name == "liar(n)" else spec.name
        obj = builtin(name)
        assert isinstance(obj, (EmpiricalModel, Knowledgebase))


def test_liar_cycle_as_measurement_scenario_is_strongly_contextual():
    # The three edges of the length-3 cycle form an antichain cover; the
    # compiled relations become context supports with empty combination.
    kb = liar_knowledgebase(3)
    contexts = [tuple(sorted(phi.domain)) for phi in kb]
    supports = {
        ctx: phi.sorted_tuples()  # rows follow sorted(phi.domain), which is ctx
        for ctx, phi in zip(contexts, kb)
    }
    model = possibilistic_model(kb.universe, contexts, supports)
    assert gamma(model).is_empty()
    assert classify(model).classification == "SC"


def test_unique_truth_valuation_case(screening_universe):
    from valkit.relations import Relation

    # A single singleton relation admits exactly one truth valuation: itself.
    point = Relation.from_rows(screening_universe, ("a", "e"), [("54-", "M")])
    kb = Knowledgebase(screening_universe, (point,))
    verdict = check_global_agreement_adjoint(kb)
    assert verdict.agrees and verdict.truth == point
    from valkit.disagreement import search_truth_valuations

    assert search_truth_valuations(kb) == [verdict.truth]
