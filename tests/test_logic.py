from itertools import product

import pytest

from valkit.builtins import (
    MALAWI_COLORS,
    MALAWI_COUNTRIES,
    MALAWI_EDGES,
    liar_knowledgebase,
    malawi_csp,
    malawi_knowledgebase,
)
from valkit.core import VariableUniverse
from valkit.errors import ArgumentError
from valkit.logic import Constraint, CSPInstance, csp_to_knowledgebase
from valkit.relations import Relation, full_relation, project_relation

from conftest import enumerate_assignments


def test_malawi_cover_relation_is_six_differing_pairs():
    # Oracle: brute force over the 9 ordered pairs against the "differ" rule.
    kb = malawi_knowledgebase()
    first = kb.valuations[0]
    assert first.domain == frozenset({"MOZ", "MWI"})
    expected = {
        (c1, c2)  # rows follow the sorted domain (MOZ, MWI)
        for c1, c2 in product(MALAWI_COLORS, MALAWI_COLORS)
        if c1 != c2
    }
    assert first.tuples == frozenset(expected)
    assert len(first.tuples) == 6
    for valuation in kb:
        assert len(valuation.tuples) == 6


def test_malawi_has_no_three_coloring_by_brute_force():
    # Independent oracle: check all 3^5 = 243 colourings against the edge list.
    count = 0
    solutions = []
    for combo in product(MALAWI_COLORS, repeat=len(MALAWI_COUNTRIES)):
        count += 1
        coloring = dict(zip(MALAWI_COUNTRIES, combo))
        if all(coloring[a] != coloring[b] for a, b in MALAWI_EDGES):
            solutions.append(coloring)
    assert count == 243
    assert solutions == []


def test_malawi_constraint_graph_contains_a_k4():
    # Four mutually adjacent countries force a fourth colour.
    clique = ("MOZ", "MWI", "TZA", "ZMB")
    edges = {frozenset(e) for e in MALAWI_EDGES}
    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            assert frozenset({a, b}) in edges


def test_cover_missing_constraints_gives_full_relation():
    csp = malawi_csp()
    # A single-variable cover meets every scheme in at most one variable.
    kb = csp_to_knowledgebase(csp, [frozenset({"MOZ"})])
    assert kb.valuations[0] == full_relation(csp.universe, frozenset({"MOZ"}))


def test_unconstrained_cover_is_vacuously_full():
    universe = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1")), ("z", ("0", "1"))])
    allowed = Relation.from_rows(universe, ("x", "y"), [("0", "0")])
    csp = CSPInstance(universe, (Constraint(("x", "y"), allowed),))
    kb = csp_to_knowledgebase(csp, [frozenset({"z"})])
    assert kb.valuations[0] == full_relation(universe, frozenset({"z"}))


def test_partial_overlap_satisfaction_rule():
    # A cover's relation holds the evaluations on it that satisfy every
    # constraint, where a constraint meeting the cover in part is tested
    # against its allowed relation projected to the shared variables.
    universe = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1")), ("w", ("0", "1"))])
    allowed = Relation.from_rows(universe, ("x", "y"), [("0", "1")])
    csp = CSPInstance(universe, (Constraint(("x", "y"), allowed),))
    full_overlap, partial, disjoint = csp_to_knowledgebase(
        csp, [frozenset({"x", "y"}), frozenset({"x"}), frozenset({"w"})]
    ).valuations
    # Full overlap: only (0, 1) passes.
    assert full_overlap == allowed
    # Partial overlap: x must be a projection of some allowed pair, so x = 0 only.
    assert partial.tuples == frozenset({("0",)})
    # No overlap: vacuous.
    assert disjoint == full_relation(universe, frozenset({"w"}))


def test_liar_cycle_three_compiles_to_expected_relations():
    kb = liar_knowledgebase(3)
    assert len(kb) == 3
    phi1, phi2, phi3 = kb.valuations
    assert phi1.tuples == frozenset({("0", "0"), ("1", "1")})  # (s1, s2)
    assert phi2.tuples == frozenset({("0", "0"), ("1", "1")})  # (s2, s3)
    assert phi3.tuples == frozenset({("1", "0"), ("0", "1")})  # (s1, s3)


def test_liar_cycle_two_is_equality_plus_inequality():
    kb = liar_knowledgebase(2)
    assert len(kb) == 2
    eq, neq = kb.valuations
    assert eq.domain == neq.domain == frozenset({"s1", "s2"})
    assert eq.tuples == frozenset({("0", "0"), ("1", "1")})  # (s1, s2)
    assert neq.tuples == frozenset({("0", "1"), ("1", "0")})


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_liar_single_variable_projections_are_full(n):
    kb = liar_knowledgebase(n)
    for phi in kb:
        for name in sorted(phi.domain):
            projected = project_relation(phi, frozenset({name}))
            assert len(projected.tuples) == 2  # both 0 and 1 remain possible


def test_liar_rejects_short_cycles():
    with pytest.raises(ArgumentError):
        liar_knowledgebase(1)


def test_consistent_cycle_has_constant_models():
    kb = liar_knowledgebase(4, consistent=True)
    # Brute force over the 16 truth assignments.
    names = [f"s{i}" for i in range(1, 5)]
    universe = kb.universe
    survivors = []
    for a in enumerate_assignments(frozenset(names), universe):
        if all(a.restrict(phi.domain).row in phi.tuples for phi in kb):
            survivors.append(a)
    values = {tuple(a.values_in(names)) for a in survivors}
    assert values == {("0", "0", "0", "0"), ("1", "1", "1", "1")}
