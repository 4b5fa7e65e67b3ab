"""Renaming and structural invariance properties, plus boundary-domain cases."""

import random
from fractions import Fraction

from valkit.algebra import Knowledgebase
from valkit.builtins import bell_model, malawi_csp
from valkit.contextuality import classify, probabilistic_model
from valkit.core import Assignment, NONNEG_RATIONAL, VariableUniverse, enumerate_assignments
from valkit.disagreement import (
    check_global_agreement_potentials,
    check_local_agreement,
)
from valkit.inference import InferenceProblem, solve_fusion, solve_naive
from valkit.logic import csp_to_knowledgebase
from valkit.potentials import Potential
from valkit.relations import Relation, empty_relation, full_relation

from conftest import random_relation, values_in


def renamed_potential_kb(kb: Knowledgebase, mapping: dict) -> Knowledgebase:
    universe = VariableUniverse.of(
        [(mapping[name], frame.values) for name, frame in kb.universe.entries]
    )
    renamed = []
    for phi in kb:
        table = {}
        for row, v in phi.table.items():
            table[Assignment.of({mapping[k]: val for k, val in zip(sorted(phi.domain), row)})] = v
        renamed.append(
            Potential.from_table(universe, frozenset(mapping[n] for n in phi.domain), NONNEG_RATIONAL, table)
        )
    return Knowledgebase(universe, tuple(renamed))


def test_feasibility_verdict_invariant_under_renaming():
    kb = bell_model().knowledgebase()
    mapping = {"a1": "left_first", "a2": "left_second", "b1": "right_first", "b2": "right_second"}
    renamed = renamed_potential_kb(kb, mapping)
    assert check_global_agreement_potentials(kb).agrees == check_global_agreement_potentials(renamed).agrees


def test_classification_invariant_under_measurement_renaming():
    model = bell_model()
    mapping = {"a1": "x1", "a2": "x2", "b1": "y1", "b2": "y2"}
    universe = VariableUniverse.of(
        [(mapping[n], f.values) for n, f in model.scenario.universe.entries]
    )
    contexts = [tuple(mapping[m] for m in ctx) for ctx in model.scenario.contexts]
    sections = {}
    for ctx, section in zip(model.scenario.contexts, model.sections):
        renamed_ctx = tuple(mapping[m] for m in ctx)
        sections[renamed_ctx] = {
            values_in(row, ctx): v for row, v in section.table.items()
        }
    renamed = probabilistic_model(universe, contexts, sections)
    assert classify(renamed).classification == classify(model).classification


def test_csp_knowledgebase_agrees_locally_on_random_binary_csps():
    # Cover sets are the constraint schemes: pairwise overlaps are single
    # variables whose projections are full, so local agreement must hold.
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(3, 5)
        names = [f"x{i}" for i in range(n)]
        universe = VariableUniverse.of([(name, ("0", "1", "2")) for name in names])
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    edges.append((names[i], names[j]))
        if not edges:
            continue
        differ = [(a, b) for a in ("0", "1", "2") for b in ("0", "1", "2") if a != b]
        from valkit.logic import Constraint

        csp_universe = universe
        constraints = tuple(
            Constraint(edge, Relation.from_rows(csp_universe, edge, differ)) for edge in edges
        )
        from valkit.logic import CSPInstance

        kb = csp_to_knowledgebase(CSPInstance(csp_universe, constraints), [frozenset(e) for e in edges])
        assert check_local_agreement(kb).agrees


def test_empty_domain_valuations_flow_through_inference():
    universe = VariableUniverse.of([("x", ("0", "1"))])
    star = full_relation(universe, frozenset())  # the unique empty assignment
    x_rel = Relation.from_rows(universe, ("x",), [("0",)])
    kb = Knowledgebase(universe, (star, x_rel))
    result = solve_fusion(InferenceProblem(kb, frozenset()))
    assert result == star
    assert solve_naive(InferenceProblem(kb, frozenset({"x"}))) == x_rel


def test_empty_domain_null_detected_in_local_check():
    universe = VariableUniverse.of([("x", ("0", "1"))])
    z0 = empty_relation(universe, frozenset())
    x_rel = Relation.from_rows(universe, ("x",), [("0",)])
    verdict = check_local_agreement(Knowledgebase(universe, (z0, x_rel)))
    # The empty relation projects to nothing while a nonempty one reaches {*}.
    assert not verdict.agrees


def test_projection_to_empty_domain_counts_mass():
    universe = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1"))])
    table = {
        a: Fraction(1, 4) for a in enumerate_assignments(frozenset({"x", "y"}), universe)
    }
    phi = Potential.from_table(universe, frozenset({"x", "y"}), NONNEG_RATIONAL, table)
    from valkit.potentials import project_potential

    collapsed = project_potential(phi, frozenset())
    assert collapsed.table[()] == 1


def test_malawi_csp_equals_precompiled_knowledgebase():
    from valkit.builtins import malawi_knowledgebase

    csp = malawi_csp()
    covers = [c.scheme_set for c in csp.constraints]
    assert csp_to_knowledgebase(csp, covers) == malawi_knowledgebase()


def test_random_relation_kbs_fusion_handles_null_members():
    rng = random.Random(51)
    universe = VariableUniverse.of([(n, ("0", "1")) for n in ("p", "q", "r")])
    empty = empty_relation(universe, frozenset({"p", "q"}))
    other = random_relation(rng, universe)
    kb = Knowledgebase(universe, (empty, other))
    for query in (frozenset(), frozenset({"p"}), kb.joint_domain):
        assert solve_fusion(InferenceProblem(kb, query)) == solve_naive(InferenceProblem(kb, query))
        assert solve_fusion(InferenceProblem(kb, query)).is_empty()
