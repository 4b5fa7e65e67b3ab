import random
from fractions import Fraction
from itertools import combinations

import pytest

from valkit.algebra import Knowledgebase
from valkit.builtins import (
    bell_model,
    liar_knowledgebase,
    malawi_knowledgebase,
    screening_knowledgebase,
)
from valkit.contextuality import classify
from valkit.core import Assignment, VariableUniverse
from valkit.disagreement import (
    analyze_knowledgebase,
    check_complete_disagreement,
    check_global_agreement_adjoint,
    check_global_agreement_potentials,
    check_local_agreement,
    combination_verdict,
    marginal_system,
    search_truth_valuations,
)
from valkit.errors import CapabilityError, ResourceLimitError
from valkit.feasibility import validate_certificate, validate_solution
from valkit.inference import DEFAULT_CELL_LIMIT, InferenceProblem, solve_naive
from valkit.potentials import Potential, constant_potential, project_potential
from valkit.relations import Relation, full_relation, project_relation, relation_leq

from conftest import (
    cycle_model,
    drawn_potential,
    empty_domain_potential_kb,
    enumerate_assignments,
    noisy_cycle_correlators,
    random_potential_kb,
    random_relation,
    random_relation_kb,
)


def test_screening_local_agreement_passes():
    assert check_local_agreement(screening_knowledgebase()).agrees


def test_malawi_local_agreement_passes_all_pairs():
    kb = malawi_knowledgebase()
    assert check_local_agreement(kb).agrees
    assert len(list(combinations(range(len(kb)), 2))) == 28


def test_constructed_local_disagreement_detected(screening_universe):
    kb = screening_knowledgebase()
    r1 = kb.valuations[0]
    # Delete the tuples with e = M so the e-projection differs from source 2.
    smaller = Relation.of(
        screening_universe,
        [x for x in (Assignment.from_row(r1.domain, t) for t in r1.tuples) if x.value("e") != "M"],
    )
    broken = Knowledgebase(screening_universe, (smaller, kb.valuations[1], kb.valuations[2]))
    verdict = check_local_agreement(broken)
    assert not verdict.agrees
    assert verdict.pair == (1, 2)
    left, right = verdict.projections
    assert left != right
    # The witness re-checks by one projection per side.
    assert project_relation(smaller, verdict.overlap) == left
    assert project_relation(kb.valuations[1], verdict.overlap) == right


def test_screening_global_disagreement_with_witness_one(screening_universe):
    verdict = check_global_agreement_adjoint(screening_knowledgebase())
    assert not verdict.agrees
    assert verdict.witness_index == 1
    assert verdict.projected == Relation.from_rows(
        screening_universe, ("e", "f"), [("M", "Y"), ("CBE", "2Y")]
    )


def test_relation_with_own_projection_agrees(screening_universe):
    kb = screening_knowledgebase()
    r1 = kb.valuations[0]
    pair = Knowledgebase(screening_universe, (r1, project_relation(r1, frozenset({"e"}))))
    verdict = check_global_agreement_adjoint(pair)
    assert verdict.agrees
    assert verdict.truth == r1


def test_malawi_disagrees_globally_and_completely():
    kb = malawi_knowledgebase()
    assert not check_global_agreement_adjoint(kb).agrees
    assert check_complete_disagreement(kb)


@pytest.mark.parametrize("n", range(3, 11))
def test_liar_cycles_agree_locally_but_disagree_completely(n):
    kb = liar_knowledgebase(n)
    assert check_local_agreement(kb).agrees
    assert check_complete_disagreement(kb)
    assert not check_global_agreement_adjoint(kb).agrees


def test_two_cycle_is_a_direct_contradiction():
    # With n = 2 both formulas share the whole domain {s1, s2}, so the
    # equality and inequality relations contradict each other outright:
    # local agreement fails even though complete disagreement still holds.
    kb = liar_knowledgebase(2)
    verdict = check_local_agreement(kb)
    assert not verdict.agrees
    assert verdict.overlap == frozenset({"s1", "s2"})
    assert check_complete_disagreement(kb)


@pytest.mark.parametrize("n", range(2, 11))
def test_consistent_cycles_agree_globally(n):
    kb = liar_knowledgebase(n, consistent=True)
    verdict = check_global_agreement_adjoint(kb)
    assert verdict.agrees
    constants = {("0",) * n, ("1",) * n}
    assert verdict.truth.tuples == constants


def test_screening_not_complete():
    assert not check_complete_disagreement(screening_knowledgebase())


def test_adjoint_check_requires_adjoint_algebra():
    kb = bell_model().knowledgebase()
    with pytest.raises(CapabilityError):
        check_global_agreement_adjoint(kb)


def test_potential_check_requires_rationals(screening_universe):
    kb = screening_knowledgebase()
    with pytest.raises(CapabilityError):
        check_global_agreement_potentials(kb)


def test_bell_potentials_disagree_with_valid_certificate():
    kb = bell_model().knowledgebase()
    verdict = check_global_agreement_potentials(kb)
    assert not verdict.agrees
    assert validate_certificate(marginal_system(kb), verdict.certificate)


def test_single_normalized_potential_agrees():
    universe = VariableUniverse.of([("x", ("0", "1"))])
    phi = constant_potential(universe, frozenset({"x"}), Fraction(1, 2))
    verdict = check_global_agreement_potentials(Knowledgebase(universe, (phi,)))
    assert verdict.agrees
    assert project_potential(verdict.truth, phi.domain) == phi


def test_uniform_product_sections_agree_on_bell_scenario():
    model = bell_model()
    universe = model.scenario.universe
    uniform_sections = tuple(
        constant_potential(universe, frozenset(ctx), Fraction(1, 4))
        for ctx in model.scenario.contexts
    )
    kb = Knowledgebase(universe, uniform_sections)
    verdict = check_global_agreement_potentials(kb)
    assert verdict.agrees
    # Oracle: the uniform global distribution reproduces every section by fiber
    # sums, so it must satisfy the marginal equations directly.
    uniform_global = {
        g: Fraction(1, 16) for g in universe.rows(kb.joint_domain)
    }
    assert validate_solution(marginal_system(kb), uniform_global)
    for section in uniform_sections:
        assert project_potential(verdict.truth, section.domain) == section


def test_feasibility_verdict_invariant_under_reordering():
    rng = random.Random(17)
    model = bell_model()
    sections = list(model.knowledgebase().valuations)
    base = check_global_agreement_potentials(model.knowledgebase()).agrees
    for _ in range(4):
        rng.shuffle(sections)
        shuffled = Knowledgebase(model.scenario.universe, tuple(sections))
        assert check_global_agreement_potentials(shuffled).agrees == base


def test_resource_limit_on_feasibility_columns():
    kb = bell_model().knowledgebase()
    with pytest.raises(ResourceLimitError):
        check_global_agreement_potentials(kb, column_limit=8)


# Independent oracle: dict-based search over every subset of global assignments.
def naive_truth_search(kb):
    universe = kb.universe
    joint = kb.joint_domain
    points = enumerate_assignments(joint, universe)
    found = []
    for size in range(len(points) + 1):
        for chosen in combinations(points, size):
            ok = True
            for phi in kb:
                projected = {p.restrict(phi.domain).row for p in chosen}
                if projected != set(phi.tuples):
                    ok = False
                    break
            if ok:
                found.append(frozenset(p.row for p in chosen))
    return found


def test_truth_search_matches_naive_oracle_on_small_cases():
    rng = random.Random(23)
    universe = VariableUniverse.of([("p", ("0", "1")), ("q", ("0", "1")), ("r", ("0", "1"))])
    for _ in range(25):
        kb = Knowledgebase(
            universe,
            tuple(random_relation(rng, universe) for _ in range(rng.randint(1, 3))),
        )
        fast = {r.tuples for r in search_truth_valuations(kb, state_limit=8)}
        slow = set(naive_truth_search(kb))
        assert fast == slow


def test_truth_search_agrees_with_adjoint_verdict():
    rng = random.Random(29)
    universe = VariableUniverse.of([(n, ("0", "1")) for n in ("p", "q", "r", "s")])
    seen_agree = 0
    for _ in range(60):
        kb = Knowledgebase(
            universe,
            tuple(random_relation(rng, universe) for _ in range(rng.randint(1, 4))),
        )
        verdict = check_global_agreement_adjoint(kb)
        found = search_truth_valuations(kb)
        assert verdict.agrees == bool(found)
        if verdict.agrees:
            seen_agree += 1
            assert verdict.truth in found
            for delta in found:
                assert relation_leq(delta, verdict.truth)
    assert seen_agree > 0  # the sampler must exercise both outcomes


def test_truth_maximality_on_full_relations(screening_universe):
    e1 = full_relation(screening_universe, frozenset({"a"}))
    e2 = full_relation(screening_universe, frozenset({"e"}))
    kb = Knowledgebase(screening_universe, (e1, e2))
    verdict = check_global_agreement_adjoint(kb)
    assert verdict.agrees
    assert verdict.truth == full_relation(screening_universe, frozenset({"a", "e"}))
    found = search_truth_valuations(kb)
    assert verdict.truth in found
    assert all(relation_leq(delta, verdict.truth) for delta in found)


def test_truth_maximality_rejects_non_truth_gamma(screening_universe):
    # The screening knowledgebase disagrees, so it has no truth valuation,
    # the full relation over its variables included.
    kb = screening_knowledgebase()
    assert not check_global_agreement_adjoint(kb).agrees
    assert full_relation(screening_universe, kb.joint_domain) not in search_truth_valuations(kb)


def test_truth_search_resource_limit():
    universe = VariableUniverse.of([(f"v{i}", ("0", "1")) for i in range(8)])
    rng = random.Random(1)
    kb = Knowledgebase(universe, (random_relation(rng, universe, domain=universe.vars),))
    with pytest.raises(ResourceLimitError):
        search_truth_valuations(kb, state_limit=16)


def test_global_agreement_implies_local_agreement():
    rng = random.Random(37)
    universe = VariableUniverse.of([(n, ("0", "1")) for n in ("p", "q", "r")])
    checked = 0
    for _ in range(80):
        kb = Knowledgebase(
            universe,
            tuple(random_relation(rng, universe) for _ in range(rng.randint(2, 4))),
        )
        if check_global_agreement_adjoint(kb).agrees:
            checked += 1
            assert check_local_agreement(kb).agrees
    assert checked > 0


def test_complete_implies_global_disagreement_for_nontrivial_kbs():
    rng = random.Random(41)
    universe = VariableUniverse.of([(n, ("0", "1")) for n in ("p", "q", "r")])
    for _ in range(60):
        kb = Knowledgebase(
            universe,
            tuple(random_relation(rng, universe) for _ in range(rng.randint(2, 4))),
        )
        if check_complete_disagreement(kb) and any(not v.is_empty() for v in kb):
            assert not check_global_agreement_adjoint(kb).agrees


def test_locally_disagreeing_potentials_still_get_certificate():
    model = bell_model()
    universe = model.scenario.universe
    sections = list(model.knowledgebase().valuations)
    # Replace the first section with a point mass: the a1-marginal now clashes
    # with the second section, and no global distribution can exist either.
    domain = sections[0].domain
    point = min(sections[0].table)
    sections[0] = Potential.from_table(
        universe,
        domain,
        {Assignment.from_row(domain, a): (Fraction(1) if a == point else Fraction(0)) for a in sections[0].table},
    )
    kb = Knowledgebase(universe, tuple(sections))
    report = analyze_knowledgebase(kb)
    assert not report.local.agrees
    assert not report.global_agreement.agrees
    assert report.global_agreement.certificate is not None
    assert validate_certificate(marginal_system(kb), report.global_agreement.certificate)


def test_complete_disagreement_for_potentials():
    universe = VariableUniverse.of([("x", ("0", "1"))])
    left = Potential.from_table(
        universe,
        frozenset({"x"}),
        {Assignment.of({"x": "0"}): Fraction(1), Assignment.of({"x": "1"}): Fraction(0)},
    )
    right = Potential.from_table(
        universe,
        frozenset({"x"}),
        {Assignment.of({"x": "0"}): Fraction(0), Assignment.of({"x": "1"}): Fraction(1)},
    )
    kb = Knowledgebase(universe, (left, right))
    assert check_complete_disagreement(kb)
    assert not check_complete_disagreement(Knowledgebase(universe, (left, left)))


def test_analyze_knowledgebase_report_shape():
    report = analyze_knowledgebase(screening_knowledgebase())
    assert report.local.agrees
    assert not report.global_agreement.agrees
    assert report.global_agreement.witness_index == 1
    assert report.complete_disagreement is False

    report = analyze_knowledgebase(bell_model().knowledgebase())
    assert report.local.agrees
    assert not report.global_agreement.agrees
    assert report.global_agreement.certificate is not None
    assert report.complete_disagreement is False


def test_relation_verdicts_read_off_the_combination_match_the_direct_checks():
    # check_complete_disagreement and check_global_agreement_adjoint serve as
    # oracles for what analyze_knowledgebase and combination_verdict read off
    # one combination, on criterion-7-style random relation knowledgebases.
    rng = random.Random(5)
    seen = {"agree": 0, "disagree": 0, "complete": 0}
    for _ in range(300):
        kb = random_relation_kb(rng)
        expected = check_global_agreement_adjoint(kb)
        complete = check_complete_disagreement(kb)
        report = analyze_knowledgebase(kb)
        assert report.global_agreement == expected
        assert report.complete_disagreement == complete
        combination = solve_naive(InferenceProblem(kb, kb.joint_domain))
        assert combination_verdict(kb, combination) == expected
        seen["agree" if expected.agrees else "disagree"] += 1
        seen["complete"] += complete
    assert all(seen.values()), seen


def test_relation_analysis_solves_no_complete_disagreement_problem(monkeypatch):
    # Knowledgebases and models of either kind read complete disagreement off
    # the support tree's root: no analysis calls the fusion reference or fusion.
    def refuse(*args, **kwargs):
        raise AssertionError("an analysis solved a complete-disagreement problem by fusion")

    monkeypatch.setattr("valkit.disagreement.check_complete_disagreement", refuse)
    monkeypatch.setattr("valkit.disagreement.solve_fusion", refuse)
    monkeypatch.setattr("valkit.inference.solve_fusion", refuse)
    rng = random.Random(19)
    rational = [random_potential_kb(rng, draw=drawn_potential) for _ in range(20)]
    for kb in (
        screening_knowledgebase(),
        malawi_knowledgebase(),
        liar_knowledgebase(4, consistent=True),
        bell_model().knowledgebase(),
        empty_domain_potential_kb(),
        *rational,
    ):
        analyze_knowledgebase(kb)
    for model in (bell_model(), *(cycle_model(noisy_cycle_correlators(5, c)) for c in (True, False))):
        classify(model)


def test_rational_complete_disagreement_matches_fusion_under_every_limit():
    # The supports' tree is calibrated unguarded, so wherever the fusion
    # reference answers, under the default limit or one of 2 to 128 cells,
    # the analysis answers too, and with the same verdict.
    rng = random.Random(13)
    seen = {True: 0, False: 0, "refused": 0}
    for _ in range(100):
        kb = random_potential_kb(rng, draw=drawn_potential)
        for limit in (DEFAULT_CELL_LIMIT, 2, 4, 8, 16, 32, 64, 128):
            try:
                expected = check_complete_disagreement(kb, limit)
            except ResourceLimitError:
                seen["refused"] += 1
                continue
            assert analyze_knowledgebase(kb, limit).complete_disagreement == expected, (kb, limit)
            seen[expected] += 1
    assert all(seen.values()), seen
