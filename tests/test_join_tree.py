"""The calibrated join tree and the indexed local check against their slow oracles.

`check_global_agreement_adjoint` reads every member's projection off one
calibrated bucket tree, and `check_local_agreement` projects only the pairs
that share a variable. The oracles below are the direct definitions: one
inference problem per member plus one over all variables, and every pair
projected onto its overlap. The verdicts must be equal, witnesses included.
"""

import itertools
import random
from fractions import Fraction

import pytest

from valkit import inference
from valkit.algebra import Knowledgebase
from valkit.core import NONNEG_RATIONAL, Assignment, VariableUniverse
from valkit.disagreement import (
    GlobalVerdict,
    LocalVerdict,
    analyze_knowledgebase,
    check_global_agreement_adjoint,
    check_local_agreement,
    tree_verdict,
)
from valkit.documents import canonical_json, parse_document_text
from valkit.errors import CapabilityError, ResourceLimitError
from valkit.inference import InferenceProblem, calibrate, solve_fusion, solve_naive
from valkit.potentials import Potential, constant_potential, project_potential, total_mass
from valkit.relations import Relation, project_relation

from conftest import (
    grid_colouring_document,
    random_potential,
    random_relation,
    random_universe,
    split_components_document,
)


def oracle_global_adjoint(kb):
    """One inference problem per member, then one over all variables on agreement."""
    algebra = kb.algebra()
    for index, phi in enumerate(kb, start=1):
        projected = solve_fusion(InferenceProblem(kb, algebra.label(phi)))
        if projected != phi:
            return GlobalVerdict(False, witness_index=index, projected=projected)
    return GlobalVerdict(True, truth=solve_fusion(InferenceProblem(kb, kb.joint_domain)))


def oracle_local_agreement(kb):
    """Every pair, in lexicographic order, projected onto its overlap."""
    algebra = kb.algebra()
    members = list(kb)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            overlap = algebra.label(members[i]) & algebra.label(members[j])
            left = algebra.project(members[i], overlap)
            right = algebra.project(members[j], overlap)
            if left != right:
                return LocalVerdict(False, pair=(i + 1, j + 1), overlap=overlap, projections=(left, right))
    return LocalVerdict(True)


def empty_domain_relation(universe, nonempty: bool) -> Relation:
    """{()} (the neutral element on ∅) or {} (the null element on ∅)."""
    return Relation.from_rows(universe, [], [()] if nonempty else [])


def random_tree_kb(rng: random.Random) -> Knowledgebase:
    """A relation knowledgebase with empty members, empty-domain members and often a disconnected cover.

    Half of them project one global relation, so that they agree, and then
    perturb a member now and then.
    """
    universe = random_universe(rng, max_vars=6, max_frame=3)
    names = sorted(universe.vars)
    count = rng.randint(1, 6)
    if rng.random() < 0.5:
        base = random_relation(rng, universe, frozenset(names), keep=rng.choice((0.05, 0.2, 0.5)))
        domains = [frozenset(rng.sample(names, rng.randint(0, min(3, len(names))))) for _ in range(count)]
        members = [project_relation(base, domain) for domain in domains]
        if rng.random() < 0.3:
            members[rng.randrange(count)] = random_relation(rng, universe)
    else:
        members = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.1:
                members.append(empty_domain_relation(universe, rng.random() < 0.7))
            else:
                domain = frozenset(rng.sample(names, rng.randint(1, min(3, len(names)))))
                members.append(random_relation(rng, universe, domain, keep=0.0 if roll < 0.15 else 0.7))
    return Knowledgebase(universe, tuple(members))


def is_disconnected(kb: Knowledgebase) -> bool:
    domains = [phi.domain for phi in kb if phi.domain]
    if not domains:
        return False
    reached, frontier = set(domains[0]), True
    while frontier:
        frontier = False
        for domain in domains:
            if domain & reached and not domain <= reached:
                reached |= domain
                frontier = True
    return reached != kb.joint_domain


def test_join_tree_verdicts_match_the_per_member_oracle():
    rng = random.Random(20260)
    seen = dict.fromkeys(("agree", "disagree", "complete", "local-fail", "empty-member", "empty-domain", "split"), 0)
    for _ in range(1200):
        kb = random_tree_kb(rng)
        expected = oracle_global_adjoint(kb)
        assert check_global_agreement_adjoint(kb) == expected, kb
        local = check_local_agreement(kb)
        assert local == oracle_local_agreement(kb), kb
        seen["agree" if expected.agrees else "disagree"] += 1
        seen["complete"] += (expected.truth if expected.agrees else expected.projected).is_empty()
        seen["local-fail"] += not local.agrees
        seen["empty-member"] += any(phi.is_empty() for phi in kb)
        seen["empty-domain"] += any(not phi.domain for phi in kb)
        seen["split"] += is_disconnected(kb)
    assert min(seen.values()) >= 20, seen


def test_calibrated_cliques_give_every_marginal_and_the_combination():
    rng = random.Random(77)
    for _ in range(300):
        kb = random_tree_kb(rng)
        algebra = kb.algebra()
        tree = calibrate(kb)
        for phi, marginal in zip(kb, tree.marginals()):
            assert marginal == solve_fusion(InferenceProblem(kb, algebra.label(phi)))
        gamma = solve_naive(InferenceProblem(kb, kb.joint_domain))
        assert tree.combination() == gamma
        for clique in tree.cliques:
            assert clique == project_relation(gamma, clique.domain)


def test_the_combination_joins_the_cliques_root_first(monkeypatch):
    # Joined root first, every intermediate is a projection of the
    # combination, so none is larger than the combination itself.
    from valkit.algebra import RelationAlgebra

    rng = random.Random(91)
    for _ in range(200):
        kb = random_tree_kb(rng)
        tree = calibrate(kb)
        steps = []

        class Recording(RelationAlgebra):
            def combine(self, phi, psi):
                steps.append(super().combine(phi, psi))
                return steps[-1]

        monkeypatch.setattr(Knowledgebase, "algebra", lambda self: Recording(self.universe))
        gamma = tree.combination()
        monkeypatch.undo()
        for step in steps:
            assert step == project_relation(gamma, step.domain)


def test_a_single_large_member_is_answered_at_the_default_limit():
    # The full relation over 13 bits is its own combination, and its home
    # clique spans every variable, so the combination is that clique: no join
    # runs, and a limit below the member's own 8192 rows refuses nothing.
    names = [f"v{i:02d}" for i in range(13)]
    universe = VariableUniverse.of([(name, ("0", "1")) for name in names])
    full = Relation.from_rows(universe, names, list(itertools.product("01", repeat=13)))
    kb = Knowledgebase(universe, (full,))
    verdict = check_global_agreement_adjoint(kb)
    assert verdict.agrees and verdict.truth == full
    assert calibrate(kb, cell_limit=8191).combination() == full


def test_the_root_first_join_adds_one_variable_at_a_time():
    # A chain of 12 full binary pairs over 13 bits has no clique over every
    # variable, so its combination, the full relation, is joined root first.
    # Each join adds one binary variable, so the last one is bounded by
    # 4096 x 2 tuples, not by the product 4096 x 4 with its pair's clique.
    names = [f"v{i:02d}" for i in range(13)]
    universe = VariableUniverse.of([(name, ("0", "1")) for name in names])
    pairs = [Relation.from_rows(universe, names[i : i + 2], list(itertools.product("01", repeat=2))) for i in range(12)]
    kb = Knowledgebase(universe, tuple(pairs))
    full = Relation.from_rows(universe, names, list(itertools.product("01", repeat=13)))
    assert all(clique.domain != kb.joint_domain for clique in calibrate(kb).cliques)
    assert check_global_agreement_adjoint(kb).truth == full
    assert calibrate(kb, cell_limit=8192).combination() == full
    with pytest.raises(ResourceLimitError, match="could reach 8192 cells"):
        calibrate(kb, cell_limit=8191).combination()


def refuse_joins(monkeypatch):
    """Make every natural join raise, wherever the relation algebra looks it up."""
    from valkit import algebra, relations

    def refuse(left, right):
        raise AssertionError("a natural join ran")

    monkeypatch.setattr(relations, "natural_join", refuse)
    monkeypatch.setattr(algebra, "natural_join", refuse)


def test_agreement_takes_a_member_over_the_joint_domain_as_the_combination(monkeypatch):
    # On agreement such a member is its own projection of the combination,
    # so once the tree is calibrated the verdict joins nothing. Appending the
    # combination to a random knowledgebase leaves its combination, and its
    # verdict, as they were.
    names = [f"v{i:02d}" for i in range(13)]
    universe = VariableUniverse.of([(name, ("0", "1")) for name in names])
    full = Relation.from_rows(universe, names, list(itertools.product("01", repeat=13)))
    cases = [Knowledgebase(universe, (project_relation(full, frozenset(names[:3])), full))]
    rng = random.Random(97)
    for _ in range(100):
        kb = random_tree_kb(rng)
        gamma = solve_naive(InferenceProblem(kb, kb.joint_domain))
        cases.append(Knowledgebase(kb.universe, kb.valuations + (gamma,)))
    trees = [calibrate(kb) for kb in cases]
    expected = [oracle_global_adjoint(kb) for kb in cases]
    refuse_joins(monkeypatch)
    agreed = 0
    for kb, tree, oracle in zip(cases, trees, expected):
        verdict = tree_verdict(tree)
        assert verdict == oracle
        if verdict.agrees:
            assert verdict.truth == kb.valuations[-1]
            agreed += 1
    assert agreed > 1


def test_a_clique_over_every_variable_is_the_combination(monkeypatch):
    # Two kinds of tree have a clique over the joint domain: one whose
    # knowledgebase has a member over it (appended here, either the
    # combination or a random relation that may contradict the rest), and one
    # where eliminating a variable alone makes such a clique (a cycle of pairs
    # over three variables, projected from one relation half the time so
    # that it agrees). Either way the combination is that clique and no
    # natural join runs.
    rng = random.Random(4242)
    cases = []
    for _ in range(300):
        kb = random_tree_kb(rng)
        if kb.joint_domain and rng.random() < 0.5:
            extra = solve_naive(InferenceProblem(kb, kb.joint_domain))
            if rng.random() < 0.5:
                extra = random_relation(rng, kb.universe, kb.joint_domain, keep=0.6)
            kb = Knowledgebase(kb.universe, kb.valuations + (extra,))
        cases.append(kb)
    for _ in range(100):
        universe = random_universe(rng, max_vars=3, max_frame=3)
        names = sorted(universe.vars)
        if len(names) == 3:
            cycle = [frozenset(pair) for pair in itertools.combinations(names, 2)]
            if rng.random() < 0.5:
                base = random_relation(rng, universe, frozenset(names), keep=0.3)
                members = [project_relation(base, domain) for domain in cycle]
            else:
                members = [random_relation(rng, universe, domain, keep=rng.choice((0.5, 0.9))) for domain in cycle]
            cases.append(Knowledgebase(universe, tuple(members)))
    seen = dict.fromkeys(itertools.product(("member", "elimination"), ("agree", "disagree")), 0)
    for kb in cases:
        tree = calibrate(kb)
        if not any(clique.domain == kb.joint_domain for clique in tree.cliques):
            continue
        gamma = solve_naive(InferenceProblem(kb, kb.joint_domain))
        agrees = oracle_global_adjoint(kb).agrees
        with monkeypatch.context() as patch:
            refuse_joins(patch)
            assert tree.combination() == gamma, kb
        kind = "member" if any(phi.domain == kb.joint_domain for phi in kb) else "elimination"
        seen[kind, "agree" if agrees else "disagree"] += 1
    assert min(seen.values()) >= 10, seen


def random_local_potential_kb(rng: random.Random) -> Knowledgebase:
    """Potentials whose disjoint pairs differ, or not, by total mass alone."""
    universe = random_universe(rng, max_vars=5, max_frame=3)
    names = sorted(universe.vars)
    count = rng.randint(1, 5)
    if rng.random() < 0.5:
        base = random_potential(rng, universe, frozenset(names))
        domains = [frozenset(rng.sample(names, rng.randint(0, min(3, len(names))))) for _ in range(count)]
        members = [project_potential(base, domain) for domain in domains]
        if rng.random() < 0.4:
            members[rng.randrange(count)] = random_potential(rng, universe)
    else:
        members = []
        for _ in range(count):
            phi = random_potential(rng, universe)
            mass = total_mass(phi)
            if mass and rng.random() < 0.6:
                phi = Potential(universe, phi.domain, NONNEG_RATIONAL, {k: v / mass for k, v in phi.table.items()})
            members.append(phi)
    return Knowledgebase(universe, tuple(members))


def test_indexed_local_check_matches_the_pairwise_oracle_on_potentials():
    rng = random.Random(1000)
    seen = {"pass": 0, "overlap": 0, "disjoint": 0}
    for _ in range(1000):
        kb = random_local_potential_kb(rng)
        expected = oracle_local_agreement(kb)
        assert check_local_agreement(kb) == expected, kb
        if expected.agrees:
            seen["pass"] += 1
        else:
            seen["overlap" if expected.overlap else "disjoint"] += 1
    assert min(seen.values()) >= 50, seen


def test_disjoint_members_differ_by_total_mass():
    # Members over {x} and {y} share no variable: a uniform distribution
    # agrees with a point mass and disagrees with the constant 1.
    universe = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1", "2"))])
    uniform = constant_potential(universe, frozenset({"x"}), NONNEG_RATIONAL, Fraction(1, 2))
    point = Potential.from_table(
        universe, frozenset({"y"}), NONNEG_RATIONAL, {Assignment.of({"y": "2"}): 1}, default=0
    )
    ones = constant_potential(universe, frozenset({"y"}), NONNEG_RATIONAL, Fraction(1))
    assert check_local_agreement(Knowledgebase(universe, (uniform, point))).agrees
    verdict = check_local_agreement(Knowledgebase(universe, (uniform, point, ones)))
    assert verdict.pair == (1, 3) and verdict.overlap == frozenset()
    assert [total_mass(p) for p in verdict.projections] == [1, 3]


def test_local_check_projects_only_the_pairs_it_needs(monkeypatch):
    # A chain of n equal members shares a variable only between neighbours:
    # n projections onto ∅ plus two per neighbouring pair, not n(n-1).
    from valkit.builtins import liar_knowledgebase

    projections = []
    original = Knowledgebase.algebra

    def recording_algebra(self):
        algebra = original(self)
        project = algebra.project

        def counted(phi, target):
            projections.append(target)
            return project(phi, target)

        algebra.project = counted
        return algebra

    monkeypatch.setattr(Knowledgebase, "algebra", recording_algebra)
    n = 40
    assert check_local_agreement(liar_knowledgebase(n, consistent=True)).agrees
    assert len(projections) == n + 2 * n


def test_relation_analysis_orders_the_variables_once(monkeypatch):
    from valkit.builtins import liar_knowledgebase, malawi_knowledgebase, screening_knowledgebase

    calls = []
    original = inference.heuristic_order

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(inference, "heuristic_order", counted)
    for kb in (screening_knowledgebase(), malawi_knowledgebase(), liar_knowledgebase(30, consistent=True)):
        calls.clear()
        analyze_knowledgebase(kb)
        assert calls == [frozenset()]


def test_calibration_needs_an_idempotent_algebra():
    rng = random.Random(8)
    universe = random_universe(rng)
    kb = Knowledgebase(universe, (random_potential(rng, universe),))
    with pytest.raises(CapabilityError, match="idempotent"):
        calibrate(kb)


def test_an_empty_component_empties_every_clique():
    # Two components: a chain a = b = c that agrees, and an inconsistent
    # triangle over p, q, r. The root over ∅ carries the triangle's emptiness
    # to the chain's cliques, so the first member is the witness.
    kb = parse_document_text(canonical_json(split_components_document())).knowledgebase()
    tree = calibrate(kb)
    assert all(clique.is_empty() for clique in tree.cliques)
    verdict = check_global_agreement_adjoint(kb)
    assert verdict.witness_index == 1 and verdict.projected.is_empty()
    assert verdict == oracle_global_adjoint(kb)


# Proper 3-colourings of the grid, from a row-to-row transfer matrix.
GRID_COLOURINGS = {(3, 3): 246, (4, 4): 7812, (4, 5): 54450}


@pytest.mark.parametrize("shape", sorted(GRID_COLOURINGS))
def test_grid_gamma_counts_the_colourings(shape):
    kb = parse_document_text(canonical_json(grid_colouring_document(*shape))).knowledgebase()
    verdict = check_global_agreement_adjoint(kb)
    assert verdict.agrees
    assert len(verdict.truth.tuples) == GRID_COLOURINGS[shape]

