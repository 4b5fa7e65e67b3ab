"""The calibrated join tree and the indexed local check against their slow oracles.

`check_global_agreement_adjoint` reads every member's projection off one
calibrated bucket tree, and `check_local_agreement` projects only the pairs
that share a variable. The oracles below are the direct definitions: one
inference problem per member plus one over all variables, and every pair
projected onto its overlap. The verdicts must be equal, witnesses included.
"""

import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from valkit import inference
from valkit.algebra import Knowledgebase
from valkit.builtins import liar_knowledgebase
from valkit.contextuality import classify
from valkit.core import Assignment, VariableUniverse
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
from valkit.inference import TUPLE_CAP, InferenceProblem, JoinTree, calibrate, solve_fusion, solve_naive
from valkit.potentials import Potential, constant_potential, project_potential, total_mass
from valkit.relations import Relation, natural_join, project_relation

from conftest import (
    full_cycle_model,
    grid_colouring_document,
    random_no_signalling_possibilistic,
    random_potential,
    random_relation,
    random_universe,
    split_components_document,
)


def oracle_global_adjoint(kb):
    """One inference problem per member, then one over all variables on agreement."""
    for index, phi in enumerate(kb, start=1):
        projected = solve_fusion(InferenceProblem(kb, phi.domain))
        if projected != phi:
            return GlobalVerdict(False, witness_index=index, projected=projected)
    return GlobalVerdict(True, truth=solve_fusion(InferenceProblem(kb, kb.joint_domain)))


def oracle_local_agreement(kb):
    """Every pair, in lexicographic order, projected onto its overlap."""
    algebra = kb.algebra()
    members = list(kb)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            overlap = members[i].domain & members[j].domain
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
        tree = calibrate(kb)
        for phi, marginal in zip(kb, tree.marginals()):
            assert marginal == solve_fusion(InferenceProblem(kb, phi.domain))
        gamma = solve_naive(InferenceProblem(kb, kb.joint_domain))
        assert tree.combination() == gamma
        for clique in tree.cliques:
            assert clique == project_relation(gamma, clique.domain)


def root_first_join(tree: JoinTree, steps: list | None = None) -> Relation:
    """The combination as the cliques natural-joined root first: the oracle for `JoinTree.combination`'s walk.

    Each intermediate, appended to `steps` when given, is a projection of the
    combination that adds one clique's variable to the one before it.
    """
    result = tree.cliques[-1]
    for clique in reversed(tree.cliques[:-1]):
        result = natural_join(result, clique)
        if steps is not None:
            steps.append(result)
    return result


def test_the_walk_matches_the_root_first_join(monkeypatch):
    # On the seeded knowledgebases of this file and on consistent liar
    # cycles, a chain whose combination is 2 tuples as wide as the cycle,
    # the walk down the tree is the root-first join, and it joins nothing.
    # Every intermediate of the join is a projection of the combination.
    rng = random.Random(91)
    kbs = [random_tree_kb(rng) for _ in range(200)] + joint_clique_kbs(random.Random(4242))
    kbs += [liar_knowledgebase(n, consistent=True) for n in (2, 3, 9, 40, 400)]
    for kb in kbs:
        tree = calibrate(kb)
        steps = []
        gamma = root_first_join(tree, steps)
        for step in steps:
            assert step == project_relation(gamma, step.domain)
        refuse_joins(monkeypatch)
        assert tree.combination() == gamma, kb
        monkeypatch.undo()


def test_a_single_large_member_is_answered_at_the_default_limit():
    # The full relation over 13 bits is its own combination. Its 8192 tuples
    # are past TUPLE_CAP, so the verdict carries the tree, which counts them;
    # a limit below the member's own 8192 rows refuses nothing, and joined,
    # the combination is the member.
    names = [f"v{i:02d}" for i in range(13)]
    universe = VariableUniverse.of([(name, ("0", "1")) for name in names])
    full = Relation.from_rows(universe, names, list(itertools.product("01", repeat=13)))
    kb = Knowledgebase(universe, (full,))
    verdict = check_global_agreement_adjoint(kb)
    assert verdict.agrees and isinstance(verdict.truth, JoinTree) and verdict.truth.size == 8192
    assert calibrate(kb, cell_limit=8191).combination() == full


def test_the_root_first_join_adds_one_variable_at_a_time(monkeypatch):
    # A chain of 12 full binary pairs over 13 bits has the full relation as
    # its combination. Its 8192 tuples are past TUPLE_CAP, so the verdict
    # carries the tree, which counts them, and joins nothing. A cell limit
    # below the count refuses the combination before its walk starts, and the
    # walk, asked for, joins nothing either. The root-first join it replaces
    # adds one binary variable at a time, each step a projection of the
    # combination.
    names = [f"v{i:02d}" for i in range(13)]
    universe = VariableUniverse.of([(name, ("0", "1")) for name in names])
    pairs = [Relation.from_rows(universe, names[i : i + 2], list(itertools.product("01", repeat=2))) for i in range(12)]
    kb = Knowledgebase(universe, tuple(pairs))
    full = Relation.from_rows(universe, names, list(itertools.product("01", repeat=13)))
    tree = calibrate(kb, cell_limit=8)
    verdict = check_global_agreement_adjoint(kb)
    assert verdict.agrees and verdict.truth == tree and verdict.truth.size == 8192
    assert tree.gamma is tree
    steps = []
    assert root_first_join(tree, steps) == full
    assert [len(step.domain) for step in steps] == list(range(1, 14))
    refuse_joins(monkeypatch)
    with pytest.raises(ResourceLimitError, match="Gamma has 8192 tuples \\(limit 8191\\)"):
        tree.combination(8191)
    assert tree.combination(8192) == full


def refuse_joins(monkeypatch):
    """Make every natural join raise, wherever the relation algebra looks it up."""
    from valkit import algebra, relations

    def refuse(left, right):
        raise AssertionError("a natural join ran")

    monkeypatch.setattr(relations, "natural_join", refuse)
    monkeypatch.setattr(algebra, "natural_join", refuse)


def test_agreement_takes_a_member_over_the_joint_domain_as_the_combination():
    # On agreement such a member is its own projection of the combination.
    # Appending the combination to a random knowledgebase leaves its
    # combination, and its verdict, as they were.
    names = [f"v{i:02d}" for i in range(13)]
    universe = VariableUniverse.of([(name, ("0", "1")) for name in names])
    full = Relation.from_rows(universe, names, list(itertools.product("01", repeat=13)))
    cases = [Knowledgebase(universe, (project_relation(full, frozenset(names[:3])), full))]
    rng = random.Random(97)
    for _ in range(100):
        kb = random_tree_kb(rng)
        gamma = solve_naive(InferenceProblem(kb, kb.joint_domain))
        cases.append(Knowledgebase(kb.universe, kb.valuations + (gamma,)))
    agreed = 0
    for kb in cases:
        verdict = check_global_agreement_adjoint(kb)
        if isinstance(verdict.truth, JoinTree):
            verdict = GlobalVerdict(True, truth=verdict.truth.combination())
        assert verdict == oracle_global_adjoint(kb)
        if verdict.agrees:
            assert verdict.truth == kb.valuations[-1]
            agreed += 1
    assert agreed > 1


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
                phi = Potential(universe, phi.domain, {k: v / mass for k, v in phi.table.items()})
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
    uniform = constant_potential(universe, frozenset({"x"}), Fraction(1, 2))
    point = Potential.from_table(
        universe, frozenset({"y"}), {Assignment.of({"y": "2"}): 1}, default=0
    )
    ones = constant_potential(universe, frozenset({"y"}), Fraction(1))
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


def test_a_null_root_ends_calibration_without_a_join(monkeypatch):
    # An inconsistent liar(n) is a chain closed by a contradiction: the
    # collect pass makes n - 1 joins and n projections and leaves the root
    # empty, so the distribute pass joins nothing and every clique is empty.
    # An agreeing 4x4 grid 3-colouring still runs both passes.
    from valkit import algebra, relations

    calls = {"_join": 0, "project_relation": 0}

    def counted(original):
        def call(*args):
            calls[original.__name__] += 1
            return original(*args)

        return call

    monkeypatch.setattr(relations, "_join", counted(relations._join))
    monkeypatch.setattr(algebra, "project_relation", counted(relations.project_relation))
    for n in (40, 160):
        calls.update(dict.fromkeys(calls, 0))
        tree = calibrate(liar_knowledgebase(n))
        assert calls == {"_join": n - 1, "project_relation": n}
        assert all(clique.is_empty() for clique in tree.cliques)
    calls.update(dict.fromkeys(calls, 0))
    calibrate(parse_document_text(canonical_json(grid_colouring_document(4, 4))).knowledgebase())
    assert calls == {"_join": 39, "project_relation": 32}


# Proper 3-colourings of the grid, from a row-to-row transfer matrix.
GRID_COLOURINGS = {
    (3, 3): 246,
    (4, 4): 7812,
    (4, 5): 54450,
    (5, 5): 580986,
    (6, 6): 101596896,
    (8, 8): 40724629633188,
}


def test_the_grid_colourings_agree_with_the_bench_oracle():
    path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    assert {shape: oracle.grid_colourings(*shape) for shape in GRID_COLOURINGS} == GRID_COLOURINGS


@pytest.mark.parametrize("shape", sorted(GRID_COLOURINGS))
def test_grid_gamma_counts_the_colourings(shape, monkeypatch):
    # Up to TUPLE_CAP the truth is Gamma's tuples; past it, the calibrated
    # tree, which counts the colourings without joining one of them.
    kb = parse_document_text(canonical_json(grid_colouring_document(*shape))).knowledgebase()
    tree = calibrate(kb)
    if GRID_COLOURINGS[shape] > TUPLE_CAP:
        refuse_joins(monkeypatch)
    verdict = tree_verdict(tree)
    assert verdict.agrees
    if GRID_COLOURINGS[shape] <= TUPLE_CAP:
        assert len(verdict.truth.tuples) == GRID_COLOURINGS[shape]
    else:
        assert isinstance(verdict.truth, JoinTree) and verdict.truth.size == GRID_COLOURINGS[shape]


def joint_clique_kbs(rng: random.Random) -> list[Knowledgebase]:
    """Knowledgebases whose calibrated tree often has a clique over every variable.

    Either a member over the joint domain is appended to a random
    knowledgebase (its combination, or a random relation that may
    contradict the rest), or a cycle of pairs over three variables makes
    such a clique by elimination alone, projected from one relation half the
    time so that it agrees.
    """
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
    return cases


def test_a_clique_over_every_variable_is_the_combination():
    # Two kinds of tree have a clique over the joint domain: one whose
    # knowledgebase has a member over it, and one where eliminating a
    # variable alone makes such a clique. Either way, once calibrated, that
    # clique is the combination, and the walk down the tree gives it back,
    # whether the knowledgebase agrees or not.
    seen = dict.fromkeys(itertools.product(("member", "elimination"), ("agree", "disagree")), 0)
    for kb in joint_clique_kbs(random.Random(4242)):
        tree = calibrate(kb)
        joint = [clique for clique in tree.cliques if clique.domain == kb.joint_domain]
        if not joint:
            continue
        gamma = solve_naive(InferenceProblem(kb, kb.joint_domain))
        agrees = oracle_global_adjoint(kb).agrees
        assert all(clique == gamma for clique in joint), kb
        assert tree.combination() == gamma, kb
        kind = "member" if any(phi.domain == kb.joint_domain for phi in kb) else "elimination"
        seen[kind, "agree" if agrees else "disagree"] += 1
    assert min(seen.values()) >= 10, seen


def test_the_count_is_the_size_of_the_combination():
    # On the same random knowledgebases as the verdict oracle (empty members,
    # {()} and {} members over ∅, disconnected covers), and on ones with a
    # clique over every variable, the count equals the naive combination's
    # size, is 0 exactly when the root is empty, and Gamma, joined up to
    # TUPLE_CAP, is the combination.
    rng = random.Random(5150)
    cases = [random_tree_kb(rng) for _ in range(600)] + joint_clique_kbs(random.Random(4242))
    seen = dict.fromkeys(("empty", "nonempty", "empty-member", "unit-member", "split", "joint-clique"), 0)
    for kb in cases:
        tree = calibrate(kb)
        gamma = solve_naive(InferenceProblem(kb, kb.joint_domain))
        assert tree.size == len(gamma.tuples), kb
        assert (tree.size == 0) == tree.cliques[-1].is_empty()
        assert tree.gamma == gamma
        seen["empty" if gamma.is_empty() else "nonempty"] += 1
        seen["empty-member"] += any(phi.is_empty() for phi in kb)
        seen["unit-member"] += any(not phi.domain and not phi.is_empty() for phi in kb)
        seen["split"] += is_disconnected(kb)
        seen["joint-clique"] += any(clique.domain == kb.joint_domain for clique in tree.cliques)
    assert min(seen.values()) >= 20, seen


def test_gamma_is_a_relation_exactly_up_to_the_cap():
    # One carrier rule for Gamma: a Relation when the count is at most
    # TUPLE_CAP, else the calibrated tree, whether an agreeing verdict or a
    # model analysis carries it. The single 13-bit member and the
    # possibilistic 13-cycle are past the cap; the seeded inputs are under it.
    rng = random.Random(5150)
    names = [f"v{i:02d}" for i in range(13)]
    universe = VariableUniverse.of([(name, ("0", "1")) for name in names])
    full = Relation.from_rows(universe, names, list(itertools.product("01", repeat=13)))
    kbs = [random_tree_kb(rng) for _ in range(600)] + [Knowledgebase(universe, (full,))]
    carried = {True: 0, False: 0}
    for kb in kbs:
        tree = calibrate(kb)
        verdict = tree_verdict(tree)
        if verdict.agrees:
            assert isinstance(verdict.truth, Relation) == (tree.size <= TUPLE_CAP), kb
            carried[tree.size <= TUPLE_CAP] += 1
    rng = random.Random(2011)
    for model in [random_no_signalling_possibilistic(rng) for _ in range(150)] + [full_cycle_model(13)]:
        size = calibrate(model.support_knowledgebase()).size
        assert isinstance(classify(model).gamma, Relation) == (size <= TUPLE_CAP), model
        carried[size <= TUPLE_CAP] += 1
    assert carried[False] == 2 and carried[True] > 300, carried
