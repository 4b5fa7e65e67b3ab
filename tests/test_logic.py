import random
from itertools import product

import pytest

from valkit.builtins import (
    MALAWI_COLORS,
    MALAWI_COUNTRIES,
    MALAWI_EDGES,
    liar_knowledgebase,
    malawi_constraints,
    malawi_knowledgebase,
)
from valkit.core import VariableUniverse
from valkit.documents import canonical_json, parse_document_text
from valkit.errors import ArgumentError, DomainError, UniverseMismatchError
from valkit.logic import csp_to_knowledgebase
from valkit.relations import Relation, empty_relation, full_relation, project_relation

from conftest import csp_document, enumerate_assignments


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
    edges = malawi_constraints()
    universe = edges[0].universe
    # A single-variable cover meets every scheme in at most one variable.
    kb = csp_to_knowledgebase(universe, edges, [frozenset({"MOZ"})])
    assert kb.valuations[0] == full_relation(universe, frozenset({"MOZ"}))


def test_unconstrained_cover_is_vacuously_full():
    universe = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1")), ("z", ("0", "1"))])
    allowed = Relation.from_rows(universe, ("x", "y"), [("0", "0")])
    kb = csp_to_knowledgebase(universe, [allowed], [frozenset({"z"})])
    assert kb.valuations[0] == full_relation(universe, frozenset({"z"}))


def test_partial_overlap_satisfaction_rule():
    # A cover's relation holds the evaluations on it that satisfy every
    # constraint, where a constraint meeting the cover in part is tested
    # against its allowed relation projected to the shared variables.
    universe = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1")), ("w", ("0", "1"))])
    allowed = Relation.from_rows(universe, ("x", "y"), [("0", "1")])
    full_overlap, partial, disjoint = csp_to_knowledgebase(
        universe, [allowed], [frozenset({"x", "y"}), frozenset({"x"}), frozenset({"w"})]
    ).valuations
    # Full overlap: only (0, 1) passes.
    assert full_overlap == allowed
    # Partial overlap: x must be a projection of some allowed pair, so x = 0 only.
    assert partial.tuples == frozenset({("0",)})
    # No overlap: vacuous.
    assert disjoint == full_relation(universe, frozenset({"w"}))


def test_a_constraint_that_allows_nothing_empties_every_cover():
    # Projected onto the variables it shares with a cover, a constraint that
    # allows nothing is empty even when it shares none: no evaluation passes.
    universe = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1"))])
    x_free = full_relation(universe, frozenset({"x"}))
    for unsatisfiable in (empty_relation(universe, frozenset()), empty_relation(universe, frozenset({"y"}))):
        kb = csp_to_knowledgebase(universe, [x_free, unsatisfiable], [frozenset({"x"}), frozenset()])
        assert [phi.tuples for phi in kb] == [frozenset(), frozenset()]
    # A nullary constraint that allows the empty evaluation filters nothing.
    kb = csp_to_knowledgebase(universe, [x_free, full_relation(universe, frozenset())], [frozenset({"x"}), frozenset()])
    assert list(kb) == [x_free, full_relation(universe, frozenset())]


def test_a_constraint_from_another_universe_is_refused():
    universe = VariableUniverse.of([("x", ("0", "1"))])
    other = VariableUniverse.of([("y", ("0", "1"))])
    with pytest.raises(UniverseMismatchError):
        csp_to_knowledgebase(universe, [full_relation(other, frozenset({"y"}))], [frozenset({"x"})])


@pytest.mark.parametrize("cell_limit", [None, 16])
def test_a_cover_outside_the_universe_is_refused(cell_limit):
    universe = VariableUniverse.of([("x", ("0", "1"))])
    with pytest.raises(DomainError, match="not in universe"):
        csp_to_knowledgebase(universe, [full_relation(universe, frozenset({"x"}))], [frozenset({"z"})], cell_limit)


class CountingList(list):
    """A list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_compiling_a_grid_walks_its_constraints_a_fixed_number_of_times():
    # Each cover visits only the constraints that share one of its variables
    # (or allow nothing), looked up in an index built in one pass.
    colours = ("b", "g", "r")
    cell = [[f"r{i}c{j}" for j in range(10)] for i in range(10)]
    universe = VariableUniverse.of([(name, colours) for row in cell for name in row])
    differ = [(a, b) for a in colours for b in colours if a != b]
    edges = [(cell[i][j], cell[i][j + 1]) for i in range(10) for j in range(9)]
    edges += [(cell[i][j], cell[i + 1][j]) for i in range(9) for j in range(10)]
    covers = [frozenset(edge) for edge in edges]
    passes = []
    for some in (covers[:1], covers):
        constraints = CountingList(Relation.from_rows(universe, edge, differ) for edge in edges)
        kb = csp_to_knowledgebase(universe, constraints, some)
        assert all(phi.tuples == constraints[k].tuples for k, phi in enumerate(kb))
        passes.append(constraints.passes)
    assert len(covers) == 180 and passes[0] == passes[1]


def _satisfies(s: dict, constraint: Relation) -> bool:
    """Whether `s` restricted to the variables it shares with the constraint lies in the constraint's projection there."""
    shared = sorted(s.keys() & constraint.domain)
    scheme = sorted(constraint.domain)
    projected = {tuple(dict(zip(scheme, row))[name] for name in shared) for row in constraint.tuples}
    return tuple(s[name] for name in shared) in projected


def _brute_force_cover(universe, constraints, cover) -> frozenset:
    """phi_U = {s in Omega_U : for every constraint R over S, s on U & S lies in R projected onto U & S}."""
    names = sorted(cover)
    return frozenset(
        values
        for values in product(*(universe.frame(name).values for name in names))
        if all(_satisfies(dict(zip(names, values)), c) for c in constraints)
    )


def _random_csp(rng: random.Random):
    names = [f"v{i}" for i in range(rng.randint(1, 4))]
    universe = VariableUniverse.of([(name, ("a", "b", "c")[: rng.randint(2, 3)]) for name in names])
    constraints = []
    for _ in range(rng.randint(1, 4)):
        scheme = sorted(rng.sample(names, rng.randint(0, min(3, len(names)))))
        keep = rng.choice((0.0, 0.5, 0.8, 1.0))
        rows = [row for row in universe.rows(frozenset(scheme)) if rng.random() < keep]
        constraints.append(Relation.from_rows(universe, scheme, rows))
    return universe, constraints


def test_compile_matches_brute_force_on_random_csps():
    # Schemes of 0-3 variables, some allowing nothing; covers either the
    # parser's default (the distinct schemes, in order) or drawn at random.
    rng = random.Random(2511)
    unmet_empty = 0
    for draw in range(300):
        universe, constraints = _random_csp(rng)
        names = sorted(universe.vars)
        if draw % 2:
            covers = list(dict.fromkeys(c.domain for c in constraints))
            doc = csp_document(universe, constraints, ())
            del doc["covers"]
        else:
            covers = [
                frozenset(rng.sample(names, rng.randint(0, min(3, len(names))))) for _ in range(rng.randint(1, 3))
            ]
            doc = csp_document(universe, constraints, covers)
        expected = [_brute_force_cover(universe, constraints, cover) for cover in covers]
        compiled = csp_to_knowledgebase(universe, constraints, covers)
        parsed = parse_document_text(canonical_json(doc)).payload
        for kb in (compiled, parsed):
            assert [phi.domain for phi in kb] == covers, draw
            assert [phi.tuples for phi in kb] == expected, draw
        unmet_empty += any(not c.tuples and not (c.domain & cover) for c in constraints for cover in covers)
    assert unmet_empty > 20  # the draws reach the rule for a constraint that allows nothing


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
