import random
from itertools import permutations

import pytest

from valkit.algebra import Knowledgebase, RelationAlgebra
from valkit.builtins import malawi_knowledgebase, screening_knowledgebase
from valkit.core import VariableUniverse
from valkit.errors import ArgumentError, DomainError, ResourceLimitError
from valkit.inference import (
    InferenceProblem,
    heuristic_order,
    solve_fusion,
    solve_naive,
)
from valkit.potentials import Potential
from valkit.relations import Relation

from conftest import assert_canonical, drawn_potential, random_potential_kb, random_relation_kb


def test_screening_inference_matches_example(screening_universe):
    kb = screening_knowledgebase()
    result = solve_naive(InferenceProblem(kb, frozenset({"e", "f"})))
    assert result == Relation.from_rows(screening_universe, ("e", "f"), [("M", "Y"), ("CBE", "2Y")])


def test_single_valuation_query_own_domain(screening_universe):
    kb = screening_knowledgebase()
    single = Knowledgebase(kb.universe, (kb.valuations[0],))
    result = solve_naive(InferenceProblem(single, kb.valuations[0].domain))
    assert result == kb.valuations[0]


def test_liar_projection_to_single_statement_is_null():
    from valkit.builtins import liar_knowledgebase

    kb = liar_knowledgebase(3)
    result = solve_fusion(InferenceProblem(kb, frozenset({"s1"})))
    assert result.is_empty()


def test_query_outside_joint_domain_raises():
    kb = screening_knowledgebase()
    with pytest.raises(DomainError):
        InferenceProblem(kb, frozenset({"nope"}))


def test_malawi_fusion_equals_naive_all_heuristics():
    kb = malawi_knowledgebase()
    query = frozenset({"MOZ", "MWI"})
    problem = InferenceProblem(kb, query)
    naive = solve_naive(problem)
    assert naive.is_empty()  # no 3-colouring exists
    for heuristic in ("min-degree", "min-fill"):
        assert solve_fusion(problem, heuristic=heuristic) == naive
    for order in permutations(sorted(kb.joint_domain - query)):
        assert solve_fusion(problem, order=order) == naive


def test_bell_support_fusion_equals_naive():
    from valkit.builtins import bell_model

    model = bell_model()
    kb = model.support_knowledgebase()
    problem = InferenceProblem(kb, frozenset({"a1", "b1"}))
    assert solve_fusion(problem) == solve_naive(problem)


def test_empty_elimination_is_plain_combination():
    kb = screening_knowledgebase()
    problem = InferenceProblem(kb, kb.joint_domain)
    assert solve_fusion(problem) == solve_naive(problem)


def test_invalid_order_rejected():
    kb = screening_knowledgebase()
    problem = InferenceProblem(kb, frozenset({"e"}))
    with pytest.raises(ArgumentError):
        solve_fusion(problem, order=("a",))  # missing f
    with pytest.raises(ArgumentError):
        solve_fusion(problem, order=("a", "f", "e"))  # e is in the query
    with pytest.raises(ArgumentError):
        solve_fusion(problem, order=("a", "a", "f"))  # duplicate


def test_unknown_heuristic_rejected():
    kb = screening_knowledgebase()
    with pytest.raises(ArgumentError):
        heuristic_order(kb, frozenset({"e"}), kind="best-ever")


def test_min_degree_on_chain_eliminates_endpoints_first():
    universe = VariableUniverse.of([(n, ("0", "1")) for n in ("w", "x", "y", "z")])
    pairs = [("0", "0"), ("1", "1")]
    kb = Knowledgebase(
        universe,
        (
            Relation.from_rows(universe, ("w", "x"), pairs),
            Relation.from_rows(universe, ("x", "y"), pairs),
            Relation.from_rows(universe, ("y", "z"), pairs),
        ),
    )
    order = heuristic_order(kb, frozenset(), kind="min-degree")
    # Hand-check: w and z are the endpoints (degree 1), name tie-break picks w;
    # each elimination exposes the next endpoint, consuming the chain in order.
    assert order == ("w", "x", "y", "z")


def test_single_valuation_heuristic_covers_non_query_vars():
    kb = screening_knowledgebase()
    single = Knowledgebase(kb.universe, (kb.valuations[0],))
    order = heuristic_order(single, frozenset({"e"}))
    assert set(order) == {"f"}


def elimination_width(edges: dict[str, set[str]], order) -> int:
    graph = {v: set(n) for v, n in edges.items()}
    width = 0
    for v in order:
        width = max(width, len(graph[v]) + 1)
        nbrs = graph.pop(v)
        for a in nbrs:
            graph[a].discard(v)
            graph[a].update(nbrs - {a})
    return width


def test_malawi_heuristic_order_meets_treewidth_bound():
    kb = malawi_knowledgebase()
    edges: dict[str, set[str]] = {v: set() for v in kb.joint_domain}
    for phi in kb:
        names = sorted(phi.domain)
        for a in names:
            edges[a].update(set(names) - {a})
    # Exhaustive treewidth computation over all 120 elimination orders.
    best = min(elimination_width(edges, order) for order in permutations(sorted(edges)))
    assert best == 4  # treewidth 3, so max clique size 4
    for kind in ("min-degree", "min-fill"):
        order = heuristic_order(kb, frozenset(), kind=kind)
        assert elimination_width(edges, order) <= best


def test_fusion_matches_naive_on_random_kbs_small():
    # The last 20 knowledgebases take the table oracle's draws: large coprime
    # denominators and numerators with common factors, so results must reduce.
    rng = random.Random(20)
    for i in range(60):
        if i >= 40:
            kb = random_potential_kb(rng, max_vars=4, draw=drawn_potential)
        else:
            kb = random_relation_kb(rng, max_vars=5) if i % 2 == 0 else random_potential_kb(rng, max_vars=4)
        joint = kb.joint_domain
        names = sorted(joint)
        query = frozenset(rng.sample(names, rng.randint(0, len(names))))
        problem = InferenceProblem(kb, query)
        naive = solve_naive(problem)
        if isinstance(naive, Potential):
            assert_canonical(naive)
        for heuristic in ("min-degree", "min-fill"):
            assert solve_fusion(problem, heuristic=heuristic) == naive
        elim = sorted(joint - query)
        rng.shuffle(elim)
        assert solve_fusion(problem, order=tuple(elim)) == naive


def test_cell_limit_aborts_large_combination():
    universe = VariableUniverse.of([(f"v{i}", ("0", "1")) for i in range(12)])
    from valkit.potentials import neutral_potential
    from valkit.core import NONNEG_RATIONAL

    left = neutral_potential(universe, frozenset(f"v{i}" for i in range(6)), NONNEG_RATIONAL)
    right = neutral_potential(universe, frozenset(f"v{i}" for i in range(6, 12)), NONNEG_RATIONAL)
    kb = Knowledgebase(universe, (left, right))
    problem = InferenceProblem(kb, frozenset())
    with pytest.raises(ResourceLimitError):
        solve_naive(problem, cell_limit=1000)
    # Fusion sidesteps the full 12-variable table for the empty query by
    # eliminating one variable at a time, so the same limit is enough there.
    assert solve_fusion(problem, cell_limit=1000) == solve_naive(problem, cell_limit=None)
    full = InferenceProblem(kb, kb.joint_domain)
    with pytest.raises(ResourceLimitError):
        solve_fusion(full, cell_limit=1000)


class RecordingAlgebra(RelationAlgebra):
    def __init__(self, universe):
        super().__init__(universe)
        self.steps = []

    def combine(self, phi, psi):
        out = super().combine(phi, psi)
        self.steps.append((phi.domain, psi.domain, out.domain))
        return out


def test_fusion_never_exceeds_step_union(monkeypatch):
    # Every intermediate combine stays exactly within the union of its operands' domains.
    rng = random.Random(31)
    for _ in range(10):
        kb = random_relation_kb(rng, max_vars=5)
        expected = solve_naive(InferenceProblem(kb, frozenset()))
        recorder = RecordingAlgebra(kb.universe)
        monkeypatch.setattr(Knowledgebase, "algebra", lambda self, rec=recorder: rec)
        result = solve_fusion(InferenceProblem(kb, frozenset()))
        monkeypatch.undo()
        assert result == expected
        for d1, d2, out in recorder.steps:
            assert out == d1 | d2
