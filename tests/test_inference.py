import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest

from valkit import algebra, inference
from valkit.algebra import Knowledgebase, RelationAlgebra
from valkit.builtins import bell_model, liar_knowledgebase, malawi_knowledgebase, screening_knowledgebase
from valkit.core import Assignment, VariableUniverse
from valkit.documents import canonical_json, parse_document_text
from valkit.errors import ArgumentError, DomainError, ResourceLimitError
from valkit.inference import (
    InferenceProblem,
    drop_barren,
    heuristic_order,
    solve_fusion,
    solve_naive,
)
from valkit.potentials import Potential
from valkit.relations import Relation, empty_relation

from conftest import (
    assert_canonical,
    coprime_bayes_net_document,
    drawn_potential,
    grid_colouring_document,
    random_domain,
    random_potential_kb,
    random_relation,
    random_relation_kb,
    random_universe,
)


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
    assert solve_fusion(problem) == naive
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


def test_fusion_answers_with_its_root_and_projects_nothing_after_the_collect_pass(monkeypatch):
    """With the query the joint domain nothing is eliminated, so the root's combination is returned unprojected."""
    for kb in (screening_knowledgebase(), bell_model().knowledgebase()):  # relations, then potentials
        problem = InferenceProblem(kb, kb.joint_domain)
        expected = solve_naive(problem)
        projected = []
        for name in ("project_relation", "project_potential"):
            project = getattr(algebra, name)
            monkeypatch.setattr(algebra, name, lambda *args, project=project: projected.append(args) or project(*args))
        assert solve_fusion(problem) == expected
        assert projected == []
        monkeypatch.undo()


def test_a_knowledgebase_finds_its_algebra_once_when_it_is_built():
    universe = VariableUniverse.of([("x", ("0", "1"))])
    with pytest.raises(ArgumentError, match="no algebra known for valuations of type SimpleNamespace"):
        Knowledgebase(universe, (SimpleNamespace(universe=universe),))
    for kb in (screening_knowledgebase(), bell_model().knowledgebase()):
        assert kb.algebra() is kb.algebra()
        rebuilt = Knowledgebase(kb.universe, kb.valuations)
        assert rebuilt == kb and hash(rebuilt) == hash(kb) and repr(rebuilt) == repr(kb)


def test_invalid_order_rejected():
    kb = screening_knowledgebase()
    problem = InferenceProblem(kb, frozenset({"e"}))
    with pytest.raises(ArgumentError):
        solve_fusion(problem, order=("a",))  # missing f
    with pytest.raises(ArgumentError):
        solve_fusion(problem, order=("a", "f", "e"))  # e is in the query
    with pytest.raises(ArgumentError):
        solve_fusion(problem, order=("a", "a", "f"))  # duplicate


def test_min_fill_on_chain_eliminates_endpoints_first():
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
    order = heuristic_order(kb, frozenset())
    # Hand-check: the endpoints w and z add no fill edge and x and y one each;
    # the name tie-break picks w, and each elimination exposes the next
    # endpoint, consuming the chain in order.
    assert order == ("w", "x", "y", "z")


def test_single_valuation_heuristic_covers_non_query_vars():
    kb = screening_knowledgebase()
    single = Knowledgebase(kb.universe, (kb.valuations[0],))
    order = heuristic_order(single, frozenset({"e"}))
    assert set(order) == {"f"}


def scan_order(kb, query):
    """The oracle for heuristic_order's heap: rescan every candidate's min-fill score at each step."""
    neighbours: dict[str, set[str]] = {}
    for phi in kb:
        for v in phi.domain:
            neighbours.setdefault(v, set()).update(phi.domain - {v})
    for v in query:
        neighbours.setdefault(v, set())
    candidates = set(neighbours) - query
    order = []
    while candidates:
        scored = []
        for v in candidates:
            nbrs = sorted(neighbours[v])
            fill = sum(
                1
                for i in range(len(nbrs))
                for j in range(i + 1, len(nbrs))
                if nbrs[j] not in neighbours[nbrs[i]]
            )
            scored.append((fill, v))
        _, chosen = min(scored)
        order.append(chosen)
        nbrs = neighbours.pop(chosen)
        for a in nbrs:
            neighbours[a].discard(chosen)
            neighbours[a].update(nbrs - {a})
        candidates.remove(chosen)
    return tuple(order)


def label_kb(names, domains):
    """A knowledgebase of empty relations: the elimination order reads only the members' domains."""
    universe = VariableUniverse.of([(n, ("0", "1")) for n in names])
    return Knowledgebase(universe, tuple(empty_relation(universe, frozenset(d)) for d in domains))


def grid_kb(rows, cols):
    names = [f"c{r}_{c}" for r in range(rows) for c in range(cols)]
    edges = [(f"c{r}_{c}", f"c{r}_{c + 1}") for r in range(rows) for c in range(cols - 1)]
    edges += [(f"c{r}_{c}", f"c{r + 1}_{c}") for r in range(rows - 1) for c in range(cols)]
    return label_kb(names, edges)


def test_heuristic_order_matches_the_rescanning_oracle():
    rng = random.Random(4321)
    kbs = []
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(1, 12))]
        domains = [rng.sample(names, rng.randint(0, min(4, len(names)))) for _ in range(rng.randint(1, 10))]
        kbs.append(label_kb(names, domains))
    kbs += [grid_kb(rows, cols) for rows, cols in ((1, 4), (3, 3), (4, 6), (6, 6))]
    kbs += [liar_knowledgebase(n, consistent) for n in (2, 3, 9, 40) for consistent in (False, True)]
    for kb in kbs:
        names = sorted(kb.joint_domain)
        queries = (frozenset(), frozenset(rng.sample(names, rng.randint(0, len(names)))))
        for query in queries:
            assert heuristic_order(kb, query) == scan_order(kb, query), (sorted(query), kb)


def test_min_fill_ordering_around_a_hub_is_not_cubic():
    # A star of n two-variable members: scoring the hub costs one set
    # intersection per neighbour, not one test per pair of neighbours, so
    # quadrupling n takes about 16 times as long (pairwise scoring, 64).
    def seconds(n, repeats):
        kb = label_kb(["hub", *(f"l{i}" for i in range(n))], [("hub", f"l{i}") for i in range(n)])
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            heuristic_order(kb, frozenset())
            best = min(best, time.perf_counter() - start)
        return best

    assert seconds(1600, 2) < 32 * seconds(400, 3)


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
    assert elimination_width(edges, heuristic_order(kb, frozenset())) <= best


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
        fused = solve_fusion(problem)
        assert fused == naive
        if isinstance(naive, Potential):
            assert (fused.table.den, fused.table.nums) == (naive.table.den, naive.table.nums)
        elim = sorted(joint - query)
        rng.shuffle(elim)
        assert solve_fusion(problem, order=tuple(elim)) == naive


def test_cell_limit_aborts_large_combination():
    universe = VariableUniverse.of([(f"v{i}", ("0", "1")) for i in range(12)])
    from valkit.potentials import neutral_potential

    left = neutral_potential(universe, frozenset(f"v{i}" for i in range(6)))
    right = neutral_potential(universe, frozenset(f"v{i}" for i in range(6, 12)))
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


def test_fusion_on_a_rational_grid_sends_fused_messages_and_walks_no_frame(monkeypatch):
    # Every message a bucket sends is one `combine_project` (or, from a
    # one-member bucket, a projection), so `combine_potentials` only folds a
    # bucket's members before its last and builds the root's combination: no
    # combination it returns is ever projected, not even the root's, which is
    # the answer. Combination is a hash join of stored rows, so no frame
    # product is enumerated.
    from valkit import potentials

    kbs = [
        (parse_document_text(canonical_json(coprime_bayes_net_document(7, k))).knowledgebase(), query)
        for k, query in ((3, {"r2c2", "r1c1"}), (4, {"r3c3"}), (5, {"r0c4", "r2c2"}))
    ]

    def refuse_rows(universe, domain):
        raise AssertionError(f"enumerated the rows over {sorted(domain)}")

    for kb, query in kbs:
        problem = InferenceProblem(kb, frozenset(query))
        expected = solve_fusion(problem, order=heuristic_order(kb, problem.query))
        combined, fused, projected = [], [], []

        def combine(phi, psi):
            combined.append(potentials.combine_potentials(phi, psi))
            return combined[-1]

        def combine_project(self, phi, psi, target):
            fused.append(target)
            return potentials._join(phi, psi, target)

        def project(phi, target):
            projected.append(any(phi is c for c in combined))
            return potentials.project_potential(phi, target)

        monkeypatch.setattr(VariableUniverse, "rows", refuse_rows)
        monkeypatch.setattr(algebra, "combine_potentials", combine)
        monkeypatch.setattr(algebra.PotentialAlgebra, "combine_project", combine_project)
        monkeypatch.setattr(algebra, "project_potential", project)
        assert solve_fusion(problem) == expected
        assert fused and not any(projected)
        monkeypatch.undo()


def test_fusion_on_a_colouring_grid_sends_fused_messages(monkeypatch):
    # The relation twin of the test above: every message a bucket sends is
    # one `combine_project` (or, from a one-member bucket, a projection), so
    # no relation that `natural_join` returns is ever projected, not even the
    # root's.
    from valkit import relations

    rng = random.Random(31)
    for rows, cols in ((3, 3), (3, 4), (2, 6)):
        kb = parse_document_text(canonical_json(grid_colouring_document(rows, cols))).knowledgebase()
        for size in (1, 2):
            problem = InferenceProblem(kb, frozenset(rng.sample(sorted(kb.joint_domain), size)))
            expected = solve_naive(problem, cell_limit=None)
            joined, fused, projected = [], [], []
            fuse = algebra.RelationAlgebra.combine_project

            def natural_join(r1, r2):
                joined.append(relations.natural_join(r1, r2))
                return joined[-1]

            def combine_project(self, phi, psi, target):
                fused.append(target)
                return fuse(self, phi, psi, target)

            def project(r, target):
                projected.append(any(r is j for j in joined))
                return relations.project_relation(r, target)

            monkeypatch.setattr(algebra, "natural_join", natural_join)
            monkeypatch.setattr(algebra.RelationAlgebra, "combine_project", combine_project)
            monkeypatch.setattr(algebra, "project_relation", project)
            assert solve_fusion(problem) == expected
            assert fused and not any(projected)
            monkeypatch.undo()


# Barren members. A normalised conditional sums to 1 over its child, so a
# member whose child no other member holds is dropped before fusion as long
# as its other variables stay held (the cover rule).


def bayes_net_grid(k: int, values: int):
    return parse_document_text(canonical_json(coprime_bayes_net_document(3 + k, k, values))).knowledgebase()


def unpruned_fusion(problem, monkeypatch):
    """solve_fusion over the whole knowledgebase, barren members included."""
    with monkeypatch.context() as patch:
        patch.setattr(inference, "drop_barren", lambda kb, query: kb)
        return solve_fusion(problem)


@pytest.mark.parametrize("k, values", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)])
def test_fusion_drops_barren_members_and_equals_the_reference_on_bayes_net_grids(k, values, monkeypatch):
    # Every 1- and 2-cell query of the grid. On the 3 x 3 grids the reference
    # is solve_naive: its combination, built once, projected onto each query.
    # On the larger grids, whose joint tables have 2^16 to 3^25 cells, it is
    # fusion over the whole knowledgebase, which the random knowledgebases of
    # this file hold to solve_naive.
    kb = bayes_net_grid(k, values)
    algebra = kb.algebra()
    names = sorted(kb.joint_domain)
    joint = solve_naive(InferenceProblem(kb, kb.joint_domain)) if k == 3 else None
    queries = [frozenset({a}) for a in names] + [frozenset(pair) for pair in combinations(names, 2)]
    dropped = 0
    for query in queries:
        problem = InferenceProblem(kb, query)
        expected = unpruned_fusion(problem, monkeypatch) if joint is None else algebra.project(joint, query)
        assert solve_fusion(problem) == expected, sorted(query)
        dropped += len(kb) - len(drop_barren(kb, query))
    assert dropped > len(queries)


def test_a_row_0_query_keeps_only_its_ancestors():
    # A cell of row 0 descends from the cells to its left alone, so every
    # other CPT goes, each leaf first and then the CPTs its drop left barren.
    for k, values in ((4, 2), (5, 3)):
        kb = bayes_net_grid(k, values)
        for j in range(k):
            kept = drop_barren(kb, frozenset({f"r0c{j}"}))
            assert kept.valuations == kb.valuations[: j + 1], (k, j)


def normalised_conditional(rng, universe, domain):
    """A random potential over `domain` that sums to 1 over its first variable, in sorted order, for each parent row."""
    child, *parents = sorted(domain)
    frame = universe.frame(child).values
    table = {}
    for parent_row in universe.rows(frozenset(parents)):
        weights = [rng.randint(1, 5) for _ in frame]
        for value, w in zip(frame, weights):
            point = Assignment.of({child: value, **dict(zip(parents, parent_row))})
            table[point] = Fraction(w, sum(weights))
    return Potential.from_table(universe, frozenset(domain), table)


def total_relation(rng, universe, domain):
    """A random relation over `domain` whose projection off its first variable, in sorted order, is full."""
    child, *parents = sorted(domain)
    frame = universe.frame(child).values
    rows = []
    for parent_row in universe.rows(frozenset(parents)):
        for value in rng.sample(frame, rng.randint(1, len(frame))):
            rows.append((value, *parent_row))
    return Relation.from_rows(universe, [child, *parents], rows)


def test_fusion_equals_naive_on_random_knowledgebases_with_barren_members():
    # Potential knowledgebases mix normalised conditionals with other draws;
    # relation knowledgebases mix relations whose projection off one variable
    # is full with other draws. Children are often held by one member alone,
    # so some members are barren and some are barren only after others go.
    rng = random.Random(2024)
    dropped = {"relations": 0, "potentials": 0}
    for i in range(200):
        universe = random_universe(rng, max_vars=5)
        relations = i % 2 == 1
        members = []
        for _ in range(rng.randint(1, 6)):
            domain = random_domain(rng, universe)
            if rng.random() < 0.7:
                members.append((total_relation if relations else normalised_conditional)(rng, universe, domain))
            else:
                members.append((random_relation if relations else drawn_potential)(rng, universe, domain))
        kb = Knowledgebase(universe, tuple(members))
        names = sorted(kb.joint_domain)
        query = frozenset(rng.sample(names, rng.randint(0, min(2, len(names)))))
        problem = InferenceProblem(kb, query)
        naive = solve_naive(problem)
        assert solve_fusion(problem) == naive, (kb, sorted(query))
        order = sorted(kb.joint_domain - query)
        rng.shuffle(order)
        assert solve_fusion(problem, order=order) == naive
        dropped["relations" if relations else "potentials"] += len(kb) - len(drop_barren(kb, query))
    assert min(dropped.values()) >= 10, dropped


def test_the_cover_rule_keeps_one_of_two_conditionals_on_a_private_parent():
    # x1 | y and x2 | y are each barren while the other holds y. Dropping
    # both would lose the sum over y, a factor |Ω_y| = 2: neither
    # conditional's neutral projection onto {y} survives summing y out.
    universe = VariableUniverse.of([(n, ("0", "1")) for n in ("x1", "x2", "y", "z")])
    rng = random.Random(5)
    first = normalised_conditional(rng, universe, {"x1", "y"})
    second = normalised_conditional(rng, universe, {"x2", "y"})
    other = drawn_potential(rng, universe, frozenset({"z"}))
    kb = Knowledgebase(universe, (first, second, other))
    problem = InferenceProblem(kb, frozenset({"z"}))
    kept = drop_barren(kb, problem.query)
    assert len(kept) == 2 and other in kept.valuations
    assert (first in kept.valuations) != (second in kept.valuations)
    assert solve_fusion(problem) == solve_naive(problem) != other


def test_a_non_permutation_order_is_refused_even_where_pruning_drops_its_variables():
    kb = bayes_net_grid(3, 2)
    problem = InferenceProblem(kb, frozenset({"r0c2"}))
    assert len(drop_barren(kb, problem.query)) == 3
    others = sorted(kb.joint_domain - problem.query)
    for order in (others[:-1], others + ["r2c2"], ["r2c2"], others + ["r0c2"]):
        with pytest.raises(ArgumentError) as err:
            solve_fusion(problem, order=order)
        assert str(err.value) == f"elimination order must be a permutation of {others}, got {order}"
