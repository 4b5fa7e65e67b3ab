import random
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from valkit.algebra import RelationAlgebra, axiom_suite
from valkit.core import Assignment, VariableUniverse
from valkit.errors import ArgumentError, DomainError, UniverseMismatchError
from valkit.relations import (
    Relation,
    empty_relation,
    full_relation,
    natural_join,
    project_relation,
    relation_leq,
)

from conftest import enumerate_assignments, random_relation


def screening_relations(universe):
    r1 = Relation.from_rows(universe, ("e", "f"), [("M", "Y"), ("CBE", "Y"), ("CBE", "2Y")])
    r2 = Relation.from_rows(universe, ("a", "e"), [("54-", "M"), ("54+", "CBE")])
    r3 = Relation.from_rows(universe, ("a", "f"), [("54-", "Y"), ("54+", "2Y")])
    return r1, r2, r3


def test_screening_join_gives_two_tuples(screening_universe):
    r1, r2, r3 = screening_relations(screening_universe)
    g = natural_join(natural_join(r1, r2), r3)
    expected = Relation.from_rows(
        screening_universe,
        ("e", "f", "a"),
        [("M", "Y", "54-"), ("CBE", "2Y", "54+")],
    )
    assert g == expected


def test_screening_projection_back_to_first_source(screening_universe):
    r1, r2, r3 = screening_relations(screening_universe)
    g = natural_join(natural_join(r1, r2), r3)
    back = project_relation(g, r1.domain)
    assert back == Relation.from_rows(screening_universe, ("e", "f"), [("M", "Y"), ("CBE", "2Y")])
    assert back != r1
    assert Assignment.of({"e": "CBE", "f": "Y"}).row not in back.tuples


def test_screening_local_projections(screening_universe):
    r1, r2, _ = screening_relations(screening_universe)
    p1 = project_relation(r1, frozenset({"e"}))
    p2 = project_relation(r2, frozenset({"e"}))
    assert p1 == p2 == Relation.from_rows(screening_universe, ("e",), [("M",), ("CBE",)])


def test_join_with_neutral_is_identity(screening_universe):
    r1, _, _ = screening_relations(screening_universe)
    e = full_relation(screening_universe, frozenset({"e"}))
    assert natural_join(r1, e) == r1


def test_join_with_null_is_null(screening_universe):
    r1, _, _ = screening_relations(screening_universe)
    z = empty_relation(screening_universe, frozenset({"a", "e"}))
    joined = natural_join(r1, z)
    assert joined.is_empty()
    assert joined.domain == frozenset({"a", "e", "f"})


def test_project_empty_relation(screening_universe):
    z = empty_relation(screening_universe, frozenset({"a", "e"}))
    assert project_relation(z, frozenset({"a"})).is_empty()


def test_len_counts_the_rows(screening_universe):
    assert len(full_relation(screening_universe, frozenset({"a"}))) == screening_universe.size(frozenset({"a"}))
    assert len(empty_relation(screening_universe, frozenset({"a", "e"}))) == 0


def test_project_outside_domain_raises(screening_universe):
    r1, _, _ = screening_relations(screening_universe)
    with pytest.raises(DomainError):
        project_relation(r1, frozenset({"a"}))


def test_universe_mismatch_raises(screening_universe):
    other = VariableUniverse.of([("e", ("M", "CBE"))])
    r = Relation.from_rows(other, ("e",), [("M",)])
    r1, _, _ = screening_relations(screening_universe)
    with pytest.raises(UniverseMismatchError):
        natural_join(r1, r)


def test_from_rows_refuses_a_repeated_variable():
    # A row over (a, a) could give a two values; it is refused, not read as its last value.
    universe = VariableUniverse.of([("a", ("0", "1"))])
    with pytest.raises(ArgumentError, match="repeat"):
        Relation.from_rows(universe, ("a", "a"), [("0", "1")])
    with pytest.raises(ArgumentError, match="repeat"):
        Relation.from_rows(universe, ("a", "a"), [])
    assert Relation.from_rows(universe, ("a",), [("1",)]).tuples == {("1",)}


# A four-way comparison by inclusion; valkit itself needs only relation_leq.
class Ordering(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def relation_order(r1: Relation, r2: Relation) -> Ordering:
    """Compare by inclusion. Relations over different domains are incomparable."""
    if r1.universe != r2.universe or r1.domain != r2.domain:
        return Ordering.INCOMPARABLE
    if r1.tuples == r2.tuples:
        return Ordering.EQUAL
    if r1.tuples <= r2.tuples:
        return Ordering.LESS
    if r1.tuples >= r2.tuples:
        return Ordering.GREATER
    return Ordering.INCOMPARABLE


def test_relation_order_cases(screening_universe):
    r1, _, _ = screening_relations(screening_universe)
    sub = Relation.from_rows(screening_universe, ("e", "f"), [("M", "Y"), ("CBE", "2Y")])
    z = empty_relation(screening_universe, r1.domain)
    assert relation_order(z, r1) is Ordering.LESS
    assert relation_order(r1, r1) is Ordering.EQUAL
    assert relation_order(sub, r1) is Ordering.LESS
    assert relation_order(r1, sub) is Ordering.GREATER
    other_domain = Relation.from_rows(screening_universe, ("a",), [("54-",)])
    assert relation_order(r1, other_domain) is Ordering.INCOMPARABLE
    assert relation_leq(sub, r1)
    with pytest.raises(DomainError):
        relation_leq(r1, other_domain)


def test_incomparable_same_domain(screening_universe):
    a = Relation.from_rows(screening_universe, ("e",), [("M",)])
    b = Relation.from_rows(screening_universe, ("e",), [("CBE",)])
    assert relation_order(a, b) is Ordering.INCOMPARABLE


# Independent oracle: quadratic-scan join over explicitly enumerated tuples.
def brute_join(universe, r1, r2):
    union = r1.domain | r2.domain
    out = []
    for x in enumerate_assignments(union, universe):
        if x.restrict(r1.domain).row in r1.tuples and x.restrict(r2.domain).row in r2.tuples:
            out.append(x.row)
    return Relation.from_rows(universe, sorted(union), out)


def test_join_matches_brute_force_on_random_relations():
    rng = random.Random(7)
    universe = VariableUniverse.of([(n, ("0", "1", "2")) for n in ("p", "q", "r", "s")])
    for _ in range(50):
        r1 = random_relation(rng, universe)
        r2 = random_relation(rng, universe)
        assert natural_join(r1, r2) == brute_join(universe, r1, r2)


def test_adjointness_suite_on_seeded_random_relations():
    rng = random.Random(11)
    universe = VariableUniverse.of([(n, ("0", "1")) for n in ("p", "q", "r", "s")])
    samples = [random_relation(rng, universe) for _ in range(60)]
    (report,) = axiom_suite(RelationAlgebra(universe), samples, axioms=("ADJ",))
    assert report.passed, report.counterexample
    assert report.cases > 100


def test_adjointness_on_screening_join(screening_universe):
    r1, r2, r3 = screening_relations(screening_universe)
    g = natural_join(natural_join(r1, r2), r3)
    (report,) = axiom_suite(RelationAlgebra(screening_universe), [g, r1, r2, r3], axioms=("ADJ",))
    assert report.passed, report.counterexample
    # G is contained in the join of its own projections
    parts = [project_relation(g, d) for d in (r1.domain, r2.domain, r3.domain)]
    rejoined = natural_join(natural_join(parts[0], parts[1]), parts[2])
    assert g.tuples <= rejoined.tuples


@st.composite
def small_relation_pair(draw):
    universe = VariableUniverse.of([(n, ("0", "1")) for n in ("p", "q", "r")])
    domains = [frozenset({"p"}), frozenset({"q"}), frozenset({"p", "q"}), frozenset({"q", "r"})]
    rels = []
    for _ in range(2):
        domain = draw(st.sampled_from(domains))
        points = enumerate_assignments(domain, universe)
        chosen = draw(st.lists(st.sampled_from(points), unique=True))
        rels.append(Relation.from_rows(universe, sorted(domain), [a.row for a in chosen]))
    return universe, rels[0], rels[1]


@settings(max_examples=60, derandomize=True)
@given(small_relation_pair())
def test_join_commutes_and_projects_correctly(data):
    universe, r1, r2 = data
    assert natural_join(r1, r2) == natural_join(r2, r1)
    joined = natural_join(r1, r2)
    assert project_relation(joined, r1.domain).tuples <= r1.tuples
    assert joined == brute_join(universe, r1, r2)
