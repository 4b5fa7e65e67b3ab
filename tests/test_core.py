from fractions import Fraction

import pytest

from valkit.core import Assignment, Frame, VariableUniverse
from valkit.errors import ArgumentError, DomainError
from valkit.potentials import Potential
from valkit.relations import Relation, natural_join

from conftest import enumerate_assignments


def test_frame_rejects_duplicates_and_empty():
    with pytest.raises(ArgumentError):
        Frame(())
    with pytest.raises(ArgumentError):
        Frame(("a", "a"))


def test_universe_lookup_and_unknown_variable(screening_universe):
    assert screening_universe.frame("a").values == ("54-", "54+")
    with pytest.raises(DomainError):
        screening_universe.frame("b")
    with pytest.raises(DomainError):
        screening_universe.check_domain(frozenset({"a", "nope"}))


def test_project_assignment_screening_example(screening_universe):
    x = Assignment.of({"e": "M", "f": "Y", "a": "54-"})
    projected = x.restrict(frozenset({"e", "f"}))
    assert projected == Assignment.of({"e": "M", "f": "Y"})


def test_project_assignment_identity_and_empty():
    x = Assignment.of({"e": "M", "f": "Y"})
    assert x.restrict(x.domain) == x
    assert x.restrict(frozenset()) == Assignment(())


def test_enumerate_single_variable_order(screening_universe):
    got = enumerate_assignments(frozenset({"a"}), screening_universe)
    assert got == [Assignment.of({"a": "54-"}), Assignment.of({"a": "54+"})]


def test_enumerate_empty_domain(screening_universe):
    got = enumerate_assignments(frozenset(), screening_universe)
    assert got == [Assignment(())]


def test_enumerate_two_variables_is_product(screening_universe):
    got = enumerate_assignments(frozenset({"a", "e"}), screening_universe)
    assert len(got) == 4  # 2 * 2, verified by direct count
    assert len(set(got)) == 4
    # lexicographic: variable names sorted, frames in declared order
    assert got[0] == Assignment.of({"a": "54-", "e": "M"})
    assert got[1] == Assignment.of({"a": "54-", "e": "CBE"})
    assert got[-1] == Assignment.of({"a": "54+", "e": "CBE"})


def test_enumerate_unknown_variable(screening_universe):
    with pytest.raises(DomainError):
        enumerate_assignments(frozenset({"zz"}), screening_universe)


def test_rational_semiring_rejects_negatives_and_floats():
    # A potential's carrier is the nonnegative ints and Fractions; a bool is not a rational value.
    universe = VariableUniverse.of([("x", ("0",))])
    for value in (Fraction(-1, 2), -1, 0.5, True, "1/2"):
        with pytest.raises(ArgumentError, match="outside the nonneg-rational carrier"):
            Potential.from_table(universe, frozenset({"x"}), {Assignment.of({"x": "0"}): value})
    for value in (0, 2, Fraction(3, 8)):
        assert Potential.from_table(universe, frozenset({"x"}), {Assignment.of({"x": "0"}): value}).table[("0",)] == value


def test_join_of_points_and_values_in(screening_universe):
    x = Assignment.of({"a": "54-", "e": "M"})
    y = Assignment.of({"e": "M", "f": "Y"})
    joined = natural_join(Relation.of(screening_universe, [x]), Relation.of(screening_universe, [y]))
    assert joined == Relation.of(screening_universe, [Assignment.of({"a": "54-", "e": "M", "f": "Y"})])
    assert x.values_in(("e", "a")) == ("M", "54-")
    assert x.row == ("54-", "M")
    assert Assignment.from_row(x.domain, x.row) == x
