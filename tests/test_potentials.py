import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from valkit.core import (
    BOOLEAN,
    NONNEG_RATIONAL,
    Assignment,
    VariableUniverse,
    enumerate_assignments,
)
from valkit.errors import DomainError, SemiringMismatchError
from valkit.potentials import (
    Potential,
    combine_potentials,
    constant_potential,
    neutral_potential,
    project_potential,
    support_relation,
    total_mass,
)
from valkit.relations import natural_join, project_relation

from conftest import random_boolean_potential, random_potential


def bell_row_a1b1():
    universe = VariableUniverse.of([("a1", ("0", "1")), ("b1", ("0", "1"))])
    h = Fraction(1, 2)
    table = {
        Assignment.of({"a1": "0", "b1": "0"}): h,
        Assignment.of({"a1": "1", "b1": "0"}): Fraction(0),
        Assignment.of({"a1": "0", "b1": "1"}): Fraction(0),
        Assignment.of({"a1": "1", "b1": "1"}): h,
    }
    return universe, Potential.from_table(universe, frozenset({"a1", "b1"}), NONNEG_RATIONAL, table)


def test_bell_row_marginal():
    # Oracle: fiber sums computed by hand from the table row (1/2, 0, 0, 1/2).
    universe, row = bell_row_a1b1()
    marginal = project_potential(row, frozenset({"a1"}))
    assert marginal(Assignment.of({"a1": "0"})) == Fraction(1, 2)
    assert marginal(Assignment.of({"a1": "1"})) == Fraction(1, 2)


def test_projection_to_own_domain_is_identity():
    _, row = bell_row_a1b1()
    assert project_potential(row, row.domain) == row


def test_projection_of_constant_one_counts_assignments():
    universe = VariableUniverse.of([(n, ("0", "1")) for n in ("x", "y", "z")])
    ones = neutral_potential(universe, frozenset({"x", "y", "z"}), NONNEG_RATIONAL)
    collapsed = project_potential(ones, frozenset())
    assert collapsed.table[()] == 8  # 2^3 by direct count
    assert total_mass(ones) == 8


def test_combine_with_neutral_is_identity():
    universe, row = bell_row_a1b1()
    e = neutral_potential(universe, frozenset({"a1"}), NONNEG_RATIONAL)
    assert combine_potentials(row, e) == row


def test_combine_disjoint_domains_is_product_table():
    universe = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1"))])
    phi = Potential.from_table(
        universe,
        frozenset({"x"}),
        NONNEG_RATIONAL,
        {Assignment.of({"x": "0"}): Fraction(1, 3), Assignment.of({"x": "1"}): Fraction(2, 3)},
    )
    psi = Potential.from_table(
        universe,
        frozenset({"y"}),
        NONNEG_RATIONAL,
        {Assignment.of({"y": "0"}): Fraction(1, 4), Assignment.of({"y": "1"}): Fraction(3, 4)},
    )
    joint = combine_potentials(phi, psi)
    # Oracle: brute-force pointwise multiplication.
    for a in enumerate_assignments(frozenset({"x", "y"}), universe):
        expected = phi(a.restrict(phi.domain)) * psi(a.restrict(psi.domain))
        assert joint(a) == expected


def test_semiring_mismatch_raises():
    universe, row = bell_row_a1b1()
    boolean = Potential(universe, row.domain, BOOLEAN, {x: int(v != 0) for x, v in row.table.items()})
    with pytest.raises(SemiringMismatchError):
        combine_potentials(row, boolean)


def test_projection_outside_domain_raises():
    _, row = bell_row_a1b1()
    with pytest.raises(DomainError):
        project_potential(row, frozenset({"zz"}))


# The possibilistic collapse of a potential is its support relation.
def test_possibilistic_collapse_bell_rows():
    universe, row = bell_row_a1b1()
    assert support_relation(row).tuples == frozenset({("0", "0"), ("1", "1")})  # (a1, b1)
    full_row = constant_potential(universe, row.domain, NONNEG_RATIONAL, Fraction(1, 4))
    assert len(support_relation(full_row).tuples) == 4


def test_collapse_of_all_zero_is_all_zero():
    universe = VariableUniverse.of([("x", ("0", "1"))])
    zero = constant_potential(universe, frozenset({"x"}), NONNEG_RATIONAL, Fraction(0))
    assert support_relation(zero).is_empty()


def test_boolean_potentials_mirror_relations():
    rng = random.Random(3)
    universe = VariableUniverse.of([(n, ("0", "1", "2")) for n in ("p", "q", "r")])
    for _ in range(40):
        phi = random_boolean_potential(rng, universe)
        psi = random_boolean_potential(rng, universe)
        lhs = support_relation(combine_potentials(phi, psi))
        rhs = natural_join(support_relation(phi), support_relation(psi))
        assert lhs == rhs
        sub = frozenset(sorted(phi.domain)[:1])
        assert support_relation(project_potential(phi, sub)) == project_relation(support_relation(phi), sub)


@st.composite
def rational_potential(draw):
    universe = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1", "2"))])
    domain = draw(st.sampled_from([frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})]))
    table = {}
    for a in enumerate_assignments(domain, universe):
        table[a] = Fraction(draw(st.integers(min_value=0, max_value=6)), draw(st.integers(min_value=1, max_value=4)))
    return Potential.from_table(universe, domain, NONNEG_RATIONAL, table)


@settings(max_examples=50, derandomize=True)
@given(rational_potential(), st.sampled_from([frozenset(), frozenset({"x"}), frozenset({"y"})]))
def test_collapse_commutes_with_projection_on_supports(phi, target):
    # No cancellation over the nonnegative rationals, so supports project cleanly.
    if not target <= phi.domain:
        target = frozenset()
    lhs = support_relation(project_potential(phi, target))
    rhs = project_relation(support_relation(phi), target)
    assert lhs == rhs
