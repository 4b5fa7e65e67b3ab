import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from valkit.contextuality import probabilistic_model
from valkit.core import Assignment, VariableUniverse
from valkit.documents import parse_potential
from valkit.errors import DomainError
from valkit.potentials import (
    Potential,
    _join,
    combine_potentials,
    constant_potential,
    neutral_potential,
    null_potential,
    project_potential,
    support_relation,
    total_mass,
)
from valkit.relations import natural_join, project_relation

from conftest import drawn_potential, enumerate_assignments, random_universe


def bell_row_a1b1():
    universe = VariableUniverse.of([("a1", ("0", "1")), ("b1", ("0", "1"))])
    h = Fraction(1, 2)
    table = {
        Assignment.of({"a1": "0", "b1": "0"}): h,
        Assignment.of({"a1": "1", "b1": "0"}): Fraction(0),
        Assignment.of({"a1": "0", "b1": "1"}): Fraction(0),
        Assignment.of({"a1": "1", "b1": "1"}): h,
    }
    return universe, Potential.from_table(universe, frozenset({"a1", "b1"}), table)


def test_bell_row_marginal():
    # Oracle: fiber sums computed by hand from the table row (1/2, 0, 0, 1/2).
    universe, row = bell_row_a1b1()
    marginal = project_potential(row, frozenset({"a1"}))
    assert marginal(Assignment.of({"a1": "0"})) == Fraction(1, 2)
    assert marginal(Assignment.of({"a1": "1"})) == Fraction(1, 2)


def test_projection_to_own_domain_is_identity():
    _, row = bell_row_a1b1()
    assert project_potential(row, row.domain) == row


def test_a_table_equals_the_plain_mapping_of_its_values():
    universe = VariableUniverse.of([("x", ("0", "1"))])
    p = Potential.from_table(universe, frozenset({"x"}), {Assignment.of({"x": "0"}): Fraction(1, 4)}, default=Fraction(3, 4))
    assert p.table == {("0",): Fraction(1, 4), ("1",): Fraction(3, 4)}
    assert p.table != {("0",): Fraction(3, 4), ("1",): Fraction(1, 4)}


def test_projection_of_constant_one_counts_assignments():
    universe = VariableUniverse.of([(n, ("0", "1")) for n in ("x", "y", "z")])
    ones = neutral_potential(universe, frozenset({"x", "y", "z"}))
    collapsed = project_potential(ones, frozenset())
    assert collapsed.table[()] == 8  # 2^3 by direct count
    assert total_mass(ones) == 8


def test_combine_with_neutral_is_identity():
    universe, row = bell_row_a1b1()
    e = neutral_potential(universe, frozenset({"a1"}))
    assert combine_potentials(row, e) == row


def test_combine_disjoint_domains_is_product_table():
    universe = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1"))])
    phi = Potential.from_table(
        universe,
        frozenset({"x"}),
        {Assignment.of({"x": "0"}): Fraction(1, 3), Assignment.of({"x": "1"}): Fraction(2, 3)},
    )
    psi = Potential.from_table(
        universe,
        frozenset({"y"}),
        {Assignment.of({"y": "0"}): Fraction(1, 4), Assignment.of({"y": "1"}): Fraction(3, 4)},
    )
    joint = combine_potentials(phi, psi)
    # Oracle: brute-force pointwise multiplication.
    for a in enumerate_assignments(frozenset({"x", "y"}), universe):
        expected = phi(a.restrict(phi.domain)) * psi(a.restrict(psi.domain))
        assert joint(a) == expected


def test_potential_arithmetic_obeys_the_semiring_laws():
    # Over the empty domain a product is a combination and a sum is the
    # projection of a two-row table, so the numerator arithmetic of `_join`
    # and `project_potential` must obey the nonnegative rationals' laws.
    universe = VariableUniverse.of([("x", ("0", "1"))])
    x0, x1 = Assignment.of({"x": "0"}), Assignment.of({"x": "1"})

    def const(value):
        return constant_potential(universe, frozenset(), value)

    def add(a, b):
        pair = Potential.from_table(universe, frozenset({"x"}), {x0: a.table[()], x1: b.table[()]})
        return project_potential(pair, frozenset())

    mul = combine_potentials
    zero, one = const(0), const(1)
    values = [const(v) for v in (0, 1, Fraction(1, 2), Fraction(3, 8), 2)]
    for a in values:
        assert add(a, zero) == a
        assert mul(a, one) == a
        assert mul(a, zero) == zero
        for b in values:
            assert add(a, b).table[()] == a.table[()] + b.table[()]
            assert mul(a, b).table[()] == a.table[()] * b.table[()]
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in values:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_projection_outside_domain_raises():
    _, row = bell_row_a1b1()
    with pytest.raises(DomainError):
        project_potential(row, frozenset({"zz"}))


# The possibilistic collapse of a potential is its support relation.
def test_possibilistic_collapse_bell_rows():
    universe, row = bell_row_a1b1()
    assert support_relation(row).tuples == frozenset({("0", "0"), ("1", "1")})  # (a1, b1)
    full_row = constant_potential(universe, row.domain, Fraction(1, 4))
    assert len(support_relation(full_row).tuples) == 4


def test_collapse_of_all_zero_is_all_zero():
    universe = VariableUniverse.of([("x", ("0", "1"))])
    zero = constant_potential(universe, frozenset({"x"}), Fraction(0))
    assert support_relation(zero).is_empty()


def test_boolean_potentials_mirror_relations():
    # A rational potential's Boolean image is its support relation. The
    # support of a combination is the join of the supports, and the support
    # of a projection is the projection of the support: support_analysis
    # reads complete disagreement off the supports' join on that ground.
    rng = random.Random(3)
    universe = VariableUniverse.of([(n, ("0", "1", "2")) for n in ("p", "q", "r")])
    seen = {"all zero": 0, "some zero": 0}
    for _ in range(40):
        phi = drawn_potential(rng, universe)
        psi = drawn_potential(rng, universe)
        lhs = support_relation(combine_potentials(phi, psi))
        rhs = natural_join(support_relation(phi), support_relation(psi))
        assert lhs == rhs
        names = sorted(phi.domain)
        for cut in range(len(names) + 1):
            sub = frozenset(names[:cut])
            assert support_relation(project_potential(phi, sub)) == project_relation(support_relation(phi), sub)
        for p in (phi, psi):
            zeros = sum(v == 0 for v in p.table.values())
            seen["all zero"] += zeros == len(p.table)
            seen["some zero"] += 0 < zeros < len(p.table)
    assert min(seen.values()) >= 10, seen


@st.composite
def rational_potential(draw):
    universe = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1", "2"))])
    domain = draw(st.sampled_from([frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})]))
    table = {}
    for a in enumerate_assignments(domain, universe):
        table[a] = Fraction(draw(st.integers(min_value=0, max_value=6)), draw(st.integers(min_value=1, max_value=4)))
    return Potential.from_table(universe, domain, table)


@settings(max_examples=50, derandomize=True)
@given(rational_potential(), st.sampled_from([frozenset(), frozenset({"x"}), frozenset({"y"})]))
def test_collapse_commutes_with_projection_on_supports(phi, target):
    # No cancellation over the nonnegative rationals, so supports project cleanly.
    if not target <= phi.domain:
        target = frozenset()
    lhs = support_relation(project_potential(phi, target))
    rhs = project_relation(support_relation(phi), target)
    assert lhs == rhs


def test_no_zero_numerator_is_ever_stored():
    # The table oracle's draws have no, 40% or all values zero; no operand,
    # join onto a target or projection stores one of them.
    rng = random.Random(32)
    for _ in range(200):
        universe = random_universe(rng, max_vars=4)
        phi, psi = drawn_potential(rng, universe), drawn_potential(rng, universe)
        union = sorted(phi.domain | psi.domain)
        target = frozenset(rng.sample(union, rng.randint(0, len(union))))
        sub = frozenset(rng.sample(sorted(phi.domain), rng.randint(0, len(phi.domain))))
        for p in (phi, psi, combine_potentials(phi, psi), _join(phi, psi, target), project_potential(phi, sub)):
            assert 0 not in p.table.nums.values()
            assert set(p.table.nums) == {row for row, v in p.table.items() if v}


def test_explicit_zeros_store_nothing():
    universe = VariableUniverse.of([("x", ("0", "1", "2")), ("y", ("0", "1"))])
    domain = frozenset({"x", "y"})
    given = {Assignment.of({"x": "1", "y": "0"}): Fraction(2, 3)}
    zeros = {Assignment.from_row(domain, row): Fraction(0) for row in universe.rows(domain)}
    explicit = Potential.from_table(universe, domain, {**zeros, **given})
    assert explicit == Potential.from_table(universe, domain, given, default=0)
    assert (explicit.table.nums, explicit.table.den) == ({("1", "0"): 2}, 3)
    null = null_potential(universe, domain)
    assert (null.table.nums, null.table.den) == ({}, 1)
    assert null == Potential.from_table(universe, domain, zeros) == constant_potential(universe, domain, 0)


def test_the_table_reads_as_the_total_table_in_frame_order():
    # Rows follow the sorted names (x, y), each in its frame's order, which
    # here is not the labels' sorted order.
    universe = VariableUniverse.of([("y", ("b", "a")), ("x", ("1", "0"))])
    domain = frozenset({"x", "y"})
    table = Potential.from_table(universe, domain, {Assignment.of({"x": "0", "y": "a"}): 5}, default=0).table
    assert len(table.nums) == 1 and len(table) == 4
    assert list(table) == [("1", "b"), ("1", "a"), ("0", "b"), ("0", "a")]
    assert list(table.values()) == [0, 0, 0, 5]
    assert table == {("1", "b"): 0, ("1", "a"): 0, ("0", "b"): 0, ("0", "a"): 5}
    assert type(table[("1", "b")]) is Fraction and table[("1", "b")] == 0
    assert ("1", "b") in table and ("0", "a") in table
    for key in [("2", "b"), ("b", "1"), ("1",), ("1", "b", "a"), "1b", ()]:
        assert key not in table and table.get(key) is None
        with pytest.raises(KeyError):
            table[key]


WIDE_NAMES = [f"v{i:02d}" for i in range(20)]
WIDE = VariableUniverse.of([(name, ("0", "1")) for name in WIDE_NAMES])


def _refuse_frame_walks(monkeypatch):
    def rows(self, domain):
        raise AssertionError(f"walked the frame product of {sorted(domain)}")

    monkeypatch.setattr(VariableUniverse, "rows", rows)


def test_listed_rows_are_stored_without_a_frame_walk(monkeypatch):
    # 2^20 frame rows and one listed: the library constructors store the
    # listed row as the parser does, and neither enumerates the frame.
    _refuse_frame_walks(monkeypatch)
    domain = frozenset(WIDE_NAMES)
    outcome = ("1",) + ("0",) * 19
    expected = parse_potential({",".join(outcome): 1}, WIDE_NAMES, WIDE, "values", cell_limit=None)
    built = Potential.from_table(WIDE, domain, {Assignment.from_row(domain, outcome): 1}, default=0)
    assert built == expected
    model = probabilistic_model(WIDE, [tuple(WIDE_NAMES)], {tuple(WIDE_NAMES): {outcome: "1"}})
    assert model.sections == (expected,)


def test_the_repr_lists_the_first_stored_rows_without_a_frame_walk(monkeypatch):
    _refuse_frame_walks(monkeypatch)
    domain = frozenset(WIDE_NAMES)
    rows = [("0",) * (19 - k) + ("1",) * (k + 1) for k in range(9)]
    phi = Potential.from_table(WIDE, domain, {Assignment.from_row(domain, row): 2 for row in rows}, default=0)
    shown = repr(phi)
    assert shown.endswith("->2, ...}") and shown.count("->2") == 8
    assert repr(Assignment.from_row(domain, max(rows))) not in shown
    one = Potential.from_table(WIDE, domain, {Assignment.from_row(domain, rows[0]): Fraction(1, 2)}, default=0)
    assert repr(one).endswith(f"{{{Assignment.from_row(domain, rows[0])!r}->1/2}}")


def test_equal_potentials_hash_equal():
    universe = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1", "2"))])
    domain = frozenset({"x", "y"})
    ones = {Assignment.from_row(domain, row): Fraction(2, 2) for row in universe.rows(domain)}
    same = [
        constant_potential(universe, domain, 1),
        neutral_potential(universe, domain),
        Potential.from_table(universe, domain, ones),
        Potential(universe, domain, dict.fromkeys(universe.rows(domain), 1)),
    ]
    assert len({hash(phi) for phi in same}) == 1
    half = constant_potential(universe, domain, Fraction(1, 2))
    null = null_potential(universe, domain)
    assert set(same + [half, null, constant_potential(universe, domain, 0)]) == {same[0], half, null}
