"""Differential test of the four table operations against assignment-based oracles.

Relations and potentials store value tuples in sorted-domain order. The
oracles below are the earlier implementations of natural_join,
project_relation, combine_potentials and project_potential, which kept every
row as an Assignment (each variable name repeated in each row), joined rows
with a merge of assignments and rebuilt an Assignment for every output cell.
They work on plain (domain, frozenset[Assignment]) and
(domain, dict[Assignment, value]) pairs, so they share no table code with
valkit. Fusion's fused step, `combine_project`, is checked in both
algebras against the combination oracle projected by the projection
oracle. Each random input also round-trips through a knowledgebase
document.

`oracle_from_table` is the earlier `Potential.from_table`, which walked the
whole frame to build a dense `Fraction` table and handed it to the record
constructor. The sparse constructor must build equal potentials from the
same input, and refuse every single-fault input (a stray assignment, a
missing row, a value outside the carrier) with the same error class and
message.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from valkit.algebra import Knowledgebase, PotentialAlgebra, RelationAlgebra
from valkit.core import Assignment, VariableUniverse
from valkit.documents import canonical_json, knowledgebase_document, parse_document_text
from valkit.errors import ArgumentError, DomainError
from valkit.potentials import Potential, combine_potentials, project_potential
from valkit.relations import Relation, natural_join, project_relation

from conftest import assert_canonical, drawn_potential, random_rationals, random_relation, random_universe

CASES = 400


def _merge(x: Assignment, y: Assignment) -> Assignment:
    merged = dict(x.items)
    merged.update(y.items)
    return Assignment(tuple(sorted(merged.items())))


def oracle_join(r1, r2):
    (d1, t1), (d2, t2) = r1, r2
    union = d1 | d2
    if not t1 or not t2:
        return union, frozenset()
    small, large = (t1, t2) if len(t1) <= len(t2) else (t2, t1)
    common = d1 & d2
    buckets = {}
    for x in small:
        buckets.setdefault(x.restrict(common), []).append(x)
    joined = set()
    for y in large:
        for x in buckets.get(y.restrict(common), ()):
            joined.add(_merge(x, y))
    return union, frozenset(joined)


def oracle_project_relation(r, target):
    _, tuples = r
    return target, frozenset(x.restrict(target) for x in tuples)


def oracle_combine(phi, psi, universe):
    (d1, t1), (d2, t2) = phi, psi
    union = sorted(d1 | d2)
    frames = [universe.frame(name).values for name in union]
    pos_phi = [i for i, name in enumerate(union) if name in d1]
    pos_psi = [i for i, name in enumerate(union) if name in d2]
    phi_vals = {tuple(v for _, v in key.items): val for key, val in t1.items()}
    psi_vals = {tuple(v for _, v in key.items): val for key, val in t2.items()}
    table = {}
    for combo in product(*frames):
        a = phi_vals[tuple(combo[i] for i in pos_phi)]
        b = psi_vals[tuple(combo[i] for i in pos_psi)]
        table[Assignment(tuple(zip(union, combo)))] = a * b
    return frozenset(union), table


def oracle_project_potential(phi, target):
    domain, table = phi
    keep = [i for i, name in enumerate(sorted(domain)) if name in target]
    acc = {}
    for key, val in table.items():
        values = tuple(v for _, v in key.items)
        sub = tuple(values[i] for i in keep)
        acc[sub] = acc[sub] + val if sub in acc else val
    return target, {Assignment(tuple(zip(sorted(target), sub))): val for sub, val in acc.items()}


def as_points(r: Relation):
    return r.domain, frozenset(Assignment.from_row(r.domain, t) for t in r.tuples)


def as_point_table(p: Potential):
    return p.domain, {Assignment.from_row(p.domain, k): v for k, v in p.table.items()}


def domain_pair(rng: random.Random, universe: VariableUniverse, case: int):
    """Cycles through random, identical, disjoint and empty-domain operands."""
    names = sorted(universe.vars)
    first = frozenset(rng.sample(names, rng.randint(1, min(3, len(names)))))
    kind = case % 4
    if kind == 1:
        return first, first
    if kind == 2:
        rest = sorted(universe.vars - first)
        return first, frozenset(rng.sample(rest, min(len(rest), rng.randint(1, 3))))
    if kind == 3:
        return (frozenset(), first) if rng.random() < 0.5 else (first, frozenset())
    return first, frozenset(rng.sample(names, rng.randint(1, min(3, len(names)))))


def subset(rng: random.Random, domain):
    return frozenset(name for name in sorted(domain) if rng.random() < 0.5)


def roundtrip(universe: VariableUniverse, valuation):
    document = canonical_json(knowledgebase_document(Knowledgebase(universe, (valuation,))))
    return parse_document_text(document).payload.valuations[0]


def test_relation_operations_match_the_assignment_oracle():
    rng = random.Random(606)
    seen = {"empty-domain": 0, "identical": 0, "disjoint": 0, "empty-relation": 0}
    for case in range(CASES):
        universe = random_universe(rng)
        d1, d2 = domain_pair(rng, universe, case)
        r1, r2 = (random_relation(rng, universe, d, keep=rng.choice((0.0, 0.3, 0.7, 1.0))) for d in (d1, d2))
        joined = natural_join(r1, r2)
        assert as_points(joined) == oracle_join(as_points(r1), as_points(r2))
        for r in (r1, r2, joined):
            target = subset(rng, r.domain)
            assert as_points(project_relation(r, target)) == oracle_project_relation(as_points(r), target)
            assert roundtrip(universe, r) == r
        seen["empty-domain"] += not d1 or not d2
        seen["identical"] += d1 == d2
        seen["disjoint"] += not d1 & d2
        seen["empty-relation"] += r1.is_empty() or r2.is_empty()
    assert all(count >= 20 for count in seen.values()), seen


def test_relation_combine_project_matches_the_projected_join_oracle():
    rng = random.Random(505)
    for case in range(CASES):
        universe = random_universe(rng)
        d1, d2 = domain_pair(rng, universe, case)
        r1, r2 = (random_relation(rng, universe, d, keep=rng.choice((0.0, 0.3, 0.7, 1.0))) for d in (d1, d2))
        target = subset(rng, d1 | d2)
        fused = RelationAlgebra(universe).combine_project(r1, r2, target)
        joined = oracle_join(as_points(r1), as_points(r2))
        assert as_points(fused) == oracle_project_relation(joined, target)


def test_potential_operations_match_the_assignment_oracle():
    rng, targets = random.Random(707), random.Random(808)  # the targets leave the operand draws as they were
    zero_entries = 0
    for case in range(CASES):
        universe = random_universe(rng)
        algebra = PotentialAlgebra(universe)
        d1, d2 = domain_pair(rng, universe, case)
        phi = drawn_potential(rng, universe, d1)
        psi = drawn_potential(rng, universe, d2)
        combined = combine_potentials(phi, psi)
        expected = oracle_combine(as_point_table(phi), as_point_table(psi), universe)
        assert as_point_table(combined) == expected
        assert_canonical(combined)
        target = subset(targets, combined.domain)
        fused = algebra.combine_project(phi, psi, target)
        assert as_point_table(fused) == oracle_project_potential(expected, target)
        assert_canonical(fused)
        for p in (phi, psi, combined):
            target = subset(rng, p.domain)
            projected = project_potential(p, target)
            assert as_point_table(projected) == oracle_project_potential(as_point_table(p), target)
            assert_canonical(projected)
            assert roundtrip(universe, p) == p
        zero_entries += any(v == 0 for v in phi.table.values())
    assert zero_entries >= 100


def test_is_neutral_agrees_with_comparing_to_the_neutral_element():
    # The oracle draws, their neutral elements and the projections of those
    # (a rational neutral element summed over a frame is no longer neutral).
    rng = random.Random(909)
    seen = {True: 0, False: 0}
    for case in range(CASES // 2):
        universe = random_universe(rng)
        domain, _ = domain_pair(rng, universe, case)
        if case % 2:
            algebra = RelationAlgebra(universe)
            drawn = random_relation(rng, universe, domain, keep=rng.choice((0.0, 0.7, 1.0)))
        else:
            algebra = PotentialAlgebra(universe)
            drawn = drawn_potential(rng, universe, domain)
        neutral = algebra.neutral(domain)
        for phi in (drawn, neutral, algebra.project(neutral, subset(rng, domain))):
            label = phi.domain
            assert algebra.is_neutral(phi) == (phi == algebra.neutral(label)), phi
            seen[algebra.is_neutral(phi)] += 1
    assert min(seen.values()) >= 100, seen


def oracle_from_table(universe, domain, values, default=None):
    given = {key.row: v for key, v in values.items() if key.domain == domain}
    table = {}
    for row in universe.rows(domain):
        if row in given:
            v = given.pop(row)
        elif default is not None:
            v = default
        else:
            raise DomainError(f"missing table entry for {Assignment.from_row(domain, row)!r}")
        if isinstance(v, int) and not isinstance(v, bool):
            v = Fraction(v)
        if not isinstance(v, Fraction) or v < 0:
            raise ArgumentError(f"value {v!r} is outside the nonneg-rational carrier")
        table[row] = v
    stray = [key for key in values if key.domain != domain]
    stray += [Assignment.from_row(domain, row) for row in given]
    if stray:
        example = min(stray, key=lambda a: a.items)
        raise ArgumentError(f"assignment {example!r} is not a point of the domain's frame product")
    return Potential(universe, domain, table)


def _outcome(build, *args):
    """The potential that `build(*args)` returns, or the class and message of what it raises."""
    try:
        return build(*args)
    except (ArgumentError, DomainError) as err:
        return type(err), str(err)


DEFAULTS = (None, 0, Fraction(0), 3, Fraction(2, 7))


def test_from_table_matches_the_dense_oracle():
    rng = random.Random(1010)
    seen = {"default None": 0, "default 0": 0, "default nonzero": 0, "zero row": 0, "empty domain": 0}
    for case in range(4 * CASES // 3):
        universe = random_universe(rng, max_vars=4)
        names = sorted(universe.vars)
        domain = frozenset(rng.sample(names, rng.randint(0, min(3, len(names)))))
        rows = list(universe.rows(domain))
        default = DEFAULTS[case % len(DEFAULTS)]
        keep = 1.0 if default is None and case % 10 else rng.choice((0.0, 0.5, 1.0))
        listed = [row for row in rows if rng.random() < keep]
        weights = random_rationals(rng, len(listed))
        values = {
            Assignment.from_row(domain, row): rng.choice((0, Fraction(0), w, w.numerator)) for row, w in zip(listed, weights)
        }
        expected = _outcome(oracle_from_table, universe, domain, values, default)
        assert _outcome(Potential.from_table, universe, domain, values, default) == expected
        if isinstance(expected, Potential):
            seen["default None" if default is None else "default nonzero" if default else "default 0"] += 1
            seen["zero row"] += any(v == 0 for v in values.values())
            seen["empty domain"] += not domain
    assert min(seen.values()) >= 25, seen


U = VariableUniverse.of([("x", ("0", "1", "2")), ("y", ("b", "a"))])
XY = frozenset({"x", "y"})
FULL = {Assignment.from_row(XY, row): Fraction(1, 6) for row in U.rows(XY)}
FIRST, LAST = Assignment.of({"x": "0", "y": "b"}), Assignment.of({"x": "2", "y": "a"})


def _without(*points):
    return {key: v for key, v in FULL.items() if key not in points}


SINGLE_FAULTS = {
    "stray: another domain": (XY, {**FULL, Assignment.of({"x": "0"}): 1}, None),
    "stray: a label outside the frame": (XY, {**FULL, Assignment.of({"x": "9", "y": "a"}): 1}, None),
    "stray: several": (XY, {**FULL, Assignment.of({"x": "9", "y": "a"}): 1, Assignment.of({"y": "z"}): 0}, 0),
    "missing: one row": (XY, _without(LAST), None),
    "missing: several rows": (XY, _without(LAST, Assignment.of({"x": "1", "y": "a"})), None),
    "missing: the empty domain's row": (frozenset(), {}, None),
    "unknown variable": (frozenset({"x", "w"}), {}, 0),
}
for name, bad in {"negative int": -1, "negative Fraction": Fraction(-1, 2), "bool": True, "float": 0.5, "str": "1/2"}.items():
    SINGLE_FAULTS[f"carrier: a listed {name}"] = (XY, {**FULL, FIRST: bad}, None)
    SINGLE_FAULTS[f"carrier: a {name} default filling a row"] = (XY, _without(LAST), bad)
    SINGLE_FAULTS[f"carrier: a {name} default filling no row"] = (XY, FULL, bad)


@pytest.mark.parametrize("domain, values, default", SINGLE_FAULTS.values(), ids=SINGLE_FAULTS.keys())
def test_from_table_refuses_a_single_fault_as_the_dense_oracle_does(domain, values, default):
    expected = _outcome(oracle_from_table, U, domain, values, default)
    assert _outcome(Potential.from_table, U, domain, values, default) == expected
