"""Differential test of the four table operations against assignment-based oracles.

Relations and potentials store value tuples in sorted-domain order. The
oracles below are the earlier implementations of natural_join,
project_relation, combine_potentials and project_potential, which kept every
row as an Assignment (each variable name repeated in each row), joined rows
with a merge of assignments and rebuilt an Assignment for every output cell.
They work on plain (domain, frozenset[Assignment]) and
(domain, dict[Assignment, value]) pairs, so they share no table code with
valkit. Each random input also round-trips through a knowledgebase document.
"""

import random
from itertools import product

from valkit.algebra import Knowledgebase
from valkit.core import BOOLEAN, NONNEG_RATIONAL, Assignment, VariableUniverse
from valkit.documents import canonical_json, knowledgebase_document, parse_document_text
from valkit.potentials import Potential, combine_potentials, project_potential
from valkit.relations import Relation, natural_join, project_relation

from conftest import assert_canonical, drawn_potential, random_relation, random_universe

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


def oracle_combine(phi, psi, universe, mul):
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
        table[Assignment(tuple(zip(union, combo)))] = mul(a, b)
    return frozenset(union), table


def oracle_project_potential(phi, target, add):
    domain, table = phi
    keep = [i for i, name in enumerate(sorted(domain)) if name in target]
    acc = {}
    for key, val in table.items():
        values = tuple(v for _, v in key.items)
        sub = tuple(values[i] for i in keep)
        acc[sub] = add(acc[sub], val) if sub in acc else val
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


def test_potential_operations_match_the_assignment_oracle():
    rng = random.Random(707)
    zero_entries = 0
    for case in range(CASES):
        universe = random_universe(rng)
        semiring = NONNEG_RATIONAL if case % 3 else BOOLEAN
        d1, d2 = domain_pair(rng, universe, case)
        phi = drawn_potential(rng, universe, d1, semiring)
        psi = drawn_potential(rng, universe, d2, semiring)
        combined = combine_potentials(phi, psi)
        expected = oracle_combine(as_point_table(phi), as_point_table(psi), universe, semiring.mul)
        assert as_point_table(combined) == expected
        assert_canonical(combined)
        for p in (phi, psi, combined):
            target = subset(rng, p.domain)
            projected = project_potential(p, target)
            assert as_point_table(projected) == oracle_project_potential(as_point_table(p), target, semiring.add)
            assert_canonical(projected)
            if semiring is NONNEG_RATIONAL:
                assert roundtrip(universe, p) == p
        zero_entries += any(v == semiring.zero for v in phi.table.values())
    assert zero_entries >= 100
