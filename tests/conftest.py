import random
from fractions import Fraction

import pytest

from valkit.algebra import Knowledgebase
from valkit.contextuality import probabilistic_model
from valkit.core import Assignment, BOOLEAN, NONNEG_RATIONAL, VariableUniverse, enumerate_assignments
from valkit.potentials import Potential
from valkit.relations import Relation


@pytest.fixture
def screening_universe():
    return VariableUniverse.of([("a", ("54-", "54+")), ("e", ("M", "CBE")), ("f", ("Y", "2Y"))])


@pytest.fixture
def binary_universe():
    return VariableUniverse.of([(n, ("0", "1")) for n in ("w", "x", "y", "z")])


def random_universe(rng: random.Random, max_vars: int = 6, max_frame: int = 3) -> VariableUniverse:
    n = rng.randint(2, max_vars)
    labels = ("u", "v", "w")
    return VariableUniverse.of(
        [(f"x{i}", labels[: rng.randint(2, max_frame)]) for i in range(n)]
    )


def random_relation(rng: random.Random, universe: VariableUniverse, domain=None, keep=0.6) -> Relation:
    if domain is None:
        names = sorted(universe.vars)
        size = rng.randint(1, min(3, len(names)))
        domain = frozenset(rng.sample(names, size))
    rows = [row for row in universe.rows(domain) if rng.random() < keep]
    return Relation.from_rows(universe, sorted(domain), rows)


def random_domain(rng: random.Random, universe: VariableUniverse):
    names = sorted(universe.vars)
    return frozenset(rng.sample(names, rng.randint(1, min(3, len(names)))))


def random_potential(rng: random.Random, universe: VariableUniverse, domain=None) -> Potential:
    if domain is None:
        domain = random_domain(rng, universe)
    table = {
        a: Fraction(rng.randint(0, 4), rng.randint(1, 4))
        for a in enumerate_assignments(domain, universe)
    }
    return Potential.from_table(universe, domain, NONNEG_RATIONAL, table)


# Distinct primes near 10^6: denominators drawn from them are pairwise coprime,
# so a product of such tables has a large denominator that must stay reduced.
PRIMES_NEAR_A_MILLION = tuple(p for p in range(999_001, 1_001_000, 2) if all(p % d for d in range(3, 1001, 2)))


def random_rationals(rng: random.Random, count: int) -> list[Fraction]:
    """`count` positive rationals in one style per table.

    Small ones; pairwise coprime denominators (distinct primes near 10^6); or
    numerators sharing a factor (one of those primes among them), so that
    combining and summing must cancel common factors.
    """
    style = rng.randrange(3)
    if style == 0:
        return [Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(count)]
    if style == 1:
        return [Fraction(rng.randint(1, p - 1), p) for p in rng.sample(PRIMES_NEAR_A_MILLION, count)]
    factor = rng.choice((6, 10, 15, PRIMES_NEAR_A_MILLION[0]))
    return [Fraction(factor * rng.randint(1, 5), rng.randint(1, 4)) for _ in range(count)]


def drawn_potential(rng: random.Random, universe: VariableUniverse, domain=None, semiring=NONNEG_RATIONAL) -> Potential:
    """A potential for the table oracles: no, 40% or all entries zero, the others 1 (Boolean) or random_rationals."""
    if domain is None:
        domain = random_domain(rng, universe)
    zeros = rng.choice((0.0, 0.4, 1.0))
    rows = list(universe.rows(domain))
    weights = random_rationals(rng, len(rows))
    table = {}
    for row, weight in zip(rows, weights):
        point = Assignment.from_row(domain, row)
        if rng.random() < zeros:
            table[point] = semiring.zero
        else:
            table[point] = 1 if semiring is BOOLEAN else weight
    return Potential.from_table(universe, domain, semiring, table)


def assert_canonical(p: Potential) -> None:
    """A result equals the potential rebuilt from its values, so it is stored in lowest terms."""
    values = {Assignment.from_row(p.domain, row): v for row, v in p.table.items()}
    assert Potential.from_table(p.universe, p.domain, p.semiring, values) == p


def random_boolean_potential(rng: random.Random, universe: VariableUniverse, domain=None) -> Potential:
    """random_potential's draws, read as the Boolean potential that is 1 exactly on their support."""
    phi = random_potential(rng, universe, domain)
    return Potential(universe, phi.domain, BOOLEAN, {row: int(v != 0) for row, v in phi.table.items()})


def random_relation_kb(rng: random.Random, max_vars=6, max_frame=3, max_vals=5) -> Knowledgebase:
    universe = random_universe(rng, max_vars, max_frame)
    count = rng.randint(1, max_vals)
    return Knowledgebase(universe, tuple(random_relation(rng, universe) for _ in range(count)))


def random_potential_kb(rng: random.Random, max_vars=6, max_frame=3, max_vals=5, draw=random_potential) -> Knowledgebase:
    universe = random_universe(rng, max_vars, max_frame)
    count = rng.randint(1, max_vals)
    return Knowledgebase(universe, tuple(draw(rng, universe) for _ in range(count)))


def empty_domain_potential_kb():
    """A uniform bit plus the constant 1 on the empty domain, written under the key ""."""
    universe = VariableUniverse.of([("x", ("0", "1"))])
    half = {Assignment.of({"x": v}): Fraction(1, 2) for v in ("0", "1")}
    return Knowledgebase(
        universe,
        (
            Potential.from_table(universe, frozenset({"x"}), NONNEG_RATIONAL, half),
            Potential.from_table(universe, frozenset(), NONNEG_RATIONAL, {Assignment.of({}): Fraction(1)}),
        ),
    )


def assignment_of(universe: VariableUniverse, **values) -> Assignment:
    return Assignment.of(values)


def values_in(row: tuple[str, ...], order) -> tuple[str, ...]:
    """A row of a table over the names in `order` (values in sorted-name order), read in `order`."""
    by_name = dict(zip(sorted(order), row))
    return tuple(by_name[name] for name in order)


def cycle_model(correlators):
    """The unbiased binary n-cycle with nearest-neighbour correlators E_i.

    Measurements m0..m{n-1} take outcomes "0" and "1"; context i is
    (m_i, m_{i+1}), the last one written (m0, m{n-1}), and its section is
    p(a, b) = (1 + E_i) / 4 when a == b and (1 - E_i) / 4 otherwise.
    """
    n = len(correlators)
    names = [f"m{i}" for i in range(n)]
    universe = VariableUniverse.of([(name, ("0", "1")) for name in names])
    contexts, sections = [], {}
    for i, e in enumerate(correlators):
        ctx = (names[i], names[i + 1]) if i < n - 1 else (names[0], names[n - 1])
        contexts.append(ctx)
        sections[ctx] = {(a, b): (1 + (e if a == b else -e)) / 4 for a in "01" for b in "01"}
    return probabilistic_model(universe, contexts, sections)


def noisy_cycle_correlators(n: int, contextual: bool) -> list[Fraction]:
    """E_i = t on every edge but the first, which has -t.

    The largest odd-sign sum is n t, so t = (n-2)/n + 1/(2n) lies just
    outside the noncontextual boundary and t = (n-2)/n - 1/(2n) just inside.
    """
    t = Fraction(n - 2, n) + Fraction(1 if contextual else -1, 2 * n)
    return [-t] + [t] * (n - 1)


def grid_colouring_document(rows, cols):
    """Proper 3-colourings of a rows x cols grid as a CSP, one constraint per edge."""
    colours = ["b", "g", "r"]
    cell = [[f"r{i}c{j}" for j in range(cols)] for i in range(rows)]
    differ = [[a, b] for a in colours for b in colours if a != b]
    constraints = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                constraints.append({"scheme": [cell[i][j], cell[i][j + 1]], "allowed": differ})
            if i + 1 < rows:
                constraints.append({"scheme": [cell[i][j], cell[i + 1][j]], "allowed": differ})
    return {
        "kind": "csp",
        "universe": [{"name": name, "frame": colours} for row in cell for name in row],
        "constraints": constraints,
    }


def split_components_document():
    """A chain a = b = c that agrees, beside an inconsistent triangle over p, q, r."""
    frame = ["0", "1"]
    equal, differ = [["0", "0"], ["1", "1"]], [["0", "1"], ["1", "0"]]
    return {
        "kind": "knowledgebase",
        "universe": [{"name": n, "frame": frame} for n in ("a", "b", "c", "p", "q", "r")],
        "valuations": [
            {"domain": ["a", "b"], "tuples": equal},
            {"domain": ["b", "c"], "tuples": equal},
            {"domain": ["p", "q"], "tuples": equal},
            {"domain": ["q", "r"], "tuples": equal},
            {"domain": ["p", "r"], "tuples": differ},
        ],
    }
