import random
from fractions import Fraction
from itertools import product

import pytest

from valkit.algebra import Knowledgebase
from valkit.contextuality import possibilistic_model, probabilistic_model
from valkit.core import Assignment, Domain, VariableUniverse
from valkit.documents import relation_rows
from valkit.potentials import Potential
from valkit.relations import Relation


def enumerate_assignments(domain: Domain, universe: VariableUniverse) -> list[Assignment]:
    """All assignments over `domain`, lexicographic by variable name then frame order."""
    return [Assignment.from_row(domain, row) for row in universe.rows(domain)]


def csp_document(universe: VariableUniverse, constraints, covers) -> dict:
    """The JSON document of the CSP of `constraints` (relations) with the given cover sets, in the form the parser reads."""
    return {
        "kind": "csp",
        "universe": [{"name": name, "frame": list(frame.values)} for name, frame in universe.entries],
        "constraints": [{"scheme": sorted(c.domain), "allowed": relation_rows(c, sorted(c.domain))} for c in constraints],
        "covers": [sorted(cover) for cover in covers],
    }


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
    return Potential.from_table(universe, domain, table)


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


def drawn_potential(rng: random.Random, universe: VariableUniverse, domain=None) -> Potential:
    """A potential for the table oracles: no, 40% or all entries zero, the others random_rationals."""
    if domain is None:
        domain = random_domain(rng, universe)
    zeros = rng.choice((0.0, 0.4, 1.0))
    rows = list(universe.rows(domain))
    weights = random_rationals(rng, len(rows))
    table = {}
    for row, weight in zip(rows, weights):
        point = Assignment.from_row(domain, row)
        table[point] = 0 if rng.random() < zeros else weight
    return Potential.from_table(universe, domain, table)


def assert_canonical(p: Potential) -> None:
    """A result equals the potential rebuilt from its values, so it is stored in lowest terms."""
    values = {Assignment.from_row(p.domain, row): v for row, v in p.table.items()}
    assert Potential.from_table(p.universe, p.domain, values) == p


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
            Potential.from_table(universe, frozenset({"x"}), half),
            Potential.from_table(universe, frozenset(), {Assignment.of({}): Fraction(1)}),
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


def full_cycle_model(n: int):
    """The possibilistic binary n-cycle whose every context allows all four outcomes: NC, with 2^n tuples in Gamma."""
    names = [f"m{i:02d}" for i in range(n)]
    universe = VariableUniverse.of([(name, ("0", "1")) for name in names])
    contexts = [(names[i], names[(i + 1) % n]) for i in range(n)]
    every = [(a, b) for a in "01" for b in "01"]
    return possibilistic_model(universe, contexts, {ctx: every for ctx in contexts})


def random_no_signalling_possibilistic(rng):
    """A random possibilistic model on an n-cycle or a bipartite Bell cover.

    Each measurement m keeps a nonempty set V_m of its outcomes, and each
    context's support is a random subset of the product of those sets that
    still hits every outcome in V_m for each of its measurements, so every
    overlap (a single measurement) sees V_m from both sides. Half of the
    binary cycles favour one parity per context, PR-box style, so that
    strongly contextual models occur too.
    """
    if rng.random() < 0.5:
        n = rng.randint(3, 5)
        names = [f"m{i}" for i in range(n)]
        contexts = [(names[i], names[(i + 1) % n]) for i in range(n)]
        parity = rng.random() < 0.5
    else:
        k = rng.randint(2, 3)
        names = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]
        contexts = [(f"a{i}", f"b{j}") for i in range(k) for j in range(k)]
        parity = False
    frames = {name: ("0", "1", "2")[: 2 if parity else rng.randint(2, 3)] for name in names}
    kept = {name: frames[name] for name in names}
    if not parity:
        kept = {name: rng.sample(frame, rng.randint(1, len(frame))) for name, frame in kept.items()}
    universe = VariableUniverse.of([(name, frames[name]) for name in names])
    supports = {}
    for x, y in contexts:
        cells = list(product(kept[x], kept[y]))
        odd = rng.random() < 0.5
        while True:
            if parity:
                chosen = [c for c in cells if rng.random() < (0.9 if (c[0] != c[1]) == odd else 0.15)]
            else:
                chosen = [c for c in cells if rng.random() < 0.5]
            if {a for a, _ in chosen} == set(kept[x]) and {b for _, b in chosen} == set(kept[y]):
                break
        supports[(x, y)] = chosen
    return possibilistic_model(universe, contexts, supports)


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


def coprime_bayes_net_document(seed: int, k: int = 3, values: int = 2):
    """A k x k Bayesian-network grid whose CPT rows have pairwise coprime denominators.

    Cell (i, j), over the labels "0", "1", ... of `values`, has parents
    (i-1, j) and (i, j-1). Each CPT row is (a1/p, a2/p, ...) for its own odd
    prime p and positive a's drawn from the seed that sum to p, so a
    marginal's denominator is a product of many distinct primes.
    """
    rng = random.Random(seed)
    primes = (p for p in range(3, 10_000, 2) if all(p % d for d in range(3, int(p**0.5) + 1, 2)))
    labels = [str(v) for v in range(values)]
    cell = [[f"r{i}c{j}" for j in range(k)] for i in range(k)]
    valuations = []
    for i in range(k):
        for j in range(k):
            parents = ([cell[i - 1][j]] if i else []) + ([cell[i][j - 1]] if j else [])
            table = {}
            for combo in product(labels, repeat=len(parents)):
                p = left = next(primes)
                for v, label in enumerate(labels):
                    a = rng.randint(1, left - (values - 1 - v)) if v < values - 1 else left
                    table[",".join((label,) + combo)] = f"{a}/{p}"
                    left -= a
            valuations.append({"domain": [cell[i][j]] + parents, "values": table})
    return {
        "kind": "knowledgebase",
        "universe": [{"name": name, "frame": labels} for row in cell for name in row],
        "valuations": valuations,
    }
