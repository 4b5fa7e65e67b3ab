"""The benchmark's oracles against brute force at small sizes.

Run with `python3 -m pytest bench` from the repository root. Standard library
plus pytest; valkit is not imported.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import gen
import oracle


def test_liar_closed_form_matches_brute_force():
    rng = random.Random(1)
    for n in range(3, 9):
        for consistent in (False, True):
            doc, expect = gen.liar_doc(rng, n, consistent)
            brute = oracle.relation_kb_expect(doc)
            assert oracle.matches(expect, brute), (n, consistent, brute)


def test_grid_transfer_matrix_matches_enumeration():
    for rows, cols in ((1, 3), (2, 2), (2, 3), (3, 3), (2, 4)):
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        count = 0
        for colours in product(range(3), repeat=len(cells)):
            c = dict(zip(cells, colours))
            if all(c[(i, j)] != c.get((i, j + 1), -1) and c[(i, j)] != c.get((i + 1, j), -1) for i, j in cells):
                count += 1
        assert oracle.grid_colourings(rows, cols) == count


def test_grid_expect_matches_csp_brute_force():
    rng = random.Random(2)
    for rows, cols in ((2, 2), (2, 3), (3, 3)):
        doc, expect = gen.grid_doc(rng, rows, cols)
        assert oracle.matches(expect, oracle.csp_expect(doc))


def _solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact Gaussian elimination; None when the matrix is singular."""
    n = len(matrix)
    a = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def _in_correlation_polytope(corr: list[Fraction]) -> bool:
    """Caratheodory: is the correlator vector a convex combination of the
    deterministic ones, (x_i x_(i+1))_i for x in {-1, 1}^n? Tries every simplex."""
    n = len(corr)
    vertices = sorted({tuple(x[i] * x[(i + 1) % n] for i in range(n)) for x in product((1, -1), repeat=n)})
    for simplex in combinations(vertices, n + 1):
        matrix = [[Fraction(v[i]) for v in simplex] for i in range(n)] + [[Fraction(1)] * (n + 1)]
        weights = _solve(matrix, list(corr) + [Fraction(1)])
        if weights is not None and all(w >= 0 for w in weights):
            return True
    return False


def test_cycle_inequalities_match_convex_hull():
    rng = random.Random(3)
    for n in (3, 4):
        for _ in range(40):
            corr = [Fraction(rng.randint(-5, 5), 6) for _ in range(n)]
            assert oracle.cycle_is_contextual(corr) == (not _in_correlation_polytope(corr)), corr


def test_generated_cycles_sit_on_their_side():
    rng = random.Random(4)
    for n in (3, 4):
        for contextual in (False, True):
            corr = gen.cycle_correlators(rng, n, contextual)
            assert _in_correlation_polytope(corr) != contextual
            for negative in range(n):
                corr = gen.noisy_cycle_correlators(n, contextual, negative)
                assert _in_correlation_polytope(corr) != contextual


def test_bn_chain_marginals_match_joint_enumeration():
    rng = random.Random(5)
    for k, values in ((2, 3), (3, 2)):
        doc, net = gen.bn_grid(rng, k, values)
        frames = {u["name"]: u["frame"] for u in doc["universe"]}
        names = sorted(frames)
        joint = {}
        for combo in product(*(frames[n] for n in names)):
            a = dict(zip(names, combo))
            p = Fraction(1)
            for v in doc["valuations"]:
                p *= Fraction(v["values"][",".join(a[n] for n in v["domain"])])
            joint[combo] = p
        assert sum(joint.values()) == 1
        cell = net["cell"]
        for var in [cell[0][k - 1], cell[k - 1][0], cell[0][0]]:
            marginal = {}
            for combo, p in joint.items():
                label = combo[names.index(var)]
                marginal[label] = marginal.get(label, Fraction(0)) + p
            assert oracle.bn_query_check(net, (var,))["marginals"][var] == marginal


def test_possibilistic_parity_supports():
    rng = random.Random(6)
    seen = set()
    for _ in range(30):
        doc, expect = gen.small_possibilistic(rng, 2)
        parities = sum(
            1 for rows in doc["sections"].values() if all(a != b for a, b in (k.split(",") for k in rows))
        )
        assert expect["no_signalling"] == "pass"
        assert expect["class"] == ("SC" if parities % 2 else "NC")
        seen.add(expect["class"])
    assert seen == {"SC", "NC"}


def test_generation_is_deterministic():
    for workload in gen.WORKLOADS:
        first = gen.generate(workload, 7)
        again = gen.generate(workload, 7)
        other = gen.generate(workload, 8)
        assert [(i.name, i.doc, i.expect, i.query) for i in first] == [(i.name, i.doc, i.expect, i.query) for i in again]
        assert [i.doc for i in first] != [i.doc for i in other]
