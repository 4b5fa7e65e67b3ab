import random
from fractions import Fraction

from valkit.algebra import PotentialAlgebra, RelationAlgebra, axiom_suite
from valkit.core import BOOLEAN, NONNEG_RATIONAL, VariableUniverse
from valkit.potentials import Potential

from conftest import random_potential, random_relation

UNIVERSE = VariableUniverse.of([(n, ("0", "1", "2")) for n in ("p", "q")] + [(n, ("0", "1")) for n in ("r", "s")])


def relation_samples(seed=0, count=10):
    rng = random.Random(seed)
    return [random_relation(rng, UNIVERSE) for _ in range(count)]


def potential_samples(seed=0, count=10):
    rng = random.Random(seed)
    return [random_potential(rng, UNIVERSE) for _ in range(count)]


def by_axiom(results):
    return {r.axiom: r for r in results}


def test_relation_algebra_passes_all_claimed_axioms():
    algebra = RelationAlgebra(UNIVERSE)
    assert algebra.claimed_axioms() == ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11", "A12", "A13")
    results = by_axiom(axiom_suite(algebra, relation_samples()))
    for axiom, result in results.items():
        assert result.passed, f"{axiom}: {result.counterexample}"
        assert result.cases > 0


def test_rational_potentials_pass_a1_to_a8():
    algebra = PotentialAlgebra(UNIVERSE, NONNEG_RATIONAL)
    assert algebra.claimed_axioms() == ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8")
    results = by_axiom(axiom_suite(algebra, potential_samples()))
    for axiom, result in results.items():
        assert result.passed, f"{axiom}: {result.counterexample}"


def test_rational_potentials_fail_a9_with_counterexample():
    algebra = PotentialAlgebra(UNIVERSE, NONNEG_RATIONAL)
    # Any table value outside {0, 1} breaks idempotency once S = d(phi) is sampled.
    results = by_axiom(axiom_suite(algebra, potential_samples(), axioms=("A9",)))
    assert not results["A9"].passed
    assert results["A9"].counterexample is not None


def test_idempotency_counterexample_is_concrete():
    from valkit.core import Assignment

    universe = VariableUniverse.of([("x", ("0", "1"))])
    algebra = PotentialAlgebra(universe, NONNEG_RATIONAL)
    half = Potential.from_table(
        universe,
        frozenset({"x"}),
        NONNEG_RATIONAL,
        {Assignment.of({"x": "0"}): Fraction(1, 2), Assignment.of({"x": "1"}): Fraction(1, 2)},
    )
    # Direct evaluation: (phi ⊗ phi↓{x})(x) = phi(x)^2 != phi(x).
    from valkit.potentials import combine_potentials, project_potential

    squared = combine_potentials(half, project_potential(half, half.domain))
    assert squared != half
    results = by_axiom(axiom_suite(algebra, [half], axioms=("A9",)))
    assert not results["A9"].passed


def test_boolean_potentials_are_idempotent():
    algebra = PotentialAlgebra(UNIVERSE, BOOLEAN)
    assert "A9" in algebra.claimed_axioms()
    rng = random.Random(5)
    from valkit.potentials import possibilistic_collapse

    samples = [possibilistic_collapse(random_potential(rng, UNIVERSE)) for _ in range(8)]
    results = by_axiom(axiom_suite(algebra, samples))
    for axiom, result in results.items():
        assert result.passed, f"{axiom}: {result.counterexample}"


def test_relation_a9_holds_by_brute_force():
    # Spot-check idempotency directly, independent of the suite.
    from valkit.relations import natural_join, project_relation

    rng = random.Random(9)
    for _ in range(30):
        phi = random_relation(rng, UNIVERSE)
        names = sorted(phi.domain)
        for cut in range(len(names) + 1):
            sub = frozenset(names[:cut])
            assert natural_join(phi, project_relation(phi, sub)) == phi


def test_suite_reports_requested_axioms_only():
    algebra = RelationAlgebra(UNIVERSE)
    results = axiom_suite(algebra, relation_samples(), axioms=("A4", "A9"))
    assert [r.axiom for r in results] == ["A4", "A9"]
