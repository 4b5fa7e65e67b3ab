import random
from fractions import Fraction

import pytest

from valkit.algebra import PotentialAlgebra, RelationAlgebra, axiom_suite
from valkit.core import BOOLEAN, NONNEG_RATIONAL, VariableUniverse
from valkit.errors import ArgumentError
from valkit.potentials import Potential, null_potential
from valkit.relations import Relation, full_relation, natural_join, project_relation, relation_leq

from conftest import random_boolean_potential, random_potential, random_relation

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
    samples = [random_boolean_potential(rng, UNIVERSE) for _ in range(8)]
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
    with pytest.raises(ArgumentError, match="unknown axiom 'A14'"):
        axiom_suite(algebra, relation_samples(), axioms=("A4", "A14"))


# Deliberately broken algebras: each breaks one operation, so the suite must
# catch it. Together they fail every axiom A1-A13, and together they reach
# every failure message the suite has.


class LeftBiasedCombine(RelationAlgebra):
    """phi ⊗ psi keeps phi's rows and only extends them to psi's variables."""

    def combine(self, phi, psi):
        return natural_join(phi, full_relation(self.universe, psi.domain))


class LossyCombine(RelationAlgebra):
    """Combination drops the least row of the join."""

    def combine(self, phi, psi):
        joined = natural_join(phi, psi)
        if not joined.tuples:
            return joined
        return Relation(self.universe, joined.domain, joined.tuples - {min(joined.tuples)})


class CombineKeepsLeftLabel(RelationAlgebra):
    """phi ⊗ psi is labelled d(phi), not d(phi) ∪ d(psi)."""

    def combine(self, phi, psi):
        return project_relation(natural_join(phi, psi), phi.domain)


class VacuousJoinLosesARow(RelationAlgebra):
    """Joining two full relations on different domains drops a row."""

    def combine(self, phi, psi):
        joined = natural_join(phi, psi)
        full = all(len(r.tuples) == self.universe.size(r.domain) for r in (phi, psi))
        if phi.domain != psi.domain and full:
            return Relation(self.universe, joined.domain, joined.tuples - {min(joined.tuples)})
        return joined


class EmptyProjectionKeepsLabel(RelationAlgebra):
    """Projection onto ∅ returns phi unchanged."""

    def project(self, phi, target):
        return phi if not target else project_relation(phi, target)


class EmptyProjectionIsNull(RelationAlgebra):
    """Projection onto ∅ always gives the null element."""

    def project(self, phi, target):
        return self.null(target) if not target else project_relation(phi, target)


class FarProjectionForgets(RelationAlgebra):
    """Projection that drops two or more variables gives the neutral element."""

    def project(self, phi, target):
        if len(phi.domain - target) >= 2:
            return full_relation(self.universe, target)
        return project_relation(phi, target)


class IdentityProjectionForgets(RelationAlgebra):
    """phi↓d(phi) is the neutral element, not phi."""

    def project(self, phi, target):
        if target == phi.domain:
            return full_relation(self.universe, target)
        return project_relation(phi, target)


class ProperProjectionForgets(RelationAlgebra):
    """Every proper projection gives the neutral element."""

    def project(self, phi, target):
        return phi if target == phi.domain else full_relation(self.universe, target)


class NullAsNeutral(RelationAlgebra):
    def neutral(self, domain):
        return self.null(domain)


class NeutralAsNull(RelationAlgebra):
    def null(self, domain):
        return full_relation(self.universe, domain)


class NullWithoutVariables(RelationAlgebra):
    """Every null element lives on ∅, and the order compares rows alone."""

    def null(self, domain):
        return super().null(frozenset())

    def leq(self, phi, psi):
        return phi.tuples <= psi.tuples


class InvertedOrder(RelationAlgebra):
    def leq(self, phi, psi):
        return relation_leq(psi, phi)


class ZeroNeutralPotentials(PotentialAlgebra):
    def neutral(self, domain):
        return null_potential(self.universe, domain, self.semiring)


# Each failure message opens with the law it breaks.
LAWS = {
    "A1": ("commutativity", "associativity"),
    "A2": ("d(phi↓S) != S",),
    "A3": ("transitivity",),
    "A4": ("phi↓d(phi) != phi",),
    "A5": ("labelling",),
    "A6": ("combination:",),
    "A7": ("phi ⊗ e_S != phi", "e_S ⊗ e_T != e_(S∪T)"),
    "A8": ("phi ⊗ z_S != z_S", "null biconditional"),
    "A9": ("phi ⊗ phi↓S != phi",),
    "A10": ("expected", "comparable pair with different domains", "meet not a lower bound", "meet not greatest lower bound"),
    "A11": ("z_S not below",),
    "A12": ("combination not monotone",),
    "A13": ("projection not monotone",),
}

# algebra, axioms run (None: the claimed ones), the cases each counted, and the axioms that fail.
BROKEN = {
    "left-biased-combine": (LeftBiasedCombine, None, [2, 58, 174, 10, 100, 182, 26, 1, 58, 43, 10, 154, 246], {"A1", "A8", "A10"}),
    "lossy-combine": (LossyCombine, None, [104, 58, 174, 10, 100, 2, 1, 68, 1, 42, 10, 154, 246], {"A1", "A6", "A7", "A9", "A10"}),
    "combine-keeps-left-label": (CombineKeepsLeftLabel, ("A5",), [2], {"A5"}),
    "vacuous-join-loses-a-row": (VacuousJoinLosesARow, None, [160, 58, 174, 10, 100, 182, 12, 68, 58, 70, 10, 154, 246], {"A7"}),
    "empty-projection-keeps-label": (EmptyProjectionKeepsLabel, None, [160, 1, 2, 10, 100, 57, 26, 68, 58, 70, 10, 154, 246], {"A2", "A3", "A6"}),
    "empty-projection-is-null": (EmptyProjectionIsNull, None, [160, 58, 174, 10, 100, 57, 26, 2, 1, 70, 10, 154, 246], {"A6", "A8", "A9"}),
    "far-projection-forgets": (FarProjectionForgets, None, [160, 58, 17, 10, 100, 2, 26, 68, 58, 70, 10, 154, 246], {"A3", "A6"}),
    "identity-projection-forgets": (IdentityProjectionForgets, None, [160, 58, 14, 1, 100, 1, 26, 68, 58, 70, 10, 154, 246], {"A3", "A4", "A6"}),
    "proper-projection-forgets": (ProperProjectionForgets, None, [160, 58, 174, 10, 100, 2, 26, 68, 58, 70, 10, 154, 246], {"A6"}),
    "null-as-neutral": (NullAsNeutral, None, [160, 58, 174, 10, 100, 182, 1, 68, 58, 70, 10, 154, 246], {"A7"}),
    "neutral-as-null": (NeutralAsNull, None, [160, 58, 174, 10, 100, 182, 26, 1, 58, 1, 1, 1, 4], {"A8", "A10", "A11", "A12", "A13"}),
    "null-without-variables": (NullWithoutVariables, ("A10",), [1], {"A10"}),
    "inverted-order": (InvertedOrder, None, [160, 58, 174, 10, 100, 182, 26, 68, 58, 1, 1, 1, 1], {"A10", "A11", "A12", "A13"}),
    "zero-neutral-potentials": (ZeroNeutralPotentials, None, [160, 64, 204, 10, 100, 225, 1, 74], {"A7"}),
}


def broken_suite(name):
    cls, axioms, _, _ = BROKEN[name]
    if issubclass(cls, PotentialAlgebra):
        algebra, samples = cls(UNIVERSE, NONNEG_RATIONAL), potential_samples()
    else:
        algebra, samples = cls(UNIVERSE), relation_samples()
    return list(axioms or algebra.claimed_axioms()), axiom_suite(algebra, samples, axioms)


@pytest.mark.parametrize("name", BROKEN)
def test_broken_algebra_fails_its_laws(name):
    _, _, cases, failing = BROKEN[name]
    axioms, results = broken_suite(name)
    assert [(r.axiom, r.passed, r.cases) for r in results] == [
        (axiom, axiom not in failing, count) for axiom, count in zip(axioms, cases)
    ]
    for result in results:
        if result.passed:
            assert result.counterexample is None
        else:
            assert result.counterexample.startswith(LAWS[result.axiom]), result.counterexample


def test_broken_algebras_reach_every_failure_message():
    failures = [r for name in BROKEN for r in broken_suite(name)[1] if not r.passed]
    assert {r.axiom for r in failures} == set(LAWS)
    for axiom, phrases in LAWS.items():
        for phrase in phrases:
            assert any(r.axiom == axiom and r.counterexample.startswith(phrase) for r in failures), phrase
