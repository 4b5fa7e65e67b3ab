import random
from fractions import Fraction

import pytest

from valkit.algebra import PotentialAlgebra, RelationAlgebra, axiom_suite
from valkit.core import VariableUniverse
from valkit.errors import ArgumentError
from valkit.potentials import Potential, null_potential
from valkit.relations import Relation, full_relation, natural_join, project_relation, relation_leq

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
    assert algebra.claimed_axioms() == (
        "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11", "A12", "A13", "ADJ"
    )
    results = by_axiom(axiom_suite(algebra, relation_samples()))
    for axiom, result in results.items():
        assert result.passed, f"{axiom}: {result.counterexample}"
        assert result.cases > 0


def test_rational_potentials_pass_a1_to_a8():
    algebra = PotentialAlgebra(UNIVERSE)
    assert algebra.claimed_axioms() == ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8")
    results = by_axiom(axiom_suite(algebra, potential_samples()))
    for axiom, result in results.items():
        assert result.passed, f"{axiom}: {result.counterexample}"


def test_rational_potentials_fail_a9_with_counterexample():
    algebra = PotentialAlgebra(UNIVERSE)
    # Any table value outside {0, 1} breaks idempotency once S = d(phi) is sampled.
    results = by_axiom(axiom_suite(algebra, potential_samples(), axioms=("A9",)))
    assert not results["A9"].passed
    assert results["A9"].counterexample is not None


def test_idempotency_counterexample_is_concrete():
    from valkit.core import Assignment

    universe = VariableUniverse.of([("x", ("0", "1"))])
    algebra = PotentialAlgebra(universe)
    half = Potential.from_table(
        universe,
        frozenset({"x"}),
        {Assignment.of({"x": "0"}): Fraction(1, 2), Assignment.of({"x": "1"}): Fraction(1, 2)},
    )
    # Direct evaluation: (phi ⊗ phi↓{x})(x) = phi(x)^2 != phi(x).
    from valkit.potentials import combine_potentials, project_potential

    squared = combine_potentials(half, project_potential(half, half.domain))
    assert squared != half
    results = by_axiom(axiom_suite(algebra, [half], axioms=("A9",)))
    assert not results["A9"].passed


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


WIDE = VariableUniverse.of([(f"w{i}", ("0", "1")) for i in range(6)])


@pytest.mark.parametrize("kind", ["relations", "rational potentials"])
def test_claimed_axioms_hold_on_samples_over_four_and_five_variables(kind):
    # A domain of 4 or 5 variables has 16 or 32 subsets, more than the 8 or
    # 16 that a projection law enumerates, so the suite samples the subsets
    # at random; UNIVERSE's samples never have more than 3 variables.
    rng = random.Random(45)
    draw = random_relation if kind == "relations" else random_potential
    samples = [draw(rng, WIDE, frozenset(rng.sample(sorted(WIDE.vars), width))) for width in (4, 5, 4, 5, 5)]
    algebra = RelationAlgebra(WIDE) if kind == "relations" else PotentialAlgebra(WIDE)
    results = axiom_suite(algebra, samples, seed=45)
    assert [r.axiom for r in results] == list(algebra.claimed_axioms())
    for result in results:
        assert result.passed, f"{result.axiom}: {result.counterexample}"
        assert result.cases > 0


def test_suite_reports_requested_axioms_only():
    algebra = RelationAlgebra(UNIVERSE)
    results = axiom_suite(algebra, relation_samples(), axioms=("A4", "A9"))
    assert [r.axiom for r in results] == ["A4", "A9"]
    with pytest.raises(ArgumentError, match="unknown axiom 'A14'"):
        axiom_suite(algebra, relation_samples(), axioms=("A4", "A14"))


def test_neutrality_skips_a_sample_over_a_large_frame():
    # e_S over 13 binary variables would have 8192 rows, past the suite's cap
    # of 4096, so A7 counts no case for that sample and builds no e_S for it.
    big = VariableUniverse.of([(f"v{i}", ("0", "1")) for i in range(13)])
    wide = Relation.from_rows(big, sorted(big.vars), [("0",) * 13])
    narrow = full_relation(big, frozenset({"v0"}))
    algebra = RelationAlgebra(big)
    (alone,) = axiom_suite(algebra, [wide], axioms=("A7",))
    assert alone.passed and alone.cases == 0
    (beside,) = axiom_suite(algebra, [wide, narrow], axioms=("A7",))
    assert beside.passed and beside.cases == 2


# Deliberately broken algebras: each breaks one operation, so the suite must
# catch it. Together they fail every axiom A1-A13 and ADJ, and together they
# reach every failure message the suite has. ADJ's pairs and triples share a
# message: no broken algebra fails a triple before a pair.


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
        return null_potential(self.universe, domain)


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
    "ADJ": ("M ⋠ M↓Q ⊗ M↓U", "(M1⊗…)↓d(M) ⋠ M"),
}

# algebra, axioms run (None: the claimed ones), the cases each counted, and the axioms that fail.
BROKEN = {
    "left-biased-combine": (LeftBiasedCombine, None, [2, 58, 174, 10, 100, 182, 26, 1, 58, 43, 10, 154, 246, 29], {"A1", "A8", "A10", "ADJ"}),
    "lossy-combine": (LossyCombine, None, [104, 58, 174, 10, 100, 2, 1, 68, 1, 42, 10, 154, 246, 1], {"A1", "A6", "A7", "A9", "A10", "ADJ"}),
    "combine-keeps-left-label": (CombineKeepsLeftLabel, ("A5",), [2], {"A5"}),
    "vacuous-join-loses-a-row": (VacuousJoinLosesARow, None, [160, 58, 174, 10, 100, 182, 12, 68, 58, 70, 10, 154, 246, 1], {"A7", "ADJ"}),
    "empty-projection-keeps-label": (EmptyProjectionKeepsLabel, None, [160, 1, 2, 10, 100, 57, 26, 68, 58, 70, 10, 154, 246, 69], {"A2", "A3", "A6"}),
    "empty-projection-is-null": (EmptyProjectionIsNull, None, [160, 58, 174, 10, 100, 57, 26, 2, 1, 70, 10, 154, 246, 69], {"A6", "A8", "A9"}),
    "far-projection-forgets": (FarProjectionForgets, None, [160, 58, 17, 10, 100, 2, 26, 68, 58, 70, 10, 154, 246, 28], {"A3", "A6", "ADJ"}),
    "identity-projection-forgets": (IdentityProjectionForgets, None, [160, 58, 14, 1, 100, 1, 26, 68, 58, 70, 10, 154, 246, 33], {"A3", "A4", "A6", "ADJ"}),
    "proper-projection-forgets": (ProperProjectionForgets, None, [160, 58, 174, 10, 100, 2, 26, 68, 58, 70, 10, 154, 246, 28], {"A6", "ADJ"}),
    "null-as-neutral": (NullAsNeutral, None, [160, 58, 174, 10, 100, 182, 1, 68, 58, 70, 10, 154, 246, 69], {"A7"}),
    "neutral-as-null": (NeutralAsNull, None, [160, 58, 174, 10, 100, 182, 26, 1, 58, 1, 1, 1, 4, 69], {"A8", "A10", "A11", "A12", "A13"}),
    "null-without-variables": (NullWithoutVariables, ("A10",), [1], {"A10"}),
    "inverted-order": (InvertedOrder, None, [160, 58, 174, 10, 100, 182, 26, 68, 58, 1, 1, 1, 1, 1], {"A10", "A11", "A12", "A13", "ADJ"}),
    "zero-neutral-potentials": (ZeroNeutralPotentials, None, [160, 64, 204, 10, 100, 225, 1, 74], {"A7"}),
}


def broken_suite(name):
    cls, axioms, _, _ = BROKEN[name]
    if issubclass(cls, PotentialAlgebra):
        algebra, samples = cls(UNIVERSE), potential_samples()
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
