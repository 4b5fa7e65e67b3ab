"""The valuation-algebra contract and the axiom test suite.

An algebra bundles the three primitive operations (labelling, projection,
combination) with optional capabilities: neutral elements, null elements,
idempotent combination, a completeness order, and adjointness. The axiom
suite exercises an instance against exactly the axioms it claims (or any
explicitly requested set) and reports a concrete counterexample on failure.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .core import Domain, Record, Semiring, VariableUniverse
from .errors import ArgumentError, CapabilityError
from .potentials import (
    Potential,
    combine_potentials,
    neutral_potential,
    null_potential,
    project_potential,
)
from .relations import (
    Relation,
    empty_relation,
    full_relation,
    natural_join,
    project_relation,
    relation_leq,
)

CORE_AXIOMS = ("A1", "A2", "A3", "A4", "A5", "A6")
ORDER_AXIOMS = ("A10", "A11", "A12", "A13")


class ValuationAlgebra:
    """Behavioral interface every instance implements."""

    name = "abstract"
    has_neutral = False
    has_null = False
    idempotent = False
    ordered = False
    adjoint = False

    def label(self, phi) -> Domain:
        raise NotImplementedError

    def project(self, phi, target: Domain):
        raise NotImplementedError

    def combine(self, phi, psi):
        raise NotImplementedError

    def neutral(self, domain: Domain):
        raise CapabilityError(f"{self.name} has no neutral elements")

    def null(self, domain: Domain):
        raise CapabilityError(f"{self.name} has no null elements")

    def leq(self, phi, psi) -> bool:
        raise CapabilityError(f"{self.name} is not ordered")

    def combine_size_bound(self, phi, psi) -> int:
        """Upper bound on the size of combine(phi, psi), used by resource guards."""
        raise NotImplementedError

    def claimed_axioms(self) -> tuple[str, ...]:
        axioms = list(CORE_AXIOMS)
        if self.has_neutral:
            axioms.append("A7")
        if self.has_null:
            axioms.append("A8")
        if self.idempotent:
            axioms.append("A9")
        if self.ordered:
            axioms.extend(ORDER_AXIOMS)
        return tuple(axioms)


class RelationAlgebra(ValuationAlgebra):
    """Relations under natural join and tuple projection: a full information algebra."""

    name = "relations"
    has_neutral = True
    has_null = True
    idempotent = True
    ordered = True
    adjoint = True

    def __init__(self, universe: VariableUniverse):
        self.universe = universe

    def label(self, phi: Relation) -> Domain:
        return phi.domain

    def project(self, phi: Relation, target: Domain) -> Relation:
        return project_relation(phi, target)

    def combine(self, phi: Relation, psi: Relation) -> Relation:
        return natural_join(phi, psi)

    def neutral(self, domain: Domain) -> Relation:
        return full_relation(self.universe, domain)

    def null(self, domain: Domain) -> Relation:
        return empty_relation(self.universe, domain)

    def leq(self, phi: Relation, psi: Relation) -> bool:
        return relation_leq(phi, psi)

    def combine_size_bound(self, phi: Relation, psi: Relation) -> int:
        return len(phi.tuples) * len(psi.tuples)


class PotentialAlgebra(ValuationAlgebra):
    """Semiring potentials; idempotent exactly when semiring addition is."""

    name = "potentials"
    has_neutral = True
    has_null = True
    ordered = False
    adjoint = False

    def __init__(self, universe: VariableUniverse, semiring: Semiring):
        self.universe = universe
        self.semiring = semiring
        self.idempotent = semiring.additively_idempotent
        self.name = f"potentials[{semiring.name}]"

    def label(self, phi: Potential) -> Domain:
        return phi.domain

    def project(self, phi: Potential, target: Domain) -> Potential:
        return project_potential(phi, target)

    def combine(self, phi: Potential, psi: Potential) -> Potential:
        return combine_potentials(phi, psi)

    def neutral(self, domain: Domain) -> Potential:
        return neutral_potential(self.universe, domain, self.semiring)

    def null(self, domain: Domain) -> Potential:
        return null_potential(self.universe, domain, self.semiring)

    def combine_size_bound(self, phi: Potential, psi: Potential) -> int:
        return self.universe.size(phi.domain | psi.domain)


class Knowledgebase(Record):
    """A finite list of valuations from one algebra instance."""

    universe: VariableUniverse
    valuations: tuple

    def __post_init__(self):
        if not self.valuations:
            raise ArgumentError("a knowledgebase needs at least one valuation")
        kinds = {type(v) for v in self.valuations}
        if len(kinds) != 1:
            raise ArgumentError("all knowledgebase members must come from one algebra")
        for v in self.valuations:
            if v.universe != self.universe:
                raise ArgumentError("knowledgebase member built over a different universe")
        first = self.valuations[0]
        if isinstance(first, Potential):
            for v in self.valuations:
                if v.semiring != first.semiring:
                    raise ArgumentError("knowledgebase members use different semirings")

    def algebra(self) -> ValuationAlgebra:
        first = self.valuations[0]
        if isinstance(first, Relation):
            return RelationAlgebra(self.universe)
        if isinstance(first, Potential):
            return PotentialAlgebra(self.universe, first.semiring)
        raise ArgumentError(f"no algebra known for valuations of type {type(first).__name__}")

    @property
    def joint_domain(self) -> Domain:
        out: frozenset[str] = frozenset()
        for v in self.valuations:
            out |= v.domain
        return out

    def __len__(self) -> int:
        return len(self.valuations)

    def __iter__(self):
        return iter(self.valuations)


class AxiomCheck(Record):
    axiom: str
    passed: bool
    cases: int
    counterexample: str | None = None


_NEUTRAL_SIZE_CAP = 4096


def _subset_choices(domain: Domain, rng: random.Random, cap: int = 16) -> list[Domain]:
    names = sorted(domain)
    if 2 ** len(names) <= cap:
        out = []
        for mask in range(2 ** len(names)):
            out.append(frozenset(n for i, n in enumerate(names) if mask >> i & 1))
        return out
    choices = {frozenset(), frozenset(names)}
    while len(choices) < cap:
        choices.add(frozenset(n for n in names if rng.random() < 0.5))
    return sorted(choices, key=lambda s: (len(s), tuple(sorted(s))))


def _pairs(samples: Sequence, rng: random.Random, cap: int = 120) -> list[tuple]:
    all_pairs = [(a, b) for a in samples for b in samples]
    if len(all_pairs) <= cap:
        return all_pairs
    return rng.sample(all_pairs, cap)


def _triples(samples: Sequence, rng: random.Random, cap: int = 60) -> list[tuple]:
    if len(samples) ** 3 <= cap:
        return [(a, b, c) for a in samples for b in samples for c in samples]
    return [tuple(rng.choice(samples) for _ in range(3)) for _ in range(cap)]


def axiom_suite(
    algebra: ValuationAlgebra,
    samples: Sequence,
    axioms: Iterable[str] | None = None,
    seed: int = 0,
) -> list[AxiomCheck]:
    """Run the axiom property tests on sample valuations.

    By default exactly the axioms the instance claims are checked; pass an
    explicit list to probe others (e.g. A9 on a non-idempotent algebra, which
    should fail with a counterexample). Each axiom's case generator yields
    `(holds, describe)` per case; this driver alone counts the cases, stops at
    the first that fails and calls its `describe` for the counterexample.
    """
    rng = random.Random(seed)
    requested = tuple(axioms) if axioms is not None else algebra.claimed_axioms()
    results: list[AxiomCheck] = []
    samples = list(samples)
    pairs = _pairs(samples, rng)
    triples = _triples(samples, rng)
    for axiom in requested:
        law = _LAWS.get(axiom)
        if law is None:
            raise ArgumentError(f"unknown axiom {axiom!r}")
        cases, bad = 0, None
        for holds, describe in law(algebra, samples, pairs, triples, rng):
            cases += 1
            if not holds:
                bad = describe()
                break
        results.append(AxiomCheck(axiom, bad is None, cases, bad))
    return results


# Case generators, one per axiom. Each `describe` reads its loop variables
# before the generator resumes, because the driver calls it at once.


def _semigroup(a, samples, pairs, triples, rng):
    for phi, psi in pairs:
        yield a.combine(phi, psi) == a.combine(psi, phi), lambda: f"commutativity: phi={phi!r} psi={psi!r}"
    for phi, psi, chi in triples:
        lhs = a.combine(a.combine(phi, psi), chi)
        yield lhs == a.combine(phi, a.combine(psi, chi)), lambda: f"associativity: phi={phi!r} psi={psi!r} chi={chi!r}"


def _projection_labelling(a, samples, pairs, triples, rng):
    for phi in samples:
        for sub in _subset_choices(a.label(phi), rng):
            yield a.label(a.project(phi, sub)) == sub, lambda: f"d(phi↓S) != S for phi={phi!r} S={sorted(sub)}"


def _transitivity(a, samples, pairs, triples, rng):
    for phi in samples:
        for mid in _subset_choices(a.label(phi), rng, cap=8):
            for sub in _subset_choices(mid, rng, cap=8):
                lhs = a.project(a.project(phi, mid), sub)
                yield lhs == a.project(phi, sub), lambda: f"transitivity: phi={phi!r} T={sorted(mid)} S={sorted(sub)}"


def _projection_identity(a, samples, pairs, triples, rng):
    for phi in samples:
        yield a.project(phi, a.label(phi)) == phi, lambda: f"phi↓d(phi) != phi for phi={phi!r}"


def _combination_labelling(a, samples, pairs, triples, rng):
    for phi, psi in pairs:
        yield a.label(a.combine(phi, psi)) == a.label(phi) | a.label(psi), lambda: f"labelling: phi={phi!r} psi={psi!r}"


def _combination(a, samples, pairs, triples, rng):
    for phi, psi in pairs:
        s, t = a.label(phi), a.label(psi)
        for extra in _subset_choices(t - s, rng, cap=8):
            u = s | extra
            lhs = a.project(a.combine(phi, psi), u)
            yield lhs == a.combine(phi, a.project(psi, u & t)), lambda: f"combination: phi={phi!r} psi={psi!r} U={sorted(u)}"


def _neutrality(a, samples, pairs, triples, rng):
    seen_domains = []
    universe = getattr(a, "universe", None)
    for phi in samples:
        s = a.label(phi)
        if universe is not None and universe.size(s) > _NEUTRAL_SIZE_CAP:
            continue
        yield a.combine(phi, a.neutral(s)) == phi, lambda: f"phi ⊗ e_S != phi for phi={phi!r}"
        seen_domains.append(s)
    for s in seen_domains[:4]:
        for t in seen_domains[:4]:
            lhs = a.combine(a.neutral(s), a.neutral(t))
            yield lhs == a.neutral(s | t), lambda: f"e_S ⊗ e_T != e_(S∪T) for S={sorted(s)} T={sorted(t)}"


def _nullity(a, samples, pairs, triples, rng):
    for phi in samples:
        s = a.label(phi)
        yield a.combine(phi, a.null(s)) == a.null(s), lambda: f"phi ⊗ z_S != z_S for phi={phi!r}"
        for sub in _subset_choices(s, rng, cap=8):
            holds = (a.project(phi, sub) == a.null(sub)) == (phi == a.null(s))
            yield holds, lambda: f"null biconditional fails for phi={phi!r} S={sorted(sub)}"


def _idempotency(a, samples, pairs, triples, rng):
    for phi in samples:
        for sub in _subset_choices(a.label(phi), rng, cap=8):
            yield a.combine(phi, a.project(phi, sub)) == phi, lambda: f"phi ⊗ phi↓S != phi for phi={phi!r} S={sorted(sub)}"


def _comparable_pairs(algebra: ValuationAlgebra, samples: Sequence, pairs: Sequence[tuple]) -> list[tuple]:
    """Pairs (low, high) with low ⪯ high, built from nulls and same-domain meets."""
    out = []
    for phi in samples:
        out.append((algebra.null(algebra.label(phi)), phi))
        out.append((phi, phi))
    for phi, psi in pairs:
        if algebra.label(phi) == algebra.label(psi) and algebra.idempotent:
            out.append((algebra.combine(phi, psi), phi))
    return out


def _order(a, samples, pairs, triples, rng):
    for low, high in _comparable_pairs(a, samples, pairs):
        below = a.leq(low, high)
        yield below and a.label(low) == a.label(high), lambda: (
            f"comparable pair with different domains: {low!r}, {high!r}" if below else f"expected {low!r} ⪯ {high!r}"
        )
    if not a.idempotent:
        return
    # Same-domain combination acts as a meet: a lower bound dominating sampled lower bounds.
    for phi, psi in pairs:
        if a.label(phi) != a.label(psi):
            continue
        meet = a.combine(phi, psi)
        yield a.leq(meet, phi) and a.leq(meet, psi), lambda: f"meet not a lower bound: phi={phi!r} psi={psi!r}"
        for chi in samples:
            if a.label(chi) == a.label(phi) and a.leq(chi, phi) and a.leq(chi, psi):
                yield a.leq(chi, meet), lambda: f"meet not greatest lower bound: chi={chi!r}"


def _null_is_least(a, samples, pairs, triples, rng):
    for phi in samples:
        yield a.leq(a.null(a.label(phi)), phi), lambda: f"z_S not below phi={phi!r}"


def _combination_monotone(a, samples, pairs, triples, rng):
    comparable = _comparable_pairs(a, samples, pairs)
    for i, (lo1, hi1) in enumerate(comparable):
        for lo2, hi2 in comparable[i : i + 4]:
            yield a.leq(a.combine(lo1, lo2), a.combine(hi1, hi2)), lambda: (
                f"combination not monotone: ({lo1!r} ⪯ {hi1!r}), ({lo2!r} ⪯ {hi2!r})"
            )


def _projection_monotone(a, samples, pairs, triples, rng):
    for low, high in _comparable_pairs(a, samples, pairs):
        for sub in _subset_choices(a.label(low), rng, cap=8):
            yield a.leq(a.project(low, sub), a.project(high, sub)), lambda: (
                f"projection not monotone: {low!r} ⪯ {high!r}, S={sorted(sub)}"
            )


_LAWS = {
    "A1": _semigroup,
    "A2": _projection_labelling,
    "A3": _transitivity,
    "A4": _projection_identity,
    "A5": _combination_labelling,
    "A6": _combination,
    "A7": _neutrality,
    "A8": _nullity,
    "A9": _idempotency,
    "A10": _order,
    "A11": _null_is_least,
    "A12": _combination_monotone,
    "A13": _projection_monotone,
}
