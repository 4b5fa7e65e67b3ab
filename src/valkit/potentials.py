"""Semiring potentials: total maps from rows to semiring values.

Combination multiplies pointwise over the union domain; projection sums each
fiber. Over the nonnegative rationals it is the algebra of probability-like
weights. Over the Boolean semiring it mirrors relations exactly (the support
of a combination is the join of the supports), so possibilistic data stays a
relation throughout; `indicator_potential` turns one into a Boolean
potential only where an output is written as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import (
    BOOLEAN,
    Assignment,
    Domain,
    NONNEG_RATIONAL,
    Semiring,
    VariableUniverse,
)
from .errors import ArgumentError, DomainError, SemiringMismatchError, UniverseMismatchError
from .relations import Relation, Row, restriction


@dataclass(frozen=True)
class Potential:
    """A total table from rows (values in sorted-domain order) to semiring values.

    The dataclass constructor trusts its table; `Potential.from_table`
    validates outside input keyed by assignments.
    """

    universe: VariableUniverse
    domain: Domain
    semiring: Semiring
    table: Mapping[Row, object]

    def __post_init__(self):
        expected = self.universe.size(self.domain)
        if len(self.table) != expected:
            raise DomainError(
                f"table has {len(self.table)} entries but Ω_domain has {expected}; potentials must be total"
            )

    @classmethod
    def from_table(
        cls,
        universe: VariableUniverse,
        domain: Domain,
        semiring: Semiring,
        values: Mapping[Assignment, object],
        default: object | None = None,
    ) -> "Potential":
        """Validated constructor; missing assignments get `default` when given."""
        given = {key.row: v for key, v in values.items() if key.domain == domain}
        table: dict[Row, object] = {}
        for row in universe.rows(domain):
            if row in given:
                v = given.pop(row)
            elif default is not None:
                v = default
            else:
                raise DomainError(f"missing table entry for {Assignment.from_row(domain, row)!r}")
            if isinstance(v, int) and not isinstance(v, bool) and semiring is NONNEG_RATIONAL:
                v = Fraction(v)
            if not semiring.contains(v):
                raise ArgumentError(f"value {v!r} is outside the {semiring.name} carrier")
            table[row] = v
        stray = [key for key in values if key.domain != domain or key.row in given]
        if stray:
            example = min(stray, key=lambda a: a.items)
            raise ArgumentError(f"assignment {example!r} is not a point of the domain's frame product")
        return cls(universe, domain, semiring, table)

    def __call__(self, x: Assignment) -> object:
        if x.domain != self.domain:
            raise DomainError(f"{x!r} is not a point of the domain {sorted(self.domain)}")
        return self.table[x.row]

    def __repr__(self) -> str:
        names = ",".join(sorted(self.domain)) or "∅"
        shown = ", ".join(f"{Assignment.from_row(self.domain, k)!r}->{v}" for k, v in sorted(self.table.items())[:8])
        suffix = ", ..." if len(self.table) > 8 else ""
        return f"Potential[{names}|{self.semiring.name}]{{{shown}{suffix}}}"


def constant_potential(universe: VariableUniverse, domain: Domain, semiring: Semiring, value) -> Potential:
    return Potential(universe, domain, semiring, dict.fromkeys(universe.rows(domain), value))


def neutral_potential(universe: VariableUniverse, domain: Domain, semiring: Semiring) -> Potential:
    return constant_potential(universe, domain, semiring, semiring.one)


def null_potential(universe: VariableUniverse, domain: Domain, semiring: Semiring) -> Potential:
    return constant_potential(universe, domain, semiring, semiring.zero)


def combine_potentials(phi: Potential, psi: Potential) -> Potential:
    """Pointwise product over the union domain."""
    if phi.semiring != psi.semiring:
        raise SemiringMismatchError(f"cannot combine {phi.semiring.name} with {psi.semiring.name} potentials")
    if phi.universe != psi.universe:
        raise UniverseMismatchError("potentials live in different variable universes")
    universe = phi.universe
    union = phi.domain | psi.domain
    names = sorted(union)
    phi_row, psi_row = restriction(names, sorted(phi.domain)), restriction(names, sorted(psi.domain))
    phi_table, psi_table, mul = phi.table, psi.table, phi.semiring.mul
    table = {row: mul(phi_table[phi_row(row)], psi_table[psi_row(row)]) for row in universe.rows(union)}
    return Potential(universe, union, phi.semiring, table)


def project_potential(phi: Potential, target: Domain) -> Potential:
    """Fiber sums: each target row collects the values of its extensions."""
    extra = target - phi.domain
    if extra:
        raise DomainError(f"projection target not within the potential domain; offending variables: {sorted(extra)}")
    sub_row = restriction(sorted(phi.domain), sorted(target))
    add = phi.semiring.add
    table: dict[Row, object] = {}
    for row, val in phi.table.items():
        sub = sub_row(row)
        table[sub] = add(table[sub], val) if sub in table else val
    return Potential(phi.universe, target, phi.semiring, table)


def total_mass(phi: Potential):
    """The value of the projection to the empty domain at the unique empty assignment."""
    return next(iter(project_potential(phi, frozenset()).table.values()))


def support_relation(phi: Potential) -> Relation:
    """The support of a potential as a relation over the same domain."""
    zero = phi.semiring.zero
    return Relation(phi.universe, phi.domain, frozenset(x for x, v in phi.table.items() if v != zero))


def indicator_potential(r: Relation) -> Potential:
    """The characteristic function of a relation: the Boolean potential that is 1 exactly on its rows."""
    table = {x: int(x in r.tuples) for x in r.universe.rows(r.domain)}
    return Potential(r.universe, r.domain, BOOLEAN, table)
