"""Semiring potentials: total maps from rows to semiring values.

Combination multiplies pointwise over the union domain; projection sums each
fiber. Over the nonnegative rationals it is the algebra of probability-like
weights. Over the Boolean semiring it mirrors relations exactly (the support
of a combination is the join of the supports), so possibilistic data is a
relation throughout, read, analysed and written as one.

A rational potential keeps its values as integer numerators by row over one
positive denominator, reduced as a whole: gcd(denominator, *numerators) is 1,
and an all-zero table has denominator 1. That form is unique, so two
potentials are equal exactly when their fields are. Combination multiplies
numerators and denominators, projection adds numerators over the kept
denominator, and one gcd pass reduces each result, so fusion builds no
`Fraction`. Every other semiring keeps its values as numerators over 1 and
runs the same code with its own `add` and `mul`. `Potential.table` is a
read-only view that builds a value (`Fraction(n, d)` for a rational) only
when an entry is read; the numerators never leave this module.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from .core import (
    Assignment,
    Domain,
    NONNEG_RATIONAL,
    Record,
    Semiring,
    VariableUniverse,
)
from .errors import ArgumentError, DomainError, SemiringMismatchError, UniverseMismatchError
from .relations import Relation, Row, restriction


class _Values(Mapping):
    """A potential's table: numerators by row over one denominator, read as rationals when `exact`."""

    __slots__ = ("nums", "den", "exact")

    def __init__(self, nums: dict[Row, object], den: int, exact: bool):
        self.nums, self.den, self.exact = nums, den, exact

    def __getitem__(self, row: Row):
        n = self.nums[row]
        return Fraction(n, self.den) if self.exact else n

    def __iter__(self):
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other):
        if isinstance(other, _Values):
            return self.den == other.den and self.nums == other.nums
        return super().__eq__(other)


def _values(semiring: Semiring, values: Mapping[Row, object]) -> _Values:
    """Trusted values in canonical form: rationals as numerators over their least common denominator."""
    if semiring != NONNEG_RATIONAL:
        return _Values(dict(values), 1, False)
    den = lcm(*(v.denominator for v in values.values()))
    return _Values({row: v.numerator * (den // v.denominator) for row, v in values.items()}, den, True)


class Potential(Record):
    """A total table from rows (values in sorted-domain order) to semiring values.

    The record constructor trusts its table (a mapping from rows to values)
    and stores it in canonical form; `table` then reads the values back.
    `Potential.from_table` validates outside input keyed by assignments.
    """

    universe: VariableUniverse
    domain: Domain
    semiring: Semiring
    table: Mapping[Row, object]

    def __post_init__(self):
        if not isinstance(self.table, _Values):
            object.__setattr__(self, "table", _values(self.semiring, self.table))
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
        stray = [key for key in values if key.domain != domain]
        return cls._from_rows(universe, domain, semiring, given, default, stray)

    @classmethod
    def _from_rows(
        cls,
        universe: VariableUniverse,
        domain: Domain,
        semiring: Semiring,
        given: dict[Row, object],
        default: object | None = None,
        stray: Sequence[Assignment] = (),
    ) -> "Potential":
        """`from_table`'s checks on values keyed by rows; it empties `given`, and a row left over is stray."""
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
        stray = [*stray, *(Assignment.from_row(domain, row) for row in given)]
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


def _reduced(phi: Potential, domain: Domain, nums: dict[Row, object], den: int) -> Potential:
    """The potential over `domain`, in `phi`'s universe and semiring, of `nums` over `den` in lowest terms."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {row: n // g for row, n in nums.items()}
            den //= g
    return Potential(phi.universe, domain, phi.semiring, _Values(nums, den, phi.table.exact))


def constant_potential(universe: VariableUniverse, domain: Domain, semiring: Semiring, value) -> Potential:
    return Potential(universe, domain, semiring, dict.fromkeys(universe.rows(domain), value))


def neutral_potential(universe: VariableUniverse, domain: Domain, semiring: Semiring) -> Potential:
    return constant_potential(universe, domain, semiring, semiring.one)


def null_potential(universe: VariableUniverse, domain: Domain, semiring: Semiring) -> Potential:
    return constant_potential(universe, domain, semiring, semiring.zero)


def combine_potentials(phi: Potential, psi: Potential) -> Potential:
    """Pointwise product over the union domain: numerators multiply, and so do the denominators."""
    if phi.semiring != psi.semiring:
        raise SemiringMismatchError(f"cannot combine {phi.semiring.name} with {psi.semiring.name} potentials")
    if phi.universe != psi.universe:
        raise UniverseMismatchError("potentials live in different variable universes")
    union = phi.domain | psi.domain
    names = sorted(union)
    phi_row, psi_row = restriction(names, sorted(phi.domain)), restriction(names, sorted(psi.domain))
    phi_nums, psi_nums, mul = phi.table.nums, psi.table.nums, phi.semiring.mul
    nums = {row: mul(phi_nums[phi_row(row)], psi_nums[psi_row(row)]) for row in phi.universe.rows(union)}
    return _reduced(phi, union, nums, phi.table.den * psi.table.den)


def project_potential(phi: Potential, target: Domain) -> Potential:
    """Fiber sums: each target row collects the numerators of its extensions over the same denominator."""
    extra = target - phi.domain
    if extra:
        raise DomainError(f"projection target not within the potential domain; offending variables: {sorted(extra)}")
    sub_row = restriction(sorted(phi.domain), sorted(target))
    add = phi.semiring.add
    nums: dict[Row, object] = {}
    for row, n in phi.table.nums.items():
        sub = sub_row(row)
        nums[sub] = add(nums[sub], n) if sub in nums else n
    return _reduced(phi, target, nums, phi.table.den)


def total_mass(phi: Potential):
    """The value of the projection to the empty domain at the unique empty assignment."""
    return next(iter(project_potential(phi, frozenset()).table.values()))


def support_relation(phi: Potential) -> Relation:
    """The support of a potential as a relation over the same domain."""
    zero = phi.semiring.zero
    return Relation(phi.universe, phi.domain, frozenset(x for x, n in phi.table.nums.items() if n != zero))
