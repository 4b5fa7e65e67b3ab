"""Potentials: maps from every row of a frame product to nonnegative rationals.

Combination multiplies pointwise over the union domain, as a hash join of
the stored rows: one operand is indexed by its values on the shared
variables, so no frame product is enumerated. Projection sums each fiber,
and fusion's message does both in the same join (`_join` onto a target
domain). Potentials are the algebra of probability-like weights.
Possibilistic information (the Boolean semiring) is a `Relation`: the
support of a combination is the join of the supports, and the support of a
projection is the projection of the support, so possibilistic data is a
relation throughout, read, analysed and written as one.

A potential stores its nonzero values only, the support, as integer
numerators by row over one positive denominator, reduced as a whole:
gcd(denominator, *numerators) is 1, and an all-zero table has denominator 1.
That form is unique, so two potentials are equal exactly when their fields
are. Combination multiplies numerators and denominators, projection adds
numerators over the kept denominator, and one gcd pass reduces each result,
so fusion builds no `Fraction`. `Potential.table` is a read-only view of the
total table; the numerators never leave this module.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import contains

from .core import Assignment, Domain, Record, VariableUniverse
from .errors import ArgumentError, DomainError, UniverseMismatchError
from .relations import Relation, Row, join_plan, restriction


class _Values(Mapping):
    """A total table in frame order, stored as its nonzero numerators by row over one denominator; other rows read 0."""

    __slots__ = ("nums", "den", "universe", "domain", "_frames")
    zero = Fraction(0)

    def __init__(self, nums: dict[Row, int], den: int, universe: VariableUniverse, domain: Domain):
        self.nums, self.den, self.universe, self.domain, self._frames = nums, den, universe, domain, None

    def __getitem__(self, row: Row) -> Fraction:
        n = self.nums.get(row)
        if n is None and not self.is_row(row):
            raise KeyError(row)
        return self.zero if n is None else Fraction(n, self.den)

    def is_row(self, row) -> bool:
        """Whether `row` is a point of the domain's frame product, in O(arity) once the frames are looked up."""
        if self._frames is None:
            self._frames = [frozenset(self.universe.frame(name).values) for name in sorted(self.domain)]
        return type(row) is tuple and len(row) == len(self._frames) and all(map(contains, self._frames, row))

    def __iter__(self):
        return self.universe.rows(self.domain)

    def __len__(self) -> int:
        return self.universe.size(self.domain)

    def __eq__(self, other):
        if isinstance(other, _Values):
            return self.den == other.den and self.nums == other.nums
        return super().__eq__(other)

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))


class Potential(Record):
    """A total table from rows (values in sorted-domain order) to nonnegative rationals.

    The record constructor checks that a mapping's keys are the frame rows and
    its values are in the carrier, and stores the nonzero values in canonical
    form; a view that this module's operations build is stored as it is.
    `Potential.from_table` validates outside input keyed by assignments.
    """

    universe: VariableUniverse
    domain: Domain
    table: Mapping[Row, Fraction]

    def __post_init__(self):
        table = self.table
        if not isinstance(table, _Values):
            view = rational_potential(self.universe, self.domain, {row: _parts(v) for row, v in table.items()}).table
            for row in table:
                if not view.is_row(row):
                    raise DomainError(f"row {row!r} is not a point of the domain's frame product")
            if len(table) != len(view):
                raise DomainError(f"table has {len(table)} entries but Ω_domain has {len(view)}; potentials must be total")
            object.__setattr__(self, "table", view)

    @classmethod
    def from_table(
        cls,
        universe: VariableUniverse,
        domain: Domain,
        values: Mapping[Assignment, int | Fraction],
        default: int | Fraction | None = None,
    ) -> "Potential":
        """Validated constructor; missing assignments get `default` when given.

        Values must be nonnegative ints or Fractions, never bools. Only listed
        rows are stored; the frame is walked only to fill a nonzero default or
        name a missing row. Faults in report order: a listed value outside the
        carrier (in `values`' order), a stray assignment (the least), a missing
        row (the first in frame order), a default outside the carrier.
        """
        universe.check_domain(domain)
        parts = {key.row: _parts(v) for key, v in values.items() if key.domain == domain}
        phi = rational_potential(universe, domain, parts)
        stray = [key for key in values if key.domain != domain or not phi.table.is_row(key.row)]
        if stray:
            example = min(stray, key=lambda a: a.items)
            raise ArgumentError(f"assignment {example!r} is not a point of the domain's frame product")
        missing = len(parts) < len(phi.table)
        if missing and default is None:
            row = next(row for row in universe.rows(domain) if row not in parts)
            raise DomainError(f"missing table entry for {Assignment.from_row(domain, row)!r}")
        if missing and (fill := _parts(default))[0]:
            return rational_potential(universe, domain, dict.fromkeys(universe.rows(domain), fill) | parts)
        return phi

    def __call__(self, x: Assignment) -> Fraction:
        if x.domain != self.domain:
            raise DomainError(f"{x!r} is not a point of the domain {sorted(self.domain)}")
        for name, label in x.items:
            if label not in self.universe.frame(name):
                raise DomainError(f"label {label!r} is not in the frame of {name!r}")
        return self.table[x.row]

    def __repr__(self) -> str:
        names = ",".join(sorted(self.domain)) or "∅"
        rows = sorted(self.table.nums)
        shown = ", ".join(f"{Assignment.from_row(self.domain, row)!r}->{self.table[row]}" for row in rows[:8])
        suffix = ", ..." if len(rows) > 8 else ""
        return f"Potential[{names}|nonneg-rational]{{{shown}{suffix}}}"


def _reduced(phi: Potential, domain: Domain, nums: dict[Row, int], den: int) -> Potential:
    """The potential over `domain`, in `phi`'s universe, of `nums` over `den` in lowest terms."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {row: n // g for row, n in nums.items()}
            den //= g
    return Potential(phi.universe, domain, _Values(nums, den, phi.universe, domain))


def _parts(value) -> tuple[int, int]:
    """A carrier value as (numerator, denominator) in lowest terms; a bool, a negative or a non-rational is refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        value = Fraction(value)
    if not isinstance(value, Fraction) or value < 0:
        raise ArgumentError(f"value {value!r} is outside the nonneg-rational carrier")
    return value.numerator, value.denominator


def constant_potential(universe: VariableUniverse, domain: Domain, value: int | Fraction) -> Potential:
    return Potential.from_table(universe, domain, {}, default=value)


def neutral_potential(universe: VariableUniverse, domain: Domain) -> Potential:
    return constant_potential(universe, domain, 1)


def null_potential(universe: VariableUniverse, domain: Domain) -> Potential:
    universe.check_domain(domain)
    return rational_potential(universe, domain, {})


def rational_potential(universe: VariableUniverse, domain: Domain, parts: Mapping[Row, tuple[int, int]]) -> Potential:
    """The rational potential that is n/d at each frame row of `parts`, given in lowest terms, and 0 at the others.

    The nonzero numerators are written over the lcm of the denominators (a
    zero is 0/1), and that form is already reduced: a prime dividing the lcm
    to its full power divides some d exactly as often, and that row's
    numerator is prime to it.
    """
    den = lcm(*(d for _, d in parts.values()))
    nums = {row: n * (den // d) for row, (n, d) in parts.items() if n}
    return Potential(universe, domain, _Values(nums, den, universe, domain))


def is_neutral_potential(phi: Potential) -> bool:
    """Whether every value is 1: every frame row is stored, and each numerator equals the denominator."""
    values = list(phi.table.nums.values())
    return values.count(phi.table.den) == len(values) == phi.universe.size(phi.domain)


def _join(phi: Potential, psi: Potential, target: Domain) -> Potential:
    """(phi ⊗ psi)↓target, for `target` within the union domain, by one hash join of the stored rows.

    psi is indexed on the shared variables (`join_plan`); each row of phi
    multiplies the psi rows that match it, the products on one target row
    are added, the denominators multiply, and the result is reduced once.
    """
    if phi.universe != psi.universe:
        raise UniverseMismatchError("potentials live in different variable universes")
    phi_key, psi_key, to_target = join_plan(phi.domain, psi.domain, target)
    index: dict[Row, list] = {}
    for row, m in psi.table.nums.items():
        index.setdefault(psi_key(row), []).append((row, m))
    nums: dict[Row, int] = {}
    get = nums.get
    for x, n in phi.table.nums.items():
        for y, m in index.get(phi_key(x), ()):
            row = to_target(x + y)
            nums[row] = get(row, 0) + n * m
    return _reduced(phi, target, nums, phi.table.den * psi.table.den)


def combine_potentials(phi: Potential, psi: Potential) -> Potential:
    """Pointwise product over the union domain: the hash join of the stored rows, summing nothing out."""
    return _join(phi, psi, phi.domain | psi.domain)


def project_potential(phi: Potential, target: Domain) -> Potential:
    """Fiber sums: each target row collects the numerators of its extensions over the same denominator."""
    extra = target - phi.domain
    if extra:
        raise DomainError(f"projection target not within the potential domain; offending variables: {sorted(extra)}")
    sub_row = restriction(sorted(phi.domain), sorted(target))
    nums: dict[Row, int] = {}
    for row, n in phi.table.nums.items():
        sub = sub_row(row)
        nums[sub] = nums[sub] + n if sub in nums else n
    return _reduced(phi, target, nums, phi.table.den)


def total_mass(phi: Potential):
    """The value of the projection to the empty domain at the unique empty assignment: the stored numerators' sum."""
    return Fraction(sum(phi.table.nums.values()), phi.table.den)


def support_relation(phi: Potential) -> Relation:
    """The support of a potential as a relation over the same domain: its stored rows."""
    return Relation(phi.universe, phi.domain, frozenset(phi.table.nums))
