"""Variable universes, assignments, and semirings.

Everything downstream is built from three currencies: a universe fixing each
variable's frame of possible values, assignments of values to finite variable
sets, and commutative semirings supplying the arithmetic for potentials.
Value labels are opaque strings; frames are ordered so that enumeration and
serialization are deterministic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from .errors import ArgumentError, DomainError

Domain = frozenset[str]


def dom(*names: str) -> Domain:
    """Shorthand for building a domain from variable names."""
    return frozenset(names)


@dataclass(frozen=True)
class Frame:
    """The ordered, finite set of values a variable can take."""

    values: tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise ArgumentError("a frame needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ArgumentError(f"duplicate value labels in frame {self.values!r}")

    def __contains__(self, value: str) -> bool:
        return value in self.values

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class VariableUniverse:
    """All known variables with their frames, in declaration order."""

    entries: tuple[tuple[str, Frame], ...]

    def __post_init__(self):
        names = [name for name, _ in self.entries]
        if len(set(names)) != len(names):
            raise ArgumentError("duplicate variable names in universe")
        for name in names:
            if not name:
                raise ArgumentError("variable names must be nonempty")
        object.__setattr__(self, "_frames", dict(self.entries))
        object.__setattr__(self, "_vars", frozenset(names))

    @classmethod
    def of(cls, spec: Mapping[str, Iterable[str]] | Iterable[tuple[str, Iterable[str]]]) -> "VariableUniverse":
        items = spec.items() if isinstance(spec, Mapping) else spec
        return cls(tuple((name, Frame(tuple(values))) for name, values in items))

    @property
    def vars(self) -> Domain:
        return self._vars  # type: ignore[attr-defined]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def frame(self, name: str) -> Frame:
        try:
            return self._frames[name]  # type: ignore[attr-defined]
        except KeyError:
            raise DomainError(f"unknown variable {name!r}") from None

    def check_domain(self, domain: Domain) -> None:
        missing = domain - self.vars
        if missing:
            raise DomainError(f"variables not in universe: {sorted(missing)}")

    def size(self, domain: Domain) -> int:
        """Number of assignments over `domain`, i.e. the product of its frame sizes."""
        self.check_domain(domain)
        n = 1
        for name in domain:
            n *= len(self.frame(name))
        return n

    def rows(self, domain: Domain) -> Iterator[tuple[str, ...]]:
        """Every value tuple over `domain` in sorted-name order, lexicographic in frame order."""
        self.check_domain(domain)
        return product(*(self.frame(name).values for name in sorted(domain)))


@dataclass(frozen=True)
class Assignment:
    """A tuple of values for a finite variable set, stored sorted by variable name."""

    items: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, mapping: Mapping[str, str]) -> "Assignment":
        return cls(tuple(sorted(mapping.items())))

    @classmethod
    def from_row(cls, domain: Domain, row: tuple[str, ...]) -> "Assignment":
        """The point whose values, in sorted-name order, are `row`."""
        return cls(tuple(zip(sorted(domain), row)))

    @property
    def domain(self) -> Domain:
        return frozenset(name for name, _ in self.items)

    @property
    def row(self) -> tuple[str, ...]:
        """The values in sorted-name order: the form relations and potentials store."""
        return tuple(value for _, value in self.items)

    def value(self, name: str) -> str:
        for var, val in self.items:
            if var == name:
                return val
        raise DomainError(f"variable {name!r} not in assignment domain")

    def restrict(self, domain: Domain) -> "Assignment":
        return Assignment(tuple(item for item in self.items if item[0] in domain))

    def values_in(self, order: Iterable[str]) -> tuple[str, ...]:
        mapping = dict(self.items)
        return tuple(mapping[name] for name in order)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.items)
        return f"({inner})" if inner else "(*)"


def project_assignment(x: Assignment, target: Domain) -> Assignment:
    """Cartesian projection of an assignment onto a subset of its domain."""
    extra = target - x.domain
    if extra:
        raise DomainError(f"projection target is not a subset of the domain; offending variables: {sorted(extra)}")
    return x.restrict(target)


def enumerate_assignments(domain: Domain, universe: VariableUniverse) -> list[Assignment]:
    """All assignments over `domain`, lexicographic by variable name then frame order."""
    return [Assignment.from_row(domain, row) for row in universe.rows(domain)]


@dataclass(frozen=True)
class Semiring:
    """A commutative semiring: the value arithmetic behind potentials."""

    name: str
    zero: object
    one: object
    additively_idempotent: bool
    add: Callable = field(compare=False, repr=False)
    mul: Callable = field(compare=False, repr=False)
    contains: Callable = field(compare=False, repr=False)


def _is_bit(v: object) -> bool:
    return isinstance(v, int) and v in (0, 1)


def _is_nonneg_fraction(v: object) -> bool:
    return isinstance(v, Fraction) and v >= 0


BOOLEAN = Semiring(
    name="boolean",
    zero=0,
    one=1,
    additively_idempotent=True,
    add=operator.or_,
    mul=operator.and_,
    contains=_is_bit,
)

NONNEG_RATIONAL = Semiring(
    name="nonneg-rational",
    zero=Fraction(0),
    one=Fraction(1),
    additively_idempotent=False,
    add=operator.add,
    mul=operator.mul,
    contains=_is_nonneg_fraction,
)
