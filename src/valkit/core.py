"""Variable universes, assignments, and semirings.

Everything downstream is built from three currencies: a universe fixing each
variable's frame of possible values, assignments of values to finite variable
sets, and commutative semirings supplying the arithmetic for potentials.
Value labels are opaque strings; frames are ordered so that enumeration and
serialization are deterministic. Every value type of valkit is a `Record`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from .errors import ArgumentError, DomainError

Domain = frozenset[str]


def dom(*names: str) -> Domain:
    """Shorthand for building a domain from variable names."""
    return frozenset(names)


class Record:
    """An immutable value whose fields are its class's annotations, in order.

    Construction takes the fields positionally or by keyword, fills a field
    left out from the class attribute of that name, and then calls
    `__post_init__`. Two records are equal when they are of the same class
    and their compared fields are equal, and the hash is that of the compared
    fields' tuple; `repr` shows them as `Name(field=value, ...)`. Fields named
    in `_uncompared` take part in none of the three. Assignment and deletion
    raise `AttributeError`; `__post_init__` may store derived state with
    `object.__setattr__`. Each subclass works out its fields once, when it is
    defined, and every class shares these methods.
    """

    _uncompared = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._compared = tuple(name for name in cls._fields if name not in cls._uncompared)
        get = operator.attrgetter(*cls._compared)
        # The key is always a tuple, so a record hashes as a tuple of its compared fields.
        cls._key = staticmethod(get if len(cls._compared) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values in order from positional and keyword arguments, with defaults filled in."""
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for field in fields[len(args) :]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected or repeated keyword argument {next(iter(kwargs))!r}")
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Frame(Record):
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


class VariableUniverse(Record):
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


class Assignment(Record):
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


def enumerate_assignments(domain: Domain, universe: VariableUniverse) -> list[Assignment]:
    """All assignments over `domain`, lexicographic by variable name then frame order."""
    return [Assignment.from_row(domain, row) for row in universe.rows(domain)]


class Semiring(Record):
    """A commutative semiring: the value arithmetic behind potentials.

    Two semirings are equal when their name, units and idempotence are; the
    operations are left out of `==`, `hash` and `repr`.
    """

    _uncompared = ("add", "mul", "contains")

    name: str
    zero: object
    one: object
    additively_idempotent: bool
    add: Callable
    mul: Callable
    contains: Callable


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
