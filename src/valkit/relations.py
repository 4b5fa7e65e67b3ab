"""Relations: sets of rows over a common domain.

This is the information-set instance of the valuation algebra contract:
combination is the natural join, projection keeps the restriction of every
row, the neutral element is the full product of frames, and the null
element is the empty relation. The order is set inclusion, with the empty
relation as the bottom of every domain.

A row is a tuple of values in sorted(domain) order, so variable names are
stored once, in the domain, and rows sort exactly as the assignments they
stand for. The record constructor checks only the domain; internal results
use it, while `Relation.of` and `Relation.from_rows` validate outside input.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .core import Assignment, Domain, Record, VariableUniverse
from .errors import ArgumentError, DomainError, UniverseMismatchError

Row = tuple[str, ...]


def restriction(names: Sequence[str], order: Sequence[str]) -> Callable[[Row], Row]:
    """The map from a row whose values follow `names` to its values at `order`, in that order."""
    index = {name: i for i, name in enumerate(names)}
    positions = [index[name] for name in order]
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda row: (row[i],)
    return lambda row: ()


class Relation(Record):
    universe: VariableUniverse
    domain: Domain
    tuples: frozenset[Row]

    def __post_init__(self):
        self.universe.check_domain(self.domain)

    @classmethod
    def of(cls, universe: VariableUniverse, rows: Iterable[Assignment | Mapping[str, str]]) -> "Relation":
        """Build and validate a relation from assignments or mappings (nonempty input)."""
        points = [row if isinstance(row, Assignment) else Assignment.of(row) for row in rows]
        if not points:
            raise ArgumentError("cannot infer a domain from zero rows; use empty_relation")
        domain = points[0].domain
        for x in points:
            if x.domain != domain:
                raise DomainError(f"tuple {x!r} does not match relation domain {sorted(domain)}")
        return cls.from_rows(universe, sorted(domain), [x.row for x in points])

    @classmethod
    def from_rows(
        cls,
        universe: VariableUniverse,
        variables: Sequence[str],
        rows: Iterable[Sequence[str]],
    ) -> "Relation":
        """Build and validate a relation from value rows aligned with an explicit variable order."""
        variables = tuple(variables)
        domain = frozenset(variables)
        if len(domain) != len(variables):
            raise ArgumentError(f"variables {variables!r} repeat a variable")
        frames = [universe.frame(name) for name in variables]
        to_sorted = restriction(variables, sorted(domain))
        tuples = set()
        for row in rows:
            row = tuple(row)
            if len(row) != len(variables):
                raise ArgumentError(f"row {row!r} does not match variables {variables!r}")
            for name, frame, value in zip(variables, frames, row):
                if value not in frame:
                    raise ArgumentError(f"value {value!r} not in the frame of {name!r}")
            tuples.add(to_sorted(row))
        return cls(universe, domain, frozenset(tuples))

    def is_empty(self) -> bool:
        return not self.tuples

    def sorted_tuples(self) -> list[Row]:
        return sorted(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __repr__(self) -> str:
        names = ",".join(sorted(self.domain)) or "∅"
        shown = ", ".join(repr(Assignment.from_row(self.domain, t)) for t in self.sorted_tuples()[:8])
        suffix = ", ..." if len(self.tuples) > 8 else ""
        return f"Relation[{names}]{{{shown}{suffix}}}"


def empty_relation(universe: VariableUniverse, domain: Domain) -> Relation:
    """The null element z_S."""
    return Relation(universe, domain, frozenset())


def full_relation(universe: VariableUniverse, domain: Domain) -> Relation:
    """The neutral element e_S, materialized. Exponential in |S|; callers keep S small."""
    return Relation(universe, domain, frozenset(universe.rows(domain)))


def _check_same_universe(r1: Relation, r2: Relation) -> None:
    if r1.universe != r2.universe:
        raise UniverseMismatchError("relations live in different variable universes")


def join_plan(left: Domain, right: Domain, target: Domain) -> tuple[Callable[[Row], Row], ...]:
    """A hash join's row maps: each side's key on the shared variables, and a left row then a right row onto `target`."""
    extra = target - left - right
    if extra:
        raise DomainError(f"target not within the combined domain; offending variables: {sorted(extra)}")
    left_names, right_names, common = sorted(left), sorted(right), sorted(left & right)
    to_target = restriction(left_names + right_names, sorted(target))
    return restriction(left_names, common), restriction(right_names, common), to_target


def _join(r1: Relation, r2: Relation, target: Domain) -> Relation:
    """(r1 ⋈ r2)↓target, for `target` within the union domain, indexing the smaller side on the shared variables."""
    _check_same_universe(r1, r2)
    small, large = (r1, r2) if len(r1.tuples) <= len(r2.tuples) else (r2, r1)
    if not small.tuples and target <= r1.domain | r2.domain:  # else join_plan refuses the target
        return Relation(r1.universe, target, frozenset())
    small_key, large_key, joined_row = join_plan(small.domain, large.domain, target)
    buckets: dict[Row, list[Row]] = {}
    for x in small.tuples:
        buckets.setdefault(small_key(x), []).append(x)
    joined = set()
    for y in large.tuples:
        for x in buckets.get(large_key(y), ()):
            joined.add(joined_row(x + y))
    return Relation(r1.universe, target, frozenset(joined))


def natural_join(r1: Relation, r2: Relation) -> Relation:
    """All rows over the union domain whose restrictions lie in both operands."""
    return _join(r1, r2, r1.domain | r2.domain)


def project_relation(r: Relation, target: Domain) -> Relation:
    """Set of restrictions of the relation's rows (duplicates collapse)."""
    extra = target - r.domain
    if extra:
        raise DomainError(f"projection target not within the relation domain; offending variables: {sorted(extra)}")
    return Relation(r.universe, target, frozenset(map(restriction(sorted(r.domain), sorted(target)), r.tuples)))


def relation_leq(r1: Relation, r2: Relation) -> bool:
    """Inclusion order on a shared domain; raises DomainError for incomparable operands."""
    _check_same_universe(r1, r2)
    if r1.domain != r2.domain:
        raise DomainError("relations over different domains are incomparable")
    return r1.tuples <= r2.tuples
