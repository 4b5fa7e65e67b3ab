"""Relations: sets of rows over a common domain.

This is the information-set instance of the valuation algebra contract:
combination is the natural join, projection keeps the restriction of every
row, the neutral element is the full product of frames, and the null
element is the empty relation. The order is set inclusion, with the empty
relation as the bottom of every domain.

A row is a tuple of values in sorted(domain) order, so variable names are
stored once, in the domain, and rows sort exactly as the assignments they
stand for. The record constructor trusts its arguments; internal results
use it, while `Relation.of` and `Relation.from_rows` validate outside input.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .core import Assignment, Domain, Record, VariableUniverse
from .errors import ArgumentError, DomainError, UniverseMismatchError

Row = tuple[str, ...]


def restriction(names: Sequence[str], order: Sequence[str]) -> Callable[[Row], Row]:
    """The map from a row whose values follow `names` to its values at `order`, in that order."""
    return _restriction(tuple(names), tuple(order))


# A repeated analysis (verify re-derives one) asks for the same maps again; the
# bound holds every map of one consistent liar(640) analysis (8304).
@lru_cache(maxsize=1 << 14)
def _restriction(names: tuple[str, ...], order: tuple[str, ...]) -> Callable[[Row], Row]:
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


def natural_join(r1: Relation, r2: Relation) -> Relation:
    """All rows over the union domain whose restrictions lie in both operands."""
    _check_same_universe(r1, r2)
    union = r1.domain | r2.domain
    if not r1.tuples or not r2.tuples:
        return Relation(r1.universe, union, frozenset())
    # Index the smaller side by its values on the shared variables; an output
    # row picks each union variable from the concatenation of the two rows.
    small, large = (r1, r2) if len(r1.tuples) <= len(r2.tuples) else (r2, r1)
    common = sorted(r1.domain & r2.domain)
    small_names, large_names = sorted(small.domain), sorted(large.domain)
    small_key, large_key = restriction(small_names, common), restriction(large_names, common)
    joined_row = restriction(small_names + large_names, sorted(union))
    buckets: dict[Row, list[Row]] = {}
    for x in small.tuples:
        buckets.setdefault(small_key(x), []).append(x)
    joined = set()
    for y in large.tuples:
        for x in buckets.get(large_key(y), ()):
            joined.add(joined_row(x + y))
    return Relation(r1.universe, union, frozenset(joined))


def project_relation(r: Relation, target: Domain) -> Relation:
    """Set of restrictions of the relation's rows (duplicates collapse)."""
    extra = target - r.domain
    if extra:
        raise DomainError(f"projection target not within the relation domain; offending variables: {sorted(extra)}")
    return Relation(r.universe, target, frozenset(map(restriction(sorted(r.domain), sorted(target)), r.tuples)))


def relation_leq(r1: Relation, r2: Relation) -> bool:
    """Inclusion order on a shared domain; raises DomainError for incomparable operands."""
    if r1.universe != r2.universe:
        raise UniverseMismatchError("relations live in different variable universes")
    if r1.domain != r2.domain:
        raise DomainError("relations over different domains are incomparable")
    return r1.tuples <= r2.tuples


class AdjointnessReport(Record):
    passed: bool
    checks: int
    counterexample: str | None = None


def adjointness_suite(samples: Sequence[Relation]) -> AdjointnessReport:
    """Check the two adjointness inequalities on relations.

    For every sample M over a domain split Q ∪ U: M ⊆ (M↓Q) ⊗ (M↓U).
    For pairs and triples of samples: the join projected back to each
    operand's domain is contained in that operand.
    """
    checks = 0

    def contained(inner: Relation, outer: Relation) -> bool:
        return inner.tuples <= outer.tuples

    for m in samples:
        names = sorted(m.domain)
        if len(names) < 2:
            continue
        for cut in (1, len(names) // 2, len(names) - 1):
            q = frozenset(names[:cut])
            u = frozenset(names[cut:])
            recombined = natural_join(project_relation(m, q), project_relation(m, u))
            checks += 1
            if not contained(m, recombined):
                return AdjointnessReport(False, checks, f"M ⊄ M↓Q ⊗ M↓U for M={m!r}, Q={sorted(q)}")
    for i in range(len(samples) - 1):
        m1, m2 = samples[i], samples[i + 1]
        if m1.universe != m2.universe:
            continue
        joined = natural_join(m1, m2)
        for side in (m1, m2):
            checks += 1
            if not contained(project_relation(joined, side.domain), side):
                return AdjointnessReport(False, checks, f"(M1⊗M2)↓d(M) ⊄ M for M={side!r}")
    for i in range(len(samples) - 2):
        group = samples[i : i + 3]
        if len({g.universe for g in group}) != 1:
            continue
        joined = natural_join(natural_join(group[0], group[1]), group[2])
        for side in group:
            checks += 1
            if not contained(project_relation(joined, side.domain), side):
                return AdjointnessReport(False, checks, f"(M1⊗M2⊗M3)↓d(M) ⊄ M for M={side!r}")
    return AdjointnessReport(True, checks)
