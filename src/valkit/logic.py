"""Constraint satisfaction problems and propositional systems as information sets.

Both compile down to relations: a CSP cover set becomes the relation of all
evaluations on it that violate no constraint, and a propositional formula is
kept as the relation of its satisfying truth assignments.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import Knowledgebase
from .core import Domain, Record, VariableUniverse
from .errors import ArgumentError, DomainError
from .inference import DEFAULT_CELL_LIMIT, check_table_size
from .relations import Relation, project_relation, restriction


class Constraint(Record):
    """A scheme (tuple of variables) plus the relation of allowed evaluations on it."""

    scheme: tuple[str, ...]
    allowed: Relation

    def __post_init__(self):
        if frozenset(self.scheme) != self.allowed.domain:
            raise DomainError(
                f"allowed relation domain {sorted(self.allowed.domain)} does not match scheme {self.scheme}"
            )

    @property
    def scheme_set(self) -> Domain:
        return frozenset(self.scheme)


class CSPInstance(Record):
    universe: VariableUniverse
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        for c in self.constraints:
            self.universe.check_domain(c.scheme_set)


def csp_to_knowledgebase(
    csp: CSPInstance,
    covers: Sequence[Domain],
    cell_limit: int | None = DEFAULT_CELL_LIMIT,
) -> Knowledgebase:
    """One relation per cover set: every evaluation on it satisfying all constraints.

    Each cover's evaluations are enumerated, so a cover with more than
    `cell_limit` of them is refused first.
    """
    valuations = []
    for cover in covers:
        csp.universe.check_domain(cover)
        check_table_size(csp.universe, cover, cell_limit)
        relevant = []
        for c in csp.constraints:
            overlap = cover & c.scheme_set
            if overlap:
                on_overlap = restriction(sorted(cover), sorted(overlap))
                relevant.append((on_overlap, project_relation(c.allowed, overlap).tuples))
        good = [
            v
            for v in csp.universe.rows(cover)
            if all(on_overlap(v) in allowed for on_overlap, allowed in relevant)
        ]
        valuations.append(Relation(csp.universe, cover, frozenset(good)))
    return Knowledgebase(csp.universe, tuple(valuations))


class PropositionalSystem(Record):
    """Boolean symbols and formulas pre-compiled to their satisfying relations."""

    universe: VariableUniverse
    formulas: tuple[Relation, ...]

    def __post_init__(self):
        for name in self.universe.names:
            if set(self.universe.frame(name).values) != {"0", "1"}:
                raise ArgumentError(f"propositional symbol {name!r} must have the Boolean frame ('0', '1')")

    def knowledgebase(self) -> Knowledgebase:
        return Knowledgebase(self.universe, self.formulas)


def liar_cycle(n: int, consistent: bool = False) -> PropositionalSystem:
    """A chain of biconditionals s_i <-> s_(i+1) closed by s_n <-> not s_1.

    With `consistent=True` the closing edge is also a plain biconditional,
    which makes the two constant assignments the global models.
    """
    if n < 2:
        raise ArgumentError(f"a liar cycle needs length >= 2, got {n}")
    names = [f"s{i}" for i in range(1, n + 1)]
    universe = VariableUniverse.of([(name, ("0", "1")) for name in names])
    equal_pairs = [("0", "0"), ("1", "1")]
    differ_pairs = [("0", "1"), ("1", "0")]
    formulas = []
    for i in range(n - 1):
        formulas.append(Relation.from_rows(universe, (names[i], names[i + 1]), equal_pairs))
    closing = equal_pairs if consistent else differ_pairs
    formulas.append(Relation.from_rows(universe, (names[0], names[n - 1]), closing))
    return PropositionalSystem(universe, tuple(formulas))
