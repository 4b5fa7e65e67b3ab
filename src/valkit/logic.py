"""Constraint satisfaction problems as information sets.

A CSP compiles down to relations: each cover set becomes the relation of all
evaluations on it that violate no constraint. (A propositional formula is
simply the relation of its satisfying truth assignments; the liar cycle in
`builtins` is written that way.)
"""

from __future__ import annotations

from typing import Sequence

from .algebra import Knowledgebase
from .core import Domain, Record, VariableUniverse
from .errors import DomainError
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
