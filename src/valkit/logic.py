"""CSPs (constraint satisfaction problems) as information sets.

A CSP is its constraints, and a constraint is simply the relation of the
evaluations it allows on its scheme. It compiles down to relations: each
cover set becomes the relation of all evaluations on it that violate no
constraint. (A propositional formula is likewise the relation of its
satisfying truth assignments; the liar cycle in `builtins` is written that
way.)
"""

from __future__ import annotations

from typing import Sequence

from .algebra import Knowledgebase
from .core import Domain, VariableUniverse
from .errors import UniverseMismatchError
from .inference import DEFAULT_CELL_LIMIT, check_table_size
from .relations import Relation, project_relation, restriction


def csp_to_knowledgebase(
    universe: VariableUniverse,
    constraints: Sequence[Relation],
    covers: Sequence[Domain],
    cell_limit: int | None = DEFAULT_CELL_LIMIT,
) -> Knowledgebase:
    """One relation per cover set: every evaluation on it satisfying all constraints.

    An evaluation on a cover satisfies a constraint when its values on the
    variables they share lie in the constraint projected onto them. Sharing
    no variable, that projection is {()} unless the constraint allows
    nothing, in which case it is empty and so is the cover's relation.
    Each cover's evaluations are enumerated, so a cover with more than
    `cell_limit` of them is refused first.
    """
    holders: dict[str, list[int]] = {}
    unsatisfiable = []  # the constraints that allow nothing apply to every cover
    for i, c in enumerate(constraints):
        if c.universe != universe:
            raise UniverseMismatchError("a constraint lives in a different variable universe")
        for v in c.domain:
            holders.setdefault(v, []).append(i)
        if not c.tuples:
            unsatisfiable.append(i)
    valuations = []
    for cover in covers:
        check_table_size(universe, cover, cell_limit)
        relevant = []
        for i in sorted({i for v in cover for i in holders.get(v, ())}.union(unsatisfiable)):
            overlap = cover & constraints[i].domain
            on_overlap = restriction(sorted(cover), sorted(overlap))
            relevant.append((on_overlap, project_relation(constraints[i], overlap).tuples))
        good = [
            v
            for v in universe.rows(cover)
            if all(on_overlap(v) in allowed for on_overlap, allowed in relevant)
        ]
        valuations.append(Relation(universe, cover, frozenset(good)))
    return Knowledgebase(universe, tuple(valuations))
