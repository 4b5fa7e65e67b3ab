"""Inference problems: projecting the combination of a knowledgebase to a query.

Two solvers are provided. Fusion eliminates one non-query variable at a
time, combining only the valuations whose domains mention it; `vk infer`
uses it, and so does the tests' complete-disagreement reference. The naive
one combines everything and projects at the end; it is the reference that
fusion must equal exactly, which the test suite checks by oracle
equivalence. Elimination orders come from the caller or from the
min-degree / min-fill heuristics with variable-name tie-breaking, so runs
are reproducible.

For an idempotent algebra, `calibrate` answers at once every query that fits
inside one of the bucket tree's cliques: one collect pass and one distribute
pass over the tree of the elimination order (Shenoy & Shafer 1990), with no
division. Every knowledgebase and model analysis reads its relational
verdicts off the tree of its members' supports.
"""

from __future__ import annotations

import os
from typing import Sequence

from .algebra import Knowledgebase, ValuationAlgebra
from .core import Domain, Record, VariableUniverse
from .errors import ArgumentError, CapabilityError, DomainError, ResourceLimitError

DEFAULT_CELL_LIMIT = 10_000_000
HEURISTICS = ("min-degree", "min-fill")


def resolve_cell_limit(flag: str | None = None) -> int:
    """The --limit value if given, else VK_CELL_LIMIT, else the default; each must be a positive integer."""
    source, raw = ("--limit", flag) if flag is not None else ("VK_CELL_LIMIT", os.environ.get("VK_CELL_LIMIT"))
    if raw is None:
        return DEFAULT_CELL_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ArgumentError(f"{source} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ArgumentError(f"{source} must be positive")
    return value


def check_table_size(universe: VariableUniverse, domain: Domain, cell_limit: int | None) -> None:
    """Refuse, before any row is enumerated, a full table over `domain` with more than `cell_limit` cells."""
    if cell_limit is not None and universe.size(domain) > cell_limit:
        raise ResourceLimitError(
            f"a table over {sorted(domain)} would have {universe.size(domain)} cells (limit {cell_limit})"
        )


class InferenceProblem(Record):
    knowledgebase: Knowledgebase
    query: Domain

    def __post_init__(self):
        joint = self.knowledgebase.joint_domain
        extra = self.query - joint
        if extra:
            raise DomainError(f"query variables outside the joint domain: {sorted(extra)}")

    @property
    def joint_domain(self) -> Domain:
        return self.knowledgebase.joint_domain


def _guarded_combine(algebra: ValuationAlgebra, phi, psi, cell_limit: int | None, bound: int | None = None):
    """combine(phi, psi), refused when `bound` (by default the algebra's size bound) exceeds `cell_limit`."""
    if cell_limit is not None:
        if bound is None:
            bound = algebra.combine_size_bound(phi, psi)
        if bound > cell_limit:
            raise ResourceLimitError(
                f"intermediate combination over {sorted(algebra.label(phi) | algebra.label(psi))} "
                f"could reach {bound} cells (limit {cell_limit})"
            )
    return algebra.combine(phi, psi)


def solve_naive(problem: InferenceProblem, cell_limit: int | None = DEFAULT_CELL_LIMIT):
    """Combine the whole knowledgebase, then project to the query."""
    algebra = problem.knowledgebase.algebra()
    valuations = list(problem.knowledgebase)
    joint = valuations[0]
    for phi in valuations[1:]:
        joint = _guarded_combine(algebra, joint, phi, cell_limit)
    return algebra.project(joint, problem.query)


def _collect(kb: Knowledgebase, order: Sequence[str], cell_limit: int | None, keep: bool):
    """Bucket elimination along `order`: the collect pass of its bucket tree.

    Bucket k belongs to order[k]; the last bucket, the root, gets what no
    eliminated variable claims. A member sits in the bucket of its
    first-eliminated variable. Each bucket combines its members and then the
    messages it received, in sender order, under the guard, and sends the
    projection onto its separator (the combination's domain without order[k])
    to the bucket of the separator's first-eliminated variable, or to the root.

    Returns each bucket's combination (only the root's unless `keep`), each
    non-root bucket's parent and each member's bucket.
    """
    algebra = kb.algebra()
    position = {var: k for k, var in enumerate(order)}
    root = len(order)

    def bucket_of(domain: Domain) -> int:
        return min((position[v] for v in domain if v in position), default=root)

    buckets: list = [[] for _ in range(root + 1)]
    homes = []
    for phi in kb:
        homes.append(bucket_of(algebra.label(phi)))
        buckets[homes[-1]].append(phi)
    combined, parents = [], []
    for k, bucket in enumerate(buckets):
        result = bucket[0]
        for phi in bucket[1:]:
            result = _guarded_combine(algebra, result, phi, cell_limit)
        buckets[k] = None
        if k < root:
            separator = algebra.label(result) - {order[k]}
            parents.append(bucket_of(separator))
            buckets[parents[-1]].append(algebra.project(result, separator))
        combined.append(result if keep or k == root else None)
    return combined, parents, homes


def solve_fusion(
    problem: InferenceProblem,
    order: Sequence[str] | None = None,
    heuristic: str = "min-degree",
    cell_limit: int | None = DEFAULT_CELL_LIMIT,
):
    """Bucket-style variable elimination; equals solve_naive exactly."""
    algebra = problem.knowledgebase.algebra()
    to_eliminate = problem.joint_domain - problem.query
    if order is None:
        order = heuristic_order(problem.knowledgebase, problem.query, heuristic)
    else:
        order = tuple(order)
        if len(order) != len(set(order)) or set(order) != to_eliminate:
            raise ArgumentError(
                f"elimination order must be a permutation of {sorted(to_eliminate)}, got {list(order)}"
            )
    combined, _, _ = _collect(problem.knowledgebase, order, cell_limit, keep=False)
    return algebra.project(combined[-1], problem.query)


class JoinTree(Record):
    """A calibrated bucket tree: each clique is the combination projected onto the clique's domain.

    Clique k belongs to order[k] and the last clique, over the empty domain,
    is the root. Every bucket's parent comes after it, so the cliques read
    backwards run root first. `cell_limit` is the limit the tree was built
    under, and it guards the combination too.
    """

    knowledgebase: Knowledgebase
    order: tuple[str, ...]
    cliques: tuple
    homes: tuple[int, ...]  # the bucket holding each member, in knowledgebase order
    cell_limit: int | None

    def marginals(self):
        """Each member's projection of the combination, read off its home clique, in member order."""
        algebra = self.knowledgebase.algebra()
        for phi, home in zip(self.knowledgebase, self.homes):
            yield algebra.project(self.cliques[home], algebra.label(phi))

    def combination(self):
        """The whole combination: a clique over every variable if there is one, else the cliques joined root first.

        A calibrated clique over the joint domain is the combination itself.
        Joined root first, each intermediate is a projection of it: clique k's
        separator lies in its parent's clique, joined before it, so the join
        adds only order[k]. It is bounded by the running result combined with
        the neutral element over order[k] (for relations, the result's size
        times that variable's frame), which is far below the product with a
        large clique.
        """
        algebra = self.knowledgebase.algebra()
        joint = self.knowledgebase.joint_domain
        for clique in self.cliques:
            if algebra.label(clique) == joint:
                return clique
        result = self.cliques[-1]
        for var, clique in zip(reversed(self.order), reversed(self.cliques[:-1])):
            bound = min(
                algebra.combine_size_bound(result, clique),
                algebra.combine_size_bound(result, algebra.neutral(frozenset({var}))),
            )
            result = _guarded_combine(algebra, result, clique, self.cell_limit, bound)
        return result


def calibrate(kb: Knowledgebase, cell_limit: int | None = DEFAULT_CELL_LIMIT) -> JoinTree:
    """One collect and one distribute pass over the bucket tree of `heuristic_order(kb, ∅)`.

    The collect pass is solve_fusion's elimination with an empty query, so an
    empty-domain member or a message with an empty separator meets the rest
    at the root and a disconnected cover is still one tree. Distribute
    combines each bucket with its parent's clique projected onto the
    separator. With an idempotent algebra that is a semijoin, never larger
    than the bucket's own table, so it needs no guard.
    """
    algebra = kb.algebra()
    if not algebra.idempotent:
        raise CapabilityError(f"{algebra.name} is not idempotent; calibration without division needs it")
    order = heuristic_order(kb, frozenset())
    cliques, parents, homes = _collect(kb, order, cell_limit, keep=True)
    for k in reversed(range(len(order))):  # a parent is calibrated before its children
        separator = algebra.label(cliques[k]) - {order[k]}
        cliques[k] = algebra.combine(cliques[k], algebra.project(cliques[parents[k]], separator))
    return JoinTree(kb, order, tuple(cliques), tuple(homes), cell_limit)


def heuristic_order(kb: Knowledgebase, query: Domain, kind: str = "min-degree") -> tuple[str, ...]:
    """Deterministic elimination order for the non-query variables.

    min-degree picks the variable with the fewest neighbours in the current
    interaction graph; min-fill picks the one whose elimination adds the
    fewest fill edges. Ties break on variable name.
    """
    if kind not in HEURISTICS:
        raise ArgumentError(f"unknown heuristic {kind!r}; choose one of {HEURISTICS}")
    algebra = kb.algebra()
    neighbours: dict[str, set[str]] = {}
    for phi in kb:
        domain = algebra.label(phi)
        for v in domain:
            neighbours.setdefault(v, set()).update(domain - {v})
    for v in query:
        neighbours.setdefault(v, set())
    candidates = set(neighbours) - query
    order: list[str] = []
    while candidates:
        if kind == "min-degree":
            scored = [(len(neighbours[v]), v) for v in candidates]
        else:
            scored = []
            for v in candidates:
                nbrs = sorted(neighbours[v])
                fill = sum(
                    1
                    for i in range(len(nbrs))
                    for j in range(i + 1, len(nbrs))
                    if nbrs[j] not in neighbours[nbrs[i]]
                )
                scored.append((fill, v))
        _, chosen = min(scored)
        order.append(chosen)
        nbrs = neighbours.pop(chosen)
        for a in nbrs:
            neighbours[a].discard(chosen)
            neighbours[a].update(nbrs - {a})
        candidates.remove(chosen)
    return tuple(order)
