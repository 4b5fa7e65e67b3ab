"""Inference problems: projecting the combination of a knowledgebase to a query.

Two solvers are provided. The naive one combines everything and projects at
the end. Fusion eliminates one non-query variable at a time, combining only
the valuations whose domains mention it; the two must agree exactly, which
the test suite checks by oracle equivalence. Elimination orders come from
the caller or from the min-degree / min-fill heuristics with variable-name
tie-breaking, so runs are reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from .algebra import Knowledgebase, ValuationAlgebra
from .core import Domain
from .errors import ArgumentError, DomainError, ResourceLimitError

DEFAULT_CELL_LIMIT = 10_000_000
HEURISTICS = ("min-degree", "min-fill")


def resolve_cell_limit(flag: str | None = None, default: int = DEFAULT_CELL_LIMIT) -> int:
    """The --limit value if given, else VK_CELL_LIMIT, else the default; each must be a positive integer."""
    source, raw = ("--limit", flag) if flag is not None else ("VK_CELL_LIMIT", os.environ.get("VK_CELL_LIMIT"))
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ArgumentError(f"{source} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ArgumentError(f"{source} must be positive")
    return value


@dataclass(frozen=True)
class InferenceProblem:
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


def _guarded_combine(algebra: ValuationAlgebra, phi, psi, cell_limit: int | None):
    if cell_limit is not None:
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
    factors = list(problem.knowledgebase)
    for var in order:
        bucket = [f for f in factors if var in algebra.label(f)]
        factors = [f for f in factors if var not in algebra.label(f)]
        combined = bucket[0]
        for phi in bucket[1:]:
            combined = _guarded_combine(algebra, combined, phi, cell_limit)
        factors.append(algebra.project(combined, algebra.label(combined) - {var}))
    result = factors[0]
    for phi in factors[1:]:
        result = _guarded_combine(algebra, result, phi, cell_limit)
    return algebra.project(result, problem.query)


def run_solver(
    problem: InferenceProblem,
    method: str = "fusion",
    cell_limit: int | None = DEFAULT_CELL_LIMIT,
    order: Sequence[str] | None = None,
) -> object:
    """Dispatch to the named solver; only fusion takes an elimination `order`."""
    if method == "naive":
        if order is not None:
            raise ArgumentError("an elimination order applies only to the fusion method")
        return solve_naive(problem, cell_limit=cell_limit)
    if method == "fusion":
        return solve_fusion(problem, order=order, cell_limit=cell_limit)
    raise ArgumentError(f"unknown inference method {method!r}; choose 'naive' or 'fusion'")


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
