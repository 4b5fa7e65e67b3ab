"""Inference problems: projecting the combination of a knowledgebase to a query.

Two solvers are provided. Fusion first drops barren members: a member
whose one private, non-query variable sums out to the neutral element, and
whose other variables other members still hold. That cover rule is needed
because rational neutral elements are not stable under projection
(e_s↓t = |Ω_(s−t)|·e_t), so a neutral element forgotten on a variable no
one else holds would lose a frame size. Fusion then eliminates one
non-query variable at a time, combining only the valuations whose domains
mention it, and sends each message as one fused combine-and-sum-out
(`combine_project`: for both algebras, a hash join of stored rows); `vk infer`
uses it, and so does the tests' complete-disagreement reference. The naive
one combines everything and projects at the end; it is the reference that
fusion must equal exactly, which the test suite checks by oracle
equivalence.
Elimination orders come from the caller or from the min-fill heuristic
with variable-name tie-breaking, so runs are reproducible; fusion and
`calibrate` eliminate in the same order (Dechter 1999).

For an idempotent algebra, `calibrate` answers at once every query that fits
inside one of the bucket tree's cliques: one collect pass and one distribute
pass over the tree of the elimination order (Shenoy & Shafer 1990), with no
division. Every knowledgebase and model analysis reads its relational
verdicts off the tree of its members' supports. The same tree counts the
combination, Gamma, by one upward pass in the counting semiring (Kohlas &
Wilson 2008), so Gamma's tuples are listed, by one walk down the tree, only
when a report lists them.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import Sequence

from .algebra import Knowledgebase, ValuationAlgebra
from .core import Domain, Record, VariableUniverse
from .errors import ArgumentError, CapabilityError, DomainError, ResourceLimitError
from .relations import Relation, restriction

DEFAULT_CELL_LIMIT = 10_000_000
TUPLE_CAP = 4096  # the most tuples of Gamma that a verdict lists and a report writes


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
        extra = self.query - self.knowledgebase.joint_domain
        if extra:
            raise DomainError(f"query variables outside the joint domain: {sorted(extra)}")


def _guarded_combine(algebra: ValuationAlgebra, phi, psi, cell_limit: int | None, target: Domain | None = None):
    """combine(phi, psi), projected onto `target` in the same step when given.

    Refused when the algebra's size bound on the combination exceeds
    `cell_limit`, whether or not the step projects.
    """
    if cell_limit is not None:
        bound = algebra.combine_size_bound(phi, psi)
        if bound > cell_limit:
            raise ResourceLimitError(
                f"intermediate combination over {sorted(phi.domain | psi.domain)} "
                f"could reach {bound} cells (limit {cell_limit})"
            )
    if target is None:
        return algebra.combine(phi, psi)
    return algebra.combine_project(phi, psi, target)


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
    A bucket that is neither kept nor the root never builds its whole
    combination: it combines all but its last valuation and sends
    `combine_project` of that and the last, guarded as the combine it replaces.

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
        homes.append(bucket_of(phi.domain))
        buckets[homes[-1]].append(phi)
    combined, parents = [], []
    for k, bucket in enumerate(buckets):
        buckets[k] = None
        fused = k < root and not keep and len(bucket) > 1
        result = bucket[0]
        for phi in bucket[1 : len(bucket) - fused]:
            result = _guarded_combine(algebra, result, phi, cell_limit)
        if k < root:
            last = bucket[-1]  # already in `result` unless the message is fused
            separator = (result.domain | last.domain) - {order[k]}
            parents.append(bucket_of(separator))
            if fused:
                message = _guarded_combine(algebra, result, last, cell_limit, separator)
            else:
                message = algebra.project(result, separator)
            buckets[parents[-1]].append(message)
        combined.append(result if keep or k == root else None)
    return combined, parents, homes


def drop_barren(kb: Knowledgebase, query: Domain) -> Knowledgebase:
    """The knowledgebase without its barren members, which has the same projection onto `query`.

    A member phi is barren when exactly one of its variables, x, is held by
    no other member and lies outside the query, and phi↓(d(phi)−x) is
    neutral, as a conditional on its parents sums to 1 over its child.
    Eliminating x then leaves the rest combined with a neutral element over
    variables they already hold, which changes nothing (Shachter 1986); the
    module docstring says why they must already hold them. A drop can leave
    another member barren, so a worklist runs until nothing more goes, and
    one member always stays.
    """
    algebra = kb.algebra()
    members = list(kb)
    holders: dict[str, set[int]] = {}
    for i, phi in enumerate(members):
        for v in phi.domain:
            holders.setdefault(v, set()).add(i)
    live = set(range(len(members)))
    work = list(reversed(range(len(members))))
    while work and len(live) > 1:
        i = work.pop()
        if i not in live:
            continue
        domain = members[i].domain
        private = [v for v in domain if len(holders[v]) == 1]
        if len(private) != 1 or private[0] in query:
            continue
        if not algebra.is_neutral(algebra.project(members[i], domain - {private[0]})):
            continue
        live.remove(i)
        for v in sorted(domain):
            holders[v].remove(i)
            if len(holders[v]) == 1:
                work.extend(holders[v])
    return Knowledgebase(kb.universe, tuple(members[i] for i in sorted(live)))


def solve_fusion(
    problem: InferenceProblem,
    order: Sequence[str] | None = None,
    cell_limit: int | None = DEFAULT_CELL_LIMIT,
):
    """Bucket-style variable elimination in `order`, else in min-fill order; equals solve_naive exactly.

    Barren members are dropped first (`drop_barren`), so the order, given or
    chosen, runs over the variables that are left. Each bucket but the root
    sends its message by one guarded `combine_project`, so for relations and
    potentials alike the combination is a hash join of stored rows that drops
    the bucket's variable as it goes. The root's combination is the answer:
    every variable but the query's is eliminated or dropped with its member.
    """
    to_eliminate = problem.knowledgebase.joint_domain - problem.query
    if order is not None:
        order = tuple(order)
        if len(order) != len(set(order)) or set(order) != to_eliminate:
            raise ArgumentError(
                f"elimination order must be a permutation of {sorted(to_eliminate)}, got {list(order)}"
            )
    kb = drop_barren(problem.knowledgebase, problem.query)
    if order is None:
        order = heuristic_order(kb, problem.query)
    else:
        kept = kb.joint_domain
        order = tuple(v for v in order if v in kept)
    combined, _, _ = _collect(kb, order, cell_limit, keep=False)
    return combined[-1]


class JoinTree(Record):
    """A calibrated bucket tree: each clique is the combination projected onto the clique's domain.

    Clique k belongs to order[k] and sends its separator, its domain without
    order[k], to clique parents[k]; the last clique, over the empty domain, is
    the root. Every bucket's parent comes after it, so the cliques read
    forwards run leaves first and read backwards run root first. The cliques
    of a relation tree hold Gamma, the combination, factored: `size` counts
    it and `gamma` lists it when it is small enough.
    """

    knowledgebase: Knowledgebase
    order: tuple[str, ...]
    cliques: tuple
    parents: tuple[int, ...]  # the bucket each non-root bucket sends its message to
    homes: tuple[int, ...]  # the bucket holding each member, in knowledgebase order

    def marginals(self):
        """Each member's projection of the combination, read off its home clique, in member order."""
        algebra = self.knowledgebase.algebra()
        for phi, home in zip(self.knowledgebase, self.homes):
            yield algebra.project(self.cliques[home], phi.domain)

    @cached_property
    def size(self) -> int:
        """The number of tuples of a relation tree's combination, counted leaves first in exact ints.

        A clique row's count is the number of ways to extend it to the
        variables eliminated below it: the product, over its children, of the
        summed counts of the child's rows that agree with it on the child's
        separator. The root, over ∅, then holds the size, which is 0 exactly
        when the root is empty.
        """
        names = [sorted(clique.domain) for clique in self.cliques]
        counts = [dict.fromkeys(clique.tuples, 1) for clique in self.cliques]
        for k, parent in enumerate(self.parents):
            separator = [name for name in names[k] if name != self.order[k]]
            to_separator = restriction(names[k], separator)
            message: dict = {}
            for row, count in counts[k].items():
                key = to_separator(row)
                message[key] = message.get(key, 0) + count
            counts[k] = None
            to_separator = restriction(names[parent], separator)
            counts[parent] = {row: n * message.get(to_separator(row), 0) for row, n in counts[parent].items()}
        return sum(counts[-1].values())

    @cached_property
    def gamma(self):
        """Gamma as a verdict carries it: the combination up to TUPLE_CAP tuples, past that this tree, which counts it."""
        return self.combination() if self.size <= TUPLE_CAP else self

    def combination(self, cell_limit: int | None = None):
        """The whole combination, walked down the tree, refused from its count if over `cell_limit`.

        Read root first, each clique adds only order[k]: its separator lies in
        its parent's clique, read before it. So the walk extends an assignment
        of the cliques above by each value of order[k] in clique k's rows that
        agree with it on the separator. A calibrated tree has no dead end, so
        the walk is linear in the combination: one value array holds the
        assignment, an explicit stack of value iterators replaces recursion,
        and each full assignment is a row in sorted-domain order.
        """
        if cell_limit is not None and self.size > cell_limit:
            raise ResourceLimitError(f"Gamma has {self.size} tuples (limit {cell_limit})")
        if not self.order:
            return self.cliques[-1]
        names = sorted(self.order)
        slots = {name: i for i, name in enumerate(names)}
        steps = []  # root first: order[k]'s slot, the separator's slots, order[k]'s values by separator
        for k in reversed(range(len(self.order))):
            clique_names = sorted(self.cliques[k].domain)
            separator = [name for name in clique_names if name != self.order[k]]
            to_separator, own = restriction(clique_names, separator), clique_names.index(self.order[k])
            extensions: dict = {}
            for row in self.cliques[k].tuples:
                extensions.setdefault(to_separator(row), []).append(row[own])
            steps.append((slots[self.order[k]], [slots[name] for name in separator], extensions))
        values: list = [None] * len(names)
        at = values.__getitem__
        rows = []
        stack = [iter(steps[0][2].get((), ()))]  # the last clique's separator is empty: its parent is the root
        while stack:
            value = next(stack[-1], None)
            if value is None:
                stack.pop()
                continue
            values[steps[len(stack) - 1][0]] = value
            if len(stack) == len(steps):
                rows.append(tuple(values))
            else:
                _, separator, extensions = steps[len(stack)]
                stack.append(iter(extensions.get(tuple(map(at, separator)), ())))
        return Relation(self.knowledgebase.universe, frozenset(names), frozenset(rows))


def calibrate(kb: Knowledgebase, cell_limit: int | None = DEFAULT_CELL_LIMIT) -> JoinTree:
    """One collect and one distribute pass over the bucket tree of `heuristic_order(kb, ∅)`.

    The collect pass is solve_fusion's elimination, ordered by the same
    min-fill heuristic, with an empty query, so an empty-domain member or a
    message with an empty separator meets the rest at the root and a
    disconnected cover is still one tree. Distribute combines each bucket
    with its parent's clique projected onto the separator. With an
    idempotent algebra that is a semijoin, never larger than the bucket's
    own table, so it needs no guard. A null root, complete disagreement,
    makes every clique the null element over its domain with no join.
    """
    algebra = kb.algebra()
    if not algebra.idempotent:
        raise CapabilityError(f"{algebra.name} is not idempotent; calibration without division needs it")
    order = heuristic_order(kb, frozenset())
    cliques, parents, homes = _collect(kb, order, cell_limit, keep=True)
    if cliques[-1] == algebra.null(cliques[-1].domain):
        cliques = [algebra.null(clique.domain) for clique in cliques]
    else:
        for k in reversed(range(len(order))):  # a parent is calibrated before its children
            separator = cliques[k].domain - {order[k]}
            cliques[k] = algebra.combine(cliques[k], algebra.project(cliques[parents[k]], separator))
    return JoinTree(kb, order, tuple(cliques), tuple(parents), tuple(homes))


def heuristic_order(kb: Knowledgebase, query: Domain) -> tuple[str, ...]:
    """Deterministic min-fill elimination order for the non-query variables.

    Each pick is the variable whose elimination adds the fewest fill edges to
    the current interaction graph; ties break on variable name. The picks
    come from one heap of (score, name): an elimination re-scores only the
    variables it can change, the neighbours and their neighbours, and a
    popped entry whose score is stale is skipped.
    """
    neighbours: dict[str, set[str]] = {}
    for phi in kb:
        for v in phi.domain:
            neighbours.setdefault(v, set()).update(phi.domain - {v})

    def score(v: str) -> int:  # C(d, 2) neighbour pairs less the adjacent ones, each seen from both ends
        nbrs = neighbours[v]
        return (len(nbrs) * (len(nbrs) - 1) - sum(len(nbrs & neighbours[a]) for a in nbrs)) // 2

    scores = {v: score(v) for v in neighbours if v not in query}
    heap = [(s, v) for v, s in scores.items()]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        s, chosen = heapq.heappop(heap)
        if scores.get(chosen) != s:
            continue
        del scores[chosen]
        order.append(chosen)
        nbrs = neighbours.pop(chosen)
        for a in nbrs:
            neighbours[a].discard(chosen)
            neighbours[a].update(nbrs - {a})
        changed = set(nbrs)
        for a in nbrs:
            changed |= neighbours[a]
        for v in changed & scores.keys():
            new = score(v)
            if new != scores[v]:
                scores[v] = new
                heapq.heappush(heap, (new, v))
    return tuple(order)
