"""Local, global, and complete disagreement between information sources.

Local agreement compares every pair of valuations on their shared variables.
Global agreement asks for one valuation over all variables that projects onto
every member. For adjoint algebras (relations) the combination of the whole
knowledgebase is the only candidate, so the check reduces to one calibrated
join tree; for rational potentials no such shortcut exists and the question
becomes exact linear feasibility, with a Farkas certificate on failure.
Complete disagreement means the combination collapses to the null element.
Knowledgebases and empirical models alike read it off the root of one
calibrated tree of the members' supports (`support_analysis`).
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Knowledgebase, PotentialAlgebra
from .core import Domain, NONNEG_RATIONAL, Record
from .errors import CapabilityError, ResourceLimitError
from .feasibility import FarkasCertificate, LinearSystem, solve_feasibility
from .inference import DEFAULT_CELL_LIMIT, InferenceProblem, JoinTree, calibrate, solve_fusion
from .potentials import Potential, support_relation
from .relations import Relation, restriction

DEFAULT_FEASIBILITY_COLUMNS = 4096
DEFAULT_TRUTH_SEARCH_STATES = 16


class LocalVerdict(Record):
    agrees: bool
    pair: tuple[int, int] | None = None  # 1-based member indices
    overlap: Domain | None = None
    projections: tuple | None = None


class GlobalVerdict(Record):
    _uncompared = ("system",)

    agrees: bool
    truth: object | None = None  # the truth valuation gamma, on agreement
    witness_index: int | None = None  # 1-based member whose projection differs
    projected: object | None = None  # what the combination projects to there
    certificate: FarkasCertificate | None = None  # infeasibility proof (potentials path)
    system: LinearSystem | None = None  # what the potentials path solved; not compared or shown


class AgreementReport(Record):
    local: LocalVerdict
    global_agreement: GlobalVerdict
    complete_disagreement: bool


def check_local_agreement(kb: Knowledgebase) -> LocalVerdict:
    """Pass iff every pair projects identically onto its shared variables; else name the first pair that differs.

    Projection is transitive, so two members whose projections onto ∅ differ
    disagree on any overlap. For each member only the later members that share
    one of its variables and come before the first later member unlike it on ∅
    need a projection onto their overlap.
    """
    algebra = kb.algebra()
    members = list(kb)
    labels = [algebra.label(phi) for phi in members]
    on_empty = [algebra.project(phi, frozenset()) for phi in members]
    count = len(members)
    next_unlike = [count] * count  # the first later member whose projection onto ∅ differs
    for i in reversed(range(count - 1)):
        next_unlike[i] = i + 1 if on_empty[i] != on_empty[i + 1] else next_unlike[i + 1]
    holders: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        for v in label:
            holders.setdefault(v, []).append(i)
    for i, label in enumerate(labels):
        stop = next_unlike[i]
        candidates = sorted({j for v in label for j in holders[v] if i < j < stop})
        if stop < count:
            candidates.append(stop)
        for j in candidates:
            overlap = label & labels[j]
            if overlap:
                left, right = algebra.project(members[i], overlap), algebra.project(members[j], overlap)
            else:
                left, right = on_empty[i], on_empty[j]
            if left != right:
                return LocalVerdict(False, pair=(i + 1, j + 1), overlap=overlap, projections=(left, right))
    return LocalVerdict(True)


def check_global_agreement_adjoint(kb: Knowledgebase, cell_limit: int | None = DEFAULT_CELL_LIMIT) -> GlobalVerdict:
    """Adjoint-algebra path: the combination is the only truth candidate, so its tree decides."""
    algebra = kb.algebra()
    if not algebra.adjoint:
        raise CapabilityError(
            f"{algebra.name} is not adjoint; use the feasibility path (check_global_agreement_potentials)"
        )
    return tree_verdict(calibrate(kb, cell_limit))


def tree_verdict(tree: JoinTree) -> GlobalVerdict:
    """Global agreement read off a calibrated tree: the first member unlike its clique's projection, if any.

    Each member's projection of the combination comes off its home clique;
    on agreement the truth valuation is the tree's combination.
    """
    for index, (phi, projected) in enumerate(zip(tree.knowledgebase, tree.marginals()), start=1):
        if projected != phi:
            return GlobalVerdict(False, witness_index=index, projected=projected)
    return GlobalVerdict(True, truth=tree.combination())


def combination_verdict(kb: Knowledgebase, gamma) -> GlobalVerdict:
    """Global agreement given the combination `gamma`, projected onto each member: the tests' reference for tree_verdict."""
    algebra = kb.algebra()
    for index, phi in enumerate(kb, start=1):
        projected = algebra.project(gamma, algebra.label(phi))
        if projected != phi:
            return GlobalVerdict(False, witness_index=index, projected=projected)
    return GlobalVerdict(True, truth=gamma)


def marginal_system(kb: Knowledgebase, column_limit: int | None = DEFAULT_FEASIBILITY_COLUMNS) -> LinearSystem:
    """The marginal equations of a rational-potential knowledgebase as A x = b.

    One unknown per global row, one equation per member per local row (keyed
    by the member's 1-based index and that row); every coefficient is 0 or 1.
    """
    universe = kb.universe
    joint = kb.joint_domain
    size = universe.size(joint)
    if column_limit is not None and size > column_limit:
        raise ResourceLimitError(f"joint assignment space has {size} elements (limit {column_limit})")
    columns = tuple(universe.rows(joint))
    rows = []
    rhs = {}
    entries = {}
    for index, phi in enumerate(kb, start=1):
        for local in universe.rows(phi.domain):
            key = (index, local)
            rows.append(key)
            rhs[key] = Fraction(phi.table[local])
    local_rows = [restriction(sorted(joint), sorted(phi.domain)) for phi in kb]
    for g in columns:
        for index, local_row in enumerate(local_rows, start=1):
            entries[((index, local_row(g)), g)] = Fraction(1)
    return LinearSystem(columns=columns, rows=tuple(rows), entries=entries, rhs=rhs)


def check_global_agreement_potentials(
    kb: Knowledgebase,
    column_limit: int | None = DEFAULT_FEASIBILITY_COLUMNS,
) -> GlobalVerdict:
    """Feasibility path for rational potentials: find gamma >= 0 with the right marginals."""
    for phi in kb:
        if not isinstance(phi, Potential) or phi.semiring != NONNEG_RATIONAL:
            raise CapabilityError("the feasibility path needs potentials over exact nonnegative rationals")
    system = marginal_system(kb, column_limit)
    outcome = solve_feasibility(system)
    if outcome.feasible:
        table = {g: outcome.solution[g] for g in system.columns}
        gamma = Potential(kb.universe, kb.joint_domain, NONNEG_RATIONAL, table)
        return GlobalVerdict(True, truth=gamma, system=system)
    return GlobalVerdict(False, certificate=outcome.certificate, system=system)


def check_complete_disagreement(kb: Knowledgebase, cell_limit: int | None = DEFAULT_CELL_LIMIT) -> bool:
    """True iff the combination is null, by one fusion: the tests' reference for support_analysis's root."""
    algebra = kb.algebra()
    if not algebra.has_null:
        raise CapabilityError(f"{algebra.name} has no null elements")
    first_domain = algebra.label(kb.valuations[0])
    projected = solve_fusion(InferenceProblem(kb, first_domain), cell_limit=cell_limit)
    return projected == algebra.null(first_domain)


def search_truth_valuations(
    kb: Knowledgebase,
    state_limit: int = DEFAULT_TRUTH_SEARCH_STATES,
) -> list[Relation]:
    """Exhaustively enumerate every truth valuation of a relation knowledgebase.

    Works directly on global assignments with bitmask bookkeeping, without the
    algebra's combine/project machinery, so it can serve as an independent
    cross-check of the inference-based verdict. Any candidate must project
    inside every member (a definitional filter), and all subsets of the
    surviving assignments are tried.
    """
    if not isinstance(kb.valuations[0], Relation):
        raise CapabilityError("truth-valuation search is defined for relation knowledgebases")
    universe = kb.universe
    joint = kb.joint_domain
    globals_ = list(universe.rows(joint))
    if len(globals_) > state_limit:
        raise ResourceLimitError(f"global assignment space has {len(globals_)} elements (limit {state_limit})")
    member_data = []
    for phi in kb:
        index = {a: k for k, a in enumerate(universe.rows(phi.domain))}
        target = 0
        for t in phi.tuples:
            target |= 1 << index[t]
        local_row = restriction(sorted(joint), sorted(phi.domain))
        proj_bits = [1 << index[local_row(g)] for g in globals_]
        member_data.append((target, proj_bits))
    candidates = [
        gi for gi in range(len(globals_)) if all(bits[gi] & target for target, bits in member_data)
    ]
    k = len(candidates)
    per_member = []
    for target, bits in member_data:
        cand_bits = [bits[c] for c in candidates]
        projected = [0] * (1 << k)
        for mask in range(1, 1 << k):
            low = mask & -mask
            projected[mask] = projected[mask ^ low] | cand_bits[low.bit_length() - 1]
        per_member.append((target, projected))
    found = []
    for mask in range(1 << k):
        if all(projected[mask] == target for target, projected in per_member):
            tuples = frozenset(globals_[candidates[i]] for i in range(k) if mask >> i & 1)
            found.append(Relation(universe, joint, tuples))
    return found


def support_knowledgebase(kb: Knowledgebase) -> Knowledgebase:
    """The members' supports as a relation knowledgebase; a relation is its own support."""
    return Knowledgebase(kb.universe, tuple(phi if isinstance(phi, Relation) else support_relation(phi) for phi in kb))


def support_analysis(
    kb: Knowledgebase, cell_limit: int | None = DEFAULT_CELL_LIMIT
) -> tuple[JoinTree, GlobalVerdict | None]:
    """The calibrated tree of the members' supports, with the feasibility verdict of rational potentials.

    The root clique is the supports' join projected onto ∅. Nonnegative
    rationals have no zero divisors and no nonzero sums to 0, so that join is
    the support of the combination: the root is empty iff the combination is
    null. Rational potentials solve their marginal system first, under its
    column cap; it enumerates every joint row, so their tree needs no guard.
    """
    algebra = kb.algebra()
    if algebra.adjoint:
        return calibrate(kb, cell_limit), None
    if isinstance(algebra, PotentialAlgebra) and algebra.semiring == NONNEG_RATIONAL:
        feasibility = check_global_agreement_potentials(kb)
        return calibrate(support_knowledgebase(kb), None), feasibility
    raise CapabilityError(f"no global-agreement decision procedure for {algebra.name}")


def analyze_knowledgebase(kb: Knowledgebase, cell_limit: int | None = DEFAULT_CELL_LIMIT) -> AgreementReport:
    """Run the local check, then read the global and complete verdicts off the support analysis."""
    local = check_local_agreement(kb)
    tree, feasibility = support_analysis(kb, cell_limit)
    return AgreementReport(local, feasibility or tree_verdict(tree), tree.cliques[-1].is_empty())
