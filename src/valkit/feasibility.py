"""Exact linear feasibility over the nonnegative rationals.

Decides whether A x = b has a solution with x >= 0, where every entry is a
Fraction. The engine is a phase-1 simplex on a dense tableau: one artificial
variable per row, minimize their sum, Bland's rule for both the entering and
the leaving choice so cycling is impossible. A zero optimum yields a feasible
point; a positive optimum yields the dual vector, which is a Farkas witness
(y.A <= 0 columnwise while y.b > 0) proving infeasibility. Both outcomes are
re-checkable without trusting the solver, and validate_certificate does so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping

from .errors import ArgumentError

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LinearSystem:
    """Equality system A x = b with named rows and columns and sparse entries."""

    columns: tuple[Hashable, ...]
    rows: tuple[Hashable, ...]
    entries: Mapping[tuple[Hashable, Hashable], Fraction]
    rhs: Mapping[Hashable, Fraction]

    def __post_init__(self):
        for row in self.rows:
            if self.rhs.get(row, ZERO) < 0:
                raise ArgumentError(f"right-hand side of row {row!r} must be nonnegative")


@dataclass(frozen=True)
class FarkasCertificate:
    """Row multipliers y with y.A <= 0 for every column and y.b > 0."""

    coefficients: tuple[tuple[Hashable, Fraction], ...]

    def as_dict(self) -> dict[Hashable, Fraction]:
        return dict(self.coefficients)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    solution: dict[Hashable, Fraction] | None = None
    certificate: FarkasCertificate | None = None


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    cols = list(system.columns)
    rows = list(system.rows)
    n, m = len(cols), len(rows)
    col_index = {c: j for j, c in enumerate(cols)}
    row_index = {r: i for i, r in enumerate(rows)}

    # Tableau rows: [A | I | b]; basis starts on the artificial block.
    total = n + m
    tableau = [[ZERO] * (total + 1) for _ in range(m)]
    for (r, c), v in system.entries.items():
        tableau[row_index[r]][col_index[c]] = Fraction(v)
    for i, r in enumerate(rows):
        tableau[i][n + i] = ONE
        tableau[i][total] = Fraction(system.rhs.get(r, ZERO))
    basis = [n + i for i in range(m)]

    # Phase-1 reduced costs: c_j minus the column sum under the artificial basis.
    cost = [ZERO] * (total + 1)
    for j in range(total):
        col_sum = sum((tableau[i][j] for i in range(m)), ZERO)
        cost[j] = (ONE if j >= n else ZERO) - col_sum
    cost[total] = -sum((tableau[i][total] for i in range(m)), ZERO)  # -objective

    while True:
        entering = next((j for j in range(total) if cost[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        best = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][total] / coeff
                key = (ratio, basis[i])  # Bland: smallest ratio, then smallest basic index
                if best is None or key < best:
                    best = key
                    pivot_row = i
        if pivot_row is None:
            raise AssertionError("phase-1 objective is bounded below; no pivot row means a solver bug")
        _pivot(tableau, cost, pivot_row, entering)
        basis[pivot_row] = entering

    objective = -cost[total]
    if objective == 0:
        solution = {c: ZERO for c in cols}
        for i, b in enumerate(basis):
            if b < n:
                solution[cols[b]] = tableau[i][total]
        if not validate_solution(system, solution):
            raise AssertionError("simplex produced a point that does not solve the system")
        return FeasibilityResult(True, solution=solution)

    # y_i = 1 - reduced cost of the i-th artificial column.
    y = tuple((rows[i], ONE - cost[n + i]) for i in range(m))
    certificate = FarkasCertificate(y)
    if not validate_certificate(system, certificate):
        raise AssertionError("simplex produced an invalid Farkas certificate")
    return FeasibilityResult(False, certificate=certificate)


def _pivot(tableau, cost, pivot_row, pivot_col):
    row = tableau[pivot_row]
    factor = row[pivot_col]
    tableau[pivot_row] = row = [v / factor for v in row]
    for i, other in enumerate(tableau):
        if i == pivot_row:
            continue
        scale = other[pivot_col]
        if scale != 0:
            tableau[i] = [a - scale * b for a, b in zip(other, row)]
    scale = cost[pivot_col]
    if scale != 0:
        cost[:] = [a - scale * b for a, b in zip(cost, row)]


def validate_certificate(system: LinearSystem, certificate: FarkasCertificate) -> bool:
    """Independent check of a Farkas witness against the raw system data."""
    y = certificate.as_dict()
    for c in system.columns:
        if sum((y.get(r, ZERO) * system.entries.get((r, c), ZERO) for r in system.rows), ZERO) > 0:
            return False
    value = sum((y.get(r, ZERO) * system.rhs.get(r, ZERO) for r in system.rows), ZERO)
    return value > 0


def validate_solution(system: LinearSystem, solution: Mapping[Hashable, Fraction]) -> bool:
    """Independent check that a candidate point satisfies A x = b with x >= 0."""
    for c in system.columns:
        if solution.get(c, ZERO) < 0:
            return False
    by_row: dict[Hashable, Fraction] = {r: ZERO for r in system.rows}
    for (r, c), v in system.entries.items():
        x = solution.get(c, ZERO)
        if x != 0:
            by_row[r] += v * x
    return all(by_row[r] == system.rhs.get(r, ZERO) for r in system.rows)
