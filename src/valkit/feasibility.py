"""Exact linear feasibility over the nonnegative rationals.

Decides whether A x = b has a solution with x >= 0, where every entry is a
rational. The engine is a phase-1 simplex: one artificial variable per row,
minimize their sum, Bland's rule for both the entering and the leaving choice
so cycling is impossible. The tableau is integer-preserving (Bareiss 1968;
Edmonds 1967): columns and right-hand side are scaled to integers, and each
pivot divides exactly by the previous pivot element, so no Fraction is made
until the answer is read off. A zero optimum yields a feasible point; a
positive optimum yields the dual vector, which is a Farkas witness
(y.A <= 0 columnwise while y.b > 0) proving infeasibility. Both outcomes are
re-checkable without trusting the solver, and validate_certificate does so.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Hashable, Mapping

from .core import Record
from .errors import ArgumentError

ZERO = Fraction(0)
ONE = Fraction(1)


class LinearSystem(Record):
    """Equality system A x = b with named rows and columns and sparse entries."""

    columns: tuple[Hashable, ...]
    rows: tuple[Hashable, ...]
    entries: Mapping[tuple[Hashable, Hashable], Fraction]
    rhs: Mapping[Hashable, Fraction]

    def __post_init__(self):
        rows, columns = set(self.rows), set(self.columns)
        for row, column in self.entries:
            if row not in rows:
                raise ArgumentError(f"entry names undeclared row {row!r}")
            if column not in columns:
                raise ArgumentError(f"entry names undeclared column {column!r}")
        for row in self.rows:
            if self.rhs.get(row, ZERO) < 0:
                raise ArgumentError(f"right-hand side of row {row!r} must be nonnegative")


class FarkasCertificate(Record):
    """Row multipliers y with y.A <= 0 for every column and y.b > 0."""

    coefficients: tuple[tuple[Hashable, Fraction], ...]

    def as_dict(self) -> dict[Hashable, Fraction]:
        return dict(self.coefficients)


class FeasibilityResult(Record):
    feasible: bool
    solution: dict[Hashable, Fraction] | None = None
    certificate: FarkasCertificate | None = None


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    cols = list(system.columns)
    rows = list(system.rows)
    n, m = len(cols), len(rows)
    col_index = {c: j for j, c in enumerate(cols)}
    row_index = {r: i for i, r in enumerate(rows)}

    # Integer tableau rows [A S | I | s b] plus the cost row, where S scales
    # each column by the lcm of its denominators and s is the lcm of the rhs
    # denominators. Positive scaling keeps every sign and every ratio order
    # Bland's rule reads, so the pivots are those of the rational tableau.
    cells = [(row_index[r], col_index[c], v) for (r, c), v in system.entries.items()]
    colscale = [1] * n
    for _, j, v in cells:
        colscale[j] = lcm(colscale[j], v.denominator)
    rhs = [system.rhs.get(r, ZERO) for r in rows]
    rhs_scale = lcm(1, *(v.denominator for v in rhs))

    total = n + m
    tableau = [[0] * (total + 1) for _ in range(m + 1)]
    cost = tableau[m]  # phase-1 reduced costs under the artificial basis; last entry is -objective
    for i, j, v in cells:
        value = v.numerator * (colscale[j] // v.denominator)
        tableau[i][j] = value
        cost[j] -= value
    for i, v in enumerate(rhs):
        tableau[i][n + i] = 1
        tableau[i][total] = value = v.numerator * (rhs_scale // v.denominator)
        cost[total] -= value
    basis = [n + i for i in range(m)]

    # Fraction-free pivoting (Bareiss): the tableau is d times the rational
    # one, d is the previous pivot element and stays positive, and every row
    # update divides exactly by d.
    d = 1
    while True:
        entering = next((j for j in range(total) if cost[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff <= 0:
                continue
            value = tableau[i][total]
            if pivot_row is not None:
                # Bland: smallest ratio value/coeff, then smallest basic index.
                left, right = value * best_coeff, best_value * coeff
                if left > right or (left == right and basis[i] > basis[pivot_row]):
                    continue
            pivot_row, best_value, best_coeff = i, value, coeff
        if pivot_row is None:
            raise AssertionError("phase-1 objective is bounded below; no pivot row means a solver bug")
        prow = tableau[pivot_row]
        a = prow[entering]
        for i, row in enumerate(tableau):
            if i == pivot_row:
                continue
            f = row[entering]
            if f:
                tableau[i] = [(a * x - f * y) // d for x, y in zip(row, prow)]
            elif a != d:
                tableau[i] = [a * x // d for x in row]
        cost = tableau[m]
        basis[pivot_row] = entering
        d = a

    if cost[total] == 0:
        solution = {c: ZERO for c in cols}
        for i, b in enumerate(basis):
            if b < n:
                solution[cols[b]] = Fraction(tableau[i][total] * colscale[b], d * rhs_scale)
        if not validate_solution(system, solution):
            raise AssertionError("simplex produced a point that does not solve the system")
        return FeasibilityResult(True, solution=solution)

    # y_i = 1 - reduced cost of the i-th artificial column.
    y = tuple((rows[i], ONE - Fraction(cost[n + i], d)) for i in range(m))
    certificate = FarkasCertificate(y)
    if not validate_certificate(system, certificate):
        raise AssertionError("simplex produced an invalid Farkas certificate")
    return FeasibilityResult(False, certificate=certificate)


def _scaled(values: Mapping[Hashable, Fraction]) -> tuple[int, dict[Hashable, int]]:
    """The lcm s of the values' denominators, and each value times s: integers with the same signs and ratios."""
    scale = lcm(1, *(v.denominator for v in values.values()))
    return scale, {key: v.numerator * (scale // v.denominator) for key, v in values.items()}


def validate_certificate(system: LinearSystem, certificate: FarkasCertificate) -> bool:
    """Independent check of a Farkas witness against the raw system data.

    y, A and b are each scaled by a positive integer, which keeps the sign
    of every y.A column and of y.b, so the sums are taken in integers.
    """
    _, y = _scaled(certificate.as_dict())
    _, entries = _scaled(system.entries)
    by_column = dict.fromkeys(system.columns, 0)
    for (r, c), v in entries.items():
        w = y.get(r)
        if w:
            by_column[c] += w * v
    if any(total > 0 for total in by_column.values()):
        return False
    _, rhs = _scaled(system.rhs)
    return sum(y.get(r, 0) * rhs.get(r, 0) for r in system.rows) > 0


def validate_solution(system: LinearSystem, solution: Mapping[Hashable, Fraction]) -> bool:
    """Independent check that a candidate point satisfies A x = b with x >= 0, in integers.

    With x, A and b scaled by sx, sa and sb, A x = b holds row by row exactly
    when (sa A)(sx x)·sb equals (sb b)·sa·sx.
    """
    sx, x = _scaled(solution)
    if any(x.get(c, 0) < 0 for c in system.columns):
        return False
    sa, entries = _scaled(system.entries)
    by_row = dict.fromkeys(system.rows, 0)
    for (r, c), v in entries.items():
        w = x.get(c)
        if w:
            by_row[r] += v * w
    sb, rhs = _scaled(system.rhs)
    return all(by_row[r] * sb == rhs.get(r, 0) * sa * sx for r in system.rows)
