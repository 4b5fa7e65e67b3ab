"""Exact linear feasibility over the nonnegative rationals.

Decides whether A x = b with rational entries has a solution x >= 0. A
`LinearSystem` scales itself to integers once, when it is built, and the
solver and both witness checks read that one form. The solver is a phase-1
simplex (one artificial variable per row, their sum minimized) with Bland's
rule, so it cannot cycle, on an integer-preserving tableau (Bareiss 1968;
Edmonds 1967): each pivot divides exactly by the previous pivot element. A
zero optimum yields a feasible point; a positive one yields the dual vector,
a Farkas witness (y.A <= 0 columnwise, y.b > 0). validate_solution and
validate_certificate re-check either without trusting the solver.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Hashable, Mapping

from .core import Record
from .errors import ArgumentError

ZERO = Fraction(0)


class LinearSystem(Record):
    """Equality system A x = b with named rows and columns and sparse entries.

    Construction checks the names and values in one pass and keeps the integer
    form outside `==`, `hash` and `repr`: `_cells[j]` lists column j's (row
    position, sa A[i][j]) pairs, `_rhs[i]` is sb b[i], `_scales` is (sa, sb).
    """

    columns: tuple[Hashable, ...]
    rows: tuple[Hashable, ...]
    entries: Mapping[tuple[Hashable, Hashable], Fraction]
    rhs: Mapping[Hashable, Fraction]

    def __post_init__(self):
        rows = {row: i for i, row in enumerate(self.rows)}
        columns = {column: j for j, column in enumerate(self.columns)}
        for kind, names, positions in (("row", self.rows, rows), ("column", self.columns, columns)):
            if len(positions) < len(names):
                raise ArgumentError(f"a {kind} name is repeated")
        cells = [[] for _ in columns]
        for (row, column), v in self.entries.items():
            if row not in rows:
                raise ArgumentError(f"entry names undeclared row {row!r}")
            if column not in columns:
                raise ArgumentError(f"entry names undeclared column {column!r}")
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise ArgumentError(f"entry {(row, column)!r} must be an int or a Fraction, not {v!r}")
            cells[columns[column]].append((rows[row], v))
        for row in self.rhs:
            if row not in rows:
                raise ArgumentError(f"right-hand side names undeclared row {row!r}")
        rhs = [self.rhs.get(row, ZERO) for row in rows]
        for row, v in zip(rows, rhs):
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)) or v < 0:
                raise ArgumentError(f"right-hand side of row {row!r} must be a nonnegative int or Fraction, not {v!r}")
        sa = lcm(1, *(v.denominator for column in cells for _, v in column))
        sb = lcm(1, *(v.denominator for v in rhs))
        object.__setattr__(self, "_cells", [[(i, v.numerator * (sa // v.denominator)) for i, v in column] for column in cells])
        object.__setattr__(self, "_rhs", [v.numerator * (sb // v.denominator) for v in rhs])
        object.__setattr__(self, "_scales", (sa, sb))


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
    cols, rows = system.columns, system.rows
    n, m = len(cols), len(rows)

    # Integer tableau rows [sa A | I | sb b] plus the cost row. Positive
    # scaling keeps every sign and every ratio order Bland's rule reads, so
    # the pivots are those of the rational tableau.
    total = n + m
    tableau = [[0] * (total + 1) for _ in range(m + 1)]
    cost = tableau[m]  # phase-1 reduced costs under the artificial basis; last entry is -objective
    for j, column in enumerate(system._cells):
        for i, value in column:
            tableau[i][j] = value
            cost[j] -= value
    for i, value in enumerate(system._rhs):
        tableau[i][n + i] = 1
        tableau[i][total] = value
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
        sa, sb = system._scales
        solution = {c: ZERO for c in cols}
        for i, b in enumerate(basis):
            if b < n:
                solution[cols[b]] = Fraction(tableau[i][total] * sa, d * sb)
        if not validate_solution(system, solution):
            raise AssertionError("simplex produced a point that does not solve the system")
        return FeasibilityResult(True, solution=solution)

    # y_i = 1 - reduced cost of the i-th artificial column.
    y = tuple((rows[i], 1 - Fraction(cost[n + i], d)) for i in range(m))
    certificate = FarkasCertificate(y)
    if not validate_certificate(system, certificate):
        raise AssertionError("simplex produced an invalid Farkas certificate")
    return FeasibilityResult(False, certificate=certificate)


def _scaled(values: Mapping[Hashable, Fraction]) -> tuple[int, dict[Hashable, int]]:
    """The lcm s of the values' denominators, and each value times s: integers with the same signs and ratios."""
    scale = lcm(1, *(v.denominator for v in values.values()))
    return scale, {key: v.numerator * (scale // v.denominator) for key, v in values.items()}


def validate_certificate(system: LinearSystem, certificate: FarkasCertificate) -> bool:
    """Independent check of a Farkas witness against the system's integer form.

    y is scaled by a positive integer, as A and b are, which keeps the sign of
    every y.A column and of y.b, so the sums are taken in integers.
    """
    _, y = _scaled(certificate.as_dict())
    y = [y.get(r, 0) for r in system.rows]
    columns_ok = all(sum(y[i] * v for i, v in column) <= 0 for column in system._cells)
    return columns_ok and sum(w * v for w, v in zip(y, system._rhs)) > 0


def validate_solution(system: LinearSystem, solution: Mapping[Hashable, Fraction]) -> bool:
    """Independent check that a candidate point satisfies A x = b with x >= 0, in integers.

    With x scaled by sx, and A and b by the system's sa and sb, A x = b holds
    row by row exactly when (sa A)(sx x)·sb equals (sb b)·sa·sx.
    """
    sx, x = _scaled(solution)
    x = [x.get(c, 0) for c in system.columns]
    sa, sb = system._scales
    by_row = [0] * len(system.rows)
    for w, column in zip(x, system._cells):
        if w:
            for i, v in column:
                by_row[i] += v * w
    nonnegative = all(w >= 0 for w in x)
    return nonnegative and all(total * sb == v * sa * sx for total, v in zip(by_row, system._rhs))
