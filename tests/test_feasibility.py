from fractions import Fraction

import pytest

from valkit.errors import ArgumentError
from valkit.feasibility import (
    FarkasCertificate,
    LinearSystem,
    solve_feasibility,
    validate_certificate,
    validate_solution,
)

F = Fraction


def system(columns, rows, matrix, rhs):
    entries = {}
    for i, row in enumerate(rows):
        for j, col in enumerate(columns):
            if matrix[i][j]:
                entries[(row, col)] = F(matrix[i][j])
    return LinearSystem(tuple(columns), tuple(rows), entries, {r: F(v) for r, v in zip(rows, rhs)})


def test_simple_feasible_system():
    # x + y = 1, x - ... just x + y = 1 with x, y >= 0
    s = system(["x", "y"], ["r1"], [[1, 1]], [1])
    result = solve_feasibility(s)
    assert result.feasible
    assert validate_solution(s, result.solution)
    assert sum(result.solution.values()) == 1


def test_feasible_with_redundant_rows():
    # Duplicate equations leave a rank-deficient but consistent system.
    s = system(["x", "y"], ["r1", "r2"], [[1, 1], [1, 1]], [1, 1])
    result = solve_feasibility(s)
    assert result.feasible
    assert validate_solution(s, result.solution)


def test_infeasible_by_sign():
    # x + y = 1 and x + y = 2 cannot both hold.
    s = system(["x", "y"], ["r1", "r2"], [[1, 1], [1, 1]], [1, 2])
    result = solve_feasibility(s)
    assert not result.feasible
    assert validate_certificate(s, result.certificate)


def test_infeasible_needs_negative_values():
    # x = 1 and x + y = 0 force y = -1 < 0.
    s = system(["x", "y"], ["r1", "r2"], [[1, 0], [1, 1]], [1, 0])
    result = solve_feasibility(s)
    assert not result.feasible
    assert validate_certificate(s, result.certificate)


def test_zero_rhs_is_trivially_feasible():
    s = system(["x", "y"], ["r1"], [[1, 1]], [0])
    result = solve_feasibility(s)
    assert result.feasible
    assert result.solution == {"x": F(0), "y": F(0)}


def test_fractional_solution_is_exact():
    # 3x = 1 has the exact solution 1/3; floats would miss it.
    s = system(["x"], ["r1"], [[3]], [1])
    result = solve_feasibility(s)
    assert result.feasible
    assert result.solution["x"] == F(1, 3)


def test_negative_rhs_rejected():
    with pytest.raises(ArgumentError):
        LinearSystem(("x",), ("r1",), {("r1", "x"): F(1)}, {"r1": F(-1)})


def test_certificate_validation_rejects_wrong_multipliers():
    s = system(["x", "y"], ["r1", "r2"], [[1, 1], [1, 1]], [1, 2])
    bogus = FarkasCertificate((("r1", F(1)), ("r2", F(1))))
    # y.A = (2, 2) > 0 on both columns, so this cannot certify anything.
    assert not validate_certificate(s, bogus)


def test_validate_solution_rejects_negative_and_wrong_sums():
    s = system(["x", "y"], ["r1"], [[1, 1]], [1])
    assert not validate_solution(s, {"x": F(2), "y": F(-1)})
    assert not validate_solution(s, {"x": F(1), "y": F(1)})


def test_degenerate_cycling_guard():
    # A classic degenerate instance; Bland's rule must terminate.
    columns = ["x1", "x2", "x3", "x4"]
    rows = ["r1", "r2", "r3"]
    matrix = [
        [1, 1, 1, 0],
        [1, -1, 0, 1],
        [2, 0, 1, 1],
    ]
    s = system(columns, rows, matrix, [2, 0, 2])
    result = solve_feasibility(s)
    assert result.feasible
    assert validate_solution(s, result.solution)


def test_marginal_style_system_with_overlap():
    # Two overlapping marginals admitting a joint distribution.
    columns = ["00", "01", "10", "11"]  # joint states of (u, v)
    rows = ["u=0", "u=1", "v=0", "v=1"]
    matrix = [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ]
    s = system(columns, rows, matrix, [F(1, 2), F(1, 2), F(1, 4), F(3, 4)])
    result = solve_feasibility(s)
    assert result.feasible
    assert validate_solution(s, result.solution)


def test_feasible_point_is_self_checked(monkeypatch):
    # A feasible answer is checked against the system before it is returned,
    # as an infeasibility certificate already is.
    import valkit.feasibility

    monkeypatch.setattr(valkit.feasibility, "validate_solution", lambda system, solution: False)
    s = system(["x", "y"], ["r1"], [[1, 1]], [1])
    with pytest.raises(AssertionError):
        solve_feasibility(s)
