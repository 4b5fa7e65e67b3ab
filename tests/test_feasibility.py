import random
from fractions import Fraction

import pytest

from valkit.disagreement import marginal_system
from valkit.errors import ArgumentError
from valkit.feasibility import (
    FarkasCertificate,
    FeasibilityResult,
    LinearSystem,
    solve_feasibility,
    validate_certificate,
    validate_solution,
)

from conftest import cycle_model, noisy_cycle_correlators

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


def test_infeasibility_certificate_is_self_checked(monkeypatch):
    # The twin of the check above: a Farkas certificate is validated before it is returned.
    import valkit.feasibility

    monkeypatch.setattr(valkit.feasibility, "validate_certificate", lambda system, certificate: False)
    s = system(["x", "y"], ["r1", "r2"], [[1, 0], [1, 1]], [1, 0])
    with pytest.raises(AssertionError, match="simplex produced an invalid Farkas certificate"):
        solve_feasibility(s)


def test_entry_in_undeclared_row_rejected():
    with pytest.raises(ArgumentError, match="row"):
        LinearSystem(("x",), ("r1",), {("r2", "x"): F(1)}, {"r1": F(1)})


def test_entry_in_undeclared_column_rejected():
    with pytest.raises(ArgumentError, match="column"):
        LinearSystem(("x",), ("r1",), {("r1", "y"): F(1)}, {"r1": F(1)})


def test_repeated_row_name_rejected():
    # Two rows of one name would share a multiplier in a Farkas certificate.
    with pytest.raises(ArgumentError, match="a row name is repeated"):
        LinearSystem(("x",), ("r1", "r1"), {("r1", "x"): F(1)}, {"r1": F(1)})


def test_repeated_column_name_rejected():
    # Two columns of one name would be solved as one.
    with pytest.raises(ArgumentError, match="a column name is repeated"):
        LinearSystem(("x", "x"), ("r1",), {("r1", "x"): F(1)}, {"r1": F(1)})


@pytest.mark.parametrize("value", [0.5, "1/2"])
def test_inexact_entry_rejected(value):
    with pytest.raises(ArgumentError, match=r"entry \('r1', 'x'\) must be an int or a Fraction"):
        LinearSystem(("x",), ("r1",), {("r1", "x"): value}, {"r1": F(1)})


@pytest.mark.parametrize("value", [0.5, "1/2"])
def test_inexact_rhs_rejected(value):
    with pytest.raises(ArgumentError, match="right-hand side of row 'r1' must be a nonnegative int or Fraction"):
        LinearSystem(("x",), ("r1",), {("r1", "x"): F(1)}, {"r1": value})


def test_int_entries_and_rhs_are_exact():
    # marginal_system writes its 0/1 coefficients as ints.
    result = solve_feasibility(LinearSystem(("x",), ("r1",), {("r1", "x"): 3}, {"r1": 1}))
    assert result.solution == {"x": F(1, 3)}


# Slow oracle: the phase-1 simplex on a dense Fraction tableau, with Bland's
# rule for the entering and the leaving choice. solve_feasibility must take
# the same pivots on its integer tableau, so it must return an equal result:
# the same verdict, the same point and the same certificate.
def oracle_feasibility(system):
    cols, rows = list(system.columns), list(system.rows)
    n, m = len(cols), len(rows)
    col_index = {c: j for j, c in enumerate(cols)}
    row_index = {r: i for i, r in enumerate(rows)}
    total = n + m
    tableau = [[F(0)] * (total + 1) for _ in range(m)]
    for (r, c), v in system.entries.items():
        tableau[row_index[r]][col_index[c]] = F(v)
    for i, r in enumerate(rows):
        tableau[i][n + i] = F(1)
        tableau[i][total] = F(system.rhs.get(r, 0))
    basis = [n + i for i in range(m)]
    cost = [F(0)] * (total + 1)
    for j in range(total):
        cost[j] = (1 if j >= n else 0) - sum((tableau[i][j] for i in range(m)), F(0))
    cost[total] = -sum((tableau[i][total] for i in range(m)), F(0))

    while True:
        entering = next((j for j in range(total) if cost[j] < 0), None)
        if entering is None:
            break
        best = pivot_row = None
        for i in range(m):
            if tableau[i][entering] > 0:
                key = (tableau[i][total] / tableau[i][entering], basis[i])
                if best is None or key < best:
                    best, pivot_row = key, i
        row = [v / tableau[pivot_row][entering] for v in tableau[pivot_row]]
        tableau[pivot_row] = row
        for i in range(m):
            scale = tableau[i][entering]
            if i != pivot_row and scale != 0:
                tableau[i] = [a - scale * b for a, b in zip(tableau[i], row)]
        scale = cost[entering]
        cost = [a - scale * b for a, b in zip(cost, row)]
        basis[pivot_row] = entering

    if cost[total] == 0:
        solution = {c: F(0) for c in cols}
        for i, b in enumerate(basis):
            if b < n:
                solution[cols[b]] = tableau[i][total]
        return FeasibilityResult(True, solution=solution)
    y = tuple((rows[i], 1 - cost[n + i]) for i in range(m))
    return FeasibilityResult(False, certificate=FarkasCertificate(y))


def random_system(rng):
    n, m = rng.randint(1, 8), rng.randint(1, 6)
    columns = [f"c{j}" for j in range(n)]
    rows = [f"r{i}" for i in range(m)]
    entries = {}
    for r in rows:
        for c in columns:
            if rng.random() < 0.5:
                entries[(r, c)] = F(rng.randint(-12, 12), rng.randint(1, 12))
    rhs = {r: F(0) if rng.random() < 0.3 else F(rng.randint(0, 12), rng.randint(1, 12)) for r in rows}
    return LinearSystem(tuple(columns), tuple(rows), entries, rhs)


def test_integer_tableau_matches_fraction_oracle_on_random_systems():
    rng = random.Random(20260418)
    verdicts = set()
    for _ in range(1200):
        s = random_system(rng)
        result = solve_feasibility(s)
        assert result == oracle_feasibility(s), s
        verdicts.add(result.feasible)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("contextual", [False, True])
def test_integer_tableau_matches_fraction_oracle_on_noisy_cycles(n, contextual):
    s = marginal_system(cycle_model(noisy_cycle_correlators(n, contextual)).knowledgebase())
    result = solve_feasibility(s)
    assert result == oracle_feasibility(s)
    assert result.feasible is not contextual


# Slow oracles for the witness checks: the sums of y.A, y.b and A x in
# Fractions, as the checks took them before they scaled to integers.
def oracle_certificate(system, y):
    by_column = {c: F(0) for c in system.columns}
    for (r, c), v in system.entries.items():
        by_column[c] += y.get(r, 0) * v
    value = sum((y.get(r, 0) * system.rhs.get(r, 0) for r in system.rows), F(0))
    return all(total <= 0 for total in by_column.values()) and value > 0


def oracle_solution(system, x):
    by_row = {r: F(0) for r in system.rows}
    for (r, c), v in system.entries.items():
        by_row[r] += v * x.get(c, 0)
    nonnegative = all(x.get(c, 0) >= 0 for c in system.columns)
    return nonnegative and all(by_row[r] == system.rhs.get(r, 0) for r in system.rows)


def test_integer_witness_checks_match_the_fraction_sums():
    # Each solver witness, then the same witness with one entry nudged,
    # halved or negated, so that both answers occur for both checks.
    rng = random.Random(31)
    answers = {"certificate": set(), "solution": set()}
    for _ in range(600):
        s = random_system(rng)
        result = solve_feasibility(s)
        witness = dict(result.certificate.as_dict()) if not result.feasible else dict(result.solution)
        for _ in range(3):
            if s.columns and rng.random() < 0.5:
                key = rng.choice(sorted(witness))
                witness[key] = rng.choice((witness[key] + F(1, rng.randint(1, 9)), witness[key] / 2, -witness[key]))
            if result.feasible:
                assert validate_solution(s, witness) == oracle_solution(s, witness), (s, witness)
                answers["solution"].add(oracle_solution(s, witness))
            else:
                certificate = FarkasCertificate(tuple(witness.items()))
                assert validate_certificate(s, certificate) == oracle_certificate(s, witness), (s, witness)
                answers["certificate"].add(oracle_certificate(s, witness))
    assert answers == {"certificate": {True, False}, "solution": {True, False}}
