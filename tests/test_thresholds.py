"""Exact boundary behaviour that floating point could not certify."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from valkit.builtins import pr_box_model
from valkit.contextuality import classify, probabilistic_model
from valkit.disagreement import check_global_agreement_potentials, marginal_system
from valkit.feasibility import (
    LinearSystem,
    solve_feasibility,
    validate_certificate,
    validate_solution,
)

from conftest import enumerate_assignments


def noisy_pr_box(noise_weight: Fraction):
    """Mix the perfectly correlated box with the uniform distribution.

    With box weight w the model sits exactly on the classical boundary at
    w = 1/2: feasible there, infeasible for any larger weight.
    """
    base = pr_box_model()
    universe = base.scenario.universe
    contexts = list(base.scenario.contexts)
    uniform = Fraction(1, 4)
    sections = {}
    for ctx, section in zip(contexts, base.sections):
        sections[ctx] = {
            tuple(a.values_in(ctx)): noise_weight * section(a) + (1 - noise_weight) * uniform
            for a in enumerate_assignments(frozenset(ctx), universe)
        }
    return probabilistic_model(universe, contexts, sections)


def test_pr_box_threshold_is_exactly_one_half():
    boundary = noisy_pr_box(Fraction(1, 2))
    assert classify(boundary).classification == "NC"

    just_above = noisy_pr_box(Fraction(1, 2) + Fraction(1, 1000))
    report = classify(just_above)
    assert report.classification == "PC"
    system = marginal_system(just_above.knowledgebase())
    assert validate_certificate(system, report.feasibility.certificate)

    just_below = noisy_pr_box(Fraction(1, 2) - Fraction(1, 1000))
    assert classify(just_below).classification == "NC"


def test_noisy_pr_box_supports_are_full_so_never_logically_contextual():
    for w in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        report = classify(noisy_pr_box(w))
        assert not report.logically_contextual
        assert not report.strongly_contextual


def test_full_pr_box_is_the_degenerate_end():
    assert classify(noisy_pr_box(Fraction(1))).classification == "SC"


@st.composite
def linear_system_with_known_point(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4))
    point = [Fraction(draw(st.integers(min_value=0, max_value=4)), 2) for _ in range(n)]
    entries = {}
    rhs = {}
    for i in range(m):
        row = [Fraction(draw(st.integers(min_value=0, max_value=3))) for _ in range(n)]
        for j, coeff in enumerate(row):
            if coeff:
                entries[(f"r{i}", f"x{j}")] = coeff
        rhs[f"r{i}"] = sum((c * p for c, p in zip(row, point)), Fraction(0))
    columns = tuple(f"x{j}" for j in range(n))
    rows = tuple(f"r{i}" for i in range(m))
    return LinearSystem(columns, rows, entries, rhs)


@settings(max_examples=80, derandomize=True)
@given(linear_system_with_known_point())
def test_systems_with_a_known_point_are_found_feasible(system):
    result = solve_feasibility(system)
    assert result.feasible
    assert validate_solution(system, result.solution)


def test_random_systems_always_produce_a_checkable_answer():
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 4)
        entries = {}
        rhs = {}
        for i in range(m):
            for j in range(n):
                coeff = rng.randint(-2, 3)
                if coeff:
                    entries[(f"r{i}", f"x{j}")] = Fraction(coeff)
            rhs[f"r{i}"] = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        system = LinearSystem(tuple(f"x{j}" for j in range(n)), tuple(f"r{i}" for i in range(m)), entries, rhs)
        result = solve_feasibility(system)
        if result.feasible:
            assert validate_solution(system, result.solution)
        else:
            assert validate_certificate(system, result.certificate)


def test_bell_marginal_system_round_trip():
    from valkit.builtins import bell_model

    kb = bell_model().knowledgebase()
    system = marginal_system(kb)
    assert len(system.columns) == 16
    assert len(system.rows) == 16
    verdict = check_global_agreement_potentials(kb)
    assert not verdict.agrees
    # The certificate separates the observed sections from every global
    # distribution; scaling it keeps it valid.
    doubled = {row: 2 * value for row, value in verdict.certificate.coefficients}
    from valkit.feasibility import FarkasCertificate

    assert validate_certificate(system, FarkasCertificate(tuple(doubled.items())))
