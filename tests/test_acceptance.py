"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
comparison is exact (rational arithmetic or set equality); each criterion
also enforces its stated runtime budget.

Known red: criterion 4 requires local agreement for the length-2 cycle, but
the two compiled formulas share the whole domain {s1, s2} and contradict each
other outright, so pairwise local agreement cannot hold there (see README's
"Install and test" section, ROADMAP "Known defects", and
`tests/test_disagreement.py::test_two_cycle_is_a_direct_contradiction`, which
checks the correct n = 2 behaviour). The criterion is asserted as stated and
fails honestly on that sub-check; all other criteria pass.
"""

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from itertools import combinations, product

from valkit.algebra import Knowledgebase, PotentialAlgebra, RelationAlgebra, axiom_suite
from valkit.builtins import (
    MALAWI_COLORS,
    MALAWI_COUNTRIES,
    MALAWI_EDGES,
    bell_model,
    ghz_model,
    hardy_model,
    liar_knowledgebase,
    malawi_knowledgebase,
    pr_box_model,
    screening_knowledgebase,
)
from valkit.cli import main as cli_main
from valkit.contextuality import classify, check_no_signalling, probabilistic_model
from valkit.core import Assignment, VariableUniverse
from valkit.disagreement import (
    check_complete_disagreement,
    check_global_agreement_adjoint,
    check_global_agreement_potentials,
    check_local_agreement,
    marginal_system,
    search_truth_valuations,
)
from valkit.feasibility import validate_certificate
from valkit.inference import InferenceProblem, solve_fusion, solve_naive
from valkit.relations import Relation, project_relation, relation_leq

from conftest import values_in


@contextmanager
def criterion(number: int, runtime_limit: float, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    ok = elapsed < runtime_limit
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}  ({elapsed:.2f}s < {runtime_limit:g}s)  {description}")
    assert ok, f"runtime {elapsed:.2f}s exceeded the {runtime_limit:g}s budget"


# The published table, columns (0,0), (1,0), (0,1), (1,1).
BELL_TABLE = {
    ("a1", "b1"): ("1/2", "0", "0", "1/2"),
    ("a1", "b2"): ("3/8", "1/8", "1/8", "3/8"),
    ("a2", "b1"): ("3/8", "1/8", "1/8", "3/8"),
    ("a2", "b2"): ("1/8", "3/8", "3/8", "1/8"),
}
BELL_COLUMNS = (("0", "0"), ("1", "0"), ("0", "1"), ("1", "1"))


def brute_force_possibilistic(model):
    """Oracle: scan every global outcome assignment with plain dicts."""
    universe = model.scenario.universe
    names = sorted(universe.vars)
    frames = [universe.frame(n).values for n in names]
    supports = {}
    for ctx, section in zip(model.scenario.contexts, model.sections):
        if model.kind == "possibilistic":
            rows = section.tuples
        else:
            rows = {row for row, v in section.table.items() if v != 0}
        supports[ctx] = {values_in(row, ctx) for row in rows}
    compatible = [
        dict(zip(names, combo))
        for combo in product(*frames)
        if all(tuple(dict(zip(names, combo))[m] for m in ctx) in block for ctx, block in supports.items())
    ]
    strongly = not compatible
    logically = any(
        block - {tuple(g[m] for m in ctx) for g in compatible}
        for ctx, block in supports.items()
    )
    return strongly, logically, compatible


def test_criterion_1_bell_reproduction():
    with criterion(1, 1.0, "Bell reproduction: table, no-signalling, PC with certificate, not LC"):
        model = bell_model()
        for (ctx, values) in BELL_TABLE.items():
            section = model.section_for(ctx)
            for outcome, value in zip(BELL_COLUMNS, values):
                key = Assignment.of(dict(zip(ctx, outcome)))
                assert section(key) == Fraction(value)
        assert sum(len(s.table) for s in model.sections) == 16
        assert check_no_signalling(model).passed
        report = classify(model)
        assert report.classification == "PC"
        certificate = report.feasibility.certificate
        assert certificate is not None
        assert validate_certificate(marginal_system(model.knowledgebase()), certificate)
        strongly, logically, compatible = brute_force_possibilistic(model)
        assert not logically and not strongly
        assert len(compatible) == 8  # out of the 16 global assignments
        assert not report.logically_contextual


def test_criterion_2_screening_database():
    with criterion(2, 1.0, "Screening: local pass, exact G, witness i=1, complete no"):
        kb = screening_knowledgebase()
        universe = kb.universe
        assert check_local_agreement(kb).agrees
        g = solve_naive(InferenceProblem(kb, kb.joint_domain))
        expected_g = Relation.from_rows(
            universe, ("e", "f", "a"), [("M", "Y", "54-"), ("CBE", "2Y", "54+")]
        )
        assert g == expected_g
        r1 = kb.valuations[0]
        back = project_relation(g, r1.domain)
        assert back == Relation.from_rows(universe, ("e", "f"), [("M", "Y"), ("CBE", "2Y")])
        assert back != r1
        verdict = check_global_agreement_adjoint(kb)
        assert not verdict.agrees and verdict.witness_index == 1
        assert not check_complete_disagreement(kb)


def test_criterion_3_malawi_csp():
    with criterion(3, 1.0, "Malawi: 28 locally agreeing pairs, complete disagreement, 243-coloring check"):
        kb = malawi_knowledgebase()
        members = list(kb)
        pairs = list(combinations(range(len(members)), 2))
        assert len(pairs) == 28
        algebra = RelationAlgebra(kb.universe)
        for i, j in pairs:
            overlap = members[i].domain & members[j].domain
            assert algebra.project(members[i], overlap) == algebra.project(members[j], overlap)
        assert not check_global_agreement_adjoint(kb).agrees
        assert check_complete_disagreement(kb)
        gamma = solve_fusion(InferenceProblem(kb, kb.joint_domain))
        assert gamma.is_empty()
        # Independent brute force over all 3^5 colorings against the edge list.
        solutions = [
            combo
            for combo in product(MALAWI_COLORS, repeat=len(MALAWI_COUNTRIES))
            if all(
                combo[MALAWI_COUNTRIES.index(a)] != combo[MALAWI_COUNTRIES.index(b)]
                for a, b in MALAWI_EDGES
            )
        ]
        assert len(list(product(MALAWI_COLORS, repeat=5))) == 243
        assert solutions == []


def test_criterion_4_liar_cycles():
    with criterion(4, 1.0, "Liar cycles n=2..10: local pass + complete; modified cycle agrees"):
        for n in range(2, 11):
            kb = liar_knowledgebase(n)
            assert check_complete_disagreement(kb), f"n={n} should disagree completely"
            gamma = solve_fusion(InferenceProblem(kb, kb.joint_domain))
            assert gamma.is_empty()
            local = check_local_agreement(kb)
            assert local.agrees, (
                f"n={n}: local agreement fails on pair {local.pair}; for n=2 the two "
                "formulas share the whole domain and contradict each other (see ledger)"
            )
        for n in range(2, 11):
            kb = liar_knowledgebase(n, consistent=True)
            verdict = check_global_agreement_adjoint(kb)
            assert verdict.agrees
            constants = {("0",) * n, ("1",) * n}
            assert verdict.truth.tuples == constants


def test_criterion_5_hierarchy_on_builtins():
    with criterion(5, 5.0, "Hierarchy: Bell PC only, Hardy LC not SC, GHZ and PR-box SC"):
        expectations = {
            "bell": (bell_model(), "PC"),
            "hardy": (hardy_model(), "LC"),
            "ghz": (ghz_model(), "SC"),
            "pr-box": (pr_box_model(), "SC"),
        }
        for name, (model, expected_class) in expectations.items():
            report = classify(model)
            assert report.classification == expected_class, name
            strongly, logically, _ = brute_force_possibilistic(model)
            assert report.strongly_contextual == strongly, name
            assert report.logically_contextual == logically, name
            if report.probabilistically_contextual:
                system = marginal_system(model.knowledgebase())
                assert validate_certificate(system, report.feasibility.certificate), name
            # The hierarchy is respected.
            if report.strongly_contextual:
                assert report.logically_contextual
            if report.logically_contextual and report.probabilistically_contextual is not None:
                assert report.probabilistically_contextual


def test_criterion_6_axiom_suites():
    with criterion(6, 30.0, "Axioms: relations A1-A13 + ADJ, potentials A1-A8 + A9 counterexample, ADJ x200"):
        universe = VariableUniverse.of(
            [("p", ("0", "1", "2")), ("q", ("0", "1", "2")), ("r", ("0", "1")), ("s", ("0", "1"))]
        )
        rng = random.Random(2024)
        relations = []
        for _ in range(10):
            names = sorted(universe.vars)
            domain = frozenset(rng.sample(names, rng.randint(1, 3)))
            rows = [row for row in universe.rows(domain) if rng.random() < 0.6]
            relations.append(Relation.from_rows(universe, sorted(domain), rows))
        relation_results = axiom_suite(RelationAlgebra(universe), relations)
        assert [r.axiom for r in relation_results] == [
            "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11", "A12", "A13", "ADJ"
        ]
        for result in relation_results:
            assert result.passed, f"{result.axiom}: {result.counterexample}"

        from conftest import random_potential

        potentials = [random_potential(rng, universe) for _ in range(10)]
        algebra = PotentialAlgebra(universe)
        potential_results = axiom_suite(algebra, potentials)
        assert [r.axiom for r in potential_results] == ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"]
        for result in potential_results:
            assert result.passed, f"{result.axiom}: {result.counterexample}"
        a9 = axiom_suite(algebra, potentials, axioms=("A9",))[0]
        assert not a9.passed
        assert a9.counterexample is not None  # the stored counterexample

        samples = []
        for _ in range(200):
            names = sorted(universe.vars)
            domain = frozenset(rng.sample(names, rng.randint(2, 3)))
            rows = [row for row in universe.rows(domain) if rng.random() < 0.6]
            samples.append(Relation.from_rows(universe, sorted(domain), rows))
        (report,) = axiom_suite(RelationAlgebra(universe), samples, axioms=("ADJ",))
        assert report.passed, report.counterexample
        assert report.cases >= 200


def test_criterion_7_inference_oracle_equivalence():
    with criterion(7, 60.0, "Fusion = naive on 500 random knowledgebases under 5 orders each"):
        from conftest import random_potential_kb, random_relation_kb

        rng = random.Random(777)
        for index in range(500):
            kb = random_relation_kb(rng) if index % 2 == 0 else random_potential_kb(rng)
            names = sorted(kb.joint_domain)
            query = frozenset(rng.sample(names, rng.randint(0, len(names))))
            problem = InferenceProblem(kb, query)
            expected = solve_naive(problem)
            assert solve_fusion(problem) == expected
            elim = sorted(kb.joint_domain - query)
            for _ in range(4):
                rng.shuffle(elim)
                assert solve_fusion(problem, order=tuple(elim)) == expected


def _random_adjoint_kb(rng):
    shapes = [
        [("p", 2), ("q", 2), ("r", 2), ("s", 2)],
        [("p", 2), ("q", 2), ("r", 4)],
        [("p", 4), ("q", 4)],
        [("p", 2), ("q", 2), ("r", 2)],
    ]
    shape = rng.choice(shapes)
    universe = VariableUniverse.of([(n, tuple(str(i) for i in range(k))) for n, k in shape])
    names = sorted(universe.vars)
    members = []
    if rng.random() < 0.5:
        # Projection families of one global relation agree globally by construction.
        base_rows = [row for row in universe.rows(universe.vars) if rng.random() < 0.5]
        base = Relation.from_rows(universe, names, base_rows)
        count = rng.randint(2, 4)
        for _ in range(count):
            domain = frozenset(rng.sample(names, rng.randint(1, len(names))))
            members.append(project_relation(base, domain))
        if all(m.domain != universe.vars for m in members):
            members.append(base)
    else:
        for _ in range(rng.randint(2, 4)):
            domain = frozenset(rng.sample(names, rng.randint(1, len(names))))
            rows = [row for row in universe.rows(domain) if rng.random() < 0.55]
            members.append(Relation.from_rows(universe, sorted(domain), rows))
    return Knowledgebase(universe, tuple(members))


def test_criterion_8_truth_proposition_both_directions():
    with criterion(8, 60.0, "Truth valuation: fusion verdict = exhaustive search, maximality, x200"):
        rng = random.Random(4242)
        agreements = disagreements = 0
        for _ in range(200):
            kb = _random_adjoint_kb(rng)
            assert kb.universe.size(kb.joint_domain) <= 16
            verdict = check_global_agreement_adjoint(kb)
            found = search_truth_valuations(kb, state_limit=16)
            assert verdict.agrees == bool(found)
            if verdict.agrees:
                agreements += 1
                for delta in found:
                    assert relation_leq(delta, verdict.truth)
            else:
                disagreements += 1
        assert agreements >= 20 and disagreements >= 20


def _random_two_context_model(rng):
    k = rng.randint(2, 4)
    names = [f"m{i}" for i in range(k)]
    universe = VariableUniverse.of([(n, ("0", "1")) for n in names])
    while True:
        c1 = sorted(rng.sample(names, rng.randint(1, k - 1)))
        c2 = sorted(rng.sample(names, rng.randint(1, k - 1)))
        covered = set(c1) | set(c2)
        if covered == set(names) and not set(c1) <= set(c2) and not set(c2) <= set(c1):
            break
    idx = {n: i for i, n in enumerate(names)}
    points = list(product(("0", "1"), repeat=k))
    weights = [Fraction(rng.randint(0, 5)) for _ in points]
    total = sum(weights)
    if total == 0:
        weights[0] = Fraction(1)
        total = Fraction(1)
    dist = {p: w / total for p, w in zip(points, weights)}
    sections = {}
    for ctx in (tuple(c1), tuple(c2)):
        block = {}
        for p, w in dist.items():
            key = tuple(p[idx[m]] for m in ctx)
            block[key] = block.get(key, Fraction(0)) + w
        sections[ctx] = block
    model = probabilistic_model(universe, [tuple(c1), tuple(c2)], sections)
    return model, dist, names


def test_criterion_9_theorem_equivalence_two_contexts():
    with criterion(9, 60.0, "Feasibility verdict + exact certificate re-validation on 100 models"):
        rng = random.Random(99)
        for _ in range(100):
            model, dist, names = _random_two_context_model(rng)
            assert check_no_signalling(model).passed
            verdict = check_global_agreement_potentials(model.knowledgebase())
            # Two overlapping contexts always extend, so the verdict must be
            # agreement; re-validate the produced distribution exactly.
            assert verdict.agrees
            gamma = verdict.truth
            assert sum(gamma.table.values()) == 1
            idx = {n: i for i, n in enumerate(sorted(names))}
            for ctx, section in zip(model.scenario.contexts, model.sections):
                marginal = {}
                for g, w in gamma.table.items():
                    key = tuple(g[idx[m]] for m in ctx)
                    marginal[key] = marginal.get(key, Fraction(0)) + w
                for point, value in section.table.items():
                    assert marginal.get(values_in(point, ctx), Fraction(0)) == value
            report = classify(model)
            assert report.probabilistically_contextual is False
        # The infeasible side of the certificate contract, on the known pair.
        for model in (bell_model(), pr_box_model()):
            verdict = check_global_agreement_potentials(model.knowledgebase())
            assert not verdict.agrees
            assert validate_certificate(marginal_system(model.knowledgebase()), verdict.certificate)


def _run_cli(*args):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(list(args))
    return code, out.getvalue()


def test_criterion_10_cli_determinism_and_verify(tmp_path):
    with criterion(10, 5.0, "CLI: byte-identical --json runs and verify on every builtin"):
        builtins = ("bell", "hardy", "ghz", "pr-box", "liar(3)", "malawi", "screening")
        for name in builtins:
            code1, out1 = _run_cli("analyze", f"builtin:{name}", "--json")
            code2, out2 = _run_cli("analyze", f"builtin:{name}", "--json")
            assert code1 == code2 == 0
            assert out1 == out2, f"non-deterministic report for {name}"
            json.loads(out1)  # well-formed
            path = tmp_path / f"{name.replace('(', '_').replace(')', '')}.json"
            path.write_text(out1, encoding="utf-8")
            code, out = _run_cli("verify", str(path), f"builtin:{name}")
            assert code == 0, f"verify failed for {name}: {out}"
