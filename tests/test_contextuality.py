import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from valkit.builtins import bell_model, ghz_model, hardy_model, pr_box_model
from valkit.contextuality import (
    POSSIBILISTIC,
    EmpiricalModel,
    MeasurementScenario,
    check_no_signalling,
    classify,
    gamma,
    possibilistic_model,
    probabilistic_model,
)
from valkit.core import Assignment, Domain, Record, VariableUniverse
from valkit.disagreement import combination_verdict, tree_verdict
from valkit.errors import ArgumentError, PreconditionError, SignallingError
from valkit.inference import InferenceProblem, JoinTree, calibrate, solve_naive
from valkit.relations import Row, project_relation

from conftest import cycle_model, noisy_cycle_correlators, values_in


# Independent oracle: scan all global outcome assignments with plain dicts,
# reading supports straight off the sections: a possibilistic section's
# tuples, or the nonzero rows of a probabilistic section's table.
def possibilistic_oracle(model):
    universe = model.scenario.universe
    names = sorted(universe.vars)
    frames = [universe.frame(n).values for n in names]
    supports = {}
    for ctx, section in zip(model.scenario.contexts, model.sections):
        if model.kind == POSSIBILISTIC:
            rows = section.tuples
        else:
            rows = {row for row, v in section.table.items() if v != section.semiring.zero}
        supports[ctx] = {values_in(row, ctx) for row in rows}
    compatible = []
    for combo in product(*frames):
        g = dict(zip(names, combo))
        if all(tuple(g[m] for m in ctx) in block for ctx, block in supports.items()):
            compatible.append(g)
    strongly = not compatible
    logically = False
    for ctx, block in supports.items():
        extendable = {tuple(g[m] for m in ctx) for g in compatible}
        if block - extendable:
            logically = True
    return strongly, logically, compatible


def support_model(model):
    """The possibilistic model whose sections are the supports of `model`'s."""
    return EmpiricalModel(model.scenario, POSSIBILISTIC, tuple(model.support_knowledgebase()))


def test_bell_no_signalling_passes():
    assert check_no_signalling(bell_model()).passed


def test_single_context_model_trivially_passes():
    universe = VariableUniverse.of([("m", ("0", "1"))])
    model = probabilistic_model(universe, [("m",)], {("m",): {("0",): Fraction(1, 3), ("1",): Fraction(2, 3)}})
    assert check_no_signalling(model).passed


def test_signalling_detected_on_tampered_bell():
    model = bell_model()
    universe = model.scenario.universe
    contexts = list(model.scenario.contexts)
    sections = {}
    for ctx, section in zip(contexts, model.sections):
        sections[ctx] = {
            values_in(row, ctx): section.table[row] for row in section.table
        }
    # Replace the (a1, b1) row with (1, 0, 0, 0): the a1-marginal becomes (1, 0).
    sections[("a1", "b1")] = {("0", "0"): Fraction(1)}
    tampered = probabilistic_model(universe, contexts, sections)
    verdict = check_no_signalling(tampered)
    assert not verdict.passed
    assert frozenset({"a1"}) == verdict.overlap or frozenset({"b1"}) == verdict.overlap
    left, right = verdict.marginals
    assert left != right
    with pytest.raises(PreconditionError):
        classify(tampered)
    with pytest.raises(PreconditionError):
        gamma(support_model(tampered))


def test_a_signalling_model_raises_with_its_verdict():
    # classify and gamma share one no-signalling check, whose error carries
    # the failed verdict under the message it has always had.
    model = bell_model()
    contexts = list(model.scenario.contexts)
    sections = {ctx: {values_in(row, ctx): s.table[row] for row in s.table} for ctx, s in zip(contexts, model.sections)}
    sections[("a1", "b1")] = {("0", "0"): Fraction(1)}
    tampered = probabilistic_model(model.scenario.universe, contexts, sections)
    verdict = check_no_signalling(tampered)
    for analysis in (classify, gamma):
        with pytest.raises(SignallingError) as raised:
            analysis(tampered)
        assert raised.value.verdict == verdict
        assert isinstance(raised.value, PreconditionError)
        assert str(raised.value) == "model signals between contexts ('a1', 'b1') and ('a1', 'b2')"


def test_bell_classification_is_pc_only():
    report = classify(bell_model())
    assert report.classification == "PC"
    assert report.probabilistically_contextual
    assert not report.logically_contextual
    assert not report.strongly_contextual
    strongly, logically, compatible = possibilistic_oracle(bell_model())
    assert not strongly and not logically
    assert len(compatible) == 16 // 2  # a1 = b1 halves the global space
    assert len(report.gamma.tuples) == 8


def test_hardy_is_logically_but_not_strongly_contextual():
    report = classify(hardy_model())
    assert report.classification == "LC"
    strongly, logically, compatible = possibilistic_oracle(hardy_model())
    assert logically and not strongly
    assert not report.strongly_contextual
    assert report.logically_contextual
    assert report.probabilistically_contextual is None  # possibilistic input
    ctx, section = report.lc_witness
    assert ctx == ("a1", "b1")
    assert section == Assignment.of({"a1": "0", "b1": "0"})


def test_ghz_and_pr_box_are_strongly_contextual():
    for model in (ghz_model(), pr_box_model()):
        report = classify(model)
        assert report.classification == "SC"
        assert report.strongly_contextual
        assert report.logically_contextual
        assert report.probabilistically_contextual
        strongly, logically, _ = possibilistic_oracle(model)
        assert strongly and logically
        assert report.gamma.is_empty()


def test_classification_matches_oracle_on_all_builtins():
    for model in (bell_model(), hardy_model(), ghz_model(), pr_box_model()):
        report = classify(model)
        strongly, logically, compatible = possibilistic_oracle(model)
        assert report.strongly_contextual == strongly
        assert report.logically_contextual == logically
        got = set(report.gamma.tuples)
        expected = {
            tuple(g[m] for m in sorted(model.scenario.universe.vars)) for g in compatible
        }
        assert got == expected


def test_hierarchy_holds_on_builtins_and_samples():
    for model in (bell_model(), hardy_model(), ghz_model(), pr_box_model()):
        report = classify(model)
        if report.strongly_contextual:
            assert report.logically_contextual
        if report.logically_contextual and report.probabilistically_contextual is not None:
            assert report.probabilistically_contextual


def test_sc_equivalent_to_single_null_inference_problem():
    # One projection of the combination detects strong contextuality.
    from valkit.inference import InferenceProblem, solve_fusion

    for model in (ghz_model(), pr_box_model(), hardy_model()):
        kb = model.support_knowledgebase()
        first = kb.valuations[0]
        projected = solve_fusion(InferenceProblem(kb, first.domain))
        report = classify(model)
        assert projected.is_empty() == report.strongly_contextual


def context_projections(model):
    """Each context's projection of Gamma, read off the calibrated support tree."""
    return dict(zip(model.scenario.contexts, calibrate(model.support_knowledgebase()).marginals()))


def test_lc_at_hardy_distinguished_section():
    # A model is LC at a supported section that extends to no globally
    # consistent assignment: Hardy's is (a1, b1) = (0, 0).
    model = hardy_model()
    section = Assignment.of({"a1": "0", "b1": "0"})
    assert classify(model).lc_witness == (("a1", "b1"), section)
    assert section.row not in context_projections(model)[("a1", "b1")].tuples
    # Every supported section of a non-contextual collapse extends.
    bell = bell_model()
    assert classify(bell).lc_witness is None
    projections = context_projections(bell)
    for ctx, support in zip(bell.scenario.contexts, bell.support_knowledgebase()):
        assert projections[ctx] == support


def test_lc_at_everywhere_on_ghz():
    # GHZ is LC at every supported section: no context's support projects
    # anything of Gamma.
    model = ghz_model()
    assert classify(model).lc_witness[0] == model.scenario.contexts[0]
    assert all(projection.is_empty() for projection in context_projections(model).values())


# The support presheaf of a model, checked on the subsets beneath each context.
# No verdict, report or verify step uses it, so it lives here with its tests.
class FlasqueReport(Record):
    passed: bool
    empty_context: tuple[str, ...] | None = None
    failure: tuple[tuple[str, ...], tuple[str, ...]] | None = None  # (U, U') with a non-surjective restriction
    note: str = "compatible families glue into the combination by construction"


def flasque_check(model: EmpiricalModel) -> FlasqueReport:
    """Support presheaf sanity: nonempty contexts and surjective restrictions beneath them.

    The value on a set beneath the cover is the union of the projections of
    the covering contexts' supports.
    """
    supports = dict(zip(model.scenario.contexts, model.support_knowledgebase()))
    for ctx, support in supports.items():
        if support.is_empty():
            return FlasqueReport(False, empty_context=ctx)

    def beneath(u: Domain) -> frozenset[Row]:
        sections = set()
        for ctx, support in supports.items():
            if u <= frozenset(ctx):
                sections.update(project_relation(support, u).tuples)
        return frozenset(sections)

    for ctx, support in supports.items():
        names = tuple(ctx)
        subsets = []
        for size in range(len(names) + 1):
            subsets.extend(frozenset(c) for c in combinations(names, size))
        for u_prime in subsets:
            restricted = project_relation(support, u_prime)
            for u in subsets:
                if not u <= u_prime:
                    continue
                if project_relation(restricted, u).tuples != beneath(u):
                    return FlasqueReport(False, failure=(tuple(sorted(u)), tuple(sorted(u_prime))))
    return FlasqueReport(True)


def test_flasque_check_passes_on_collapses_and_ghz():
    for model in (bell_model(), hardy_model(), ghz_model(), pr_box_model()):
        report = flasque_check(model)
        assert report.passed, (report.failure, report.empty_context)


def test_flasque_fails_on_non_surjective_support():
    universe = VariableUniverse.of([("x", ("0", "1")), ("y", ("0", "1")), ("z", ("0", "1"))])
    # Context (x, y) projects x to {0, 1} but context (x, z) only reaches x = 0.
    model = possibilistic_model(
        universe,
        [("x", "y"), ("x", "z")],
        {
            ("x", "y"): [("0", "0"), ("1", "1")],
            ("x", "z"): [("0", "0"), ("0", "1")],
        },
    )
    report = flasque_check(model)
    assert not report.passed
    assert report.failure is not None


def test_scenario_validation():
    universe = VariableUniverse.of([("a", ("0", "1")), ("b", ("0", "1"))])
    with pytest.raises(ArgumentError):
        MeasurementScenario(universe, ())  # no contexts
    with pytest.raises(ArgumentError):
        MeasurementScenario(universe, (("a", "b"), ("a",)))  # nested contexts
    with pytest.raises(ArgumentError):
        MeasurementScenario(universe, (("a",),))  # b outside every context
    with pytest.raises(ArgumentError):
        MeasurementScenario(universe, (("a", "a"), ("b",)))  # repeated measurement


def test_model_validation():
    universe = VariableUniverse.of([("a", ("0", "1"))])
    with pytest.raises(ArgumentError):
        probabilistic_model(universe, [("a",)], {("a",): {("0",): Fraction(1, 2)}})  # sums to 1/2
    with pytest.raises(ArgumentError):
        possibilistic_model(universe, [("a",)], {("a",): []})  # empty support


def test_classification_invariant_under_context_reordering():
    model = bell_model()
    universe = model.scenario.universe
    contexts = list(model.scenario.contexts)
    sections = {
        ctx: {values_in(row, ctx): v for row, v in section.table.items()}
        for ctx, section in zip(contexts, model.sections)
    }
    reordered = probabilistic_model(universe, list(reversed(contexts)), sections)
    assert classify(reordered).classification == classify(model).classification


def test_gamma_requires_possibilistic_or_collapses():
    # Gamma of the probabilistic Bell model, whose supports are taken
    # internally, equals Gamma of the possibilistic model listing those
    # supports by hand.
    model = bell_model()
    full = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    supports = {ctx: full for ctx in model.scenario.contexts}
    supports[("a1", "b1")] = [("0", "0"), ("1", "1")]
    listed = possibilistic_model(model.scenario.universe, list(model.scenario.contexts), supports)
    assert gamma(listed) == gamma(model)


def test_gamma_answers_where_classify_does():
    # A probabilistic model's supports are calibrated after its marginal
    # system has enumerated every joint row, so a cell limit of 2 refuses
    # neither classify nor gamma on Bell's model.
    report = classify(bell_model(), 2)
    assert len(report.gamma.tuples) == 8
    assert gamma(bell_model(), 2) == report.gamma


def test_gamma_is_classifys_gamma():
    models = [bell_model(), hardy_model(), ghz_model(), pr_box_model()]
    models += [cycle_model(noisy_cycle_correlators(n, side)) for n in (3, 4, 5, 6) for side in (False, True)]
    rng = random.Random(2011)
    models += [random_no_signalling_possibilistic(rng) for _ in range(150)]
    for model in models:
        assert gamma(model) == classify(model).gamma, model


# The per-context loop classify ran before it read LC and SC off the global
# verdict of the support knowledgebase, kept here as an oracle. Gamma comes
# from the naive solver and is returned beside the verdicts.
def lc_loop_oracle(model):
    supports = model.support_knowledgebase()
    g = solve_naive(InferenceProblem(supports, supports.joint_domain))
    strongly = g.is_empty()
    sc_context = model.scenario.contexts[0] if strongly else None
    for ctx, support in zip(model.scenario.contexts, supports):
        covered = project_relation(g, frozenset(ctx))
        missing = sorted(support.tuples - covered.tuples)
        if missing:
            return (True, (ctx, Assignment.from_row(support.domain, missing[0])), strongly, sc_context), g
    return (False, None, strongly, sc_context), g


def random_no_signalling_possibilistic(rng):
    """A random possibilistic model on an n-cycle or a bipartite Bell cover.

    Each measurement m keeps a nonempty set V_m of its outcomes, and each
    context's support is a random subset of the product of those sets that
    still hits every outcome in V_m for each of its measurements, so every
    overlap (a single measurement) sees V_m from both sides. Half of the
    binary cycles favour one parity per context, PR-box style, so that
    strongly contextual models occur too.
    """
    if rng.random() < 0.5:
        n = rng.randint(3, 5)
        names = [f"m{i}" for i in range(n)]
        contexts = [(names[i], names[(i + 1) % n]) for i in range(n)]
        parity = rng.random() < 0.5
    else:
        k = rng.randint(2, 3)
        names = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]
        contexts = [(f"a{i}", f"b{j}") for i in range(k) for j in range(k)]
        parity = False
    frames = {name: ("0", "1", "2")[: 2 if parity else rng.randint(2, 3)] for name in names}
    kept = {name: frames[name] for name in names}
    if not parity:
        kept = {name: rng.sample(frame, rng.randint(1, len(frame))) for name, frame in kept.items()}
    universe = VariableUniverse.of([(name, frames[name]) for name in names])
    supports = {}
    for x, y in contexts:
        cells = list(product(kept[x], kept[y]))
        odd = rng.random() < 0.5
        while True:
            if parity:
                chosen = [c for c in cells if rng.random() < (0.9 if (c[0] != c[1]) == odd else 0.15)]
            else:
                chosen = [c for c in cells if rng.random() < 0.5]
            if {a for a, _ in chosen} == set(kept[x]) and {b for _, b in chosen} == set(kept[y]):
                break
        supports[(x, y)] = chosen
    return possibilistic_model(universe, contexts, supports)


def test_lc_and_sc_read_off_the_global_verdict_match_the_per_context_loop():
    models = [bell_model(), hardy_model(), ghz_model(), pr_box_model()]
    models += [cycle_model(noisy_cycle_correlators(n, side)) for n in (3, 4, 5, 6) for side in (False, True)]
    rng = random.Random(2011)
    models += [random_no_signalling_possibilistic(rng) for _ in range(150)]
    seen = set()
    late_witness = 0
    for model in models:
        report = classify(model)
        expected, naive_gamma = lc_loop_oracle(model)
        got = (report.logically_contextual, report.lc_witness, report.strongly_contextual, report.sc_context)
        assert got == expected
        assert report.gamma == naive_gamma
        supports = model.support_knowledgebase()
        assert tree_verdict(calibrate(supports)) == combination_verdict(supports, naive_gamma)
        seen.add((report.classification, model.kind))
        if report.lc_witness is not None:
            late_witness += report.lc_witness[0] != model.scenario.contexts[0]
    assert {("NC", "possibilistic"), ("LC", "possibilistic"), ("SC", "possibilistic")} <= seen, seen
    assert {("NC", "probabilistic"), ("PC", "probabilistic")} <= seen, seen
    assert late_witness > 0


def test_lc_at_matches_the_projection_of_gamma():
    # A section is LC when it lies outside its context's projection of Gamma.
    # The calibrated support tree gives every context's projection at once;
    # the reference projects the whole of classify's Gamma onto the context.
    # The witness is the first context with such a section, and its least one.
    rng = random.Random(2011)
    contextual = 0
    for _ in range(150):
        model = random_no_signalling_possibilistic(rng)
        report = classify(model)
        projections = context_projections(model)
        witness = None
        for ctx, support in zip(model.scenario.contexts, model.sections):
            covered = project_relation(report.gamma, frozenset(ctx))
            assert projections[ctx] == covered, (model, ctx)
            missing = sorted(support.tuples - covered.tuples)
            if missing and witness is None:
                witness = (ctx, Assignment.from_row(support.domain, missing[0]))
            contextual += len(missing)
        assert report.lc_witness == witness
    assert contextual > 0


def test_lc_at_never_joins_gamma(monkeypatch):
    # Whether a section is LC comes off the calibrated tree's context
    # projections, without joining Gamma.
    def refuse(tree):
        raise AssertionError("Gamma was joined")

    monkeypatch.setattr(JoinTree, "combination", refuse)
    hardy = context_projections(hardy_model())[("a1", "b1")]
    assert ("0", "0") not in hardy.tuples and ("1", "1") in hardy.tuples
    assert all(projection.is_empty() for projection in context_projections(ghz_model()).values())


def test_models_from_global_distributions_are_never_pc():
    # Marginalizing an actual distribution always leaves a feasible system,
    # whatever the cover looks like. Ring covers of adjacent pairs (plus a
    # random chord) are antichains and touch every measurement.
    import random

    rng = random.Random(71)
    for _ in range(10):
        k = rng.randint(3, 5)
        names = [f"m{i}" for i in range(k)]
        ring = list(names)
        rng.shuffle(ring)
        contexts = [tuple(sorted((ring[i], ring[(i + 1) % k]))) for i in range(k)]
        chord = tuple(sorted(rng.sample(names, 2)))
        if chord not in contexts:
            contexts.append(chord)
        universe = VariableUniverse.of([(n, ("0", "1")) for n in names])
        idx = {n: i for i, n in enumerate(names)}
        points = list(product(*[("0", "1")] * k))
        weights = [Fraction(rng.randint(0, 4)) for _ in points]
        if sum(weights) == 0:
            weights[0] = Fraction(1)
        total = sum(weights)
        dist = {p: w / total for p, w in zip(points, weights)}
        sections = {}
        for ctx in contexts:
            block = {}
            for p, w in dist.items():
                key = tuple(p[idx[m]] for m in ctx)
                block[key] = block.get(key, Fraction(0)) + w
            sections[ctx] = block
        model = probabilistic_model(universe, contexts, sections)
        report = classify(model)
        assert report.probabilistically_contextual is False
        assert report.classification == "NC"


# Closed form for the n-cycle with unbiased marginals (Araujo et al. 2013,
# "All noncontextuality inequalities for the n-cycle scenario", PRA 88,
# 022118): the model is contextual exactly when some sign vector with an odd
# number of -1s gives sum s_i E_i > n - 2.
def araujo_contextual(correlators):
    n = len(correlators)
    return any(
        sum(s * e for s, e in zip(signs, correlators)) > n - 2
        for signs in product((1, -1), repeat=n)
        if signs.count(-1) % 2 == 1
    )


def near_boundary_correlators(rng, n):
    """Signed rationals with denominators up to 12 whose magnitudes sit near (n-2)/n."""
    boundary = Fraction(n - 2, n)
    correlators = []
    for _ in range(n):
        while True:
            d = rng.randint(3, 12)
            e = Fraction(rng.randint(1, d - 1), d)
            if abs(e - boundary) <= Fraction(1, 4):
                break
        correlators.append(rng.choice((1, -1)) * e)
    return correlators


@pytest.mark.parametrize("n", range(3, 9))
def test_n_cycle_verdicts_match_araujo_closed_form(n):
    rng = random.Random(2013 + n)
    cases = [noisy_cycle_correlators(n, False), noisy_cycle_correlators(n, True)]
    wanted = {False: 2, True: 2}
    while any(wanted.values()):
        correlators = near_boundary_correlators(rng, n)
        side = araujo_contextual(correlators)
        if wanted[side]:
            wanted[side] -= 1
            cases.append(correlators)
    for correlators in cases:
        report = classify(cycle_model(correlators))
        assert report.probabilistically_contextual == araujo_contextual(correlators), correlators
