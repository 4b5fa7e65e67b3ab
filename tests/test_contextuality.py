import random
import time
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
from valkit.disagreement import combination_verdict, support_knowledgebase, tree_verdict
from valkit.errors import ArgumentError, PreconditionError, ResourceLimitError, SignallingError
from valkit.inference import InferenceProblem, JoinTree, calibrate, solve_naive
from valkit.potentials import support_relation
from valkit.relations import Row, project_relation

from conftest import (
    cycle_model,
    full_cycle_model,
    noisy_cycle_correlators,
    random_no_signalling_possibilistic,
    values_in,
)


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
            rows = {row for row, v in section.table.items() if v != 0}
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
    return EmpiricalModel(model.scenario, tuple(model.support_knowledgebase()))


@pytest.mark.parametrize(
    "factory, kind",
    [(bell_model, "probabilistic"), (ghz_model, "probabilistic"), (pr_box_model, "probabilistic"), (hardy_model, "possibilistic")],
)
def test_a_model_keeps_one_knowledgebase_and_reads_its_kind_off_its_sections(factory, kind):
    model = factory()
    assert model.knowledgebase() is model.knowledgebase()
    assert model.knowledgebase().valuations == model.sections
    assert model.kind == kind
    assert "_kb" not in repr(model) and model == factory() and hash(model) == hash(factory())


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


def test_the_antichain_check_names_the_first_nested_pair():
    # The check compares each context only with the contexts that hold its
    # first measurement; the scan over every ordered pair names the same pair.
    rng = random.Random(1234)
    names = ["a", "b", "c", "d"]
    universe = VariableUniverse.of([(name, ("0", "1")) for name in names])
    refused = 0
    for _ in range(400):
        contexts = [tuple(rng.sample(names, rng.randint(1, 3))) for _ in range(rng.randint(1, 5))]
        contexts.append(tuple(name for name in names if all(name not in ctx for ctx in contexts)) or contexts[0])
        sets = [frozenset(ctx) for ctx in contexts]
        nested = [(i, j) for i in range(len(sets)) for j in range(len(sets)) if i != j and sets[i] <= sets[j]]
        if not nested:
            MeasurementScenario(universe, tuple(contexts))
            continue
        refused += 1
        i, j = nested[0]
        with pytest.raises(ArgumentError) as err:
            MeasurementScenario(universe, tuple(contexts))
        assert str(err.value) == (
            f"cover must be an antichain; context {contexts[i]!r} is contained in {contexts[j]!r}"
        )
    assert 50 < refused < 400, refused


def test_20000_context_cycles_and_stars_are_checked_in_linear_time():
    # A star's hub is in every context, so each context is compared only
    # with those that hold its own leaf.
    names = [f"m{i:05d}" for i in range(20_000)]
    universe = VariableUniverse.of([(name, ("0", "1")) for name in names])
    cycle = tuple((names[i], names[(i + 1) % len(names)]) for i in range(len(names)))
    star = tuple((names[0], name) for name in names[1:])
    for contexts in (cycle, star):
        start = time.perf_counter()
        MeasurementScenario(universe, contexts)
        assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "kind, section, on_empty",
    [
        ("probabilistic", {("0",): Fraction(1, 2)}, "Potential[∅|nonneg-rational]{(*)->1/2}"),
        ("probabilistic", {("0",): 0}, "Potential[∅|nonneg-rational]{}"),
        ("possibilistic", [], "Relation[∅]{}"),
    ],
    ids=["sums-to-half", "only-zero-listed", "empty-support"],
)
def test_model_validation(kind, section, on_empty):
    # One rule refuses a section of either kind: its projection onto ∅ must be the neutral element.
    universe = VariableUniverse.of([("a", ("0", "1")), ("b", ("0", "1"))])
    contexts = [("a",), ("b",)]
    with pytest.raises(ArgumentError) as refused:
        if kind == "probabilistic":
            probabilistic_model(universe, contexts, {("a",): {("0",): 1}, ("b",): section})
        else:
            possibilistic_model(universe, contexts, {("a",): [("0",)], ("b",): section})
    assert str(refused.value) == f"section over ('b',) projects onto ∅ as {on_empty}, not the neutral element"


def test_a_relation_knowledgebase_is_its_own_support_knowledgebase():
    hardy = hardy_model()
    assert support_knowledgebase(hardy.knowledgebase()) is hardy.knowledgebase()
    assert hardy.support_knowledgebase() is hardy.knowledgebase()
    bell = bell_model()
    for ctx, section in zip(bell.scenario.contexts, bell.sections):
        assert bell.support_for(ctx) == support_relation(section)


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


def test_a_gamma_past_the_cap_is_counted_not_joined(monkeypatch):
    # The possibilistic 24-cycle with full supports is NC, and its Gamma has
    # 2^24 tuples. classify counts them on the calibrated tree and joins
    # none, under a limit of 4096; gamma refuses them from the count. A
    # 13-cycle's 8192 tuples are past TUPLE_CAP but inside a limit of 8192,
    # so gamma joins them.
    def refuse(tree, cell_limit=None):
        raise AssertionError("Gamma was joined")

    with monkeypatch.context() as patch:
        patch.setattr(JoinTree, "combination", refuse)
        report = classify(full_cycle_model(24), 4096)
        assert report.classification == "NC"
        assert isinstance(report.gamma, JoinTree) and report.gamma.size == 2**24
        assert classify(full_cycle_model(13), 8192).gamma.size == 8192
    with pytest.raises(ResourceLimitError, match="Gamma has 16777216 tuples \\(limit 4096\\)"):
        gamma(full_cycle_model(24), 4096)
    assert len(gamma(full_cycle_model(13), 8192).tuples) == 8192


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
