"""verify's witness checks, each seen to fire, and the one entry point of a model analysis.

Each witness test corrupts one witness in a copy of a re-derived analysis and
calls `_revalidate_witnesses` on it directly, as `verify_report` does once
the analysis reproduces; the unchanged analysis must raise no problem.
"""

import copy
from fractions import Fraction
from itertools import product

from valkit import contextuality, reports
from valkit.algebra import Knowledgebase
from valkit.builtins import bell_model, ghz_model, hardy_model, liar_knowledgebase, screening_knowledgebase
from valkit.core import Assignment, VariableUniverse
from valkit.documents import (
    ParsedInput,
    canonical_json,
    format_rational,
    model_document,
    parse_document_text,
    parse_signed_rational,
)
from valkit.feasibility import FarkasCertificate
from valkit.potentials import constant_potential
from valkit.inference import JoinTree
from valkit.relations import Relation, project_relation

from conftest import cycle_model, noisy_cycle_correlators, values_in


def model_input(model):
    return ParsedInput("empirical-model", model)


def kb_input(kb):
    return ParsedInput("knowledgebase", kb)


def tampered_bell():
    """Bell with the (a1, b1) section replaced by (1, 0, 0, 0): it signals on a1."""
    doc = model_document(bell_model())
    doc["sections"]["a1,b1"] = {"0,0": 1}
    return parse_document_text(canonical_json(doc)).payload


def problems_after(parsed, corrupt):
    """The problems verify finds in the re-derived analysis of `parsed` once `corrupt` has edited a copy."""
    analysis, verdict = reports.analysis_document(parsed, None)
    assert reports._revalidate_witnesses(analysis, parsed, verdict) == []
    corrupted = copy.deepcopy(analysis)
    corrupt(corrupted)
    assert corrupted != analysis
    return reports._revalidate_witnesses(corrupted, parsed, verdict)


def negate_certificate(rows):
    for row in rows:
        row["coefficient"] = format_rational(-parse_signed_rational(row["coefficient"], "certificate"))


def test_a_signalling_models_contexts_must_differ_on_the_overlap():
    def agreeing_contexts(analysis):
        assert analysis["no-signalling"]["contexts"] == ["a1,b1", "a1,b2"]
        analysis["no-signalling"]["contexts"] = ["a2,b1", "a2,b2"]
        analysis["no-signalling"]["overlap"] = ["a2"]

    problems = problems_after(model_input(tampered_bell()), agreeing_contexts)
    assert problems == ["reported local disagreement pair ('a2,b1', 'a2,b2') actually agrees"]


def test_a_knowledgebases_local_pair_must_differ_on_the_overlap():
    # Member 1 says a = 0 and member 2 says a = 1; members 2 and 3 agree on b.
    universe = VariableUniverse.of([(name, ("0", "1")) for name in "abc"])
    kb = Knowledgebase(
        universe,
        (
            Relation.from_rows(universe, ("a",), [("0",)]),
            Relation.from_rows(universe, ("a", "b"), [("1", "1")]),
            Relation.from_rows(universe, ("b", "c"), [("1", "1")]),
        ),
    )

    def agreeing_pair(analysis):
        assert analysis["local"]["pair"] == [1, 2]
        analysis["local"]["pair"] = [2, 3]
        analysis["local"]["overlap"] = ["b"]

    assert problems_after(kb_input(kb), agreeing_pair) == ["reported local disagreement pair (2, 3) actually agrees"]


def test_a_models_certificate_is_validated():
    def corrupt(analysis):
        negate_certificate(analysis["probabilistic"]["certificate"])

    assert problems_after(model_input(bell_model()), corrupt) == ["infeasibility certificate fails validation"]


def test_a_knowledgebases_certificate_is_validated():
    def corrupt(analysis):
        negate_certificate(analysis["global"]["certificate"])

    assert problems_after(kb_input(bell_model().knowledgebase()), corrupt) == [
        "infeasibility certificate fails validation"
    ]


def test_a_certificate_writes_a_row_only_for_each_nonzero_multiplier():
    certificate = FarkasCertificate((((1, ("0", "1")), Fraction(0)), ((1, ("1", "0")), Fraction(-3, 2))))
    rows = reports.certificate_doc(certificate, ("member", "assignment"), [(1, ["y", "x"])])
    assert rows == [{"member": 1, "assignment": "0,1", "coefficient": "-3/2"}]


def test_a_global_distribution_must_marginalize_to_every_context():
    def corrupt(analysis):
        analysis["probabilistic"]["global-distribution"] = {"0,0,0,0": 1}

    model = cycle_model(noisy_cycle_correlators(4, contextual=False))
    assert problems_after(model_input(model), corrupt) == [
        "global distribution does not marginalize to every context"
    ]


def test_an_lc_section_must_be_supported():
    model = hardy_model()
    ctx = ("a1", "b2")  # the witness is in (a1, b1), whose support is full
    support = model.support_for(ctx)
    frames = [model.scenario.universe.frame(name).values for name in ctx]
    unsupported = next(o for o in product(*frames) if Assignment.of(dict(zip(ctx, o))).row not in support.tuples)

    def corrupt(analysis):
        analysis["logical"]["witness"] = {"context": ",".join(ctx), "section": ",".join(unsupported)}

    assert problems_after(model_input(model), corrupt) == ["logical-contextuality witness is not a supported section"]


def test_an_lc_section_must_not_extend():
    def corrupt(analysis):
        gamma = analysis["gamma"]
        first = dict(zip(gamma["domain"], gamma["tuples"][0]))
        analysis["logical"]["witness"]["section"] = ",".join(first[name] for name in ("a1", "b1"))

    assert problems_after(model_input(hardy_model()), corrupt) == [
        "logical-contextuality witness extends to a global assignment"
    ]


def wide_hardy_model(extra: int):
    """`extra` free binary measurements, each a context of its own, then Hardy's supports: LC, Gamma times 2^extra."""
    hardy = hardy_model()
    free = [f"x{i:02d}" for i in range(extra)]
    entries = [(name, frame.values) for name, frame in hardy.scenario.universe.entries]
    universe = VariableUniverse.of(entries + [(name, ("0", "1")) for name in free])
    contexts = [(name,) for name in free] + list(hardy.scenario.contexts)
    supports = {ctx: [values_in(row, ctx) for row in hardy.support_for(ctx).tuples] for ctx in hardy.scenario.contexts}
    supports.update({(name,): [("0",), ("1",)] for name in free})
    return contextuality.possibilistic_model(universe, contexts, supports)


def test_an_lc_section_must_not_extend_past_the_cap():
    # With 12 free bits Gamma has more than TUPLE_CAP tuples and is carried as
    # its tree; the check reads the witness context's projection off it.
    model = wide_hardy_model(12)
    assert isinstance(contextuality.classify(model).gamma, JoinTree)
    hardy_gamma = contextuality.classify(hardy_model()).gamma
    extending = values_in(project_relation(hardy_gamma, frozenset({"a1", "b1"})).sorted_tuples()[0], ("a1", "b1"))

    def corrupt(analysis):
        assert analysis["gamma"]["omitted"]
        analysis["logical"]["witness"]["section"] = ",".join(extending)

    assert problems_after(model_input(model), corrupt) == ["logical-contextuality witness extends to a global assignment"]


def test_strong_contextuality_needs_an_empty_gamma():
    def corrupt(analysis):
        analysis["gamma"]["size"] = 1

    assert problems_after(model_input(ghz_model()), corrupt) == ["strong contextuality claimed but gamma is nonempty"]


def test_a_relation_truth_must_project_onto_every_member():
    def corrupt(analysis):
        truth = analysis["global"]["truth"]
        truth["tuples"] = truth["tuples"][:1]

    problems = problems_after(kb_input(liar_knowledgebase(4, consistent=True)), corrupt)
    assert problems == [f"reported truth valuation does not project onto member {i}" for i in range(1, 5)]


def test_a_potential_truth_must_project_onto_every_member():
    model = bell_model()
    universe = model.scenario.universe
    uniform = tuple(
        constant_potential(universe, frozenset(ctx), Fraction(1, 4)) for ctx in model.scenario.contexts
    )

    def corrupt(analysis):
        values = analysis["global"]["truth"]["values"]
        values[next(key for key, value in values.items() if value != 0)] = 0

    problems = problems_after(kb_input(Knowledgebase(universe, uniform)), corrupt)
    assert problems and all(p.startswith("reported truth valuation does not project onto member") for p in problems)


def test_the_written_projection_must_differ_from_the_witness_member():
    def corrupt(analysis):
        analysis["global"]["projected"] = copy.deepcopy(analysis["global"]["member"])

    assert problems_after(kb_input(screening_knowledgebase()), corrupt) == [
        "reported witness member 1 is not unlike its projection of the combination"
    ]

    def omit_tuples(analysis):  # beyond TUPLE_CAP the projection is not listed, and there is nothing to compare
        projected = analysis["global"]["projected"]
        del projected["tuples"]
        projected["omitted"] = True

    assert problems_after(kb_input(screening_knowledgebase()), omit_tuples) == []


def test_the_written_projection_must_lie_inside_the_witness_member():
    # Gamma↓d(phi) ⪯ phi (law ADJ): a projection holding a tuple from outside
    # the member, or written over another domain, is refused without raising.
    outside = "reported projection of the combination does not lie inside witness member 1"

    def add_outside_tuple(analysis):
        projected = analysis["global"]["projected"]
        assert ["M", "2Y"] not in analysis["global"]["member"]["tuples"]
        projected["tuples"].append(["M", "2Y"])
        projected["size"] += 1

    def move_domain(analysis):
        projected = analysis["global"]["projected"]
        projected["domain"] = ["a", "e"]
        projected["tuples"] = [["54-", "M"]]

    assert problems_after(kb_input(screening_knowledgebase()), add_outside_tuple) == [outside]
    assert problems_after(kb_input(screening_knowledgebase()), move_domain) == [outside]


def test_a_model_analysis_is_one_classify_call(monkeypatch):
    classify, check_no_signalling = contextuality.classify, contextuality.check_no_signalling
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for module in (contextuality, reports):
        monkeypatch.setattr(module, "classify", counted(classify), raising=False)
        monkeypatch.setattr(module, "check_no_signalling", counted(check_no_signalling), raising=False)
    for model, cls in ((bell_model(), "PC"), (tampered_bell(), None)):
        calls.clear()
        analysis, _ = reports.analysis_document(model_input(model), None)
        assert analysis["class"] == cls
        assert calls == ["classify", "check_no_signalling"]
