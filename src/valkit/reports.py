"""Analysis reports: deterministic JSON documents plus witness re-validation.

Reports carry machine-checkable evidence for every verdict: the offending
pair of projections for a local failure, the truth valuation for global
agreement, the witness member for adjoint disagreement, a Farkas certificate
for infeasibility, and the section that fails to extend for logical
contextuality. verify_report re-derives the analysis and, once it reproduces
the report, re-checks each piece of evidence directly against the input.
"""

from __future__ import annotations

from .algebra import Knowledgebase
from .contextuality import ContextualityReport, EmpiricalModel, NoSignallingVerdict, classify
from .core import Assignment
from .disagreement import AgreementReport, analyze_knowledgebase
from .documents import (
    ParsedInput,
    format_rational,
    parse_potential,
    parse_signed_rational,
    potential_values,
    relation_rows,
)
from .errors import SignallingError
from .feasibility import FarkasCertificate, validate_certificate, validate_solution
from .inference import DEFAULT_CELL_LIMIT
from .potentials import Potential
from .relations import Relation, project_relation, restriction

REPORT_SCHEMA = "vk-report/1"
TUPLE_CAP = 4096


def relation_doc(r: Relation) -> dict:
    names = sorted(r.domain)
    doc = {"type": "relation", "domain": names, "size": len(r.tuples)}
    if len(r.tuples) <= TUPLE_CAP:
        doc["tuples"] = relation_rows(r, names)
    else:
        doc["omitted"] = True
    return doc


def potential_doc(p: Potential) -> dict:
    names = sorted(p.domain)
    return {"type": "potential", "domain": names, "semiring": p.semiring.name, "values": potential_values(p, names)}


def valuation_doc(v) -> dict:
    return relation_doc(v) if isinstance(v, Relation) else potential_doc(v)


def _kb_certificate_layout(kb: Knowledgebase) -> tuple[tuple[str, str], list]:
    """Rows name a member by its 1-based index and write assignments in sorted-domain order."""
    return ("member", "assignment"), [(index, sorted(phi.domain)) for index, phi in enumerate(kb, start=1)]


def _model_certificate_layout(model: EmpiricalModel) -> tuple[tuple[str, str], list]:
    """Rows name a context by its joined measurements and write outcomes in context order."""
    return ("context", "outcome"), [(",".join(ctx), ctx) for ctx in model.scenario.contexts]


def certificate_doc(certificate: FarkasCertificate, fields: tuple[str, str], members: list) -> list[dict]:
    """One row per nonzero multiplier; `members[i - 1]` is member i's label and variable order."""
    member_field, assignment_field = fields
    in_order = [restriction(sorted(names), names) for _, names in members]
    rows = []
    for (index, local), coefficient in certificate.coefficients:
        if coefficient == 0:
            continue
        rows.append(
            {
                member_field: members[index - 1][0],
                assignment_field: ",".join(in_order[index - 1](local)),
                "coefficient": format_rational(coefficient),
            }
        )
    return rows


def _certificate_from_doc(rows: list[dict], fields: tuple[str, str], members: list) -> FarkasCertificate:
    member_field, assignment_field = fields
    by_label = {label: (i, restriction(names, sorted(names))) for i, (label, names) in enumerate(members, start=1)}
    coefficients = []
    for row in rows:
        index, sorted_order = by_label[row[member_field]]
        labels = tuple(row[assignment_field].split(",")) if row[assignment_field] else ()
        coefficients.append(((index, sorted_order(labels)), parse_signed_rational(row["coefficient"], "certificate")))
    return FarkasCertificate(tuple(coefficients))


def agreement_analysis_doc(kb: Knowledgebase, report: AgreementReport) -> dict:
    local = {"verdict": "pass"} if report.local.agrees else {
        "verdict": "fail",
        "pair": list(report.local.pair),
        "overlap": sorted(report.local.overlap),
        "projections": [valuation_doc(p) for p in report.local.projections],
    }
    g = report.global_agreement
    if g.agrees:
        global_doc = {"verdict": "agree", "truth": valuation_doc(g.truth)}
    elif g.certificate is not None:
        global_doc = {"verdict": "disagree", "certificate": certificate_doc(g.certificate, *_kb_certificate_layout(kb))}
    else:
        global_doc = {
            "verdict": "disagree",
            "witness-index": g.witness_index,
            "projected": valuation_doc(g.projected),
            "member": valuation_doc(kb.valuations[g.witness_index - 1]),
        }
    return {
        "local": local,
        "global": global_doc,
        "complete-disagreement": report.complete_disagreement,
    }


def _no_signalling_doc(verdict: NoSignallingVerdict) -> dict:
    return {
        "verdict": "fail",
        "contexts": [",".join(c) for c in verdict.pair],
        "overlap": sorted(verdict.overlap),
        "marginals": [valuation_doc(m) for m in verdict.marginals],
    }


def contextuality_analysis_doc(model: EmpiricalModel, report: ContextualityReport) -> dict:
    strong = {"contextual": report.strongly_contextual}
    if report.sc_context is not None:
        strong["witness-context"] = ",".join(report.sc_context)
    logical = {"contextual": report.logically_contextual}
    if report.lc_witness is not None:
        ctx, section = report.lc_witness
        logical["witness"] = {"context": ",".join(ctx), "section": ",".join(section.values_in(ctx))}
    if report.probabilistically_contextual is None:
        probabilistic = None
    elif report.probabilistically_contextual:
        probabilistic = {
            "contextual": True,
            "certificate": certificate_doc(report.feasibility.certificate, *_model_certificate_layout(model)),
        }
    else:
        truth = report.feasibility.truth
        probabilistic = {
            "contextual": False,
            "global-distribution": potential_values(truth, sorted(truth.domain), nonzero_only=True),
        }
    return {
        "no-signalling": {"verdict": "pass"},
        "class": report.classification,
        "strong": strong,
        "logical": logical,
        "probabilistic": probabilistic,
        "gamma": relation_doc(report.gamma),
    }


def analysis_document(parsed: ParsedInput, cell_limit: int | None) -> tuple[dict, object, Knowledgebase | None]:
    """Run the analysis appropriate for the input kind.

    Returns its rendering, the verdict it renders and the knowledgebase it
    analysed (None for an empirical model).
    """
    payload = parsed.payload
    if isinstance(payload, EmpiricalModel):
        try:
            report = classify(payload, cell_limit=cell_limit)
        except SignallingError as err:
            return {"no-signalling": _no_signalling_doc(err.verdict), "class": None}, err.verdict, None
        return contextuality_analysis_doc(payload, report), report, None
    kb = parsed.knowledgebase(cell_limit)
    report = analyze_knowledgebase(kb, cell_limit=cell_limit)
    return agreement_analysis_doc(kb, report), report, kb


def build_report(
    source: str,
    input_sha256: str,
    parsed: ParsedInput,
    cell_limit: int | None = DEFAULT_CELL_LIMIT,
) -> dict:
    return {
        "report": REPORT_SCHEMA,
        "source": source,
        "kind": parsed.kind,
        "input-sha256": input_sha256,
        "method": "fusion",  # a constant, kept in the schema for older readers
        "cell-limit": cell_limit,
        "analysis": analysis_document(parsed, cell_limit)[0],
    }


def verify_report(
    report: dict,
    parsed: ParsedInput,
    input_sha256: str,
    cell_limit: int | None = DEFAULT_CELL_LIMIT,
) -> list[str]:
    """Re-derive the analysis and, once it reproduces the report, re-check each witness; returns problems found.

    The re-derivation runs under the caller's cell limit. The report's own
    "cell-limit" field is not read: a report must not be able to switch off
    the resource guard that bounds its own checking. Nor is its "method"
    field, which older reports may set to "naive". A report whose "kind"
    is not the input's fails at once, as one with another input hash does.
    A report whose analysis does not reproduce fails with that one problem,
    before any witness is checked; otherwise the witnesses are read off the
    re-derived analysis, which equals the report's. Only the LC check, which
    would need inference, reads the re-derived Gamma; Farkas certificates and
    a global distribution are checked against the marginal system the
    re-derivation built from the input; every other witness, a signalling
    model's pair of contexts included, is checked against the input directly.
    """
    if report.get("report") != REPORT_SCHEMA:
        return [f"unknown report schema {report.get('report')!r}"]
    if report.get("input-sha256") != input_sha256:
        return ["input hash does not match the report"]
    if report.get("kind") != parsed.kind:
        return [f"report kind {report.get('kind')!r} does not match the input's kind {parsed.kind!r}"]
    rebuilt, verdict, kb = analysis_document(parsed, cell_limit)
    if rebuilt != report.get("analysis"):
        return ["analysis does not reproduce the report"]
    return _revalidate_witnesses(rebuilt, parsed, verdict, kb)


def _valuation_from_doc(doc: dict, universe, what: str) -> Relation | Potential | None:
    """The valuation a report writes out, or None for a relation whose tuples it omits (beyond TUPLE_CAP)."""
    if doc["type"] == "potential":
        return parse_potential(doc["values"], doc["domain"], universe, what)
    return Relation.from_rows(universe, doc["domain"], doc["tuples"]) if "tuples" in doc else None


def _local_pair_problems(kb: Knowledgebase, pair: tuple, members: tuple, overlap: list[str]) -> list[str]:
    """A local failure `pair` (of members, or of a signalling model's contexts) must differ on `overlap`."""
    algebra = kb.algebra()
    left, right = (algebra.project(phi, frozenset(overlap)) for phi in members)
    return [f"reported local disagreement pair {pair} actually agrees"] if left == right else []


def _revalidate_witnesses(analysis: dict, parsed: ParsedInput, verdict, kb: Knowledgebase | None) -> list[str]:
    """Check the witnesses of a re-derived `analysis` against the input, its `verdict` and the `kb` it analysed."""
    problems: list[str] = []
    payload = parsed.payload

    if isinstance(payload, EmpiricalModel):
        if analysis["class"] is None:  # a signalling model: its witness is the pair of contexts
            signalling = analysis["no-signalling"]
            pair = tuple(signalling["contexts"])
            sections = tuple(payload.section_for(tuple(ctx.split(","))) for ctx in pair)
            return _local_pair_problems(payload.knowledgebase(), pair, sections, signalling["overlap"])
        probabilistic = analysis["probabilistic"]
        if probabilistic is not None:
            system = verdict.feasibility.system
            if probabilistic["contextual"]:
                certificate = _certificate_from_doc(probabilistic["certificate"], *_model_certificate_layout(payload))
                if not validate_certificate(system, certificate):
                    problems.append("infeasibility certificate fails validation")
            else:
                kb = payload.knowledgebase()
                raw = probabilistic["global-distribution"]
                dist = parse_potential(raw, sorted(kb.joint_domain), kb.universe, "global-distribution")
                if not validate_solution(system, dist.table):
                    problems.append("global distribution does not marginalize to every context")
        if analysis["logical"]["contextual"]:
            witness = analysis["logical"]["witness"]
            ctx = tuple(witness["context"].split(","))
            labels = witness["section"].split(",")
            section = Assignment.of(dict(zip(ctx, labels)))
            support = payload.support_for(ctx)
            if section.domain != support.domain or section.row not in support.tuples:
                problems.append("logical-contextuality witness is not a supported section")
            elif section.row in project_relation(verdict.gamma, support.domain).tuples:
                problems.append("logical-contextuality witness extends to a global assignment")
        if analysis["strong"]["contextual"] and analysis["gamma"]["size"] != 0:
            problems.append("strong contextuality claimed but gamma is nonempty")
        return problems

    members = kb.valuations
    algebra = kb.algebra()
    local = analysis["local"]
    if local["verdict"] == "fail":
        i, j = local["pair"]
        problems.extend(_local_pair_problems(kb, (i, j), (members[i - 1], members[j - 1]), local["overlap"]))
    global_doc = analysis["global"]
    if global_doc["verdict"] == "agree":
        truth = _valuation_from_doc(global_doc["truth"], kb.universe, "truth")
        for index, member in enumerate(members, start=1):
            if truth is not None and algebra.project(truth, member.domain) != member:
                problems.append(f"reported truth valuation does not project onto member {index}")
    elif "certificate" in global_doc:
        certificate = _certificate_from_doc(global_doc["certificate"], *_kb_certificate_layout(kb))
        if not validate_certificate(verdict.global_agreement.system, certificate):
            problems.append("infeasibility certificate fails validation")
    else:
        index = global_doc["witness-index"]
        if _valuation_from_doc(global_doc["projected"], kb.universe, "projected") == members[index - 1]:
            problems.append(f"reported witness member {index} is not unlike its projection of the combination")
    return problems
