"""Analysis reports: deterministic JSON documents plus witness re-validation.

Reports carry machine-checkable evidence for every verdict: the offending
pair of projections for a local failure, the truth valuation for global
agreement, the witness member for adjoint disagreement, a Farkas certificate
for infeasibility, and the section that fails to extend for logical
contextuality. verify_report re-derives the analysis and re-checks each
piece of evidence directly against the input.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Knowledgebase
from .contextuality import (
    ContextualityReport,
    EmpiricalModel,
    NoSignallingVerdict,
    check_no_signalling,
    classify_checked,
    lc_at,
)
from .core import NONNEG_RATIONAL, Assignment
from .disagreement import (
    AgreementReport,
    analyze_knowledgebase,
    marginal_system,
)
from .documents import (
    ParsedInput,
    format_rational,
    parse_rational,
    parse_signed_rational,
    potential_values,
    relation_rows,
)
from .errors import ValkitError
from .feasibility import FarkasCertificate, validate_certificate
from .inference import DEFAULT_CELL_LIMIT, InferenceProblem, run_solver
from .potentials import Potential, project_potential, support_relation
from .relations import Relation

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


def potential_doc(p: Potential, nonzero_only: bool = False) -> dict:
    names = sorted(p.domain)
    values = potential_values(p, names, nonzero_only)
    return {"type": "potential", "domain": names, "semiring": p.semiring.name, "values": values}


def valuation_doc(v) -> dict:
    return relation_doc(v) if isinstance(v, Relation) else potential_doc(v)


def _parse_relation_doc(doc: dict, kb: Knowledgebase) -> Relation:
    names = doc["domain"]
    return Relation.from_rows(kb.universe, names, doc.get("tuples", []))


def _parse_potential_doc(doc: dict, kb: Knowledgebase) -> Potential:
    names = tuple(doc["domain"])
    table = {}
    for key, raw in doc["values"].items():
        labels = key.split(",") if key else []
        table[Assignment.of(dict(zip(names, labels)))] = parse_rational(raw, f"values[{key!r}]")
    return Potential.from_table(kb.universe, frozenset(names), NONNEG_RATIONAL, table, default=Fraction(0))


def _kb_certificate_layout(kb: Knowledgebase) -> tuple[tuple[str, str], list]:
    """Rows name a member by its 1-based index and write assignments in sorted-domain order."""
    return ("member", "assignment"), [(index, sorted(phi.domain)) for index, phi in enumerate(kb, start=1)]


def _model_certificate_layout(model: EmpiricalModel) -> tuple[tuple[str, str], list]:
    """Rows name a context by its joined measurements and write outcomes in context order."""
    return ("context", "outcome"), [(",".join(ctx), ctx) for ctx in model.scenario.contexts]


def certificate_doc(certificate: FarkasCertificate, fields: tuple[str, str], members: list) -> list[dict]:
    """One row per nonzero multiplier; `members[i - 1]` is member i's label and variable order."""
    member_field, assignment_field = fields
    rows = []
    for (index, assignment), coefficient in certificate.coefficients:
        if coefficient == 0:
            continue
        label, names = members[index - 1]
        rows.append(
            {
                member_field: label,
                assignment_field: ",".join(assignment.values_in(names)),
                "coefficient": format_rational(coefficient),
            }
        )
    return rows


def _certificate_from_doc(rows: list[dict], fields: tuple[str, str], members: list) -> FarkasCertificate:
    member_field, assignment_field = fields
    by_label = {label: (index, names) for index, (label, names) in enumerate(members, start=1)}
    coefficients = []
    for row in rows:
        index, names = by_label[row[member_field]]
        labels = row[assignment_field].split(",") if row[assignment_field] else []
        assignment = Assignment.of(dict(zip(names, labels)))
        coefficients.append(((index, assignment), parse_signed_rational(row["coefficient"], "certificate")))
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
        "marginals": [potential_doc(m) for m in verdict.marginals],
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
        probabilistic = {
            "contextual": False,
            "global-distribution": potential_doc(report.feasibility.truth, nonzero_only=True)["values"],
        }
    return {
        "no-signalling": {"verdict": "pass"},
        "class": report.classification,
        "strong": strong,
        "logical": logical,
        "probabilistic": probabilistic,
        "gamma": relation_doc(report.gamma),
    }


def analysis_document(parsed: ParsedInput, method: str, cell_limit: int | None) -> dict:
    """Run the analysis appropriate for the input kind and render it."""
    payload = parsed.payload
    if isinstance(payload, EmpiricalModel):
        signalling = check_no_signalling(payload)
        if not signalling.passed:
            return {"no-signalling": _no_signalling_doc(signalling), "class": None}
        report = classify_checked(payload, signalling, cell_limit=cell_limit)
        return contextuality_analysis_doc(payload, report)
    kb = parsed.knowledgebase()
    report = analyze_knowledgebase(kb, method=method, cell_limit=cell_limit)
    return agreement_analysis_doc(kb, report)


def build_report(
    source: str,
    input_sha256: str,
    parsed: ParsedInput,
    method: str = "fusion",
    cell_limit: int | None = DEFAULT_CELL_LIMIT,
) -> dict:
    return {
        "report": REPORT_SCHEMA,
        "source": source,
        "kind": parsed.kind,
        "input-sha256": input_sha256,
        "method": method,
        "cell-limit": cell_limit,
        "analysis": analysis_document(parsed, method, cell_limit),
    }


def verify_report(
    report: dict,
    parsed: ParsedInput,
    input_sha256: str,
    cell_limit: int | None = DEFAULT_CELL_LIMIT,
) -> list[str]:
    """Re-derive the analysis and re-check each witness; returns problems found.

    The re-derivation uses fusion under the caller's cell limit. The report's
    own "method" and "cell-limit" fields are not read: a report must not be
    able to switch off the resource guard that bounds its own checking.
    """
    problems: list[str] = []
    if report.get("report") != REPORT_SCHEMA:
        return [f"unknown report schema {report.get('report')!r}"]
    if report.get("input-sha256") != input_sha256:
        problems.append("input hash does not match the report")
        return problems
    rebuilt = analysis_document(parsed, "fusion", cell_limit)
    if rebuilt != report.get("analysis"):
        problems.append("analysis does not reproduce the report")
    try:
        problems.extend(_revalidate_witnesses(report, parsed, cell_limit))
    except (ValkitError, KeyError, IndexError, TypeError, AttributeError) as err:
        problems.append(f"witness re-validation failed on malformed report data: {err!r}")
    return problems


def _revalidate_witnesses(report: dict, parsed: ParsedInput, cell_limit) -> list[str]:
    problems: list[str] = []
    analysis = report.get("analysis", {})
    payload = parsed.payload

    if isinstance(payload, EmpiricalModel):
        if analysis.get("class") is None:
            if check_no_signalling(payload).passed:
                problems.append("report claims signalling but the model is no-signalling")
            return problems
        gamma_doc = analysis.get("gamma", {})
        probabilistic = analysis.get("probabilistic")
        if probabilistic is not None:
            kb = payload.knowledgebase()
            system = marginal_system(kb)
            if probabilistic.get("contextual"):
                certificate = _certificate_from_doc(probabilistic["certificate"], *_model_certificate_layout(payload))
                if not validate_certificate(system, certificate):
                    problems.append("infeasibility certificate fails validation")
            else:
                dist = _parse_potential_doc(
                    {"domain": sorted(kb.joint_domain), "values": probabilistic["global-distribution"]},
                    kb,
                )
                for ctx, section in zip(payload.scenario.contexts, payload.sections):
                    if project_potential(dist, frozenset(ctx)) != section:
                        problems.append(f"global distribution does not marginalize to context {','.join(ctx)}")
        logical = analysis.get("logical", {})
        if logical.get("contextual") and "witness" in logical:
            witness = logical["witness"]
            ctx = tuple(witness["context"].split(","))
            labels = witness["section"].split(",")
            section = Assignment.of(dict(zip(ctx, labels)))
            if section not in support_relation(payload.section_for(ctx)).tuples:
                problems.append("logical-contextuality witness is not a supported section")
            elif not lc_at(payload, ctx, section, cell_limit):
                problems.append("logical-contextuality witness extends to a global assignment")
        if analysis.get("strong", {}).get("contextual") and gamma_doc.get("size") != 0:
            problems.append("strong contextuality claimed but gamma is nonempty")
        return problems

    kb = parsed.knowledgebase()
    members = list(kb)
    algebra = kb.algebra()
    local = analysis.get("local", {})
    if local.get("verdict") == "fail":
        i, j = local["pair"]
        overlap = frozenset(local["overlap"])
        left = algebra.project(members[i - 1], overlap)
        right = algebra.project(members[j - 1], overlap)
        if algebra.equal(left, right):
            problems.append(f"reported local disagreement pair ({i}, {j}) actually agrees")
    global_doc = analysis.get("global", {})
    if global_doc.get("verdict") == "agree" and "truth" in global_doc:
        truth_doc = global_doc["truth"]
        if truth_doc["type"] == "relation" and "tuples" in truth_doc:
            truth = _parse_relation_doc(truth_doc, kb)
            for index, member in enumerate(members, start=1):
                if not algebra.equal(algebra.project(truth, member.domain), member):
                    problems.append(f"reported truth valuation does not project onto member {index}")
        elif truth_doc["type"] == "potential":
            truth = _parse_potential_doc(truth_doc, kb)
            for index, member in enumerate(members, start=1):
                if project_potential(truth, member.domain) != member:
                    problems.append(f"reported truth valuation does not project onto member {index}")
    elif global_doc.get("verdict") == "disagree":
        if "certificate" in global_doc:
            system = marginal_system(kb)
            certificate = _certificate_from_doc(global_doc["certificate"], *_kb_certificate_layout(kb))
            if not validate_certificate(system, certificate):
                problems.append("infeasibility certificate fails validation")
        elif "witness-index" in global_doc:
            index = global_doc["witness-index"]
            member = members[index - 1]
            projected = run_solver(InferenceProblem(kb, algebra.label(member)), "fusion", cell_limit)
            if algebra.equal(projected, member):
                problems.append(f"reported witness member {index} actually agrees with the combination")
    return problems
