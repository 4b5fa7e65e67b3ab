"""JSON documents for empirical models, knowledgebases, and CSPs.

A CSP document is compiled as it is parsed: its payload is the
knowledgebase of its covers, so a CSP is never written back out.

The format is strict: unknown fields are rejected, every referenced name must
be declared in the universe, and probability values are exact rationals
written as integers or "p/q" strings (floats are refused so that parsing
never rounds). Serialization is canonical: fixed key order, domains sorted,
rows sorted, rationals in lowest terms, so identical inputs produce
byte-identical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .algebra import Knowledgebase
from .contextuality import POSSIBILISTIC, PROBABILISTIC, EmpiricalModel, MeasurementScenario
from .core import Record, VariableUniverse, label_problem
from .errors import ParseError, ResourceLimitError, ValkitError
from .inference import DEFAULT_CELL_LIMIT, check_table_size
from .logic import csp_to_knowledgebase
from .potentials import Potential, rational_potential
from .relations import Relation, restriction

KINDS = ("empirical-model", "knowledgebase", "csp")

# str() of an int past the interpreter's limit on digits raises ValueError. A
# report could not carry such a number anyway: load_json refuses the literal.
TOO_LONG = "a result holds a number too long to write"


class ParsedInput(Record):
    kind: str
    payload: object  # EmpiricalModel | Knowledgebase (a CSP's covers, compiled at parse)

    def knowledgebase(self) -> Knowledgebase:
        """A model's sections, or the knowledgebase itself."""
        if isinstance(self.payload, EmpiricalModel):
            return self.payload.knowledgebase()
        return self.payload


def format_rational(value: Fraction) -> int | str:
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # past the interpreter's limit on digits
        raise ResourceLimitError(TOO_LONG) from None


def relation_rows(r: Relation, names) -> list[list[str]]:
    """The sorted rows of a relation, each as its values in the order of `names`."""
    in_order = restriction(sorted(r.domain), names)
    return [list(in_order(t)) for t in r.sorted_tuples()]


def _support_values(r: Relation, names) -> dict[str, int]:
    """A 1 for each row in frame order, keyed by its values in the order of `names` joined by commas."""
    ranks = [{value: k for k, value in enumerate(r.universe.frame(name).values)} for name in sorted(r.domain)]
    in_order = restriction(sorted(r.domain), names)
    rows = sorted(r.tuples, key=lambda row: [rank[value] for rank, value in zip(ranks, row)])
    return {",".join(in_order(row)): 1 for row in rows}


def potential_values(p: Potential, names, nonzero_only: bool = False) -> dict[str, int | str]:
    """Each row's value in frame order, keyed by its values in the order of `names` joined by commas."""
    in_order = restriction(sorted(p.domain), names)
    return {",".join(in_order(row)): format_rational(v) for row, v in p.table.items() if v or not nonzero_only}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_json(text: str, what: str = "JSON") -> object:
    """Parse JSON text, refusing a repeated key (json.loads would keep the last), deep nesting or an over-long integer."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid {what}: {err.msg}", line=err.lineno, column=err.colno) from None
    except ValueError:  # the only other ValueError json.loads raises is int()'s digit limit
        raise ParseError(f"invalid {what}: an integer literal has too many digits") from None
    except RecursionError:
        raise ParseError(f"invalid {what}: nested too deeply") from None


def parse_signed_rational(raw, where: str) -> Fraction:
    if isinstance(raw, bool):
        raise ParseError(f"{where}: booleans are not rational values")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        raise ParseError(f"{where}: floats are not exact; write the value as a 'p/q' string")
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{where}: cannot parse {raw!r} as a rational") from None
    raise ParseError(f"{where}: expected an integer or 'p/q' string, got {type(raw).__name__}")


def parse_rational(raw, where: str) -> Fraction:
    value = parse_signed_rational(raw, where)
    if value < 0:
        raise ParseError(f"{where}: negative value {raw!r}")
    return value


def _expect_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _expect_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list, got {type(obj).__name__}")
    return obj


def _expect_keys(obj: dict, required: tuple[str, ...], optional: tuple[str, ...], where: str) -> None:
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ParseError(f"{where}: missing fields {sorted(missing)}")


def _expect_label(obj, where: str) -> str:
    if problem := label_problem(obj):
        raise ParseError(f"{where}: {problem}")
    return obj


def _parse_universe(raw, where: str) -> VariableUniverse:
    entries = []
    for k, item in enumerate(_expect_list(raw, where)):
        spot = f"{where}[{k}]"
        item = _expect_mapping(item, spot)
        _expect_keys(item, ("name", "frame"), (), spot)
        name = _expect_label(item["name"], f"{spot}.name")
        frame = [_expect_label(v, f"{spot}.frame") for v in _expect_list(item["frame"], f"{spot}.frame")]
        entries.append((name, tuple(frame)))
    try:
        return VariableUniverse.of(entries)
    except ValkitError as err:
        raise ParseError(f"{where}: {err}") from None


def _parse_variables(raw, universe: VariableUniverse, where: str) -> tuple[str, ...]:
    """A name list that gives a table's variables: each declared, none repeated."""
    names = tuple(_expect_label(v, where) for v in _expect_list(raw, where))
    for name in names:
        if name not in universe.vars:
            raise ParseError(f"{where}: {name!r} is not declared in the universe")
    if len(set(names)) != len(names):
        raise ParseError(f"{where}: repeated variable")
    return names


def _outcomes(raw: dict, names, universe: VariableUniverse, where: str):
    """Each key's row (its labels in sorted-name order), value and key."""
    to_row = restriction(names, sorted(names))
    frames = [(name, set(universe.frame(name).values)) for name in names]
    for key, value in raw.items():
        labels = key.split(",") if key else []  # "" is the one assignment of the empty domain
        if len(labels) != len(names):
            raise ParseError(f"{_spot(where, key)}: key {key!r} must have {len(names)} comma-separated labels")
        for (name, frame), label in zip(frames, labels):
            if label not in frame:
                raise ParseError(f"{_spot(where, key)}: label {label!r} is not in the frame of {name!r}")
        yield to_row(labels), value, key


def _spot(where: str, key: str) -> str:
    """The place of a value map's entry in error messages."""
    return f"{where}[{key!r}]"


def _rational_parts(raw, where: str, key: str) -> tuple[int, int]:
    """parse_rational's value of entry `key` of `where` as (numerator, denominator) in lowest terms.

    An int or a plain ASCII "p" or "p/q" is read without a Fraction; anything
    else goes through parse_rational, with its acceptance and error texts.
    """
    if type(raw) is int and raw >= 0:
        return raw, 1
    if type(raw) is str and raw.isascii():
        num, slash, den = raw.partition("/")
        if num.isdigit() and (den.isdigit() and den.strip("0") or not slash):
            try:
                n, d = int(num), int(den) if slash else 1
            except ValueError:  # past the interpreter's limit on digits, which parse_rational reports
                pass
            else:
                g = gcd(n, d)
                return n // g, d // g
    value = parse_rational(raw, _spot(where, key))
    return value.numerator, value.denominator


def parse_potential(
    raw: dict,
    names,
    universe: VariableUniverse,
    where: str,
    cell_limit: int | None = DEFAULT_CELL_LIMIT,
) -> Potential:
    """A rational potential from a value map keyed by labels in `names` order; absent keys read as 0.

    Writers and the LP read the table over its whole frame, so one of more than `cell_limit` rows is refused first.
    """
    domain = frozenset(names)
    check_table_size(universe, domain, cell_limit)
    parts = {row: _rational_parts(value, where, key) for row, value, key in _outcomes(raw, names, universe, where)}
    return rational_potential(universe, domain, parts)


def _parse_support(raw: dict, names, universe: VariableUniverse, where: str) -> Relation:
    """A possibilistic section: the relation of the outcomes its 0/1 map marks 1; no frame product is built or checked."""
    rows = set()
    for row, value, key in _outcomes(raw, names, universe, where):
        if type(value) is not int or value not in (0, 1):
            raise ParseError(f"{_spot(where, key)}: possibilistic values must be the integers 0 or 1")
        if value:
            rows.add(row)
    return Relation(universe, frozenset(names), frozenset(rows))


def _parse_relation(item: dict, field: str, names, universe: VariableUniverse, where: str) -> Relation:
    """The relation over `names` whose rows `item[field]` lists, each row its labels in `names` order."""
    rows_at = f"{where}.{field}"
    rows = []
    for r, row in enumerate(_expect_list(item[field], rows_at)):
        row = _expect_list(row, f"{rows_at}[{r}]")
        rows.append([_expect_label(v, f"{rows_at}[{r}]") for v in row])
    try:
        return Relation.from_rows(universe, names, rows)
    except ValkitError as err:
        raise ParseError(f"{where}: {err}") from None


def _parse_empirical_model(doc: dict, cell_limit: int | None) -> EmpiricalModel:
    _expect_keys(doc, ("kind", "universe", "model-kind", "contexts", "sections"), (), "document")
    universe = _parse_universe(doc["universe"], "universe")
    model_kind = doc["model-kind"]
    if model_kind not in (PROBABILISTIC, POSSIBILISTIC):
        raise ParseError(f"model-kind must be 'probabilistic' or 'possibilistic', got {model_kind!r}")
    contexts = [
        _parse_variables(ctx, universe, f"contexts[{k}]") for k, ctx in enumerate(_expect_list(doc["contexts"], "contexts"))
    ]
    sections_raw = _expect_mapping(doc["sections"], "sections")
    keys = {",".join(ctx): ctx for ctx in contexts}
    if set(sections_raw) != set(keys):
        extra = sorted(set(sections_raw) - set(keys))
        missing = sorted(set(keys) - set(sections_raw))
        detail = []
        if extra:
            detail.append(f"unknown section keys {extra}")
        if missing:
            detail.append(f"missing sections {missing}")
        raise ParseError("sections: " + "; ".join(detail))
    sections = []
    for ctx in contexts:
        key = ",".join(ctx)
        where = f"sections[{key!r}]"
        raw = _expect_mapping(sections_raw[key], where)
        if not raw:
            raise ParseError(f"{where}: a section must list at least one outcome")
        if model_kind == PROBABILISTIC:
            sections.append(parse_potential(raw, ctx, universe, where, cell_limit))
        else:
            sections.append(_parse_support(raw, ctx, universe, where))
    try:
        scenario = MeasurementScenario(universe, tuple(tuple(c) for c in contexts))
        return EmpiricalModel(scenario, tuple(sections))
    except ValkitError as err:
        raise ParseError(str(err)) from None


def _parse_knowledgebase(doc: dict, cell_limit: int | None) -> Knowledgebase:
    _expect_keys(doc, ("kind", "universe", "valuations"), (), "document")
    universe = _parse_universe(doc["universe"], "universe")
    raw_valuations = _expect_list(doc["valuations"], "valuations")
    if not raw_valuations:
        raise ParseError("valuations: a knowledgebase needs at least one valuation")
    valuations = []
    styles = set()
    for k, item in enumerate(raw_valuations):
        where = f"valuations[{k}]"
        item = _expect_mapping(item, where)
        _expect_keys(item, ("domain",), ("tuples", "values"), where)
        domain_names = _parse_variables(item["domain"], universe, f"{where}.domain")
        has_tuples = "tuples" in item
        has_values = "values" in item
        if has_tuples == has_values:
            raise ParseError(f"{where}: exactly one of 'tuples' or 'values' is required")
        styles.add("tuples" if has_tuples else "values")
        if len(styles) > 1:
            raise ParseError("valuations: cannot mix relations ('tuples') and potentials ('values') in one knowledgebase")
        if has_tuples:
            valuations.append(_parse_relation(item, "tuples", domain_names, universe, where))
        else:
            raw_values = _expect_mapping(item["values"], f"{where}.values")
            valuations.append(
                parse_potential(raw_values, domain_names, universe, f"{where}.values", cell_limit=cell_limit)
            )
    return Knowledgebase(universe, tuple(valuations))


def _parse_csp(doc: dict, cell_limit: int | None) -> Knowledgebase:
    """The knowledgebase of a CSP's covers, each compiled to the evaluations on it that violate no constraint."""
    _expect_keys(doc, ("kind", "universe", "constraints"), ("covers",), "document")
    universe = _parse_universe(doc["universe"], "universe")
    constraints = []
    for k, item in enumerate(_expect_list(doc["constraints"], "constraints")):
        where = f"constraints[{k}]"
        item = _expect_mapping(item, where)
        _expect_keys(item, ("scheme", "allowed"), (), where)
        scheme = _parse_variables(item["scheme"], universe, f"{where}.scheme")
        constraints.append(_parse_relation(item, "allowed", scheme, universe, where))
    if "covers" in doc:
        covers = [
            frozenset(_parse_variables(cover, universe, f"covers[{k}]"))
            for k, cover in enumerate(_expect_list(doc["covers"], "covers"))
        ]
    else:
        covers = list(dict.fromkeys(c.domain for c in constraints))
    if not covers:
        raise ParseError("covers: a CSP needs at least one cover")
    return csp_to_knowledgebase(universe, constraints, covers, cell_limit)  # a cover past `cell_limit` is a resource error


def parse_document_text(text: str, cell_limit: int | None = DEFAULT_CELL_LIMIT) -> ParsedInput:
    """Parse a document; a probabilistic section, potential or CSP cover with more than `cell_limit` rows is refused."""
    doc = _expect_mapping(load_json(text), "document")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"document 'kind' must be one of {list(KINDS)}, got {kind!r}")
    if kind == "empirical-model":
        return ParsedInput(kind, _parse_empirical_model(doc, cell_limit))
    if kind == "knowledgebase":
        return ParsedInput(kind, _parse_knowledgebase(doc, cell_limit))
    return ParsedInput(kind, _parse_csp(doc, cell_limit))


def _universe_document(universe: VariableUniverse) -> list[dict]:
    return [{"name": name, "frame": list(frame.values)} for name, frame in universe.entries]


def model_document(model: EmpiricalModel) -> dict:
    values = _support_values if model.kind == POSSIBILISTIC else potential_values
    sections = {",".join(ctx): values(section, ctx) for ctx, section in zip(model.scenario.contexts, model.sections)}
    return {
        "kind": "empirical-model",
        "universe": _universe_document(model.scenario.universe),
        "model-kind": model.kind,
        "contexts": [list(ctx) for ctx in model.scenario.contexts],
        "sections": sections,
    }


def knowledgebase_document(kb: Knowledgebase) -> dict:
    valuations = []
    for v in kb:
        names = sorted(v.domain)
        if isinstance(v, Relation):
            valuations.append({"domain": names, "tuples": relation_rows(v, names)})
        else:
            valuations.append({"domain": names, "values": potential_values(v, names)})
    return {
        "kind": "knowledgebase",
        "universe": _universe_document(kb.universe),
        "valuations": valuations,
    }


def document_for(payload: EmpiricalModel | Knowledgebase) -> dict:
    return model_document(payload) if isinstance(payload, EmpiricalModel) else knowledgebase_document(payload)


def canonical_json(document: dict) -> str:
    return json.dumps(document, indent=2, ensure_ascii=True) + "\n"
