import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from valkit.algebra import Knowledgebase
from valkit.builtins import bell_model, builtin, hardy_model, malawi_constraints, screening_knowledgebase
from valkit.cli import main
from valkit.contextuality import EmpiricalModel
from valkit.core import VariableUniverse
from valkit.documents import (
    canonical_json,
    document_for,
    format_rational,
    knowledgebase_document,
    model_document,
    parse_document_text,
    parse_rational,
    _rational_parts,
)
from valkit.errors import ArgumentError, ParseError, ResourceLimitError
from valkit.logic import csp_to_knowledgebase

from conftest import csp_document, empty_domain_potential_kb


def roundtrip(document: dict):
    return parse_document_text(canonical_json(document))


def test_bell_document_roundtrip():
    model = bell_model()
    doc = model_document(model)
    parsed = roundtrip(doc)
    assert parsed.kind == "empirical-model"
    assert isinstance(parsed.payload, EmpiricalModel)
    assert parsed.payload == model
    assert model_document(parsed.payload) == doc


def test_hardy_document_roundtrip_lists_support_only():
    model = hardy_model()
    doc = model_document(model)
    assert doc["sections"]["a1,b2"] == {"0,1": 1, "1,0": 1, "1,1": 1}
    parsed = roundtrip(doc)
    assert parsed.payload == model


MODEL_KINDS = {"bell": "probabilistic", "hardy": "possibilistic", "ghz": "probabilistic", "pr-box": "probabilistic"}


@pytest.mark.parametrize("name", [*MODEL_KINDS, "malawi", "screening", "liar(5)"])
def test_every_builtin_roundtrips(name):
    payload = builtin(name)
    document = document_for(payload)
    parsed = parse_document_text(canonical_json(document)).payload
    assert parsed == payload
    if name in MODEL_KINDS:
        assert document["model-kind"] == parsed.kind == payload.kind == MODEL_KINDS[name]


def test_knowledgebase_document_roundtrip():
    kb = screening_knowledgebase()
    doc = knowledgebase_document(kb)
    parsed = roundtrip(doc)
    assert isinstance(parsed.payload, Knowledgebase)
    assert parsed.payload == kb


def test_csp_document_roundtrip():
    # A CSP document parses straight into the knowledgebase of its covers.
    edges = malawi_constraints()
    universe = edges[0].universe
    covers = (frozenset({"MOZ", "MWI", "TZA"}), frozenset({"ZWE"}))
    parsed = roundtrip(csp_document(universe, edges, covers))
    assert parsed.kind == "csp"
    assert parsed.payload == csp_to_knowledgebase(universe, edges, covers)
    assert parsed.knowledgebase() is parsed.payload


def test_csp_covers_default_to_schemes():
    edges = malawi_constraints()
    universe = edges[0].universe
    doc = csp_document(universe, edges, ())
    del doc["covers"]
    parsed = roundtrip(doc)
    assert parsed.payload == csp_to_knowledgebase(universe, edges, [e.domain for e in edges])


def test_potential_knowledgebase_roundtrip():
    model = bell_model()
    kb = model.knowledgebase()
    doc = knowledgebase_document(kb)
    parsed = roundtrip(doc)
    assert parsed.payload == kb


def test_empty_domain_potential_roundtrip():
    kb = empty_domain_potential_kb()
    doc = knowledgebase_document(kb)
    assert doc["valuations"][1] == {"domain": [], "values": {"": 1}}
    assert roundtrip(doc).payload == kb


def test_rational_formatting():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(3)) == 3
    assert format_rational(Fraction(0)) == 0
    assert parse_rational("3/8", "x") == Fraction(3, 8)
    assert parse_rational(2, "x") == Fraction(2)


def test_floats_rejected():
    with pytest.raises(ParseError):
        parse_rational(0.5, "x")
    doc = model_document(bell_model())
    doc["sections"]["a1,b1"]["0,0"] = 0.5
    with pytest.raises(ParseError) as err:
        roundtrip(doc)
    assert "p/q" in str(err.value)


def test_unknown_top_level_field_rejected():
    doc = model_document(bell_model())
    doc["extra"] = 1
    with pytest.raises(ParseError) as err:
        roundtrip(doc)
    assert "extra" in str(err.value)


def test_undeclared_names_rejected():
    doc = model_document(bell_model())
    doc["contexts"][0] = ["a1", "b9"]
    with pytest.raises(ParseError):
        roundtrip(doc)


def test_empty_possibilistic_section_is_parse_error():
    doc = model_document(hardy_model())
    doc["sections"]["a1,b1"] = {}
    with pytest.raises(ParseError) as err:
        roundtrip(doc)
    assert "at least one outcome" in str(err.value)


def test_unnormalized_probabilistic_section_rejected():
    doc = model_document(bell_model())
    doc["sections"]["a1,b1"]["0,0"] = "1/4"
    with pytest.raises(ParseError):
        roundtrip(doc)


def test_comma_in_label_rejected():
    doc = model_document(bell_model())
    doc["universe"][0]["name"] = "a,1"
    with pytest.raises(ParseError):
        roundtrip(doc)


def test_mixed_relation_and_potential_valuations_rejected():
    kb_doc = knowledgebase_document(screening_knowledgebase())
    kb_doc["valuations"][1] = {"domain": ["a"], "values": {"54-": "1/2", "54+": "1/2"}}
    with pytest.raises(ParseError) as err:
        roundtrip(kb_doc)
    assert "mix" in str(err.value)


def test_json_syntax_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_document_text('{"kind": "csp",\n  broken}')
    assert err.value.line == 2
    assert err.value.column is not None


def test_duplicated_section_outcome_rejected():
    text = canonical_json(model_document(bell_model()))
    first = text.index('"0,0"')
    duplicated = text[:first] + '"0,0": "1/8",\n      ' + text[first:]
    with pytest.raises(ParseError) as err:
        parse_document_text(duplicated)
    assert "duplicate key '0,0'" in str(err.value)


def test_duplicated_top_level_field_rejected():
    text = canonical_json(knowledgebase_document(screening_knowledgebase()))
    duplicated = text.replace('"kind": "knowledgebase",', '"kind": "csp",\n  "kind": "knowledgebase",', 1)
    assert json.loads(duplicated)["kind"] == "knowledgebase"  # what json.loads alone would accept
    with pytest.raises(ParseError) as err:
        parse_document_text(duplicated)
    assert "duplicate key 'kind'" in str(err.value)


def test_unknown_kind_rejected():
    with pytest.raises(ParseError):
        parse_document_text(json.dumps({"kind": "mystery"}))


def test_canonical_json_is_stable():
    doc = model_document(bell_model())
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))


def test_document_for_dispatch():
    assert document_for(bell_model())["kind"] == "empirical-model"
    assert document_for(screening_knowledgebase())["kind"] == "knowledgebase"
    # A CSP is compiled at parse, so its payload is written back as a knowledgebase.
    edges = malawi_constraints()
    payload = roundtrip(csp_document(edges[0].universe, edges, (frozenset({"MOZ", "MWI"}),))).payload
    assert document_for(payload)["kind"] == "knowledgebase"


json_scalars = st.none() | st.booleans() | st.integers(min_value=-99, max_value=99) | st.text(max_size=6)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, derandomize=True)
@given(json_values)
def test_parser_never_raises_anything_but_parse_error(value):
    try:
        parse_document_text(json.dumps(value))
    except ParseError:
        pass


@settings(max_examples=100, derandomize=True)
@given(st.dictionaries(st.sampled_from(["kind", "universe", "contexts", "sections", "model-kind", "valuations", "constraints", "covers", "x"]), json_values, max_size=6))
def test_parser_handles_arbitrary_documents_with_known_keys(doc):
    doc.setdefault("kind", "empirical-model")
    try:
        parse_document_text(json.dumps(doc))
    except ParseError:
        pass


def test_section_key_mismatch_detected():
    doc = model_document(bell_model())
    section = doc["sections"].pop("a1,b1")
    doc["sections"]["a9,b9"] = section
    with pytest.raises(ParseError) as err:
        roundtrip(doc)
    message = str(err.value)
    assert "unknown" in message and "missing" in message


BIT = [{"name": "x", "frame": ["0", "1"]}]


def bit_kb(**valuation):
    """A knowledgebase document with one member over x, whose fields `valuation` sets."""
    return {"kind": "knowledgebase", "universe": BIT, "valuations": [{"domain": ["x"], **valuation}]}


def bit_model(model_kind, section):
    return {
        "kind": "empirical-model",
        "universe": BIT,
        "model-kind": model_kind,
        "contexts": [["x"]],
        "sections": {"x": section},
    }


def bit_csp(scheme=("x",), **fields):
    return {"kind": "csp", "universe": BIT, "constraints": [{"scheme": list(scheme), "allowed": []}], **fields}


# The messages documents.py raises for malformed input that no other test names, each with one document that raises it.
MALFORMED = {
    "boolean": (bit_kb(values={"0": True}), "valuations[0].values['0']: booleans are not rational values"),
    "unparsable": (bit_kb(values={"0": "1/x"}), "valuations[0].values['0']: cannot parse '1/x' as a rational"),
    "list-value": (
        bit_kb(values={"0": [1]}),
        "valuations[0].values['0']: expected an integer or 'p/q' string, got list",
    ),
    "negative": (bit_kb(values={"0": "-1/2"}), "valuations[0].values['0']: negative value '-1/2'"),
    "universe-object": (
        {"kind": "knowledgebase", "universe": {}, "valuations": []},
        "universe: expected a list, got dict",
    ),
    "empty-name": (
        {"kind": "knowledgebase", "universe": [{"name": "", "frame": ["0"]}], "valuations": []},
        "universe[0].name: expected a nonempty string",
    ),
    "key-arity": (
        bit_kb(values={"0,1": 1}),
        "valuations[0].values['0,1']: key '0,1' must have 1 comma-separated labels",
    ),
    "foreign-label": (bit_kb(values={"2": 1}), "valuations[0].values['2']: label '2' is not in the frame of 'x'"),
    "possibilistic-value": (
        bit_model("possibilistic", {"0": 2}),
        "sections['x']['0']: possibilistic values must be the integers 0 or 1",
    ),
    "model-kind": (
        bit_model("quantum", {"0": 1}),
        "model-kind must be 'probabilistic' or 'possibilistic', got 'quantum'",
    ),
    "no-valuations": (
        {"kind": "knowledgebase", "universe": BIT, "valuations": []},
        "valuations: a knowledgebase needs at least one valuation",
    ),
    "repeated-domain": (bit_kb(domain=["x", "x"], values={}), "valuations[0].domain: repeated variable"),
    "repeated-scheme": (bit_csp(scheme=("x", "x")), "constraints[0].scheme: repeated variable"),
    "repeated-cover": (bit_csp(covers=[["x", "x"]]), "covers[0]: repeated variable"),
    "repeated-context": (
        {**bit_model("possibilistic", {"0,0": 1}), "contexts": [["x", "x"]], "sections": {"x,x": {"0,0": 1}}},
        "contexts[0]: repeated variable",
    ),
    "neither-style": (bit_kb(), "valuations[0]: exactly one of 'tuples' or 'values' is required"),
    "both-styles": (bit_kb(tuples=[], values={}), "valuations[0]: exactly one of 'tuples' or 'values' is required"),
    "no-covers": (bit_csp(covers=[]), "covers: a CSP needs at least one cover"),
    "duplicate-name": (
        {"kind": "knowledgebase", "universe": BIT + BIT, "valuations": []},
        "universe: duplicate variable names in universe",
    ),
    "row-arity": (bit_kb(tuples=[["0", "1"]]), "valuations[0]: row ('0', '1') does not match variables ('x',)"),
    "row-label": (bit_kb(tuples=[["2"]]), "valuations[0]: value '2' not in the frame of 'x'"),
    "allowed-label": (
        {**bit_csp(), "constraints": [{"scheme": ["x"], "allowed": [["7"]]}]},
        "constraints[0]: value '7' not in the frame of 'x'",
    ),
    "no-constraints": ({"kind": "csp", "universe": BIT, "constraints": []}, "covers: a CSP needs at least one cover"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_each_malformed_document_raises_its_message(name):
    document, message = MALFORMED[name]
    with pytest.raises(ParseError) as err:
        parse_document_text(json.dumps(document))
    assert err.value.message == message


UNCARRIABLE = {
    "comma-in-a-label": (
        [("a", ("x,y", "z")), ("b", ("0", "1"))],
        "'x,y' must not contain a comma (reserved as the key separator)",
    ),
    "comma-in-a-name": ([("a,b", ("0", "1"))], "'a,b' must not contain a comma (reserved as the key separator)"),
    "empty-label": ([("a", ("0", ""))], "expected a nonempty string"),
    "int-label": ([("a", ("0", 1))], "expected a nonempty string"),
    "int-name": ([(3, ("0", "1"))], "expected a nonempty string"),
    "list-name": ([(["a"], ("0", "1"))], "expected a nonempty string"),
}


@pytest.mark.parametrize("name", sorted(UNCARRIABLE))
def test_the_library_refuses_a_universe_no_document_can_carry(name):
    """A name or label that the parser refuses is refused by `VariableUniverse.of` too, in the parser's words."""
    entries, words = UNCARRIABLE[name]
    with pytest.raises(ArgumentError) as built:
        VariableUniverse.of(entries)
    assert str(built.value).endswith(words)
    universe = [{"name": var, "frame": list(frame)} for var, frame in entries]
    with pytest.raises(ParseError) as parsed:
        parse_document_text(json.dumps({"kind": "knowledgebase", "universe": universe, "valuations": []}))
    assert parsed.value.message.endswith(words)


def test_a_csp_cover_over_the_cell_limit_is_refused_at_parse():
    # A cover is compiled as the document is parsed, so its size check is a
    # resource error of the parse itself, not a parse error.
    names = [f"x{i}" for i in range(14)]
    document = {
        "kind": "csp",
        "universe": [{"name": name, "frame": ["0", "1"]} for name in names],
        "constraints": [{"scheme": names[:2], "allowed": [["0", "0"]]}],
        "covers": [names],
    }
    with pytest.raises(ResourceLimitError, match=r"would have 16384 cells \(limit 1000\)$"):
        parse_document_text(json.dumps(document), cell_limit=1000)
    assert len(parse_document_text(json.dumps(document), cell_limit=16384).payload.valuations[0].tuples) == 4096


def test_malformed_documents_exit_2_from_the_cli(tmp_path):
    for name, (document, message) in sorted(MALFORMED.items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["analyze", str(path)])
        assert (code, err.getvalue()) == (2, f"error: {message}\n"), name


RATIONAL_CORPUS = (
    "3/4", "03/4", "6/8", "0/5", " 3/4", "3 / 4", "+3/4", "-1/2", "1_000/3", "0.25", "1e3", "3/0", "٣/4", "²/4",
    "7", "", "/4", "3/", "3/00", "1/2/3",
    True, 1.5, None, -1, 0, 10**39 + 7, [1],
)


def assert_read_as_parse_rational(raw):
    try:
        expected = parse_rational(raw, "values['0,1']")
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            _rational_parts(raw, "values", "0,1")
        assert got.value.message == err.message
    else:
        assert _rational_parts(raw, "values", "0,1") == (expected.numerator, expected.denominator)


@pytest.mark.parametrize("raw", RATIONAL_CORPUS, ids=repr)
def test_rational_parts_read_what_parse_rational_reads(raw):
    # The fast path reads an int or a plain ASCII "p" or "p/q" without a
    # Fraction; every value must come out, or be refused, as parse_rational
    # has it, with the same place in the message.
    assert_read_as_parse_rational(raw)


def test_rational_parts_read_numbers_past_the_digit_limit_as_parse_rational_does():
    # From Python 3.11 (and 3.10.7) int() refuses a string of more than 4300
    # digits by default, and parse_rational reports that as a parse error.
    digits = "1" * 5000
    for raw in (digits, f"{digits}/3", f"3/{digits}"):
        assert_read_as_parse_rational(raw)


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 4300, reason="no digit limit")
def test_a_rational_too_long_to_write_is_a_resource_limit():
    # "p/q" is text, so a part past the interpreter's limit on digits cannot
    # be written; an integer is left to the JSON writer.
    with pytest.raises(ResourceLimitError, match="a result holds a number too long to write"):
        format_rational(Fraction(10**4400 + 1, 3))
    assert format_rational(Fraction(10**4400)) == 10**4400
