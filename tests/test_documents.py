import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from valkit.algebra import Knowledgebase
from valkit.builtins import bell_model, hardy_model, malawi_csp, screening_knowledgebase
from valkit.contextuality import EmpiricalModel
from valkit.documents import (
    CSPDocumentPayload,
    canonical_json,
    csp_document,
    document_for,
    format_rational,
    knowledgebase_document,
    model_document,
    parse_document_text,
    parse_rational,
)
from valkit.errors import ParseError

from conftest import empty_domain_potential_kb


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


def test_knowledgebase_document_roundtrip():
    kb = screening_knowledgebase()
    doc = knowledgebase_document(kb)
    parsed = roundtrip(doc)
    assert isinstance(parsed.payload, Knowledgebase)
    assert parsed.payload == kb


def test_csp_document_roundtrip():
    csp = malawi_csp()
    covers = tuple(c.scheme_set for c in csp.constraints)
    doc = csp_document(CSPDocumentPayload(csp, covers))
    parsed = roundtrip(doc)
    assert parsed.kind == "csp"
    assert parsed.payload.csp == csp
    assert parsed.payload.covers == covers


def test_csp_covers_default_to_schemes():
    csp = malawi_csp()
    doc = csp_document(CSPDocumentPayload(csp, tuple(c.scheme_set for c in csp.constraints)))
    del doc["covers"]
    parsed = roundtrip(doc)
    assert parsed.payload.covers == tuple(c.scheme_set for c in csp.constraints)


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
    payload = CSPDocumentPayload(malawi_csp(), (frozenset({"MOZ", "MWI"}),))
    assert document_for(payload)["kind"] == "csp"


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
