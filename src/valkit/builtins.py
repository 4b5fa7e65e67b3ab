"""The built-in model corpus.

Empirical models: bell (probabilistic, the 1/8-grid two-party table), hardy
(possibilistic support), ghz (three parties, parity supports), pr-box
(perfect correlations with one anti-correlated context). Knowledgebases:
screening (three guideline relations), malawi (map-colouring constraints
compiled to relations), liar(n) (a cycle of biconditionals with one negated
edge).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable

from .algebra import Knowledgebase
from .contextuality import EmpiricalModel, possibilistic_model, probabilistic_model
from .core import Record, VariableUniverse
from .errors import ArgumentError
from .logic import CSPInstance, Constraint, csp_to_knowledgebase, liar_cycle
from .relations import Relation


def bell_model() -> EmpiricalModel:
    universe = VariableUniverse.of([("a1", ("0", "1")), ("a2", ("0", "1")), ("b1", ("0", "1")), ("b2", ("0", "1"))])
    contexts = [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")]
    h = Fraction(1, 2)
    e = Fraction(1, 8)
    t = Fraction(3, 8)
    rows = {
        ("a1", "b1"): (h, Fraction(0), Fraction(0), h),
        ("a1", "b2"): (t, e, e, t),
        ("a2", "b1"): (t, e, e, t),
        ("a2", "b2"): (e, t, t, e),
    }
    outcomes = (("0", "0"), ("1", "0"), ("0", "1"), ("1", "1"))
    sections = {ctx: dict(zip(outcomes, values)) for ctx, values in rows.items()}
    return probabilistic_model(universe, contexts, sections)


def hardy_model() -> EmpiricalModel:
    universe = VariableUniverse.of([("a1", ("0", "1")), ("a2", ("0", "1")), ("b1", ("0", "1")), ("b2", ("0", "1"))])
    contexts = [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")]
    full = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    supports = {
        ("a1", "b1"): full,
        ("a1", "b2"): [o for o in full if o != ("0", "0")],
        ("a2", "b1"): [o for o in full if o != ("0", "0")],
        ("a2", "b2"): [o for o in full if o != ("1", "1")],
    }
    return possibilistic_model(universe, contexts, supports)


def _parity_outcomes(parity: int) -> list[tuple[str, str, str]]:
    out = []
    for bits in range(8):
        triple = ((bits >> 2) & 1, (bits >> 1) & 1, bits & 1)
        if sum(triple) % 2 == parity:
            out.append(tuple(str(b) for b in triple))
    return out


def ghz_model() -> EmpiricalModel:
    names = ["x1", "y1", "x2", "y2", "x3", "y3"]
    universe = VariableUniverse.of([(n, ("0", "1")) for n in names])
    contexts = [("x1", "x2", "x3"), ("x1", "y2", "y3"), ("y1", "x2", "y3"), ("y1", "y2", "x3")]
    quarter = Fraction(1, 4)
    sections = {}
    for ctx in contexts:
        parity = 0 if ctx == ("x1", "x2", "x3") else 1
        sections[ctx] = {outcome: quarter for outcome in _parity_outcomes(parity)}
    return probabilistic_model(universe, contexts, sections)


def pr_box_model() -> EmpiricalModel:
    universe = VariableUniverse.of([("a1", ("0", "1")), ("a2", ("0", "1")), ("b1", ("0", "1")), ("b2", ("0", "1"))])
    contexts = [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")]
    h = Fraction(1, 2)
    equal = {("0", "0"): h, ("1", "1"): h}
    differ = {("0", "1"): h, ("1", "0"): h}
    sections = {
        ("a1", "b1"): equal,
        ("a1", "b2"): equal,
        ("a2", "b1"): equal,
        ("a2", "b2"): differ,
    }
    return probabilistic_model(universe, contexts, sections)


def screening_knowledgebase() -> Knowledgebase:
    """Three screening-guideline sources over exam type, frequency, and age band."""
    universe = VariableUniverse.of([("a", ("54-", "54+")), ("e", ("M", "CBE")), ("f", ("Y", "2Y"))])
    r1 = Relation.from_rows(universe, ("e", "f"), [("M", "Y"), ("CBE", "Y"), ("CBE", "2Y")])
    r2 = Relation.from_rows(universe, ("a", "e"), [("54-", "M"), ("54+", "CBE")])
    r3 = Relation.from_rows(universe, ("a", "f"), [("54-", "Y"), ("54+", "2Y")])
    return Knowledgebase(universe, (r1, r2, r3))


MALAWI_COUNTRIES = ("MOZ", "MWI", "TZA", "ZMB", "ZWE")
MALAWI_COLORS = ("g", "r", "y")
# Borders on the map: Mozambique touches everything; Malawi, Tanzania and
# Zambia touch each other; Zimbabwe touches Mozambique and Zambia. The
# resulting constraint graph contains a K4, so three colours cannot work.
MALAWI_EDGES = (
    ("MOZ", "MWI"),
    ("MOZ", "TZA"),
    ("MOZ", "ZMB"),
    ("MOZ", "ZWE"),
    ("MWI", "TZA"),
    ("MWI", "ZMB"),
    ("TZA", "ZMB"),
    ("ZMB", "ZWE"),
)


def malawi_csp() -> CSPInstance:
    """Three-colouring of the region around Malawi as a CSP."""
    universe = VariableUniverse.of([(c, MALAWI_COLORS) for c in MALAWI_COUNTRIES])
    differ = [(x, y) for x in MALAWI_COLORS for y in MALAWI_COLORS if x != y]
    constraints = tuple(
        Constraint(edge, Relation.from_rows(universe, edge, differ)) for edge in MALAWI_EDGES
    )
    return CSPInstance(universe, constraints)


def malawi_knowledgebase() -> Knowledgebase:
    csp = malawi_csp()
    covers = [frozenset(edge) for edge in MALAWI_EDGES]
    return csp_to_knowledgebase(csp, covers)


def liar_knowledgebase(n: int, consistent: bool = False) -> Knowledgebase:
    return liar_cycle(n, consistent=consistent).knowledgebase()


class BuiltinSpec(Record):
    name: str
    kind: str  # "empirical-model" | "knowledgebase"
    summary: str
    factory: Callable


BUILTINS: tuple[BuiltinSpec, ...] = (
    BuiltinSpec("bell", "empirical-model", "two-party two-setting probabilistic model on the 1/8 grid", bell_model),
    BuiltinSpec("hardy", "empirical-model", "two-party possibilistic support with one non-extendable section", hardy_model),
    BuiltinSpec("ghz", "empirical-model", "three-party parity model with no consistent global assignment", ghz_model),
    BuiltinSpec("pr-box", "empirical-model", "perfectly correlated boxes with one anti-correlated context", pr_box_model),
    BuiltinSpec("liar(n)", "knowledgebase", "cycle of biconditionals with one negated edge (pass a length, e.g. liar(3))", None),
    BuiltinSpec("malawi", "knowledgebase", "three-colouring constraints for the map region around Malawi", malawi_knowledgebase),
    BuiltinSpec("screening", "knowledgebase", "three screening-guideline sources that agree pairwise but not globally", screening_knowledgebase),
)

_LIAR_PATTERN = re.compile(r"^liar\((\d+)\)$")


def builtin(name: str) -> EmpiricalModel | Knowledgebase:
    """Resolve a builtin by name; liar takes its length inline, e.g. liar(4)."""
    match = _LIAR_PATTERN.match(name)
    if match:
        return liar_knowledgebase(int(match.group(1)))
    for spec in BUILTINS:
        if spec.name == name and spec.factory is not None:
            return spec.factory()
    known = ", ".join(spec.name for spec in BUILTINS)
    raise ArgumentError(f"unknown builtin {name!r}; known: {known}")
