"""Measurement scenarios, empirical models, and the contextuality hierarchy.

An empirical model is a knowledgebase of sections, one per context: rational
potentials, or for a possibilistic model the relations of possible outcomes.
No-signalling is exactly local agreement of that knowledgebase. The supports
form a relation knowledgebase whose combination Gamma holds every globally
consistent assignment. The model is logically contextual when it disagrees
globally, strongly contextual when it disagrees completely (Gamma is empty),
and probabilistically contextual when no global distribution reproduces the
sections, which exact feasibility decides.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Knowledgebase
from .core import Assignment, Domain, NONNEG_RATIONAL, Record, VariableUniverse
from .disagreement import GlobalVerdict, check_local_agreement, support_analysis, support_knowledgebase, tree_verdict
from .errors import ArgumentError, SignallingError
from .inference import DEFAULT_CELL_LIMIT
from .potentials import Potential, total_mass
from .relations import Relation

PROBABILISTIC = "probabilistic"
POSSIBILISTIC = "possibilistic"


class MeasurementScenario(Record):
    """Measurements with outcome frames and an antichain cover of contexts."""

    universe: VariableUniverse
    contexts: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.contexts:
            raise ArgumentError("a scenario needs at least one context")
        seen = set()
        for ctx in self.contexts:
            if not ctx:
                raise ArgumentError("contexts must be nonempty")
            if len(set(ctx)) != len(ctx):
                raise ArgumentError(f"context {ctx!r} repeats a measurement")
            self.universe.check_domain(frozenset(ctx))
            seen.update(ctx)
        if seen != set(self.universe.names):
            missing = sorted(set(self.universe.names) - seen)
            raise ArgumentError(f"measurements outside every context: {missing}")
        sets = [frozenset(c) for c in self.contexts]
        for i in range(len(sets)):
            for j in range(len(sets)):
                if i != j and sets[i] <= sets[j]:
                    raise ArgumentError(
                        f"cover must be an antichain; context {self.contexts[i]!r} "
                        f"is contained in {self.contexts[j]!r}"
                    )


class EmpiricalModel(Record):
    scenario: MeasurementScenario
    kind: str  # PROBABILISTIC | POSSIBILISTIC
    sections: tuple[Potential, ...] | tuple[Relation, ...]  # aligned with scenario.contexts

    def __post_init__(self):
        if self.kind not in (PROBABILISTIC, POSSIBILISTIC):
            raise ArgumentError(f"unknown model kind {self.kind!r}")
        if len(self.sections) != len(self.scenario.contexts):
            raise ArgumentError("one section per context is required")
        for ctx, section in zip(self.scenario.contexts, self.sections):
            if section.domain != frozenset(ctx):
                raise ArgumentError(f"section domain {sorted(section.domain)} does not match context {ctx!r}")
            if self.kind == PROBABILISTIC:
                if not isinstance(section, Potential) or section.semiring != NONNEG_RATIONAL:
                    raise ArgumentError("probabilistic sections must be rational potentials")
                mass = total_mass(section)
                if mass != 1:
                    raise ArgumentError(f"section over {ctx!r} sums to {mass}, not 1")
            else:
                if not isinstance(section, Relation):
                    raise ArgumentError("possibilistic sections must be relations")
                if section.is_empty():
                    raise ArgumentError(f"section over {ctx!r} has empty support")

    def _position(self, context: tuple[str, ...]) -> int:
        if tuple(context) not in self.scenario.contexts:
            raise ArgumentError(f"{tuple(context)!r} is not a context of this scenario")
        return self.scenario.contexts.index(tuple(context))

    def section_for(self, context: tuple[str, ...]) -> Potential | Relation:
        return self.sections[self._position(context)]

    def support_for(self, context: tuple[str, ...]) -> Relation:
        return self.support_knowledgebase().valuations[self._position(context)]

    def knowledgebase(self) -> Knowledgebase:
        return Knowledgebase(self.scenario.universe, self.sections)

    def support_knowledgebase(self) -> Knowledgebase:
        """The supports as a relation knowledgebase: a possibilistic model's own knowledgebase."""
        return support_knowledgebase(self.knowledgebase())


class NoSignallingVerdict(Record):
    passed: bool
    pair: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    overlap: Domain | None = None
    marginals: tuple[Potential, Potential] | tuple[Relation, Relation] | None = None


def check_no_signalling(model: EmpiricalModel) -> NoSignallingVerdict:
    """No-signalling is local agreement of the model's sections."""
    local = check_local_agreement(model.knowledgebase())
    if local.agrees:
        return NoSignallingVerdict(True)
    contexts = model.scenario.contexts
    i, j = local.pair
    return NoSignallingVerdict(False, pair=(contexts[i - 1], contexts[j - 1]), overlap=local.overlap, marginals=local.projections)


class ContextualityReport(Record):
    gamma: Relation
    strongly_contextual: bool
    logically_contextual: bool
    probabilistically_contextual: bool | None
    classification: str  # "NC" | "PC" | "LC" | "SC"
    lc_witness: tuple[tuple[str, ...], Assignment] | None = None
    sc_context: tuple[str, ...] | None = None
    feasibility: GlobalVerdict | None = None


def classify(model: EmpiricalModel, cell_limit: int | None = DEFAULT_CELL_LIMIT) -> ContextualityReport:
    """The model analysis: place a model in the hierarchy NC < PC < LC < SC.

    A signalling model raises SignallingError, whose `verdict` names the pair.
    LC and SC are the global and complete disagreement of the supports, read
    off the support analysis's tree as for a knowledgebase. The LC witness
    is the first context whose support exceeds its projection of Gamma, with
    its least missing section; PC is the failure of the marginal feasibility
    system that the same analysis solves.
    """
    no_signalling = check_no_signalling(model)
    if not no_signalling.passed:
        raise SignallingError(no_signalling)
    tree, feasibility = support_analysis(model.knowledgebase(), cell_limit)
    verdict = tree_verdict(tree)
    g = verdict.truth if verdict.agrees else tree.combination()

    strongly = tree.cliques[-1].is_empty()
    sc_context = model.scenario.contexts[0] if strongly else None

    logically = not verdict.agrees
    lc_witness = None
    if logically:
        support = tree.knowledgebase.valuations[verdict.witness_index - 1]
        least_missing = Assignment.from_row(support.domain, min(support.tuples - verdict.projected.tuples))
        lc_witness = (model.scenario.contexts[verdict.witness_index - 1], least_missing)

    probabilistically = None if feasibility is None else not feasibility.agrees
    return ContextualityReport(
        gamma=g,
        strongly_contextual=strongly,
        logically_contextual=logically,
        probabilistically_contextual=probabilistically,
        classification="SC" if strongly else "LC" if logically else "PC" if probabilistically else "NC",
        lc_witness=lc_witness,
        sc_context=sc_context,
        feasibility=feasibility,
    )


def gamma(model: EmpiricalModel, cell_limit: int | None = DEFAULT_CELL_LIMIT) -> Relation:
    """The combination of all context supports, every globally consistent assignment: `classify`'s Gamma.

    It refuses wherever `classify` does, e.g. for a probabilistic model past
    the marginal system's 4096-column cap.
    """
    return classify(model, cell_limit).gamma


def probabilistic_model(
    universe: VariableUniverse,
    contexts: list[tuple[str, ...]],
    sections: dict[tuple[str, ...], dict[tuple[str, ...], Fraction | int | str]],
) -> EmpiricalModel:
    """Convenience constructor from nested outcome tables; missing outcomes get 0."""
    scenario = MeasurementScenario(universe, tuple(contexts))
    built = []
    for ctx in scenario.contexts:
        table = {}
        for outcome, value in sections[ctx].items():
            table[Assignment.of(dict(zip(ctx, outcome)))] = Fraction(value)
        built.append(
            Potential.from_table(universe, frozenset(ctx), NONNEG_RATIONAL, table, default=Fraction(0))
        )
    return EmpiricalModel(scenario, PROBABILISTIC, tuple(built))


def possibilistic_model(
    universe: VariableUniverse,
    contexts: list[tuple[str, ...]],
    supports: dict[tuple[str, ...], list[tuple[str, ...]]],
) -> EmpiricalModel:
    """Convenience constructor from supported outcome lists, each outcome in context order."""
    scenario = MeasurementScenario(universe, tuple(contexts))
    built = tuple(Relation.from_rows(universe, ctx, supports[ctx]) for ctx in scenario.contexts)
    return EmpiricalModel(scenario, POSSIBILISTIC, built)
