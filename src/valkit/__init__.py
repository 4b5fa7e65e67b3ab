"""Valuation algebras, generic inference, disagreement, and contextuality."""

from .algebra import (
    AxiomCheck,
    Knowledgebase,
    PotentialAlgebra,
    RelationAlgebra,
    ValuationAlgebra,
    axiom_suite,
)
from .builtins import BUILTINS, builtin
from .contextuality import (
    ContextualityReport,
    EmpiricalModel,
    MeasurementScenario,
    check_no_signalling,
    classify,
    gamma,
    possibilistic_model,
    probabilistic_model,
)
from .core import (
    NONNEG_RATIONAL,
    Assignment,
    Domain,
    Frame,
    Semiring,
    VariableUniverse,
    dom,
    enumerate_assignments,
)
from .disagreement import (
    AgreementReport,
    GlobalVerdict,
    LocalVerdict,
    analyze_knowledgebase,
    check_complete_disagreement,
    check_global_agreement_adjoint,
    check_global_agreement_potentials,
    check_local_agreement,
    combination_verdict,
    search_truth_valuations,
)
from .errors import (
    ArgumentError,
    CapabilityError,
    DomainError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
    SemiringMismatchError,
    SignallingError,
    UniverseMismatchError,
    ValkitError,
)
from .feasibility import (
    FarkasCertificate,
    FeasibilityResult,
    LinearSystem,
    solve_feasibility,
    validate_certificate,
    validate_solution,
)
from .inference import (
    DEFAULT_CELL_LIMIT,
    InferenceProblem,
    heuristic_order,
    solve_fusion,
    solve_naive,
)
from .logic import (
    Constraint,
    CSPInstance,
    PropositionalSystem,
    csp_to_knowledgebase,
    liar_cycle,
)
from .potentials import (
    Potential,
    combine_potentials,
    constant_potential,
    neutral_potential,
    null_potential,
    project_potential,
    support_relation,
    total_mass,
)
from .relations import (
    AdjointnessReport,
    Relation,
    adjointness_suite,
    empty_relation,
    full_relation,
    natural_join,
    project_relation,
    relation_leq,
)

__version__ = "0.1.0"
