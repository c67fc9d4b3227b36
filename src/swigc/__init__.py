"""swigc: compile trial specs with intercurrent-event strategies into
single-world intervention graphs, identification derivations with
machine-checkable premises, and graph markup.

The flow mirrors a compiler: parse_study (front end), compile_study
(strategy lowering), split / d_separated (graph core), identify_estimand
(derivation engine), check_soundness and friends (ground-truth oracle),
to_tikz / to_dot (back ends).
"""

from .dsep import DSepQuery, PathWitness, d_connected, d_separated, open_paths, path_string
from .dsl import GRAMMAR_VERSION, parse_file, parse_study, serialize
from .errors import (
    AlreadySplit,
    CompositeNonBinary,
    ConflictingStrategies,
    CycleError,
    DuplicateName,
    EmptyStratum,
    GraphError,
    LatentIntervention,
    OracleError,
    OverlappingSets,
    ParseError,
    SemanticError,
    SpecError,
    SupportTooLarge,
    SwigcError,
    UnknownEndpoint,
    UnknownNode,
    UnknownVariable,
    ZeroProbabilityCondition,
)
from .estimand import CompiledEstimand, compile_study, study_swig
from .formula import (
    Difference,
    Event,
    Expect,
    Formula,
    SumOver,
    Term,
    is_identified,
    render,
)
from .graph import (
    CausalGraph,
    CompositeRule,
    Context,
    NodeAttrs,
    NodeId,
    Value,
    build_graph,
    canonical_json,
    format_assignment,
    format_term,
    graph_from_payload,
    graph_to_payload,
)
from .identify import (
    CrossWorld,
    DerivationStep,
    EstimandReport,
    Identified,
    IdentifyResult,
    NotIdentifiable,
    OpenBackdoor,
    PartiallyIdentified,
    identify_estimand,
    identify_term,
    render_trace,
    verdict_code,
)
from .model import (
    Composite,
    Hypothetical,
    PrincipalStratum,
    SCMSpec,
    Strategy,
    StructuralEquation,
    StudySpec,
    TreatmentPolicy,
)
from .oracle import (
    PotentialOutcomeTable,
    SoundnessReport,
    TableRow,
    check_soundness,
    conditionally_independent,
    data_model,
    enumerate_table,
    eval_formula,
    naive_formula,
    random_scm,
    soundness_battery,
    true_estimand,
    validate_consistency,
    write_csv,
)
from .markup import to_dot, to_tikz
from .swig import SWIG, split, swig_to_payload

__version__ = "0.1.0"

__all__ = [
    "GRAMMAR_VERSION",
    "__version__",
    # graph
    "CausalGraph",
    "CompositeRule",
    "Context",
    "NodeAttrs",
    "NodeId",
    "Value",
    "build_graph",
    "canonical_json",
    "format_assignment",
    "format_term",
    "graph_from_payload",
    "graph_to_payload",
    # splitting
    "SWIG",
    "split",
    "swig_to_payload",
    # separation
    "DSepQuery",
    "PathWitness",
    "d_connected",
    "d_separated",
    "open_paths",
    "path_string",
    # studies
    "Composite",
    "Hypothetical",
    "PrincipalStratum",
    "SCMSpec",
    "Strategy",
    "StructuralEquation",
    "StudySpec",
    "TreatmentPolicy",
    "parse_study",
    "parse_file",
    "serialize",
    # estimand compilation
    "CompiledEstimand",
    "compile_study",
    "study_swig",
    # formulas
    "Difference",
    "Event",
    "Expect",
    "Formula",
    "SumOver",
    "Term",
    "is_identified",
    "render",
    # identification
    "CrossWorld",
    "DerivationStep",
    "EstimandReport",
    "Identified",
    "IdentifyResult",
    "NotIdentifiable",
    "OpenBackdoor",
    "PartiallyIdentified",
    "identify_estimand",
    "identify_term",
    "render_trace",
    "verdict_code",
    # oracle
    "PotentialOutcomeTable",
    "SoundnessReport",
    "TableRow",
    "check_soundness",
    "conditionally_independent",
    "data_model",
    "enumerate_table",
    "eval_formula",
    "naive_formula",
    "random_scm",
    "soundness_battery",
    "true_estimand",
    "validate_consistency",
    "write_csv",
    # rendering
    "to_dot",
    "to_tikz",
    # errors
    "SwigcError",
    "GraphError",
    "CycleError",
    "DuplicateName",
    "UnknownEndpoint",
    "UnknownNode",
    "UnknownVariable",
    "LatentIntervention",
    "AlreadySplit",
    "OverlappingSets",
    "SpecError",
    "ParseError",
    "SemanticError",
    "ConflictingStrategies",
    "CompositeNonBinary",
    "OracleError",
    "SupportTooLarge",
    "EmptyStratum",
    "ZeroProbabilityCondition",
]
