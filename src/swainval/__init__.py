"""swainval: model invalidation and guaranteed fault detection for
hidden-mode switched affine systems with parametric uncertainty.

The package builds mixed-integer linear feasibility problems that decide
whether observed input/output data is consistent with a switched affine
model (invalidation), and whether two such models can ever produce the same
data over a horizon (detectability).  A bundled branch-and-bound solver
answers the feasibility questions exactly; an external solver can be
plugged in through LP files (``SolverConfig.external_command``).
"""

from .model import (
    AffineMode,
    HyperRectangle,
    SwitchedAffineModel,
    Trajectory,
    SimulationDraw,
    RandomPolicy,
    DimensionError,
    StateBoundViolation,
    NoAdmissibleDraw,
    simulate,
    simulate_random,
    discretize_affine,
    submodel,
    strip_uncertainty,
)
from .milp import (
    MilpProblem,
    Witness,
    UnboundedSet,
    export_lp,
    parse_lp,
    verify,
)
from .solver import (
    FEASIBLE,
    INFEASIBLE,
    BUDGET_EXCEEDED,
    SolverConfig,
    SolveResult,
    SolverNumericalError,
    SolverSession,
    solve_milp,
    check_certificate,
)
from .encoder import (
    CONSISTENT,
    INVALIDATED,
    UNDECIDED,
    ExplicitWords,
    StructuredTuple,
    CountBand,
    Indicator,
    prefix_indicator,
    InvalidationEncoding,
    PairEncoding,
    InputOutsideAdmissibleSet,
    EmptyInputIntersection,
    WindowTooLong,
    BadMode,
    BadIndicator,
    encode_invalidation,
    encode_t_detectability,
    apply_indicator,
    decode_invalidation_witness,
    decode_pair_witness,
    Explanation,
    CommonBehavior,
    InvalidationResult,
    check_invalidation,
)
from .detectability import (
    TDetectabilityResult,
    DetectabilityReport,
    MonotonicityViolation,
    ConversePathsDisagree,
    check_t_detectability,
    find_T,
)
from .detector import (
    WindowVerdict,
    DetectionReport,
    StreamingDetector,
    run_receding,
    run_streaming,
    inject_persistent_fault,
    default_window_config,
)
from .examples import (
    BUILTIN_NAMES,
    UnknownName,
    ScenarioSpec,
    load_builtin,
    builtin_pair,
    asset_path,
    scenario_specs,
    numeric_system,
    numeric_fault,
    numeric_family,
    radiant_system,
    radiant_fault,
    radiant_weak_fault,
)
from .fileio import (
    FileFormatError,
    save_model,
    load_model,
    save_trajectory,
    load_trajectory,
    trajectory_to_csv,
    trajectory_from_csv,
    save_indicator,
    load_indicator,
    parse_indicator_arg,
)
from .external import (
    ExternalSolverError,
    external_command_from_env,
)

__version__ = "0.1.0"

__all__ = [
    # model
    "AffineMode", "HyperRectangle", "SwitchedAffineModel", "Trajectory",
    "SimulationDraw", "RandomPolicy", "DimensionError",
    "StateBoundViolation", "NoAdmissibleDraw", "simulate", "simulate_random",
    "discretize_affine", "submodel", "strip_uncertainty",
    # milp
    "MilpProblem", "Witness", "UnboundedSet", "export_lp", "parse_lp",
    "verify",
    # solver
    "FEASIBLE", "INFEASIBLE", "BUDGET_EXCEEDED", "SolverConfig",
    "SolveResult", "SolverNumericalError", "SolverSession", "solve_milp",
    "check_certificate",
    # encoder
    "CONSISTENT", "INVALIDATED", "UNDECIDED", "ExplicitWords",
    "StructuredTuple", "CountBand", "Indicator", "prefix_indicator",
    "InvalidationEncoding", "PairEncoding", "InputOutsideAdmissibleSet",
    "EmptyInputIntersection", "WindowTooLong", "BadMode", "BadIndicator",
    "encode_invalidation", "encode_t_detectability", "apply_indicator",
    "decode_invalidation_witness", "decode_pair_witness", "Explanation",
    "CommonBehavior", "InvalidationResult", "check_invalidation",
    # detectability
    "TDetectabilityResult", "DetectabilityReport", "MonotonicityViolation",
    "ConversePathsDisagree", "check_t_detectability", "find_T",
    # detector
    "WindowVerdict", "DetectionReport", "StreamingDetector", "run_receding",
    "run_streaming", "inject_persistent_fault", "default_window_config",
    # examples
    "BUILTIN_NAMES", "UnknownName", "ScenarioSpec", "load_builtin",
    "builtin_pair", "asset_path", "scenario_specs", "numeric_system",
    "numeric_fault", "numeric_family", "radiant_system", "radiant_fault",
    "radiant_weak_fault",
    # fileio
    "FileFormatError", "save_model", "load_model", "save_trajectory",
    "load_trajectory", "trajectory_to_csv", "trajectory_from_csv",
    "save_indicator", "load_indicator", "parse_indicator_arg",
    # external
    "ExternalSolverError", "external_command_from_env",
    "__version__",
]
