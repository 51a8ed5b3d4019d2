"""Averaged-map fixed-point iteration schemes with numerical contraction
certificates, C-class validators, and a built-in problem suite."""

from .cclass import (
    AlteringDistance,
    CClassFunction,
    CClassTriple,
    Grid1D,
    Grid2D,
    MonotoneResult,
    MonotoneState,
    PhiU,
    ValidationReport,
    builtin_triples,
    get_triple,
    validate_altering,
    validate_cclass,
    validate_monotone_triple,
    validate_phiu,
)
from .contraction import (
    Coefficients,
    ContractionCertificate,
    ContractionVariant,
    PairSampler,
    SumMode,
    Variant,
    certify,
    cclass_check_pair,
    hr_sides,
    jungck_sides,
    pair_holds,
)
from .errors import (
    ConfigError,
    EvaluationError,
    InvalidConfig,
    InvalidInput,
    InverseError,
    NoRootBracketed,
)
from .problems import (
    ProblemInstance,
    builtin_problems,
    get_problem,
    oracle_fixed_point_1d,
    probe_starts,
    random_affine,
)
from .solver import (
    IterationTrace,
    PairProblem,
    ProbeReport,
    Scheme,
    SolverConfig,
    Status,
    run_jungck_schaefer,
    run_picard,
    run_schaefer,
    uniqueness_probe,
    verdict_common_fixed_point,
    verdict_fixed_point,
)
from .space import (
    AveragedMap,
    CommuteResult,
    Mapping,
    NormKind,
    Point,
    check_commuting,
    distance,
    norm,
)

__version__ = "0.1.0"
