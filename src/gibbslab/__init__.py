"""Gibbs measures for finite-memory potentials on mixing subshifts of
finite type: exact transfer-matrix spectral data, equivalence
diagnostics, and statistical limit theorems at desk scale."""

from . import cone, gibbs, models, potential, sampler, shift_space, stats, transfer, verify
from .errors import (
    DegenerateVariance,
    GibbsLabError,
    NoConvergence,
    NonPositive,
    NoPath,
    NotLattice,
    NotPrimitive,
    NumericalError,
    OutOfRange,
    RowColumnEmpty,
    SizeGuard,
    SolveFailure,
    TooShort,
    Undefined,
    ValidationError,
)
from .gibbs import (
    GibbsMeasure,
    entropy,
    expectation,
    gibbs_measure,
    gibbs_ratio_scan,
    markov_measure,
    variational_defect,
    wasserstein_distance,
    wasserstein_lp,
)
from .potential import (
    FiniteMemoryFunction,
    affine_combine,
    birkhoff_sum,
    holder_seminorm,
    total_variation,
    var_n,
)
from .shift_space import (
    ShiftSpace,
    canonical_extension,
    connecting_word,
    enumerate_words,
    recode,
    validate,
)
from .stats import (
    LatticeDistribution,
    PressureFamily,
    RateFunctionPoint,
    asymptotic_variance,
    clt_diagnostics,
    cohomology_check,
    correlation,
    exact_birkhoff_distribution,
    ldp_empirical,
    local_limit_check,
    pressure_derivative_check,
    rate_function,
)
from .transfer import (
    EigenData,
    TransferSystem,
    build,
    constants_report,
    dominant_eigendata,
    normalized_operator,
    pressure_via_partition,
)

__version__ = "0.1.0"
