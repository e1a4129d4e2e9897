"""p-norm sampling trees and the sampling-based subroutines built on them."""

from .ptree import (
    EmptyDistributionError,
    TreeAuditError,
    WeightedMatrixTree,
    WeightedVectorTree,
    build_matrix_tree,
    build_vector_tree,
)
from .randkit import (
    DistributionSpec,
    MomentProfile,
    moment_profile,
    parse_distribution,
    stream,
)
from .estimators import (
    EstimateReport,
    UndefinedScaleError,
    empirical_improvement_factor,
    error_scale,
    estimate_inner_product,
    estimate_trace_inner_product,
    f_curve,
)
from .lincomb import (
    CombinationSampler,
    MpReport,
    NonTerminationError,
    RejectionSampleResult,
    exact_m,
    measure_mp,
    mp_curve,
    run_ratio_experiment,
    theoretical_limit,
    theoretical_mp,
)
from .dfe import (
    DfeRun,
    NoiseModel,
    TargetState,
    bound_comparison,
    depolarizing,
    ghz_state,
    no_noise,
    run_dfe,
    w_state,
    z_exact,
    z_prime,
    z_upper_bound,
)
from .sparseio import SparseFormatError, SparseMatrix, load_matrix, synthetic_sparse

__version__ = "0.1.0"
