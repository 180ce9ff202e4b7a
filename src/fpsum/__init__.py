"""Fractional-Poisson random sums, the Normal-Mittag-Leffler law, and
moment-based fitting with delta-method standard errors."""

from .distributions import (
    CompLaw,
    FractionalPoissonLaw,
    MittagLefflerLaw,
    NmlLaw,
    RngStream,
)
from .errors import (
    DataError,
    DomainError,
    EstimationError,
    EvaluationError,
    FpsumError,
)
from .estimation import (
    BoundaryFlag,
    FitBatch,
    FitResult,
    FittedCumulants,
    MomentSummary,
    asymptotic_covariance,
    fitted_cumulants,
    h,
    h_inverse,
    h_prime,
    mm_fit,
    mm_fit_many,
    moment_covariance,
    population_moments,
)
from .random_sums import (
    ConvergenceReport,
    McExperimentConfig,
    SummandSpec,
    comp_random_sum,
    convergence_sweep,
    fp_random_sum,
    ks_distance,
    nml_cdf,
    run_mc_tables,
)
from .special_functions import mittag_leffler

__version__ = "0.1.0"

__all__ = [
    "BoundaryFlag",
    "CompLaw",
    "ConvergenceReport",
    "DataError",
    "DomainError",
    "EstimationError",
    "EvaluationError",
    "FitBatch",
    "FitResult",
    "FittedCumulants",
    "FpsumError",
    "FractionalPoissonLaw",
    "McExperimentConfig",
    "MittagLefflerLaw",
    "MomentSummary",
    "NmlLaw",
    "RngStream",
    "SummandSpec",
    "asymptotic_covariance",
    "comp_random_sum",
    "convergence_sweep",
    "fitted_cumulants",
    "fp_random_sum",
    "h",
    "h_inverse",
    "h_prime",
    "ks_distance",
    "mittag_leffler",
    "mm_fit",
    "mm_fit_many",
    "moment_covariance",
    "nml_cdf",
    "population_moments",
    "run_mc_tables",
]
