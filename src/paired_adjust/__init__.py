"""Regression-adjusted estimation and conservative inference for
paired randomized experiments.

The library estimates the average treatment effect over n pairs three
ways (plain mean of pair differences, and two regression-adjusted
intercept estimators), attaches variance estimates that are
conservative for the in-sample effect, and provides a superpopulation
correction for population-level inference. A simulation harness and an
exact enumeration oracle over all 2^n assignments support verifying
the estimators' randomization behavior.
"""

from .dgp import (
    PotentialOutcomeSample,
    draw_pair_covariates,
    generate_sample,
    load_science_table,
    observe_covariates,
    response_surfaces,
    write_science_table,
)
from .errors import (
    BadAlpha,
    BadArgument,
    ConfigError,
    DataError,
    DegenerateDenominator,
    DimensionMismatch,
    LengthMismatch,
    LeverageOne,
    MalformedRow,
    NonFiniteTransform,
    NumericalError,
    PairedAdjustError,
    PairViolation,
    RankDeficient,
    TooFewPairs,
    TooLarge,
    WrongEstimator,
)
from .estimators import (
    EstimateReport,
    confidence_interval,
    estimate_classical,
    estimate_r1,
    estimate_r2,
    normal_quantile,
    superpop_correct,
)
from .experiment_model import (
    DesignDiagnostics,
    DesignMatrices,
    PairedExperiment,
    TransformSpec,
    build_design,
    load_experiment_csv,
    validate_design,
    write_experiment_csv,
)
from .ols_core import (
    FitResult,
    intercept_variance_classical,
    intercept_variance_hc,
    least_squares,
)
from .randomization_engine import (
    ENUMERATION_CAP,
    ExactDistribution,
    EstimatorSummary,
    LemmaDiagnostics,
    RandomizationSummary,
    StudyConfig,
    StudyReport,
    assignment_signs,
    enumerate_exact,
    lemma_diagnostics,
    randomize,
    reveal,
    run_monte_carlo,
    run_study,
)
from .rng import ROLE_ASSIGN, ROLE_GENERIC, ROLE_SAMPLE, substream

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # experiment model
    "PairedExperiment",
    "TransformSpec",
    "DesignMatrices",
    "DesignDiagnostics",
    "load_experiment_csv",
    "write_experiment_csv",
    "build_design",
    "validate_design",
    # least squares
    "FitResult",
    "least_squares",
    "intercept_variance_classical",
    "intercept_variance_hc",
    # estimators
    "EstimateReport",
    "estimate_classical",
    "estimate_r1",
    "estimate_r2",
    "superpop_correct",
    "confidence_interval",
    "normal_quantile",
    # data generation
    "PotentialOutcomeSample",
    "draw_pair_covariates",
    "observe_covariates",
    "response_surfaces",
    "generate_sample",
    "write_science_table",
    "load_science_table",
    # randomization engine
    "ENUMERATION_CAP",
    "ExactDistribution",
    "RandomizationSummary",
    "EstimatorSummary",
    "StudyConfig",
    "StudyReport",
    "LemmaDiagnostics",
    "randomize",
    "assignment_signs",
    "reveal",
    "enumerate_exact",
    "run_monte_carlo",
    "run_study",
    "lemma_diagnostics",
    # rng
    "substream",
    "ROLE_SAMPLE",
    "ROLE_ASSIGN",
    "ROLE_GENERIC",
    # errors
    "PairedAdjustError",
    "DataError",
    "MalformedRow",
    "PairViolation",
    "DimensionMismatch",
    "TooFewPairs",
    "NonFiniteTransform",
    "LengthMismatch",
    "NumericalError",
    "RankDeficient",
    "DegenerateDenominator",
    "LeverageOne",
    "ConfigError",
    "BadArgument",
    "BadAlpha",
    "WrongEstimator",
    "TooLarge",
]
