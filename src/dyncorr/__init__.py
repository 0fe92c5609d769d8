"""Dynamic-correlation estimation for Brownian and geometric Brownian pairs.

The package simulates path pairs whose correlation follows a prescribed
time profile, evaluates weighted correlation estimators on them, provides
closed-form expectation oracles for those estimators, and runs seeded
Monte Carlo experiments comparing the two.
"""

__version__ = "0.1.0"

from .bessel import bessel_k
from .bm import (
    BmEstimatorParams,
    EstimateSeries,
    estimate_bm,
    expected_gamma_bm,
    expected_ratio_q,
    expected_sigma_sq_bm,
    gamma_hat_bm,
    rho_hat_bm,
    sigma_sq_hat_bm,
)
from .errors import (
    DegenerateVariance,
    DomainError,
    DyncorrError,
    IncrementInfeasible,
    IndexOutOfRange,
    NegativeVarianceEstimate,
    NumericRange,
    PathOverflow,
    ProfileOutOfRange,
)
from .gbm import (
    GbmEstimateSeries,
    GbmEstimatorParams,
    NonconvergentSeriesWarning,
    estimate_gbm,
    expected_gamma_gbm_v1,
    expected_gamma_gbm_v2,
    expected_ratio_gbm,
    expected_sigma_sq_gbm_v1,
    expected_sigma_sq_gbm_v2,
    gamma_hat_gbm_v1,
    gamma_hat_gbm_v2,
    r_from_rho,
    rho_from_r,
    rho_hat_gbm,
    sigma_sq_hat_gbm,
)
from .harness import (
    EXPERIMENTS,
    CheckResult,
    ExperimentConfig,
    McReport,
    check_exp_abs_bound,
    check_product_moments,
    run_experiment,
)
from .profiles import CorrelationProfile, TimeGrid, build_profile
from .simulate import (
    BmPathPair,
    GbmPathPair,
    gbm_transform,
    replication_rng,
    simulate_bm_batch,
    simulate_bm_pair,
    simulate_gbm_pair,
)
from .vg import VgParams, product_normal_vg_params, vg_moments, vg_pdf

# The names the README and the tests use; the rest stay importable by name.
__all__ = [
    "bessel_k",
    "BmEstimatorParams", "estimate_bm", "expected_gamma_bm", "expected_ratio_q",
    "expected_sigma_sq_bm", "gamma_hat_bm", "rho_hat_bm", "sigma_sq_hat_bm",
    "DegenerateVariance", "DomainError", "DyncorrError", "IncrementInfeasible",
    "IndexOutOfRange", "NegativeVarianceEstimate", "NumericRange",
    "PathOverflow", "ProfileOutOfRange",
    "GbmEstimatorParams", "NonconvergentSeriesWarning",
    "estimate_gbm", "expected_gamma_gbm_v1", "expected_gamma_gbm_v2",
    "expected_ratio_gbm", "expected_sigma_sq_gbm_v1", "expected_sigma_sq_gbm_v2",
    "gamma_hat_gbm_v1", "gamma_hat_gbm_v2", "r_from_rho", "rho_from_r",
    "rho_hat_gbm", "sigma_sq_hat_gbm",
    "ExperimentConfig", "check_exp_abs_bound", "check_product_moments", "run_experiment",
    "CorrelationProfile", "TimeGrid", "build_profile",
    "gbm_transform", "replication_rng",
    "simulate_bm_batch", "simulate_bm_pair", "simulate_gbm_pair",
    "VgParams", "product_normal_vg_params", "vg_moments", "vg_pdf",
]
