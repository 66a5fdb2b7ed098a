"""Optimal sample-mean estimation from five-number-summary fragments.

The package covers the full workflow: normal order-statistic moments
(`order_stats`), MSE-optimal and approximate estimator weights (`weights`),
the mean and SD estimators themselves (`estimators`), the relative-MSE
evaluation protocol (`simulation`), and a random-effects meta-analysis
pipeline over heterogeneous study summaries (`meta`). The `optmean` CLI
exposes each stage with reproducible seeds and machine-readable output.
"""

from .errors import FitConvergenceError, NumericalError, ScenarioError
from .estimators import (
    Estimate,
    FiveNumberSummary,
    mean_bland,
    mean_hozo,
    mean_optimal,
    mean_wan_s2,
    mean_weighted,
    sd_estimate,
)
from .meta import (
    MetaResult,
    StudyEffect,
    StudyRecord,
    cohens_d,
    heterogeneity,
    odds_ratio_to_d,
    pool_random_effects,
    run_case_study,
)
from .order_stats import (
    AsymptoticQuantileCov,
    OrderIndexSet,
    OrderStatMoments,
    asymptotic_cov,
    moments_mc,
    moments_quadrature,
    normal_cdf,
    normal_pdf,
    normal_quantile,
)
from .simulation import (
    DistributionSpec,
    RmseReport,
    SimulationConfig,
    distribution,
    draw_sample,
    run_rmse,
    summarize,
)
from .weights import (
    FitCoefficients,
    Scenario,
    WeightSet,
    approx_weight,
    fit_power_law,
    optimal_weight_s1,
    optimal_weight_s2,
    optimal_weights_s3,
    weighted_mse,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticQuantileCov",
    "DistributionSpec",
    "Estimate",
    "FitCoefficients",
    "FitConvergenceError",
    "FiveNumberSummary",
    "MetaResult",
    "NumericalError",
    "OrderIndexSet",
    "OrderStatMoments",
    "RmseReport",
    "ScenarioError",
    "Scenario",
    "SimulationConfig",
    "StudyEffect",
    "StudyRecord",
    "WeightSet",
    "approx_weight",
    "asymptotic_cov",
    "cohens_d",
    "distribution",
    "draw_sample",
    "fit_power_law",
    "heterogeneity",
    "mean_bland",
    "mean_hozo",
    "mean_optimal",
    "mean_wan_s2",
    "mean_weighted",
    "moments_mc",
    "moments_quadrature",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "odds_ratio_to_d",
    "optimal_weight_s1",
    "optimal_weight_s2",
    "optimal_weights_s3",
    "pool_random_effects",
    "run_case_study",
    "run_rmse",
    "sd_estimate",
    "summarize",
    "weighted_mse",
]
