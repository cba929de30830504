"""Bivariate Weibull mixture modeling for lifetimes with instantaneous
and early failures."""

__version__ = "0.1.0"

from .bivariate import BivariateWeibull, bvw_cdf, bvw_hazard, bvw_pdf, bvw_survival
from .clustering import DbscanParams, dbscan, origin_cluster_mask, select_eps
from .copulas import (
    CopulaSpec,
    GaussianCopulaParams,
    GfgmParams,
    conditional_cdf,
    conditional_quantile,
    copula_cdf,
    copula_density,
    std_bivariate_normal_cdf,
)
from .fitting import (
    FitResult,
    aic,
    bootstrap,
    compute_se,
    d_confidence_interval,
    deviance_test,
    estimate_d,
    fit_m1,
    fit_m2,
    fit_mbw,
    loglik_mbw,
)
from .mixture import (
    MbwParams,
    hazard_grid,
    mbw_cdf,
    mbw_hazard,
    mbw_pdf,
    mbw_survival,
    mixture_weight,
)
from .sampler import SeededStream, sample_bvw, sample_mbw
from .studies import StudyConfig, StudyReport, bias_mse, coverage_probability, run_study
from .univariate import (
    RectUniform,
    WeibullParams,
    rect_hazard,
    rect_pdf,
    rect_survival,
    weibull_cdf,
    weibull_pdf,
    weibull_quantile,
)
from .vannman import VANNMAN_DATA, vannman_data
