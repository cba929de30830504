"""Copula-composed bivariate Weibull distribution: joint CDF, PDF (one
log-space formula), survival (the survival copula at the margins'
survivals), and hazard."""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, ndtri_exp

from .copulas import (
    CopulaSpec,
    GfgmParams,
    _gaussian_log_c,
    _survival_copula,
    copula_cdf,
    copula_density,
)
from .errors import SingularityError, SurvivalUnderflowError
from .univariate import (
    WeibullParams, _arrays, _check_nonneg, _out, weibull_cdf, weibull_pdf
)

__all__ = ["BivariateWeibull", "bvw_cdf", "bvw_pdf", "bvw_survival", "bvw_hazard"]


@dataclass(frozen=True)
class BivariateWeibull:
    """Bivariate Weibull with the given margins coupled by a copula."""

    margin1: WeibullParams
    margin2: WeibullParams
    copula: CopulaSpec


def _over_survival(num, R):
    """num/R for a survival R that is positive in theory: raises
    SurvivalUnderflowError where R underflowed to zero, not returning inf."""
    if np.any(R <= 0):
        raise SurvivalUnderflowError("survival underflowed to zero")
    return _out(num / R)


def bvw_cdf(x, y, m: BivariateWeibull):
    """Joint CDF C(F1(x), F2(y))."""
    x, y = _arrays(x, y)
    _check_nonneg(x, y)
    return copula_cdf(weibull_cdf(x, m.margin1), weibull_cdf(y, m.margin2), m.copula)


# The compositions of the margins with the copula: the test oracles of
# bvw_pdf and bvw_survival for both copulas.
def _composed_pdf(x, y, m: BivariateWeibull):
    u = weibull_cdf(x, m.margin1)
    v = weibull_cdf(y, m.margin2)
    return weibull_pdf(x, m.margin1) * weibull_pdf(y, m.margin2) * copula_density(u, v, m.copula)


def _composed_survival(x, y, m: BivariateWeibull):
    with np.errstate(over="ignore"):
        A, B = (x / m.margin1.scale) ** m.margin1.shape, (y / m.margin2.scale) ** m.margin2.shape
    u = -np.expm1(-A)
    v = -np.expm1(-B)
    return np.clip(1.0 - u - v + copula_cdf(u, v, m.copula), 0.0, 1.0)


def _gfgm_factor(A, c: GfgmParams):
    """One margin's factor g(A) = u^(b-1) (1-u)^(a-1) (b(1-u) - au) of the
    GFGM density 1 + rho g(A) g(B), with u = 1 - e^-A, and A g'(A)."""
    a, b = c.a, c.b
    e = np.exp(-A)
    # h = b(1-u) - au, kept at most b so that |g| <= 1 holds in rounding
    # too; (a+b)e - a rounds above b near A = 0
    h = np.minimum((a + b) * e - a, b)
    # g = u^(b-1) t h with t = (1-u)^(a-1), factors that are 1 at b = 1 and
    # a = 1; dh/dA = -(a+b) e, dt/dA = -(a-1) t and du/dA = e
    g, dg = h, -(a + b) * e
    if a != 1:
        t = np.exp(-(a - 1) * A)
        g, dg = t * h, t * (dg - (a - 1) * h)
    if b != 1:
        w = -np.expm1(-A)
        wb = w ** (b - 1)
        g, dg = wb * g, wb * dg + (b - 1) * w ** (b - 2) * e * g
    return g, A * dg


_TINY, _LOG_2, _HALF_LOG_2PI = np.finfo(float).tiny, np.log(2.0), 0.5 * np.log(2 * np.pi)


def _gaussian_z(A):
    """The normal score z = ndtri(1 - e^-A) of a margin and A dz/dA, each
    taken from the tail A lies in, so that neither rounds to 0 or 1 first.
    A dz/dA = A e^-A / phi(z) is formed in log space. A margin probability
    of exactly 0 counts as the smallest normal float."""
    A = np.maximum(A, _TINY)
    # one ndtri per row: of the lower tail's 1 - e^-A or the upper tail's e^-A
    lower = A < _LOG_2
    e = np.exp(-A)
    z = ndtri(np.where(lower, -np.expm1(-A), e))
    z = np.where(lower, z, -z)
    # where e^-A is subnormal or 0 (A above about 708.4), from log e^-A = -A
    if e.min(initial=1.0) < _TINY:
        z = np.where(e < _TINY, -ndtri_exp(-A), z)
    return z, np.exp(np.log(A) - A + 0.5 * z * z + _HALF_LOG_2PI)


def _log_density(x, y, theta, c):
    """log f of the bivariate Weibull at theta = (alpha1, beta1, alpha2,
    beta2, rho), scalars or (K, 1) columns against the rows, with the family
    and GFGM exponents of the copula c; -inf where A + B or a normal score
    is infinite. Per margin, the pieces of its score: E = (t/beta)^alpha, L
    = log(t/beta) and (g, E g') from _gfgm_factor or (z, E z') from
    _gaussian_z. The caller silences the warnings."""
    a1, b1, a2, b2, rho = theta
    A, B = (x / b1) ** a1, (y / b2) ** a2
    gfgm = isinstance(c, GfgmParams)
    (gA, kA), (gB, kB) = (_gfgm_factor(E, c) if gfgm else _gaussian_z(E) for E in (A, B))
    logf = np.log(1 + rho * gA * gB) if gfgm else _gaussian_log_c(gA, gB, rho)
    parts = []
    for t, E, g, k, alpha, beta in ((x, A, gA, kA, a1, b1), (y, B, gB, kB, a2, b2)):
        # log f_i = log(alpha/beta) + (alpha-1) L - E, whose middle term is 0
        # at alpha = 1, also where t = 0 and L = -inf
        L = np.log(t / beta)
        aL = (alpha - 1) * L
        aL = np.where(alpha != 1, aL, 0) if np.ndim(alpha) or alpha == 1 else aL
        logf = logf + (np.log(alpha / beta) + aL - E)
        parts.append((E, L, g, k))
    # -inf, not inf - inf; a GFGM factor is always finite
    return np.where(np.isinf(A + B + gA + gB), -np.inf, logf), parts


def _log_density_score(x, y, theta, c):
    """log f of the bivariate Weibull and, row by row, its gradient over
    theta = (alpha1, beta1, alpha2, beta2, rho): the score of the bulk
    density, built on the pieces of _log_density. K parameter points, such
    as the probes of a standard-error Hessian, take one call as columns:
    (K, n) log f and a (K, n, 5) score.

    Rows are assumed valid: where the density vanishes the score may be
    NaN. No warning is raised.
    """
    a1, b1, a2, b2, rho = theta
    with np.errstate(all="ignore"):
        logf, ((A, LA, gA, kA), (B, LB, gB, kB)) = _log_density(x, y, theta, c)
        S = np.empty(logf.shape + (5,))
        # A dlog c/dA and B dlog c/dB, and dlog c/drho
        if isinstance(c, GfgmParams):
            den = 1 + rho * gA * gB
            kA, kB = rho * kA * gB / den, rho * kB * gA / den
            S[..., 4] = gA * gB / den
        else:
            D = (1 - rho) * (1 + rho)
            kA = rho * (gB - rho * gA) / D * kA
            kB = rho * (gA - rho * gB) / D * kB
            S[..., 4] = rho / D + ((1 - rho) ** 2 * gA * gB - rho * (gA - gB) ** 2) / D**2
        for i, (E, L, k, alpha, beta) in enumerate(((A, LA, kA, a1, b1), (B, LB, kB, a2, b2))):
            # dE/dalpha = E log(t/beta) and dE/dbeta = -(alpha/beta) E
            S[..., 2 * i] = 1 / alpha + L * (1 - E) + k * L
            S[..., 2 * i + 1] = alpha / beta * (E - 1 - k)
    return logf, S


def bvw_pdf(x, y, m: BivariateWeibull):
    """Joint density f1(x) f2(y) c(F1(x), F2(y)), taken as exp of its log
    for both copulas."""
    x, y = _arrays(x, y)
    _check_nonneg(x, y)
    if (m.margin1.shape < 1 and (x == 0).any()) or (
        m.margin2.shape < 1 and (y == 0).any()
    ):
        raise SingularityError(
            "joint density is unbounded at a zero coordinate with shape < 1"
        )
    with np.errstate(all="ignore"):
        theta = (m.margin1.shape, m.margin1.scale, m.margin2.shape, m.margin2.scale, m.copula.rho)
        return _out(np.exp(_log_density(x, y, theta, m.copula)[0]))


def bvw_survival(x, y, m: BivariateWeibull):
    """Joint survival P(X > x, Y > y): the survival copula at the margins'
    survivals, C^(e^-A, e^-B), for both copulas."""
    x, y = _arrays(x, y)
    _check_nonneg(x, y)
    with np.errstate(over="ignore"):
        A, B = (x / m.margin1.scale) ** m.margin1.shape, (y / m.margin2.scale) ** m.margin2.shape
    return copula_cdf(np.exp(-A), np.exp(-B), _survival_copula(m.copula))


def bvw_hazard(x, y, m: BivariateWeibull):
    """Hazard f/R of the bivariate Weibull; raises SurvivalUnderflowError where R underflows."""
    return _over_survival(bvw_pdf(x, y, m), bvw_survival(x, y, m))
