"""Copula-composed bivariate Weibull distribution: joint CDF, PDF (one
log-space formula), survival (closed form for GFGM), and hazard."""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .copulas import (
    CopulaSpec,
    GfgmParams,
    _gaussian_log_c,
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


def _exponents(x, y, m: BivariateWeibull):
    """The terms A = (x/beta1)^alpha1 and B = (y/beta2)^alpha2 and their sum,
    each +inf where it overflows; the caller silences that warning."""
    A = (x / m.margin1.scale) ** m.margin1.shape
    B = (y / m.margin2.scale) ** m.margin2.shape
    return A, B, A + B


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


def _gfgm_survival(x, y, m: BivariateWeibull):
    # closed form of 1 - F1 - F2 + C(F1, F2) for a GFGM copula
    c = m.copula
    with np.errstate(over="ignore"):
        A, B, S = _exponents(x, y, m)
    eA = np.exp(-A)
    eB = np.exp(-B)
    # exp(-(a-1)(A+B)) is exactly 1 for a = 1, also where A+B is infinite
    # and (a-1)(A+B) would be 0 * inf
    tilt = np.exp(-(c.a - 1) * S) if c.a != 1 else 1.0
    return np.exp(-S) * (1 + c.rho * tilt * (1 - eA) ** c.b * (1 - eB) ** c.b)


# The compositions of the margins with the copula: the test oracle of
# bvw_pdf for both copulas, the Gaussian copula's survival, and the test
# oracle of the GFGM closed-form survival.
def _composed_pdf(x, y, m: BivariateWeibull):
    u = weibull_cdf(x, m.margin1)
    v = weibull_cdf(y, m.margin2)
    return weibull_pdf(x, m.margin1) * weibull_pdf(y, m.margin2) * copula_density(u, v, m.copula)


def _composed_survival(x, y, m: BivariateWeibull):
    with np.errstate(over="ignore"):
        A, B, _ = _exponents(x, y, m)
    u = -np.expm1(-A)
    v = -np.expm1(-B)
    R = np.clip(1.0 - u - v + copula_cdf(u, v, m.copula), 0.0, 1.0)
    # R is 0 where a margin's survival e^-A is, not the rounding of 1 - u
    return np.where(np.exp(-np.maximum(A, B)) == 0, 0.0, R)


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


def _gaussian_z(A):
    """The normal score z = ndtri(1 - e^-A) of a margin and A dz/dA, each
    taken from the tail A lies in, so that neither rounds to 0 or 1 first.
    A dz/dA = A e^-A / phi(z) is formed in log space. A margin probability
    of exactly 0 counts as the smallest normal float."""
    A = np.maximum(A, np.finfo(float).tiny)
    # one ndtri per row: of the lower tail's 1 - e^-A or the upper tail's e^-A
    lower = A < np.log(2.0)
    z = ndtri(np.where(lower, -np.expm1(-A), np.exp(-A)))
    z = np.where(lower, z, -z)
    return z, np.exp(np.log(A) - A + 0.5 * z * z + 0.5 * np.log(2 * np.pi))


def _log_density(x, y, m: BivariateWeibull):
    """log f of the bivariate Weibull, -inf where A + B or a normal score is
    infinite, and per margin the pieces of its score: E = (t/beta)^alpha,
    L = log(t/beta) and the copula term with E times its E-derivative,
    (g, E g') from _gfgm_factor or (z, E z') from _gaussian_z. The caller
    silences the warnings."""
    c = m.copula
    A, B, S = _exponents(x, y, m)
    gfgm = isinstance(c, GfgmParams)
    (gA, kA), (gB, kB) = (_gfgm_factor(E, c) if gfgm else _gaussian_z(E) for E in (A, B))
    logf = np.log(1 + c.rho * gA * gB) if gfgm else _gaussian_log_c(gA, gB, c.rho)
    parts = []
    for t, E, g, k, p in ((x, A, gA, kA, m.margin1), (y, B, gB, kB, m.margin2)):
        # log f_i = log(alpha/beta) + (alpha-1) L - E, whose middle term is 0
        # at alpha = 1, also where t = 0 and L = -inf
        L = np.log(t / p.scale)
        logf = logf + (np.log(p.shape / p.scale) + ((p.shape - 1) * L if p.shape != 1 else 0) - E)
        parts.append((E, L, g, k))
    # -inf, not inf - inf; a GFGM factor is always finite
    return np.where(np.isinf(S + gA + gB), -np.inf, logf), parts


def _log_density_score(x, y, m: BivariateWeibull):
    """log f of the bivariate Weibull and, row by row, its gradient over
    (alpha1, beta1, alpha2, beta2, rho): the score of the bulk density,
    built on the pieces of _log_density.

    Rows are assumed valid: where the density vanishes the score may be
    NaN. No warning is raised.
    """
    c = m.copula
    S = np.empty((np.size(x), 5))
    with np.errstate(all="ignore"):
        logf, ((A, LA, gA, kA), (B, LB, gB, kB)) = _log_density(x, y, m)
        # A dlog c/dA and B dlog c/dB, and dlog c/drho
        if isinstance(c, GfgmParams):
            den = 1 + c.rho * gA * gB
            kA, kB = c.rho * kA * gB / den, c.rho * kB * gA / den
            S[:, 4] = gA * gB / den
        else:
            rho = c.rho
            D = 1 - rho * rho
            kA = rho * (gB - rho * gA) / D * kA
            kB = rho * (gA - rho * gB) / D * kB
            S[:, 4] = rho / D + (gA * gB * (1 + rho * rho) - rho * (gA * gA + gB * gB)) / D**2
        for i, (E, L, k, p) in enumerate(((A, LA, kA, m.margin1), (B, LB, kB, m.margin2))):
            # dE/dalpha = E log(t/beta) and dE/dbeta = -(alpha/beta) E
            S[:, 2 * i] = 1 / p.shape + L * (1 - E) + k * L
            S[:, 2 * i + 1] = p.shape / p.scale * (E - 1 - k)
    return logf, S


def bvw_pdf(x, y, m: BivariateWeibull):
    """Joint density f1(x) f2(y) c(F1(x), F2(y)), taken as exp of its log
    for both copulas."""
    x, y = _arrays(x, y)
    _check_nonneg(x, y)
    if (m.margin1.shape < 1 and np.any(x == 0)) or (
        m.margin2.shape < 1 and np.any(y == 0)
    ):
        raise SingularityError(
            "joint density is unbounded at a zero coordinate with shape < 1"
        )
    with np.errstate(all="ignore"):
        return _out(np.exp(_log_density(x, y, m)[0]))


def bvw_survival(x, y, m: BivariateWeibull):
    """Joint survival 1 - F1 - F2 + C(F1, F2), in closed form for a GFGM
    copula."""
    x, y = _arrays(x, y)
    _check_nonneg(x, y)
    gfgm = isinstance(m.copula, GfgmParams)
    return _out((_gfgm_survival if gfgm else _composed_survival)(x, y, m))


def bvw_hazard(x, y, m: BivariateWeibull):
    """Hazard f/R of the bivariate Weibull; raises SurvivalUnderflowError where R underflows."""
    return _over_survival(bvw_pdf(x, y, m), bvw_survival(x, y, m))
