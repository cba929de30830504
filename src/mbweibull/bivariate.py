"""Copula-composed bivariate Weibull distribution: joint CDF, PDF,
survival, and hazard, with closed forms for the GFGM family."""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, xlogy

from .copulas import (
    CopulaSpec,
    GfgmParams,
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


def _tilt(S, c: GfgmParams):
    """The GFGM factor exp(-(a-1)(A+B)); exactly 1 for a = 1, also where
    A+B is infinite and (a-1)(A+B) would be 0 * inf."""
    return np.exp(-(c.a - 1) * S) if c.a != 1 else 1.0


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


def _gfgm_pdf(x, y, m: BivariateWeibull):
    # closed form: marginal product times the grouped GFGM density factor
    c = m.copula
    a1, b1 = m.margin1.shape, m.margin1.scale
    a2, b2 = m.margin2.shape, m.margin2.scale
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        A, B, S = _exponents(x, y, m)
        eS = np.exp(-S)
        base = (a1 * a2 / (b1 * b2)) * A ** (1 - 1 / a1) * B ** (1 - 1 / a2) * eS
    # where exp(-(A+B)) underflows the density is 0, also where a power above
    # overflowed and the product is inf * 0
    base = np.where(eS == 0, 0.0, base)
    eA = np.exp(-A)
    eB = np.exp(-B)
    D = _tilt(S, c) * ((c.a + c.b) * eA - c.a) * ((c.a + c.b) * eB - c.a)
    return base * (1 + c.rho * (1 - eA) ** (c.b - 1) * (1 - eB) ** (c.b - 1) * D)


def _gfgm_survival(x, y, m: BivariateWeibull):
    # closed form of 1 - F1 - F2 + C(F1, F2) for a GFGM copula
    c = m.copula
    with np.errstate(over="ignore"):
        A, B, S = _exponents(x, y, m)
    eA = np.exp(-A)
    eB = np.exp(-B)
    return np.exp(-S) * (1 + c.rho * _tilt(S, c) * (1 - eA) ** c.b * (1 - eB) ** c.b)


# The compositions of the margins with the copula: the path of every copula
# without a closed form, and for GFGM the test oracle of the closed forms.
def _composed_pdf(x, y, m: BivariateWeibull):
    u = weibull_cdf(x, m.margin1)
    v = weibull_cdf(y, m.margin2)
    if not isinstance(m.copula, GfgmParams):
        # the Gaussian copula density blows up only at u,v in {0,1}; clip
        # marginal probabilities into the open square
        tiny = np.finfo(float).tiny
        u = np.clip(u, tiny, 1 - 1e-16)
        v = np.clip(v, tiny, 1 - 1e-16)
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
    w = -np.expm1(-A)
    t = np.exp(-(a - 1) * A) if a != 1 else 1.0
    h = (a + b) * e - a
    wb = w ** (b - 1)
    # dg/dA, from dw/dA = e, dt/dA = -(a-1) t and dh/dA = -(a+b) e
    dg = -(a - 1) * wb * h - (a + b) * wb * e
    if b != 1:
        dg = dg + (b - 1) * w ** (b - 2) * e * h
    return wb * t * h, A * t * dg


def _gaussian_z(A):
    """The normal score z = ndtri(1 - e^-A) of a margin and A dz/dA, each
    taken from the tail A lies in, so that neither rounds to 0 or 1 first.
    A dz/dA = A e^-A / phi(z) is formed in log space."""
    # one ndtri per row: of the lower tail's 1 - e^-A or the upper tail's e^-A
    lower = A < np.log(2.0)
    z = ndtri(np.where(lower, -np.expm1(-A), np.exp(-A)))
    z = np.where(lower, z, -z)
    return z, np.exp(np.log(A) - A + 0.5 * z * z + 0.5 * np.log(2 * np.pi))


def _log_density_score(x, y, m: BivariateWeibull):
    """log f of the bivariate Weibull and, row by row, its gradient over
    (alpha1, beta1, alpha2, beta2, rho): the score of the bulk density.

    Rows are assumed valid: where the density vanishes the values are
    -inf or NaN, and no warning is raised.
    """
    c = m.copula
    n = np.size(x)
    S = np.empty((n, 5))
    logf = np.zeros(n)
    with np.errstate(all="ignore"):
        A, B, _ = _exponents(x, y, m)
        # A dlog c/dA and B dlog c/dB, and dlog c/drho
        if isinstance(c, GfgmParams):
            gA, kA = _gfgm_factor(A, c)
            gB, kB = _gfgm_factor(B, c)
            den = 1 + c.rho * gA * gB
            logf += np.log(den)
            kA, kB = c.rho * kA * gB / den, c.rho * kB * gA / den
            S[:, 4] = gA * gB / den
        else:
            rho = c.rho
            D = 1 - rho * rho
            z1, k1 = _gaussian_z(A)
            z2, k2 = _gaussian_z(B)
            Q = rho * rho * (z1 * z1 + z2 * z2) - 2 * rho * z1 * z2
            logf += -Q / (2 * D) - 0.5 * np.log(D)
            kA = rho * (z2 - rho * z1) / D * k1
            kB = rho * (z1 - rho * z2) / D * k2
            S[:, 4] = rho / D + (z1 * z2 * (1 + rho * rho) - rho * (z1 * z1 + z2 * z2)) / D**2
        for i, (t, E, k, p) in enumerate(((x, A, kA, m.margin1), (y, B, kB, m.margin2))):
            # log f_i = log(alpha/beta) + (alpha-1) log(t/beta) - E, with
            # dE/dalpha = E log(t/beta) and dE/dbeta = -(alpha/beta) E
            L = np.log(t / p.scale)
            logf += np.log(p.shape / p.scale) + xlogy(p.shape - 1, t / p.scale) - E
            S[:, 2 * i] = 1 / p.shape + L * (1 - E) + k * L
            S[:, 2 * i + 1] = p.shape / p.scale * (E - 1 - k)
    return logf, S


def bvw_pdf(x, y, m: BivariateWeibull):
    """Joint density f1(x) f2(y) c(F1(x), F2(y)), in closed form for a GFGM
    copula."""
    x, y = _arrays(x, y)
    _check_nonneg(x, y)
    if (m.margin1.shape < 1 and np.any(x == 0)) or (
        m.margin2.shape < 1 and np.any(y == 0)
    ):
        raise SingularityError(
            "joint density is unbounded at a zero coordinate with shape < 1"
        )
    gfgm = isinstance(m.copula, GfgmParams)
    return _out((_gfgm_pdf if gfgm else _composed_pdf)(x, y, m))


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
