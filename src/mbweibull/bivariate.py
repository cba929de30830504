"""Copula-composed bivariate Weibull distribution: joint CDF, PDF (one
log-space formula), survival (the survival copula at the margins'
survivals), and hazard."""

from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, ndtri, ndtri_exp

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
    GFGM density 1 + rho g(A) g(B), with u = 1 - e^-A."""
    a, b = c.a, c.b
    e = np.exp(-A)
    # h = b(1-u) - au, kept at most b so that |g| <= 1 holds in rounding
    # too; (a+b)e - a rounds above b near A = 0
    g = np.minimum((a + b) * e - a, b)
    # times (1-u)^(a-1) = e^-(a-1)A and u^(b-1), factors that are 1 at a = 1
    # and b = 1
    if a != 1:
        g = np.exp(-(a - 1) * A) * g
    if b != 1:
        g = (-np.expm1(-A)) ** (b - 1) * g
    return g


def _gfgm_slopes(A, c: GfgmParams):
    """k = A g'(A) of the GFGM factor g = _gfgm_factor(A, c), and A k'(A) =
    k + A^2 g''(A), by the product rule over the factors of g, each taken
    with A times its first derivative and A^2 times its second, which stay
    finite as A goes to 0 or grows."""
    a, b = c.a, c.b
    e = np.exp(-A)
    Ae = A * e
    # h = b(1-u) - au, with A h' = -(a+b) A e and A^2 h'' = (a+b) A^2 e
    g, g1, g2 = np.minimum((a + b) * e - a, b), -(a + b) * Ae, (a + b) * (A * Ae)
    if a != 1:
        # (1-u)^(a-1) = e^-(a-1)A
        t = np.exp(-(a - 1) * A)
        t1, t2 = -(a - 1) * A * t, (a - 1) ** 2 * A * (A * t)
        g, g1, g2 = t * g, t1 * g + t * g1, t2 * g + 2 * t1 * g1 + t * g2
    if b != 1:
        # u^(b-1), with A du/dA = q e for q = A/u, which is 1 at A = 0
        u = -np.expm1(-A)
        q = np.where(u > 0, A / u, 1.0)
        w = u ** (b - 1)
        w1 = (b - 1) * w * q * e
        w2 = w1 * q * ((b - 2) * e - u)
        g, g1, g2 = w * g, w1 * g + w * g1, w2 * g + 2 * w1 * g1 + w * g2
    return g1, g1 + g2


_TINY, _LOG_2, _HALF_LOG_2PI = np.finfo(float).tiny, np.log(2.0), 0.5 * np.log(2 * np.pi)
_SQRT_HALF_PI, _SQRT_HALF = np.sqrt(np.pi / 2), np.sqrt(0.5)


def _gaussian_z(A):
    """The normal score z = ndtri(1 - e^-A) of a margin, taken from the tail
    A lies in, so that it does not round to 0 or 1 first. A margin
    probability of exactly 0 counts as the smallest normal float."""
    A = np.maximum(A, _TINY)
    # one ndtri per row: of the lower tail's 1 - e^-A or the upper tail's e^-A
    lower = A < _LOG_2
    e = np.exp(-A)
    z = ndtri(np.where(lower, -np.expm1(-A), e))
    z = np.where(lower, z, -z)
    # where e^-A is subnormal or 0 (A above about 708.4), from log e^-A = -A
    if e.min(initial=1.0) < _TINY:
        z = np.where(e < _TINY, -ndtri_exp(-A), z)
    return z


def _gaussian_slopes(A, z):
    """k = A dz/dA of the normal score z = _gaussian_z(A), and A dk/dA = k (1
    + z k - A). In the lower tail k = A e^-A / phi(z) is formed in log
    space; in the upper tail, where e^-A = Phibar(z), it is A Phibar(z) /
    phi(z) = A sqrt(pi/2) erfcx(z/sqrt 2), which does not cancel as A
    grows."""
    A = np.maximum(A, _TINY)
    k = np.where(A < _LOG_2, np.exp(np.log(A) - A + 0.5 * z * z + _HALF_LOG_2PI),
                 A * _SQRT_HALF_PI * erfcx(_SQRT_HALF * z))
    return k, k * (1 + z * k - A)


def _log_density(x, y, theta, c):
    """log f of the bivariate Weibull at theta = (alpha1, beta1, alpha2,
    beta2, rho) on lifetimes x and y of one shape, with the family and GFGM
    exponents of the copula c; -inf where A + B or a normal score is
    infinite. The pieces of its derivatives, each stacking a margin's array
    on the other's: E = (t/beta)^alpha, L = log(t/beta) and g from
    _gfgm_factor or _gaussian_z. The caller silences the warnings."""
    a1, b1, a2, b2, rho = theta
    shape = (2,) + (1,) * np.ndim(x)
    alpha, beta = np.reshape((a1, a2), shape), np.reshape((b1, b2), shape)
    r = np.stack([x, y]) / beta
    E = r**alpha
    gfgm = isinstance(c, GfgmParams)
    g = _gfgm_factor(E, c) if gfgm else _gaussian_z(E)
    gA, gB = g
    logf = np.log(1 + rho * gA * gB) if gfgm else _gaussian_log_c(gA, gB, rho)
    # log f_i = log(alpha/beta) + (alpha-1) L - E, whose middle term is 0 at
    # alpha = 1, also where t = 0 and L = -inf
    L = np.log(r)
    margin = np.log(alpha / beta) + np.where(alpha != 1, (alpha - 1) * L, 0.0) - E
    logf = logf + margin[0] + margin[1]
    # -inf, not inf - inf; a GFGM factor is always finite
    return np.where(np.isinf(E[0] + E[1] + gA + gB), -np.inf, logf), (E, L, g)


# the upper triangle of a 5 x 5 matrix, off the diagonal
_UPPER = np.triu_indices(5, 1)


def _log_density_score(x, y, theta, c):
    """log f of the bivariate Weibull and, row by row, its gradient and
    Hessian over theta = (alpha1, beta1, alpha2, beta2, rho), built on the
    pieces of _log_density: (n,) log f, an (n, 5) score and (n, 5, 5)
    second derivatives.

    Per margin, log f depends on alpha and beta through L and u = log E =
    alpha L, whose own second derivatives over (alpha, beta) are 0, -1/beta
    and alpha/beta^2; the copula term log c takes its derivatives over uA,
    uB and rho in closed form. Rows are assumed valid: where the density
    vanishes the derivatives may be NaN. No warning is raised.
    """
    a1, b1, a2, b2, rho = theta
    alpha, beta = np.array([[a1], [a2]]), np.array([[b1], [b2]])
    with np.errstate(all="ignore"):
        logf, (E, L, g) = _log_density(x, y, theta, c)
        # k = dg/du and j = dk/du per margin, with u = log E
        k, j = _gfgm_slopes(E, c) if isinstance(c, GfgmParams) else _gaussian_slopes(E, g)
        (gA, gB), (kA, kB), other = g, k, g[::-1]
        S = np.empty(logf.shape + (5,))
        H = np.empty(logf.shape + (5, 5))
        # log c's derivatives, a row per margin where they pair a margin's
        # u with itself (cu, cuu) or with rho (cur), and cAB over uA and uB
        if isinstance(c, GfgmParams):
            den = 1 + rho * gA * gB
            cu = rho * k * other / den
            cuu = rho * j * other / den - cu * cu
            cur = k * other / den**2
            cAB = rho * kA * kB / den**2
            S[:, 4] = gA * gB / den
            H[:, 4, 4] = -S[:, 4] ** 2
        else:
            D = (1 - rho) * (1 + rho)
            lu = rho * (other - rho * g) / D
            cu = lu * k
            cuu = lu * j - rho * rho / D * k * k
            # d/drho of lu, in a form that does not cancel near rho = 1
            cur = ((1 + rho * rho) * (other - g) + (1 - rho) ** 2 * g) / D**2 * k
            cAB = rho / D * kA * kB
            N = (1 - rho) ** 2 * gA * gB - rho * (gA - gB) ** 2
            S[:, 4] = rho / D + N / D**2
            H[:, 4, 4] = ((1 + rho * rho - (gA - gB) ** 2 - 2 * (1 - rho) * gA * gB) / D**2
                          + 4 * rho * N / D**3)
        # the shapes' columns 0 and 2 and the scales' 1 and 3; dE/dalpha = E
        # log(t/beta) and dE/dbeta = -(alpha/beta) E
        S[:, 0:4:2] = (1 / alpha + L * (1 - E) + cu * L).T
        S[:, 1:4:2] = (alpha / beta * (E - 1 - cu)).T
        # with the first two u-derivatives of log c - E, each margin's entries
        # over its (alpha, beta) and rho, a row per margin
        p1, p2 = cu - E, cuu - E
        entries = (((0, 0), p2 * L * L - 1 / alpha**2),
                   ((0, 1), -(1 + p1 + alpha * L * p2) / beta),
                   ((1, 1), alpha / beta**2 * (1 + p1 + alpha * p2)),
                   ((0, 2), cur * L),
                   ((1, 2), -alpha / beta * cur))
        for margin, index in enumerate(((0, 1, 4), (2, 3, 4))):
            for (i, j), entry in entries:
                H[:, index[i], index[j]] = entry[margin]
        # across the margins, through log c alone
        H[:, 0, 2] = cAB * L[0] * L[1]
        H[:, 0, 3] = -a2 / b2 * cAB * L[0]
        H[:, 1, 2] = -a1 / b1 * cAB * L[1]
        H[:, 1, 3] = a1 / b1 * a2 / b2 * cAB
        H[:, _UPPER[1], _UPPER[0]] = H[:, _UPPER[0], _UPPER[1]]
    return logf, S, H


def bvw_pdf(x, y, m: BivariateWeibull):
    """Joint density f1(x) f2(y) c(F1(x), F2(y)), taken as exp of its log
    for both copulas."""
    x, y = _arrays(x, y)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
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
