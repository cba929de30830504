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


def _gfgm_factor(A, e, c: GfgmParams):
    """One margin's factor g(A) = u^(b-1) (1-u)^(a-1) (b(1-u) - au) of the
    GFGM density 1 + rho g(A) g(B), with u = 1 - e^-A and e = e^-A."""
    a, b = c.a, c.b
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


def _gfgm_slopes(A, e, c: GfgmParams):
    """k = A g'(A) of the GFGM factor g = _gfgm_factor(A, e, c), and A k'(A) =
    k + A^2 g''(A), by the product rule over the factors of g, each taken
    with A times its first derivative and A^2 times its second, which stay
    finite as A goes to 0 or grows."""
    a, b = c.a, c.b
    Ae = A * e
    # h = b(1-u) - au, with A h' = -(a+b) A e and A^2 h'' = (a+b) A^2 e; h
    # itself enters only through the factors below
    g1, g2 = -(a + b) * Ae, (a + b) * (A * Ae)
    if a != 1 or b != 1:
        g = np.minimum((a + b) * e - a, b)
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


def _gaussian_z(A, lower):
    """The normal score z = ndtri(1 - e^-A) of a margin, taken from the tail
    A lies in, so that it does not round to 0 or 1 first: ``lower`` marks the
    rows with A < log 2. A is at least the smallest normal float, as which a
    margin probability of exactly 0 counts (``_normal_exponent``)."""
    # one ndtri per row: of the lower tail's 1 - e^-A or the upper tail's e^-A
    e = np.exp(-A)
    z = ndtri(np.where(lower, -np.expm1(-A), e))
    z = np.where(lower, z, -z)
    # where e^-A is subnormal or 0 (A above about 708.4), from log e^-A = -A
    if e.min(initial=1.0) < _TINY:
        z = np.where(e < _TINY, -ndtri_exp(-A), z)
    return z


def _normal_exponent(E):
    """The exponent A = max(E, tiny) of the normal scores, and the mask A <
    log 2 of its lower tail, which _gaussian_z and _gaussian_slopes share."""
    A = np.maximum(E, _TINY)
    return A, A < _LOG_2


# Past this normal score, c = 1/R - z of the Mills ratio R = Phibar/phi is
# taken from this many terms of R's continued fraction, which there agree
# with it to the last bit
_FAR_Z, _MILLS_TERMS = 10.0, 15


def _gaussian_slopes(A, z, lower):
    """k = A dz/dA of the normal score z = _gaussian_z(A, lower), and A dk/dA
    = k (1 + z k - A). In the lower tail k = A e^-A / phi(z) is formed in log
    space; in the upper tail, where e^-A = Phibar(z), it is A R with R =
    Phibar(z)/phi(z) = sqrt(pi/2) erfcx(z/sqrt 2), which does not cancel as
    A grows. There 1 + z k - A = 1 - A (1 - z R) = 1 - k c with c = 1/R -
    z, whose terms z k and A cancel to about A 1e-16 relative; past _FAR_Z
    it is taken as 1 - k c, with c = 1/(z + 2/(z + 3/(z + ...))), which
    does not cancel."""
    k = np.where(lower, np.exp(np.log(A) - A + 0.5 * z * z + _HALF_LOG_2PI),
                 A * _SQRT_HALF_PI * erfcx(_SQRT_HALF * z))
    j = k * (1 + z * k - A)
    far = z > _FAR_Z
    if far.any():
        zf, kf = z[far], k[far]
        t = zf
        for m in range(_MILLS_TERMS, 1, -1):
            t = zf + m / t
        j[far] = kf * (1 - kf / t)
    return k, j


def _log_density(t, theta, c):
    """log f of the bivariate Weibull at theta = (alpha1, beta1, alpha2,
    beta2, rho) on lifetimes t, x stacked on y along a first axis of two,
    with the family and GFGM exponents of the copula c; -inf where A + B or
    a normal score is infinite. The pieces of its derivatives, each stacking
    a margin's value on the other's: the columns alpha and beta, E =
    (t/beta)^alpha, L = log(t/beta) and g from _gfgm_factor or _gaussian_z;
    last, the copula's own: e^-E and 1 + rho gA gB for GFGM, the pair from
    _normal_exponent for the Gaussian. The caller silences the warnings."""
    a1, b1, a2, b2, rho = theta
    alpha, beta = np.array((a1, a2, b1, b2)).reshape((2, 2) + (1,) * (np.ndim(t) - 1))
    r = t / beta
    E, L = r**alpha, np.log(r)
    # on a large grid, letting go of bvw_pdf's stacked copy t and of r here
    # keeps down the memory each call takes and returns, and its page faults
    del t, r
    if isinstance(c, GfgmParams):
        e = np.exp(-E)
        g = _gfgm_factor(E, e, c)
        gA, gB = g
        den = 1 + rho * gA * gB
        logf, copula = np.log(den), (e, den)
    else:
        A, lower = copula = _normal_exponent(E)
        g = _gaussian_z(A, lower)
        gA, gB = g
        logf = _gaussian_log_c(gA, gB, rho)
    # log f_i = log(alpha/beta) + (alpha-1) L - E, whose middle term is 0 at
    # alpha = 1, also where t = 0 and L = -inf
    margin = (alpha - 1) * L
    if a1 == 1 or a2 == 1:
        margin = np.where(alpha != 1, margin, 0.0)
    margin = np.log(alpha / beta) + margin - E
    logf = logf + margin[0] + margin[1]
    # -inf, not inf - inf; a GFGM factor is always finite
    logf = np.where(np.isinf(E[0] + E[1] + gA + gB), -np.inf, logf)
    return logf, (alpha, beta, E, L, g, copula)


# The 15 distinct second derivatives over theta = (alpha1, beta1, alpha2,
# beta2, rho), in the order of _log_density_score's rows: each margin's
# (alpha, alpha), (alpha, beta), (beta, beta), (alpha, rho) and (beta, rho),
# a pair of rows each, margin 1 first; the four across the margins; (rho, rho)
_PAIRS = ((0, 0), (2, 2), (0, 1), (2, 3), (1, 1), (3, 3), (0, 4), (2, 4), (1, 4), (3, 4),
         (0, 2), (0, 3), (1, 2), (1, 3), (4, 4))


def _log_density_score(t, theta, c):
    """log f of the bivariate Weibull and, row by row, its gradient and
    Hessian over theta = (alpha1, beta1, alpha2, beta2, rho), built on the
    pieces of _log_density on the (2, n) lifetimes t: (n,) log f, the (5, n)
    score and the (15, n) distinct second derivatives, a row per pair of
    _PAIRS, so that a caller sums each over the rows in one product.

    Per margin, log f depends on alpha and beta through L and u = log E =
    alpha L, whose own second derivatives over (alpha, beta) are 0, -1/beta
    and alpha/beta^2; the copula term log c takes its derivatives over uA,
    uB and rho in closed form. Rows are assumed valid: where the density
    vanishes the derivatives may be NaN. No warning is raised.
    """
    a1, b1, a2, b2, rho = theta
    with np.errstate(all="ignore"):
        logf, (alpha, beta, E, L, g, copula) = _log_density(t, theta, c)
        (gA, gB), other = g, g[::-1]
        S = np.empty((5,) + logf.shape)
        Q = np.empty((15,) + logf.shape)
        # log c's derivatives, a row per margin where they pair a margin's
        # u with itself (cu, cuu) or with rho (cur), and cAB over uA and uB;
        # k = dg/du and j = dk/du per margin, with u = log E
        if isinstance(c, GfgmParams):
            e, den = copula
            k, j = _gfgm_slopes(E, e, c)
            kA, kB = k
            den2 = den**2
            cu = rho * k * other / den
            cuu = rho * j * other / den - cu * cu
            cur = k * other / den2
            cAB = rho * kA * kB / den2
            S[4] = gA * gB / den
            Q[14] = -S[4] ** 2
        else:
            A, lower = copula
            k, j = _gaussian_slopes(A, g, lower)
            kA, kB = k
            D = (1 - rho) * (1 + rho)
            lu = rho * (other - rho * g) / D
            cu = lu * k
            cuu = lu * j - rho * rho / D * k * k
            # d/drho of lu, in a form that does not cancel near rho = 1
            cur = ((1 + rho * rho) * (other - g) + (1 - rho) ** 2 * g) / D**2 * k
            cAB = rho / D * kA * kB
            gAB, gap2 = gA * gB, (gA - gB) ** 2
            N = (1 - rho) ** 2 * gAB - rho * gap2
            S[4] = rho / D + N / D**2
            Q[14] = (1 + rho * rho - gap2 - 2 * (1 - rho) * gAB) / D**2 + 4 * rho * N / D**3
        # with the first two u-derivatives of log c - E, per margin P = 1 +
        # cu - E and cuu - E, the shapes' rows 0 and 2 and the scales' 1 and
        # 3; dE/dalpha = E log(t/beta) and dE/dbeta = -(alpha/beta) E
        P, p2 = 1 + (cu - E), cuu - E
        Lp2, slope = L * p2, alpha / beta
        S[0:4:2] = 1 / alpha + L * P
        S[1:4:2] = -slope * P
        # each margin's pairs over its (alpha, beta) and rho, a row per margin
        Q[0:2] = L * Lp2 - 1 / alpha**2
        Q[2:4] = -(P + alpha * Lp2) / beta
        Q[4:6] = slope / beta * (P + alpha * p2)
        Q[6:8] = cur * L
        Q[8:10] = -slope * cur
        # across the margins, through log c alone: cAB L1 L2, then each
        # margin's L times cAB and minus the other's slope alpha/beta
        Q[10] = cAB * L[0] * L[1]
        Q[11:13] = -slope[::-1] * cAB * L
        Q[13] = a1 / b1 * a2 / b2 * cAB
    return logf, S, Q


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
        return _out(np.exp(_log_density(np.stack([x, y]), theta, m.copula)[0]))


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
