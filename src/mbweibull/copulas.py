"""Bivariate copulas: the generalized Farlie-Gumbel-Morgenstern (GFGM)
family and the Gaussian family.

Each family provides the copula CDF, its density, the conditional
distribution C_u(v) = dC/du, and the conditional quantile (quasi-inverse)
used for conditional sampling.
"""

from dataclasses import dataclass
from math import inf
from typing import Union

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from .errors import ConvergenceError, DomainError
from .univariate import _arrays, _out

__all__ = [
    "GfgmParams",
    "GaussianCopulaParams",
    "CopulaSpec",
    "copula_cdf",
    "copula_density",
    "conditional_cdf",
    "conditional_quantile",
    "std_bivariate_normal_cdf",
]


@dataclass(frozen=True)
class GfgmParams:
    """GFGM copula C(u,v) = uv + rho u^b v^b (1-u)^a (1-v)^a."""

    rho: float
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (1 <= self.a < inf and 1 <= self.b < inf):
            raise DomainError("GFGM requires finite a >= 1 and b >= 1")
        if not -1 <= self.rho <= 1:
            raise DomainError("GFGM requires -1 <= rho <= 1")


@dataclass(frozen=True)
class GaussianCopulaParams:
    """Gaussian copula with latent correlation rho, |rho| < 1."""

    rho: float

    def __post_init__(self):
        if not -1 < self.rho < 1:
            raise DomainError("Gaussian copula requires |rho| < 1")


CopulaSpec = Union[GfgmParams, GaussianCopulaParams]


def _check_unit_square(u, v):
    if ((u < 0) | (u > 1) | (v < 0) | (v > 1)).any():
        raise DomainError("copula arguments must lie in the unit square")


# ---------------------------------------------------------------------------
# bivariate standard normal CDF

def std_bivariate_normal_cdf(z1, z2, rho):
    """P(Z1 <= z1, Z2 <= z2) for standard normals with correlation rho.

    Uses Owen's T function, which is deterministic and accurate to well
    below 1e-10 over the whole plane.
    """
    z1, z2 = _arrays(z1, z2)
    if not -1 < rho < 1:
        raise DomainError("requires |rho| < 1")
    if rho == 0.0:
        return _out(ndtr(z1) * ndtr(z2))

    z1, z2 = np.broadcast_arrays(z1, z2)
    s = np.sqrt(1.0 - rho * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        a1 = np.where(z1 != 0, (z2 - rho * z1) / (z1 * s), 0.0)
        a2 = np.where(z2 != 0, (z1 - rho * z2) / (z2 * s), 0.0)
    # limits of the slope arguments as a coordinate passes through zero
    with np.errstate(invalid="ignore"):
        a1 = np.where(z1 == 0, np.sign(z2) * np.inf, a1)
        a2 = np.where(z2 == 0, np.sign(z1) * np.inf, a2)
    beta = np.where((z1 * z2 > 0) | ((z1 * z2 == 0) & (z1 + z2 >= 0)), 0.0, 0.5)
    val = 0.5 * (ndtr(z1) + ndtr(z2)) - owens_t(z1, a1) - owens_t(z2, a2) - beta
    both_zero = (z1 == 0) & (z2 == 0)
    if both_zero.any():
        val = np.where(both_zero, 0.25 + np.arcsin(rho) / (2 * np.pi), val)
    return _out(np.clip(val, 0.0, 1.0))


# ---------------------------------------------------------------------------
# GFGM internals

def _gfgm_cdf(u, v, c: GfgmParams):
    return u * v + c.rho * u**c.b * v**c.b * (1 - u) ** c.a * (1 - v) ** c.a


def _gfgm_density(u, v, c: GfgmParams):
    a, b, rho = c.a, c.b, c.rho
    # second mixed derivative of the CDF, grouped as
    # 1 + rho u^(b-1) v^(b-1) (1-u)^(a-1) (1-v)^(a-1) [b(1-u)-au][b(1-v)-av]
    fu = u ** (b - 1) * (1 - u) ** (a - 1)
    fv = v ** (b - 1) * (1 - v) ** (a - 1)
    return 1 + rho * fu * fv * (b * (1 - u) - a * u) * (b * (1 - v) - a * v)


def _gfgm_conditional_cdf(v, u, c: GfgmParams):
    a, b, rho = c.a, c.b, c.rho
    return (
        v
        + rho * b * u ** (b - 1) * v**b * (1 - u) ** a * (1 - v) ** a
        - rho * a * u**b * v**b * (1 - u) ** (a - 1) * (1 - v) ** a
    )


_QUANTILE_TOL = 1e-10
_QUANTILE_MAX_ITER = 200


def _gfgm_conditional_quantile(t, u, c: GfgmParams):
    # Safeguarded Newton: start at v = t, derivative is the copula density;
    # any step that leaves the current bracket falls back to bisection,
    # which is sound because C_u is monotone in v.
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    t, u = np.broadcast_arrays(t, u)
    v = np.array(t, dtype=float, copy=True)
    lo = np.zeros_like(v)
    hi = np.ones_like(v)
    for _ in range(_QUANTILE_MAX_ITER):
        r = _gfgm_conditional_cdf(v, u, c) - t
        done = np.abs(r) <= _QUANTILE_TOL
        if done.all():
            break
        hi = np.where((r > 0) & ~done, v, hi)
        lo = np.where((r <= 0) & ~done, v, lo)
        dr = _gfgm_density(u, v, c)
        with np.errstate(divide="ignore", invalid="ignore"):
            vn = v - r / dr
        bad = (
            ~np.isfinite(vn)
            | (vn <= lo)
            | (vn >= hi)
            | (np.abs(dr) < 1e-14)
        )
        vn = np.where(bad, 0.5 * (lo + hi), vn)
        v = np.where(done, v, vn)
    else:
        r = _gfgm_conditional_cdf(v, u, c) - t
        if (np.abs(r) > _QUANTILE_TOL).any():
            raise ConvergenceError(
                "conditional quantile did not reach tolerance "
                f"{_QUANTILE_TOL} within {_QUANTILE_MAX_ITER} iterations"
            )
    return v


# ---------------------------------------------------------------------------
# public dispatch

def copula_cdf(u, v, c: CopulaSpec):
    """Copula CDF C(u, v) for either family."""
    u, v = _arrays(u, v)
    _check_unit_square(u, v)
    if isinstance(c, GfgmParams):
        return _out(_gfgm_cdf(u, v, c))
    u, v = np.broadcast_arrays(u, v)
    # closed edges of the unit square resolve exactly
    with np.errstate(divide="ignore"):
        z1 = ndtri(u)
        z2 = ndtri(v)
    interior = (u > 0) & (u < 1) & (v > 0) & (v < 1)
    # NaN stays NaN, as in the GFGM family
    val = np.where(np.isnan(u + v), np.nan, 0.0)
    if interior.any():
        val[interior] = std_bivariate_normal_cdf(z1[interior], z2[interior], c.rho)
    val = np.where(u == 1, v, val)
    val = np.where(v == 1, u, val)
    return _out(val)


def _survival_copula(c: CopulaSpec) -> CopulaSpec:
    """The survival copula C^(u, v) = u + v - 1 + C(1 - u, 1 - v): for
    GFGM(rho, a, b) it is GFGM(rho, b, a); the Gaussian copula is radially
    symmetric, so it is its own."""
    return GfgmParams(c.rho, a=c.b, b=c.a) if isinstance(c, GfgmParams) else c


def copula_density(u, v, c: CopulaSpec):
    """Copula density c(u, v)."""
    u, v = _arrays(u, v)
    if isinstance(c, GfgmParams):
        _check_unit_square(u, v)
        return _out(_gfgm_density(u, v, c))
    if ((u <= 0) | (u >= 1) | (v <= 0) | (v >= 1)).any():
        raise DomainError("Gaussian copula density requires (u,v) in (0,1)^2")
    return _out(np.exp(_gaussian_log_c(ndtri(u), ndtri(v), c.rho)))


def _gaussian_log_c(z1, z2, rho):
    """log of the Gaussian copula density at the normal scores z1, z2, in a
    form that does not cancel near |rho| = 1 or where z1 = z2."""
    D = (1 - rho) * (1 + rho)
    return (-rho * (z1 - z2) ** 2 / (2 * D) + rho * (z1 * z1 + z2 * z2) / (2 * (1 + rho))
            - 0.5 * np.log(D))


def conditional_cdf(v, u, c: CopulaSpec):
    """Conditional distribution C_u(v) = P(V <= v | U = u) = dC/du."""
    u, v = _arrays(u, v)
    if ((u <= 0) | (u >= 1)).any():
        raise DomainError("conditioning value u must lie in (0, 1)")
    if ((v < 0) | (v > 1)).any():
        raise DomainError("v must lie in [0, 1]")
    if isinstance(c, GfgmParams):
        return _out(_gfgm_conditional_cdf(v, u, c))
    with np.errstate(divide="ignore"):
        zv = ndtri(v)
    zu = ndtri(u)
    s = np.sqrt(1.0 - c.rho**2)
    return _out(ndtr((zv - c.rho * zu) / s))


def conditional_quantile(t, u, c: CopulaSpec):
    """Quasi-inverse of C_u: the v with C_u(v) = t.

    Closed form for the Gaussian family; safeguarded Newton-Raphson with
    bisection fallback for GFGM.
    """
    t, u = _arrays(t, u)
    if ((t <= 0) | (t >= 1)).any() or ((u <= 0) | (u >= 1)).any():
        raise DomainError("conditional quantile requires t, u in (0, 1)")
    if isinstance(c, GfgmParams):
        return _out(_gfgm_conditional_quantile(t, u, c))
    s = np.sqrt(1.0 - c.rho**2)
    return _out(ndtr(c.rho * ndtri(u) + s * ndtri(t)))
