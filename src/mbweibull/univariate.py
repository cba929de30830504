"""Two-parameter Weibull primitives and the rectangle-uniform early-failure
component (density, survival, hazard)."""

from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import DomainError, SingularityError

__all__ = [
    "WeibullParams",
    "RectUniform",
    "weibull_cdf",
    "weibull_pdf",
    "weibull_quantile",
    "rect_pdf",
    "rect_survival",
    "rect_hazard",
]


@dataclass(frozen=True)
class WeibullParams:
    """Shape/scale pair of a two-parameter Weibull margin."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (0 < self.shape < inf and 0 < self.scale < inf):
            raise DomainError(
                f"Weibull shape and scale must be positive and finite, got "
                f"shape={self.shape}, scale={self.scale}"
            )


@dataclass(frozen=True)
class RectUniform:
    """Uniform distribution on the square [x0, x0+d] x [y0, y0+d]."""

    x0: float
    y0: float
    d: float

    def __post_init__(self):
        if not 0 < self.d < inf:
            raise DomainError(f"rectangle side d must be positive and finite, got {self.d}")
        if not (0 <= self.x0 < inf and 0 <= self.y0 < inf):
            raise DomainError("rectangle anchor must be nonnegative and finite")


def _out(arr):
    """A 0-d result as a float; any other result as the array."""
    return float(arr) if np.ndim(arr) == 0 else arr


def _arrays(*inputs):
    """Each input as a float array."""
    return [np.asarray(v, dtype=float) for v in inputs]


def _check_nonneg(*arrays):
    for a in arrays:
        if (a < 0).any():
            raise DomainError("lifetimes must be nonnegative")


def _inside(x, y, r: RectUniform):
    """Mask of the points in the closed square of ``r``."""
    return (
        (x >= r.x0)
        & (x <= r.x0 + r.d)
        & (y >= r.y0)
        & (y <= r.y0 + r.d)
    )


def _hazard(f, R):
    """The hazard f/R, +inf where the survival R is exactly 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _out(np.where(R > 0, np.divide(f, R), np.inf))


def weibull_cdf(x, p: WeibullParams):
    """Weibull CDF, 1 - exp(-(x/scale)^shape).

    Accepts scalars or arrays; raises DomainError for negative lifetimes.
    """
    x = np.asarray(x, dtype=float)
    _check_nonneg(x)
    with np.errstate(over="ignore"):
        return _out(-np.expm1(-((x / p.scale) ** p.shape)))


def weibull_pdf(x, p: WeibullParams):
    """Weibull density.

    Unbounded at x = 0 when shape < 1; that point raises SingularityError
    instead of returning an infinity.
    """
    x = np.asarray(x, dtype=float)
    _check_nonneg(x)
    if p.shape < 1 and (x == 0).any():
        raise SingularityError("Weibull pdf is unbounded at 0 for shape < 1")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = x / p.scale
        ez = np.exp(-(z**p.shape))
        val = (p.shape / p.scale) * z ** (p.shape - 1) * ez
    # where exp(-z^shape) underflows the density is 0, also where z^(shape-1)
    # overflowed and the product is inf * 0
    return _out(np.where(ez == 0, 0.0, val))


def weibull_quantile(u, p: WeibullParams):
    """Inverse Weibull CDF: scale * (-log(1-u))^(1/shape) for u in [0, 1)."""
    u = np.asarray(u, dtype=float)
    if ((u < 0) | (u >= 1)).any():
        raise DomainError("quantile level must be in [0, 1)")
    return _out(p.scale * (-np.log1p(-u)) ** (1.0 / p.shape))


def rect_pdf(x, y, r: RectUniform):
    """Density of the rectangle uniform: 1/d^2 on the closed square, else 0."""
    x, y = _arrays(x, y)
    return _out(np.where(_inside(x, y, r), 1.0 / r.d**2, 0.0))


def rect_survival(x, y, r: RectUniform):
    """Joint survival P(X > x, Y > y) of the rectangle uniform.

    Equals the product of clamped linear ramps, which reproduces every
    branch of the piecewise form (1 before the rectangle, linear along a
    single overlapping axis, bilinear inside, 0 past either far edge).
    """
    x, y = _arrays(x, y)
    sx = np.clip((r.x0 + r.d - x) / r.d, 0.0, 1.0)
    sy = np.clip((r.y0 + r.d - y) / r.d, 0.0, 1.0)
    return _out(sx * sy)


def rect_hazard(x, y, r: RectUniform):
    """Hazard f/R of the rectangle uniform: 1/((x0+d-x)(y0+d-y)) on the
    half-open square, 0 before it, +inf on and past either far edge."""
    return _hazard(rect_pdf(x, y, r), rect_survival(x, y, r))
