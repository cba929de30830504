"""The modified bivariate Weibull mixture: a rectangle-uniform early
failure component mixed with a copula-based bivariate Weibull bulk."""

import io
from dataclasses import dataclass

import numpy as np

from .bivariate import BivariateWeibull, bvw_pdf, bvw_survival
from .copulas import GaussianCopulaParams, GfgmParams
from .errors import DomainError, SurvivalUnderflowError
from .univariate import (
    RectUniform, WeibullParams, _arrays, _inside, _out, _scalar, rect_survival
)

__all__ = [
    "PARAM_NAMES",
    "DEFAULT_PARAMS",
    "MbwParams",
    "mbw_params",
    "param_dict",
    "mbw_pdf",
    "mbw_cdf",
    "mbw_survival",
    "mbw_hazard",
    "mixture_weight",
    "hazard_grid",
    "hazard_grid_csv",
]


@dataclass(frozen=True)
class MbwParams:
    """Full parameter set of the mixture model.

    ``p`` is the weight of the uniform early-failure component; the
    bivariate Weibull bulk carries weight q = 1 - p.
    """

    base: BivariateWeibull
    rect: RectUniform
    p: float

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise DomainError(f"mixing weight p must be in (0, 1), got {self.p}")

    @property
    def q(self) -> float:
        return 1.0 - self.p


# the seven numeric model parameters, in reporting order
PARAM_NAMES = ("alpha1", "beta1", "alpha2", "beta2", "rho", "d", "p")

# the criterion-5 truth, plus the copula family and the GFGM exponents
DEFAULT_PARAMS = {
    "alpha1": 4.0, "beta1": 1.5, "alpha2": 3.5, "beta2": 5.0, "rho": 0.6, "d": 0.1, "p": 0.3,
    "copula": "gfgm", "copula_a": 1.0, "copula_b": 1.0,
}


def mbw_params(alpha1, beta1, alpha2, beta2, rho, d, p, copula, copula_a, copula_b) -> MbwParams:
    """Build ``MbwParams`` from the flat values named in ``DEFAULT_PARAMS``.

    The rectangle is anchored at the origin. ``copula_a``/``copula_b`` are
    the GFGM exponents and are ignored for the Gaussian family. Raises
    DomainError on an unknown copula family.
    """
    if copula == "gfgm":
        cop = GfgmParams(rho=rho, a=copula_a, b=copula_b)
    elif copula == "gaussian":
        cop = GaussianCopulaParams(rho=rho)
    else:
        raise DomainError(f"unknown copula family {copula!r}")
    return MbwParams(
        base=BivariateWeibull(WeibullParams(alpha1, beta1), WeibullParams(alpha2, beta2), cop),
        rect=RectUniform(0.0, 0.0, d),
        p=p,
    )


def param_dict(m: MbwParams) -> dict:
    """Inverse of ``mbw_params``: the flat values of an origin-anchored model."""
    c = m.base.copula
    gfgm = isinstance(c, GfgmParams)
    return {
        "alpha1": m.base.margin1.shape,
        "beta1": m.base.margin1.scale,
        "alpha2": m.base.margin2.shape,
        "beta2": m.base.margin2.scale,
        "rho": c.rho,
        "d": m.rect.d,
        "p": m.p,
        "copula": "gfgm" if gfgm else "gaussian",
        "copula_a": c.a if gfgm else DEFAULT_PARAMS["copula_a"],
        "copula_b": c.b if gfgm else DEFAULT_PARAMS["copula_b"],
    }


def mbw_pdf(x, y, m: MbwParams):
    """Mixture density: p/d^2 + q f_XY inside the rectangle, q f_XY outside."""
    scalar, x, y = _arrays(x, y)
    f2 = bvw_pdf(x, y, m.base)
    plateau = np.where(_inside(x, y, m.rect), m.p / m.rect.d**2, 0.0)
    return _out(plateau + m.q * np.asarray(f2), scalar)


def mbw_cdf(x, y, m: MbwParams):
    """Mixture CDF p F1 + q F2 with F1 the product of clamped ramps."""
    from .bivariate import bvw_cdf

    scalar, x, y = _arrays(x, y)
    r = m.rect
    f1 = np.clip((x - r.x0) / r.d, 0.0, 1.0) * np.clip((y - r.y0) / r.d, 0.0, 1.0)
    return _out(m.p * f1 + m.q * np.asarray(bvw_cdf(x, y, m.base)), scalar)


def mbw_survival(x, y, m: MbwParams):
    """Mixture survival p R1 + q R2."""
    scalar, x, y = _arrays(x, y)
    val = m.p * np.asarray(rect_survival(x, y, m.rect)) + m.q * np.asarray(
        bvw_survival(x, y, m.base)
    )
    return _out(val, scalar)


def mbw_hazard(x, y, m: MbwParams):
    """Mixture hazard f/R."""
    scalar = _scalar(x, y)
    f = np.asarray(mbw_pdf(x, y, m))
    R = np.asarray(mbw_survival(x, y, m))
    if np.any(R <= 0):
        raise SurvivalUnderflowError("mixture survival is not positive")
    return _out(f / R, scalar)


def mixture_weight(x, y, m: MbwParams):
    """Weight w = p R1 / R of the uniform component in the hazard mix."""
    scalar, x, y = _arrays(x, y)
    R = np.asarray(mbw_survival(x, y, m))
    if np.any(R <= 0):
        raise SurvivalUnderflowError("mixture survival is not positive")
    return _out(m.p * np.asarray(rect_survival(x, y, m.rect)) / R, scalar)


def hazard_grid(m: MbwParams, x_start, x_stop, y_start, y_stop, step):
    """Evaluate (x, y, f, R, h) on a row-major rectangular grid.

    Returns an (n, 5) array, one row per grid node, y varying fastest.
    """
    if step <= 0 or x_stop < x_start or y_stop < y_start:
        raise DomainError("invalid grid specification")
    xs = np.arange(x_start, x_stop + 0.5 * step, step)
    ys = np.arange(y_start, y_stop + 0.5 * step, step)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    gx = gx.ravel()
    gy = gy.ravel()
    f = np.asarray(mbw_pdf(gx, gy, m))
    R = np.asarray(mbw_survival(gx, gy, m))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(R > 0, f / R, np.inf)
    return np.column_stack([gx, gy, f, R, h])


def hazard_grid_csv(grid: np.ndarray) -> str:
    """Serialize a hazard grid to CSV with full double precision."""
    buf = io.StringIO()
    np.savetxt(buf, grid, fmt="%.17g", delimiter=",", header="x,y,f,R,h", comments="")
    return buf.getvalue()
