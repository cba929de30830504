"""The modified bivariate Weibull mixture: a rectangle-uniform early
failure component mixed with a copula-based bivariate Weibull bulk."""

from dataclasses import dataclass

import numpy as np

from .bivariate import BivariateWeibull, _over_survival, bvw_cdf, bvw_pdf, bvw_survival
from .copulas import CopulaSpec, GaussianCopulaParams, GfgmParams
from .errors import DomainError
from .univariate import (
    RectUniform, WeibullParams, _arrays, _hazard, _inside, _out, rect_survival
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


def _copula(family, rho, a, b) -> CopulaSpec:
    """The copula of ``family`` with parameter ``rho`` and, for GFGM, the
    exponents ``a``/``b``: the one rule for copula settings."""
    if family == "gfgm":
        return GfgmParams(rho=rho, a=a, b=b)
    if family == "gaussian":
        return GaussianCopulaParams(rho=rho)
    raise DomainError(f"unknown copula family {family!r}")


def mbw_params(alpha1, beta1, alpha2, beta2, rho, d, p, copula, copula_a, copula_b) -> MbwParams:
    """Build ``MbwParams`` from the flat values named in ``DEFAULT_PARAMS``.

    The rectangle is anchored at the origin. ``copula_a``/``copula_b`` are
    the GFGM exponents and are ignored for the Gaussian family. Raises
    DomainError on an unknown copula family.
    """
    cop = _copula(copula, rho, copula_a, copula_b)
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
    x, y = _arrays(x, y)
    f2 = bvw_pdf(x, y, m.base)
    plateau = np.where(_inside(x, y, m.rect), m.p / m.rect.d**2, 0.0)
    return _out(plateau + m.q * f2)


def mbw_cdf(x, y, m: MbwParams):
    """Mixture CDF p F1 + q F2 with F1 the product of clamped ramps."""
    x, y = _arrays(x, y)
    r = m.rect
    f1 = np.clip((x - r.x0) / r.d, 0.0, 1.0) * np.clip((y - r.y0) / r.d, 0.0, 1.0)
    return _out(m.p * f1 + m.q * bvw_cdf(x, y, m.base))


def mbw_survival(x, y, m: MbwParams):
    """Mixture survival p R1 + q R2."""
    return _out(m.p * rect_survival(x, y, m.rect) + m.q * bvw_survival(x, y, m.base))


def mbw_hazard(x, y, m: MbwParams):
    """Mixture hazard f/R; raises SurvivalUnderflowError where R underflows."""
    return _over_survival(mbw_pdf(x, y, m), mbw_survival(x, y, m))


def mixture_weight(x, y, m: MbwParams):
    """Weight w = p R1 / R of the uniform component in the hazard mix."""
    return _over_survival(m.p * rect_survival(x, y, m.rect), mbw_survival(x, y, m))


# the most float64 values one array can hold: numpy indexes its bytes by intp
_MAX_VALUES = np.iinfo(np.intp).max // 8


def hazard_grid(m: MbwParams, x_start, x_stop, y_start, y_stop, step):
    """Evaluate (x, y, f, R, h) on a row-major rectangular grid.

    Returns an (n, 5) array, one row per grid node, y varying fastest.
    """
    finite = np.isfinite([x_start, x_stop, y_start, y_stop, step]).all()
    if not (finite and step > 0 and x_start <= x_stop and y_start <= y_stop):
        raise DomainError("invalid grid specification")
    # each axis's node count, as np.arange takes it, checked before it runs:
    # the table holds five float64 values a node, and numpy indexes at most
    # _MAX_VALUES of them
    nx, ny = (np.ceil((stop + 0.5 * step - start) / step)
              for start, stop in ((x_start, x_stop), (y_start, y_stop)))
    if not nx * ny * 5 <= _MAX_VALUES:
        raise DomainError(f"a grid of {nx:g} x {ny:g} nodes has more values than numpy can index")
    xs = np.arange(x_start, x_stop + 0.5 * step, step)
    ys = np.arange(y_start, y_stop + 0.5 * step, step)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    gx = gx.ravel()
    gy = gy.ravel()
    f = mbw_pdf(gx, gy, m)
    R = mbw_survival(gx, gy, m)
    return np.column_stack([gx, gy, f, R, _hazard(f, R)])


def _csv(table: np.ndarray, header: str, axes: int = 0) -> str:
    """``table``, one column per name in ``header``, as CSV text with every
    value written as ``%.17g``: the bytes of ``np.savetxt(fmt="%.17g",
    delimiter=",", header=header, comments="")``.

    The first ``axes`` columns repeat few values, so each distinct value is
    formatted once, told apart by its bits (-0.0 and 0.0 print differently);
    the other columns are formatted by one ``%`` over the whole body.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim == 1:
        table = table[:, None]  # one column, as savetxt reads it
    n, k = table.shape
    cells = table.ravel().tolist()
    for j in range(axes):
        bits, index = np.unique(table[:, j].view(np.int64), return_inverse=True)
        text = np.array(["%.17g" % v for v in bits.view(float)], dtype=object)
        cells[j::k] = text[index].tolist()
    row = "%s," * axes + ",".join(["%.17g"] * (k - axes)) + "\n"
    return header + "\n" + (row * n) % tuple(cells)


def hazard_grid_csv(grid: np.ndarray) -> str:
    """Serialize a hazard grid to CSV with full double precision: the bytes
    ``np.savetxt`` writes with ``fmt="%.17g"`` under the header x,y,f,R,h."""
    return _csv(grid, "x,y,f,R,h", axes=2)
