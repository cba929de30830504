"""Likelihood evaluation and estimation.

The full mixture model (M3) is fitted in two stages: the rectangle side d
is plugged in from the origin cluster found by DBSCAN, then the remaining
parameters are maximized by Nelder-Mead in an unconstrained transformed
space. Comparison models: M1 (independent exponential margins, closed
form) and M2 (FGM-coupled exponential margins). M2 is M3 with fixed
values: shapes 1, a GFGM(rho, 1, 1) copula and no uniform component. Its
likelihood is the GFGM closed form that M3's bulk density uses, and it is
fitted by the same stage-2 code.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import optimize, stats
from scipy.special import expit, logit, ndtr

from .bivariate import BivariateWeibull, _gfgm_pdf, bvw_pdf
from .clustering import DbscanParams, dbscan, origin_cluster_mask, select_eps
from .copulas import GfgmParams
from .errors import (
    PACKAGE_ERRORS,
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    SingularityError,
)
from .mixture import MbwParams, mbw_params
from .univariate import WeibullParams

__all__ = [
    "FitResult",
    "loglik_mbw",
    "estimate_d",
    "fit_mbw",
    "fit_m1",
    "fit_m2",
    "compute_se",
    "bootstrap",
    "d_confidence_interval",
    "aic",
    "deviance_test",
]

_GAUSS_RHO_CAP = 1.0 - 1e-8

# the smallest sample fit_mbw accepts; studies check their sample sizes
# against it before any replicate runs
MIN_OBSERVATIONS = 10


@dataclass
class FitResult:
    """Estimates plus fit diagnostics for one model on one dataset."""

    model: str
    estimates: dict
    loglik: float
    k: int
    std_errors: dict = field(default_factory=dict)
    p_values: dict = field(default_factory=dict)
    converged: bool = True
    iterations: int = 0
    n_evals: int = 0
    boundary_flags: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def aic(self) -> float:
        return aic(self.loglik, self.k)

    def to_dict(self) -> dict:
        return {**asdict(self), "aic": self.aic}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _as_data(data) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or len(data) == 0:
        raise DomainError("data must be a nonempty (n, 2) array")
    # min() >= 0 is False for a NaN as well as for a negative value
    if not (data.min() >= 0 and data.max() < np.inf):
        raise DomainError("lifetimes must be finite and nonnegative")
    return data


def loglik_mbw(data, m: MbwParams) -> float:
    """Log-likelihood of the mixture model.

    Points in the closed rectangle with both coordinates strictly above
    the anchor contribute log(p/d^2 + q f_XY); points past the rectangle
    contribute log(q f_XY). Observations sitting exactly on the anchor
    axes (ties at zero in the origin case) carry no density information
    in the continuous formulation and are excluded, matching the strict
    inequalities of the estimation procedure. Returns -inf when an
    outside point sits where the bulk density vanishes; raises
    SingularityError when one sits on an axis where it is unbounded.
    """
    data = _as_data(data)
    x, y = data[:, 0], data[:, 1]
    r = m.rect
    # kept rows lie past the square, or in it strictly above the anchor; the
    # bulk density is evaluated on these kept rows only, so an excluded
    # axis row cannot trip the singularity check of a shape below 1
    past = (x > r.x0 + r.d) | (y > r.y0 + r.d)
    keep = past | ((x > r.x0) & (y > r.y0))
    f2 = np.asarray(bvw_pdf(x[keep], y[keep], m.base))
    past = past[keep]
    out_f = m.q * f2[past]
    if np.any(out_f <= 0):
        return -np.inf
    with np.errstate(divide="ignore"):
        ll = np.sum(np.log(m.p / r.d**2 + m.q * f2[~past])) + np.sum(np.log(out_f))
    return float(ll)


def estimate_d(data, p: DbscanParams):
    """Plug-in estimate of the rectangle side: the largest coordinate in
    the cluster nearest the origin. Returns (d_hat, C1 points)."""
    data = _as_data(data)
    labels = dbscan(data, p)
    mask = origin_cluster_mask(data, labels)
    c1 = data[mask]
    d_hat = float(c1.max())
    if d_hat <= 0:
        raise DegenerateDataError("origin cluster has no positive coordinate")
    return d_hat, c1


def aic(loglik: float, k: int) -> float:
    """Akaike information criterion, 2k - 2 loglik."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return 2.0 * k - 2.0 * loglik


def _spearman(x, y) -> float:
    rx = stats.rankdata(x)
    ry = stats.rankdata(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0 or sy == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


# Each parameter kind fixes the optimizer's transform to an unconstrained
# coordinate, its inverse, and the distance from a value to the edge of
# the parameter space. Shapes and scales are both of kind "scale".
_KINDS = {
    "scale": (np.log, np.exp, lambda t: np.inf),
    "tanh": (np.arctanh, np.tanh, lambda t: 1.0 - abs(t)),
    "logit": (logit, expit, lambda t: min(t, 1.0 - t)),
}

# A parameter closer than this to the edge of its space is on its boundary:
# the fit flags it and compute_se holds it fixed. The Hessian step of an
# unflagged parameter, 1e-4 for |t| <= 1, then never leaves the space.
_BOUNDARY_GAP = 1e-3

# The nested family M2 within M3, by model name: the free parameters and
# their kinds, and k. M2 is M3 with shapes fixed at 1, a GFGM copula with
# a = b = 1 and no uniform component; M3's k counts its plugged-in d.
_MEMBERS = {
    "m2": ({"beta1": "scale", "beta2": "scale", "rho": "tanh"}, 3),
    "m3": ({"alpha1": "scale", "beta1": "scale", "alpha2": "scale", "beta2": "scale",
            "rho": "tanh", "p": "logit"}, 7),
}


def _to_free(kinds, theta) -> np.ndarray:
    return np.array([_KINDS[k][0](t) for k, t in zip(kinds, theta)])


def _from_free(kinds, z) -> np.ndarray:
    return np.array([_KINDS[k][1](v) for k, v in zip(kinds, z)])


def _objective(model, data, d=None, family="gfgm", a=1.0, b=1.0):
    """The log-likelihood of member ``model`` on ``data`` over its free
    parameters in ``_MEMBERS`` order; M3 also takes its plugged-in d and its
    copula. A bad setting (model, family, GFGM exponent, d) raises
    DomainError here, once; the function returned maps to -inf only the
    free values at which the model is undefined or has no density.
    """
    if model == "m2":
        x, y = data[:, 0], data[:, 1]

        def value(b1, b2, rho):
            bulk = BivariateWeibull(WeibullParams(1.0, b1), WeibullParams(1.0, b2), GfgmParams(rho))
            f = _gfgm_pdf(x, y, bulk)
            return np.sum(np.log(f)) if np.all(f > 0) else -np.inf
    elif model == "m3":
        # the settings are valid when they make a model with some free values
        mbw_params(1.0, 1.0, 1.0, 1.0, 0.0, d, 0.5, family, a, b)

        def value(a1, b1, a2, b2, rho, p):
            if family == "gaussian":
                rho = np.clip(rho, -_GAUSS_RHO_CAP, _GAUSS_RHO_CAP)
            return loglik_mbw(data, mbw_params(a1, b1, a2, b2, rho, d, p, family, a, b))
    else:
        raise DomainError(f"unknown model {model!r}")

    def loglik(theta):
        try:
            ll = value(*theta)
        except (SingularityError, DomainError, FloatingPointError):
            return -np.inf
        return float(ll) if np.isfinite(ll) else -np.inf

    return loglik


def _start(data, model, p=None) -> np.ndarray:
    """Optimizer start: shapes 1.5, scales at the margin means, rho at the
    Spearman rank correlation, and p as given."""
    x, y = data[:, 0], data[:, 1]
    guess = {
        "alpha1": 1.5,
        "beta1": x.mean() or 1.0,
        "alpha2": 1.5,
        "beta2": y.mean() or 1.0,
        "rho": float(np.clip(_spearman(x, y), -0.95, 0.95)),
        "p": p,
    }
    return np.array([guess[nm] for nm in _MEMBERS[model][0]])


def _fit(data, model, loglik, theta0, compute_ses, diagnostics=None, **fixed):
    """Maximize the log-likelihood ``loglik`` of member ``model`` by
    Nelder-Mead in the kinds' unconstrained space, starting from
    ``theta0``. ``fixed`` holds the plugged-in parameters reported beside
    the estimates."""
    params, k = _MEMBERS[model]
    kinds = list(params.values())

    def neg(z):
        return -loglik(_from_free(kinds, z))

    z0 = _to_free(kinds, theta0)
    shape = np.isin(list(params), ("alpha1", "alpha2"))
    if shape.any() and not np.isfinite(neg(z0)):
        # shape start of 1.5 can be rejected only in pathological data;
        # retry from shapes just above 1
        theta0 = np.where(shape, 1.05, theta0)
        z0 = _to_free(kinds, theta0)
    # fixed initial simplex: +0.1 along each transformed coordinate
    simplex = np.vstack([z0, z0 + 0.1 * np.eye(len(z0))])
    res = optimize.minimize(
        neg,
        z0,
        method="Nelder-Mead",
        options={"maxfev": 5000, "fatol": 1e-8, "xatol": 1e-6, "initial_simplex": simplex},
    )
    ll = float(-res.fun)
    result = FitResult(
        model=model,
        estimates={**dict(zip(params, _from_free(kinds, res.x).tolist())), **fixed},
        loglik=ll,
        k=k,
        converged=bool(res.success and np.isfinite(ll)),
        iterations=int(res.nit),
        n_evals=int(res.nfev),
        diagnostics=diagnostics or {},
    )
    # flags are listed by name
    result.boundary_flags = [
        nm for nm, kind in sorted(params.items())
        if _KINDS[kind][2](result.estimates[nm]) < _BOUNDARY_GAP
    ]
    if not result.converged:
        result.diagnostics["message"] = str(res.message)
    if compute_ses:
        compute_se(data, result)
    return result


def fit_mbw(
    data,
    copula_family: str = "gfgm",
    a: float = 1.0,
    b: float = 1.0,
    min_pts: int = 4,
    eps: float | None = None,
    compute_ses: bool = True,
) -> FitResult:
    """Two-stage fit of the mixture model (model M3).

    Stage 1 fixes d from the DBSCAN origin cluster; stage 2 maximizes the
    log-likelihood over the six remaining parameters by Nelder-Mead in
    transformed space. d counts as an estimated parameter in k.
    """
    data = _as_data(data)
    if len(data) < MIN_OBSERVATIONS:
        raise DomainError(f"fit_mbw needs at least {MIN_OBSERVATIONS} observations")
    if eps is None:
        eps = select_eps(data, min_pts)
    d_hat, c1 = estimate_d(data, DbscanParams(min_pts=min_pts, eps=eps))

    loglik = _objective("m3", data, d_hat, copula_family, a, b)
    p0 = np.clip(len(c1) / len(data), 1e-3, 1 - 1e-3)
    diagnostics = {
        "d_hat": d_hat,
        "eps": float(eps),
        "min_pts": int(min_pts),
        "n_c1": int(len(c1)),
        "copula_family": copula_family,
        "copula_a": a,
        "copula_b": b,
    }
    return _fit(data, "m3", loglik, _start(data, "m3", p0), compute_ses, diagnostics, d=d_hat)


def fit_m1(data) -> FitResult:
    """Independent exponential margins; the MLE is the pair of sample
    means and its standard errors are beta / sqrt(n), in closed form."""
    data = _as_data(data)
    x, y = data[:, 0], data[:, 1]
    n = len(data)
    b1, b2 = float(x.mean()), float(y.mean())
    if b1 <= 0 or b2 <= 0:
        raise DegenerateDataError("a margin has zero mean")
    ll = -n * (np.log(b1) + 1.0) - n * (np.log(b2) + 1.0)
    est = {"beta1": b1, "beta2": b2}
    se = {k: b / np.sqrt(n) for k, b in est.items()}
    return FitResult(
        model="m1", estimates=est, loglik=float(ll), k=2, std_errors=se,
        p_values={k: _wald_p(b, se[k]) for k, b in est.items()},
    )


def fit_m2(data, compute_ses: bool = True) -> FitResult:
    """FGM-coupled exponential margins (M3 with shapes 1, a = b = 1, no
    uniform component), fitted over (beta1, beta2, rho)."""
    data = _as_data(data)
    return _fit(data, "m2", _objective("m2", data), _start(data, "m2"), compute_ses)


def _wald_p(est, se) -> float:
    if not (np.isfinite(se) and se > 0):
        return float("nan")
    return float(2.0 * ndtr(-abs(est / se)))


def _num_hessian(fn, x0, steps):
    n = len(x0)
    H = np.empty((n, n))
    f0 = fn(x0)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        H[i, i] = (fn(x0 + ei) - 2 * f0 + fn(x0 - ei)) / steps[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = steps[j]
            H[i, j] = H[j, i] = (
                fn(x0 + ei + ej) - fn(x0 + ei - ej) - fn(x0 - ei + ej) + fn(x0 - ei - ej)
            ) / (4 * steps[i] * steps[j])
    return H


def compute_se(data, result: FitResult) -> dict:
    """Observed-information standard errors of an M2 or M3 fit from a
    central-difference Hessian of the log-likelihood at the optimum, taken
    over the parameters not in ``result.boundary_flags``. d (for the
    mixture model) and the flagged parameters are held at their estimates,
    and a flagged parameter gets NaN for its standard error and p-value:
    at a boundary the Wald reference does not apply. M1's standard errors
    are closed-form and set by ``fit_m1``.

    Updates ``result.std_errors`` / ``result.p_values`` in place and
    returns the standard-error dict.
    """
    data = _as_data(data)
    get = result.diagnostics.get
    loglik = _objective(
        result.model,
        data,
        result.estimates.get("d"),
        get("copula_family", "gfgm"),
        get("copula_a", 1.0),
        get("copula_b", 1.0),
    )
    names = list(_MEMBERS[result.model][0])
    theta = np.array([result.estimates[k] for k in names])
    free = [i for i, nm in enumerate(names) if nm not in result.boundary_flags]

    def loglik_free(theta_free):
        t = theta.copy()
        t[free] = theta_free
        return loglik(t)

    steps = 1e-4 * np.maximum(np.abs(theta[free]), 1.0)
    se = dict.fromkeys(names, float("nan"))
    try:
        cov = np.linalg.inv(-_num_hessian(loglik_free, theta[free], steps))
        diag = np.diag(cov)
        if np.any(diag <= 0):
            raise np.linalg.LinAlgError("non-positive variance")
        for i, v in zip(free, diag):
            se[names[i]] = float(np.sqrt(v))
    except np.linalg.LinAlgError:
        result.diagnostics["hessian"] = "not positive definite"
    result.std_errors = se
    result.p_values = {nm: _wald_p(result.estimates[nm], se[nm]) for nm in names}
    return se


def bootstrap(data, fitter, B: int, seed: int, level: float = 0.95):
    """Nonparametric case-resampling bootstrap.

    ``fitter`` maps a dataset to a dict of estimates. Returns per-parameter
    bootstrap standard errors and percentile confidence intervals.
    """
    data = _as_data(data)
    if B < 100:
        raise DomainError("bootstrap needs B >= 100")
    n = len(data)
    rows = []
    failures = 0
    for r in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), r]))
        sample = data[rng.integers(0, n, size=n)]
        try:
            est = fitter(sample)
        except PACKAGE_ERRORS:
            failures += 1
            continue
        rows.append(est)
    if failures > 0.2 * B:
        raise ConvergenceError(f"{failures}/{B} bootstrap replicates failed")
    keys = rows[0].keys()
    alpha = 100 * (1 - level) / 2
    bse = {}
    bci = {}
    for k in keys:
        vals = np.array([r[k] for r in rows])
        bse[k] = float(vals.std(ddof=1))
        bci[k] = (
            float(np.percentile(vals, alpha)),
            float(np.percentile(vals, 100 - alpha)),
        )
    return {"bse": bse, "bci": bci, "failures": failures, "B": B}


def d_confidence_interval(d_hat: float, n_c1: int, level: float = 0.95):
    """Interval for the rectangle side from the origin cluster C1, given
    its largest coordinate ``d_hat`` and its size ``n_c1 = |C1|``.

    Pools the 2|C1| coordinates, which are uniform on [0, d] under the
    model, and pivots on their maximum d_hat:
    [d_hat, d_hat * gamma^(-1/(2|C1|))] with gamma = 1 - level.
    """
    if n_c1 < 1:
        raise DomainError("origin cluster is empty")
    if not 0 < level < 1:
        raise DomainError("level must be in (0, 1)")
    if not d_hat > 0:
        raise DegenerateDataError("all origin-cluster coordinates are zero")
    gamma = 1.0 - level
    return float(d_hat), float(d_hat * gamma ** (-1.0 / (2 * n_c1)))


def deviance_test(full: FitResult, reduced: FitResult) -> dict:
    """Likelihood-ratio (deviance) comparison of two fitted models.

    The p-value refers the statistic to chi-square with the difference in
    k as degrees of freedom. For M3 against M2 that reference is nominal
    only: M2 sits at p = 0, on the edge of p's space, where d is not
    identified, so the regularity conditions behind chi-square(4) fail
    (Self & Liang 1987, JASA 82:605). On data with axis ties the two
    likelihoods also cover different rows: M3 leaves out the rows on the
    axes inside its square while M2 counts every row, so on Vannman the
    statistic compares a 19-row likelihood with a 36-row one.
    """
    if reduced.k >= full.k:
        raise DomainError("reduced model must have fewer free parameters")
    statistic = 2.0 * (full.loglik - reduced.loglik)
    df = full.k - reduced.k
    out = {
        "statistic": float(statistic),
        "df": int(df),
        "p_value": float(stats.chi2.sf(max(statistic, 0.0), df)),
    }
    if statistic < 0:
        out["warning"] = "negative deviance: models non-nested or misconverged"
    return out
