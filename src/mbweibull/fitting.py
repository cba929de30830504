"""Likelihood evaluation and estimation.

The full mixture model (M3) is fitted in two stages: the rectangle side d
is plugged in from the origin cluster found by DBSCAN, then the remaining
parameters are maximized by L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995, SIAM
J. Sci. Comput. 16:1190) on the analytic score of the log-likelihood:
shapes and scales on a log scale, p on a logit scale and rho as itself,
each in a box. Standard errors come from the observed information, the
central-difference Jacobian of that score. Comparison models: M1
(independent exponential margins, closed form) and M2 (FGM-coupled
exponential margins). M2 is M3 with fixed values: shapes 1, a GFGM(rho,
1, 1) copula and no uniform component. Its likelihood is the GFGM closed
form that M3's bulk density uses, and it is fitted by the same stage-2
code.
"""

import contextlib
import ctypes
import functools
import glob
import os
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy
from scipy import optimize
from scipy.special import chdtrc, expit, logit, ndtr

from .bivariate import BivariateWeibull, _log_density_score, bvw_pdf
from .clustering import DbscanParams, dbscan, origin_cluster_mask, select_eps
from .copulas import GfgmParams
from .errors import (
    PACKAGE_ERRORS,
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    SingularityError,
)
from .mixture import MbwParams, _copula, mbw_params
from .sampler import SeededStream
from .univariate import RectUniform, WeibullParams

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


def _as_data(data) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or len(data) == 0:
        raise DomainError("data must be a nonempty (n, 2) array")
    # min() >= 0 is False for a NaN as well as for a negative value
    if not (data.min() >= 0 and data.max() < np.inf):
        raise DomainError("lifetimes must be finite and nonnegative")
    return data


def _kept_rows(x, y, r: RectUniform):
    """The rows the mixture likelihood counts, and which of those lie past
    the square. Kept rows lie past the square, or in it strictly above the
    anchor; the bulk density is evaluated on these kept rows only, so an
    excluded axis row cannot trip the singularity check of a shape below 1."""
    past = (x > r.x0 + r.d) | (y > r.y0 + r.d)
    keep = past | ((x > r.x0) & (y > r.y0))
    return keep, past[keep]


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
    keep, past = _kept_rows(x, y, m.rect)
    f2 = bvw_pdf(x[keep], y[keep], m.base)
    out_f = m.q * f2[past]
    if np.any(out_f <= 0):
        return -np.inf
    with np.errstate(divide="ignore"):
        ll = np.sum(np.log(m.p / m.rect.d**2 + m.q * f2[~past])) + np.sum(np.log(out_f))
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


def _ranks(a) -> np.ndarray:
    """Ranks of ``a`` from 1, ties given the average of their ranks."""
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _spearman(x, y) -> float:
    rx = _ranks(x)
    ry = _ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0 or sy == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


# Each parameter kind fixes the optimizer's coordinate for a value, its
# inverse, the distance from a value to the edge of the parameter space,
# and the derivative of the value in its coordinate, which chains the
# score to the optimizer. Shapes and scales are both of kind "scale"; rho,
# of kind "box", is its own coordinate and keeps to its copula's space by
# the search box.
_KINDS = {
    "scale": (np.log, np.exp, lambda t: np.inf, lambda t: t),
    "box": (float, float, lambda t: 1.0 - abs(t), lambda t: 1.0),
    "logit": (logit, expit, lambda t: min(t, 1.0 - t), lambda t: t * (1.0 - t)),
}

# A parameter closer than this to the edge of its space is on its boundary:
# the fit flags it and compute_se holds it fixed. The central-difference
# step of an unflagged parameter's score, 1e-4 for |t| <= 1, then never
# leaves the space.
_BOUNDARY_GAP = 1e-3

# The nested family M2 within M3, by model name: the free parameters and
# their kinds, and k. M2 is M3 with shapes fixed at 1, a GFGM copula with
# a = b = 1 and no uniform component; M3's k counts its plugged-in d.
_MEMBERS = {
    "m2": ({"beta1": "scale", "beta2": "scale", "rho": "box"}, 3),
    "m3": ({"alpha1": "scale", "beta1": "scale", "alpha2": "scale", "beta2": "scale",
            "rho": "box", "p": "logit"}, 7),
}

# The search box of stage 2: a log or logit coordinate moves at most
# _REACH from its start, and rho stays in its copula's space, closed for
# GFGM and open for the Gaussian.
_REACH = 30.0
_RHO_BOX = {"gfgm": (-1.0, 1.0), "gaussian": (-1.0 + 1e-6, 1.0 - 1e-6)}

# The search restarts from its end point until a pass gains less than
# _GAIN, within _PASSES passes and _MAX_EVALS evaluations in all. A pass
# stops once a step gains less than _FTOL relative to the log-likelihood:
# at scipy's default of 2.2e-9, a restarted pass took one step and stopped
# with a gain of about 1e-8, ten times over.
_GAIN = 1e-9
_PASSES = 10
_MAX_EVALS = 5000
_FTOL = 1e-12

# The value minimized at a rejected point, with a zero gradient: finite,
# so that the line search steps back from it.
_REJECTED = 1e10


def _to_free(kinds, theta) -> np.ndarray:
    return np.array([_KINDS[k][0](t) for k, t in zip(kinds, theta)])


def _from_free(kinds, z) -> np.ndarray:
    return np.array([_KINDS[k][1](v) for k, v in zip(kinds, z)])


def _free_slope(kinds, theta) -> np.ndarray:
    return np.array([_KINDS[k][3](t) for k, t in zip(kinds, theta)])


def _objective(model, data, d=None, family=None, a=None, b=None):
    """The log-likelihood of member ``model`` on ``data`` and its score,
    both over its free parameters in ``_MEMBERS`` order; M3 also takes its
    plugged-in d and its copula. A bad setting (model, family, GFGM
    exponent, d) raises DomainError here, once. The function returned maps
    a point to (log-likelihood, score), and to (-inf, None) where the model
    is undefined, has no density, or overflows.
    """
    x, y = data[:, 0], data[:, 1]
    if model == "m2":

        def value(b1, b2, rho):
            bulk = BivariateWeibull(WeibullParams(1.0, b1), WeibullParams(1.0, b2), GfgmParams(rho))
            # one pass in log space, so a row whose density underflows still
            # counts; M2 has no shape columns, which are -inf on a row with a zero
            logf, S = _log_density_score(x, y, bulk)
            return np.sum(logf), S[:, [1, 3, 4]].sum(axis=0)
    elif model == "m3":
        # the settings are valid when they make a model with some free values
        mbw_params(1.0, 1.0, 1.0, 1.0, 0.0, d, 0.5, family, a, b)
        keep, past = _kept_rows(x, y, RectUniform(0.0, 0.0, d))
        xk, yk = x[keep], y[keep]

        def value(a1, b1, a2, b2, rho, p):
            m = mbw_params(a1, b1, a2, b2, rho, d, p, family, a, b)
            ll = loglik_mbw(data, m)
            if ll == -np.inf:
                return ll, None
            logf, S = _log_density_score(xk, yk, m.base)
            # a row on the plateau weighs its bulk score by its bulk share
            # q f / (p/d^2 + q f); a row past the square has share 1
            w = np.where(past, 1.0, expit(np.log(m.q / p) + logf + 2 * np.log(d)))
            # a row whose share underflowed has no bulk density left to
            # differentiate, and its score may be NaN
            S[w == 0] = 0.0
            return ll, np.append(w @ S, np.sum((1 - w) / p - w / m.q))
    else:
        raise DomainError(f"unknown model {model!r}")

    def objective(theta):
        try:
            # an overflow rejects the point instead of warning
            with np.errstate(over="raise", invalid="raise"):
                ll, score = value(*theta)
        except (SingularityError, DomainError, FloatingPointError):
            return -np.inf, None
        if not (np.isfinite(ll) and np.all(np.isfinite(score))):
            return -np.inf, None
        return float(ll), score

    return objective


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


@functools.cache
def _scipy_openblas():
    """The OpenBLAS bundled with scipy's wheel, as a ctypes library, or None
    where this scipy has none or it lacks the thread setting."""
    site = os.path.dirname(os.path.dirname(scipy.__file__))
    for path in glob.glob(os.path.join(site, "scipy.libs", "libscipy_openblas-*.so")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads"):
            lib.scipy_openblas_set_num_threads.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads.restype = None
            lib.scipy_openblas_get_num_threads.restype = ctypes.c_int
            return lib
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Caps scipy's OpenBLAS at one thread inside the block and restores its
    count after. L-BFGS-B's small BLAS calls wake that library's other
    threads, which then spin on a core of their own for no work."""
    lib = _scipy_openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(before)


def _fit(data, model, objective, theta0, compute_ses, diagnostics=None, **fixed):
    """Maximize the log-likelihood of member ``model`` by L-BFGS-B on the
    analytic score of ``objective``, chained to the kinds' coordinates,
    starting from ``theta0``, within the search box of ``_REACH`` and
    ``_RHO_BOX``. The search restarts from the best point it has evaluated
    until a pass gains less than ``_GAIN``. It has converged when it did so within its budget,
    with no log or logit coordinate on the edge of the box; scipy's own
    status is not consulted, since a line search can fail at the optimum.
    ``fixed`` holds the plugged-in parameters reported beside the
    estimates."""
    params, k = _MEMBERS[model]
    kinds = list(params.values())
    diagnostics = diagnostics or {}

    shape = np.isin(list(params), ("alpha1", "alpha2"))
    if shape.any() and objective(theta0)[0] == -np.inf:
        # shape start of 1.5 can be rejected only in pathological data;
        # retry from shapes just above 1
        theta0 = np.where(shape, 1.05, theta0)
    z = _to_free(kinds, theta0)
    # the best point evaluated, with its value and gradient. Each pass
    # starts from it and the fit ends on it: a pass that scipy ends
    # abnormally can report a value taken at another point than its x
    best = {"f": _REJECTED, "z": z, "g": np.zeros(len(z))}

    def neg(z):
        theta = _from_free(kinds, z)
        ll, score = objective(theta)
        if ll == -np.inf:
            return _REJECTED, np.zeros(len(z))
        f, g = -ll, -score * _free_slope(kinds, theta)
        if f < best["f"]:
            best.update(f=f, z=z.copy(), g=g)
        return f, g

    rho_box = _RHO_BOX[diagnostics.get("copula_family", "gfgm")]
    box = [rho_box if kind == "box" else (v - _REACH, v + _REACH) for kind, v in zip(kinds, z)]
    f, nit, nfev = np.inf, 0, 0
    with _one_blas_thread():
        for passes in range(1, _PASSES + 1):
            res = optimize.minimize(
                neg, best["z"], jac=True, method="L-BFGS-B", bounds=box,
                options={"maxfun": _MAX_EVALS - nfev, "ftol": _FTOL},
            )
            gain = f - best["f"]
            f = best["f"]
            nit += res.nit
            nfev += res.nfev
            if gain < _GAIN or nfev >= _MAX_EVALS:
                break
    z = best["z"]
    ll = -f if f < _REJECTED else -np.inf
    edge = [nm for nm, kind, v, (lo, hi) in zip(params, kinds, z, box)
            if kind != "box" and not lo < v < hi]
    result = FitResult(
        model=model,
        estimates={**dict(zip(params, _from_free(kinds, z).tolist())), **fixed},
        loglik=ll,
        k=k,
        converged=bool(gain < _GAIN and not edge and np.isfinite(ll)),
        iterations=nit,
        n_evals=nfev,
        diagnostics=diagnostics,
    )
    # flags are listed by name
    result.boundary_flags = [
        nm for nm, kind in sorted(params.items())
        if _KINDS[kind][2](result.estimates[nm]) < _BOUNDARY_GAP
    ]
    interior = [nm not in result.boundary_flags and nm not in edge for nm in params]
    result.diagnostics["message"] = str(res.message)
    result.diagnostics["passes"] = passes
    # the score left at the end, in the optimizer's coordinates
    result.diagnostics["score_max"] = float(np.max(np.abs(best["g"][interior]), initial=0.0))
    if edge:
        result.diagnostics["box_edge"] = edge
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
    log-likelihood over the six remaining parameters by L-BFGS-B in a box
    (see ``_fit``). d counts as an estimated parameter in k.
    """
    data = _as_data(data)
    if len(data) < MIN_OBSERVATIONS:
        raise DomainError(f"fit_mbw needs at least {MIN_OBSERVATIONS} observations")
    # the copula settings are checked before stage 1, whose failure would hide them
    _copula(copula_family, 0.0, a, b)
    if eps is None:
        eps = select_eps(data, min_pts)
    d_hat, c1 = estimate_d(data, DbscanParams(min_pts=min_pts, eps=eps))

    objective = _objective("m3", data, d_hat, copula_family, a, b)
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
    return _fit(data, "m3", objective, _start(data, "m3", p0), compute_ses, diagnostics, d=d_hat)


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


def fit_m2(data) -> FitResult:
    """FGM-coupled exponential margins (M3 with shapes 1, a = b = 1, no
    uniform component), fitted over (beta1, beta2, rho)."""
    data = _as_data(data)
    return _fit(data, "m2", _objective("m2", data), _start(data, "m2"), compute_ses=True)


def _wald_p(est, se) -> float:
    if not (np.isfinite(se) and se > 0):
        return float("nan")
    return float(2.0 * ndtr(-abs(est / se)))


def compute_se(data, result: FitResult) -> dict:
    """Observed-information standard errors of an M2 or M3 fit. The
    Hessian of the log-likelihood at the optimum is the symmetrised
    central difference of its analytic score, taken over the parameters
    not in ``result.boundary_flags``: two score calls per parameter. d
    (for the mixture model) and the flagged parameters are held at their
    estimates, and a flagged parameter gets NaN for its standard error and
    p-value: at a boundary the Wald reference does not apply. A probe the
    objective rejects leaves the Hessian undefined, and every standard
    error and p-value NaN. M1's standard errors are closed-form and set by
    ``fit_m1``.

    Updates ``result.std_errors`` / ``result.p_values`` in place and
    returns the standard-error dict.
    """
    data = _as_data(data)
    get = result.diagnostics.get
    objective = _objective(
        result.model,
        data,
        result.estimates.get("d"),
        get("copula_family"),
        get("copula_a"),
        get("copula_b"),
    )
    names = list(_MEMBERS[result.model][0])
    theta = np.array([result.estimates[k] for k in names])
    free = [i for i, nm in enumerate(names) if nm not in result.boundary_flags]

    def score(i, step):
        t = theta.copy()
        t[i] += step
        ll, g = objective(t)
        return g[free] if ll > -np.inf else np.full(len(free), np.nan)

    steps = 1e-4 * np.maximum(np.abs(theta[free]), 1.0)
    H = np.array([(score(i, h) - score(i, -h)) / (2 * h) for i, h in zip(free, steps)])
    H = (H + H.T) / 2
    se = dict.fromkeys(names, float("nan"))
    if not np.all(np.isfinite(H)):
        result.diagnostics["hessian"] = "rejected probe"
    else:
        try:
            cov = np.linalg.inv(-H)
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
    if B < 100 or not 0 < level < 1:
        raise DomainError("bootstrap needs B >= 100 and a level in (0, 1)")
    n = len(data)
    rows = []
    failures = 0
    for r in range(B):
        sample = data[SeededStream(seed, r).generator().integers(0, n, size=n)]
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
        "p_value": float(chdtrc(df, max(statistic, 0.0))),
    }
    if statistic < 0:
        out["warning"] = "negative deviance: models non-nested or misconverged"
    return out
