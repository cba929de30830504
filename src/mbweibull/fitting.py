"""Likelihood evaluation and estimation.

The full mixture model (M3) is fitted in two stages: the rectangle side d
is plugged in from the origin cluster found by DBSCAN, then the remaining
parameters are maximized by projected Newton in a box (see ``_fit``):
shapes and scales on a log scale, p on a logit scale and rho as itself.
Each evaluation is one call of the log-space density kernel on a point
and its probes: log-likelihood, analytic score, and the central
difference of the score as Hessian, like the observed information behind
the standard errors. M3 reports ``loglik_mbw`` at its estimates.
Comparison models: M1 (independent exponential margins, closed form) and
M2 (FGM-coupled exponential margins). M2 is M3 with fixed values: shapes
1, a GFGM(rho, 1, 1) copula and no uniform component, fitted by the same
stage-2 code on the same kernel.
"""

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import chdtrc, expit, logit, ndtr

from .bivariate import _log_density_score, bvw_pdf
from .clustering import DbscanParams, dbscan, origin_cluster_mask, select_eps
from .copulas import GfgmParams
from .errors import (
    PACKAGE_ERRORS,
    ConvergenceError,
    DegenerateDataError,
    DomainError,
)
from .mixture import PARAM_NAMES, MbwParams, _copula, mbw_params
from .sampler import SeededStream
from .univariate import RectUniform

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
    outside point sits where the bulk density vanishes, or where its
    density, formed in linear space, underflows; raises SingularityError
    when one sits on an axis where it is unbounded. Stage 2's search sums
    the same terms in log space and calls this once, for M3's reported value.
    """
    data = _as_data(data)
    x, y = data[:, 0], data[:, 1]
    keep, past = _kept_rows(x, y, m.rect)
    f2 = bvw_pdf(x[keep], y[keep], m.base)
    out_f = m.q * f2[past]
    if (out_f <= 0).any():
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
# the derivative of the value in its coordinate, which chains the score to
# the optimizer, and the closed bounds of its space. Shapes and scales are
# both of kind "scale"; rho, of kind "box", is its own coordinate and keeps
# to its copula's space by the search box.
_KINDS = {
    "scale": (np.log, np.exp, lambda t: np.inf, lambda t: t, (0.0, np.inf)),
    "box": (lambda t: t, lambda t: t, lambda t: 1.0 - abs(t), np.ones_like, (-1.0, 1.0)),
    "logit": (logit, expit, lambda t: min(t, 1.0 - t), lambda t: t * (1.0 - t), (0.0, 1.0)),
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

# Stage 2 stops once the Newton decrement, twice the gain its next step
# expects, is below _DECREMENT relative to the log-likelihood, or once it
# has made _MAX_EVALS objective calls: no converged fit of 1643 measured
# took over 74, while a fit on a likelihood without a maximum climbs until
# then. A step is halved until it gains _ARMIJO of what its slope
# promises, at most _HALVINGS times.
_DECREMENT = 1e-12
_MAX_EVALS = 500
_ARMIJO = 1e-4
_HALVINGS = 40


# These three map one point, or a (K, m) array of points, coordinate-wise.
def _to_free(kinds, theta) -> np.ndarray:
    return np.array([_KINDS[k][0](t) for k, t in zip(kinds, np.asarray(theta).T)]).T


def _from_free(kinds, z) -> np.ndarray:
    return np.array([_KINDS[k][1](v) for k, v in zip(kinds, np.asarray(z).T)]).T


def _free_slope(kinds, theta) -> np.ndarray:
    return np.array([_KINDS[k][3](t) for k, t in zip(kinds, np.asarray(theta).T)]).T


def _member_score(model, data, d=None, family=None, a=None, b=None):
    """The log-likelihood and score of member ``model`` on ``data`` over its
    free parameters in ``_MEMBERS`` order; M3 also takes its plugged-in d and
    its copula. A bad setting (model, family, GFGM exponent, d) raises
    DomainError here, once. The function returned maps a (K, |free|) array
    of points, in one kernel call and without a warning, to K
    log-likelihoods, summed in log space over the rows ``loglik_mbw``
    counts (all rows for M2), and (K, |free|) scores; both NaN for a point
    past the edge of the parameter space, with a row past the square
    without a finite log f, or with a score that is not finite."""
    x, y = data[:, 0], data[:, 1]
    if model == "m2":
        past, c = np.ones(len(x), bool), GfgmParams(0.0)
    elif model == "m3":
        # the settings are valid when they make a model with some free values
        c = mbw_params(1.0, 1.0, 1.0, 1.0, 0.0, d, 0.5, family, a, b).base.copula
        keep, past = _kept_rows(x, y, RectUniform(0.0, 0.0, d))
        x, y = x[keep], y[keep]
    else:
        raise DomainError(f"unknown model {model!r}")
    # a point on the edge of the parameter space has no finite score
    lo, hi = np.array([_KINDS[k][4] for k in _MEMBERS[model][0].values()]).T

    def score(points):
        # the points' values as (K, 1) columns against the rows
        cols = points.T[:, :, None]
        with np.errstate(all="ignore"):
            if model == "m2":
                # M2 has no shape columns, which are -inf on a row with a zero
                b1, b2, rho = cols
                logf, S = _log_density_score(x, y, (1.0, b1, 1.0, b2, rho), c)
                ll = logf.sum(axis=1)
                g = S[..., [1, 3, 4]].sum(axis=-2)
            else:
                logf, S = _log_density_score(x, y, cols[:5], c)
                p = cols[5]
                # the logs of the plateau's density p/d^2 and of the bulk's q f
                plateau, bulk = np.log(p) - 2 * np.log(d), np.log1p(-p) + logf
                ll = np.where(past, bulk, np.logaddexp(plateau, bulk)).sum(axis=1)
                # a row on the plateau weighs its bulk score by its bulk share
                # q f / (p/d^2 + q f); a row past the square has share 1
                w = np.where(past, 1.0, expit(bulk - plateau))
                # a row whose share underflowed has no bulk density left to
                # differentiate, and its score may be NaN
                S[w == 0] = 0.0
                dp = np.sum((1 - w) / p - w / (1.0 - p), axis=-1)
                g = np.concatenate([(w[..., None, :] @ S)[..., 0, :], dp[..., None]], axis=-1)
            bad = (((points < lo) | (points > hi)).any(axis=1)
                   | np.isinf(logf[:, past]).any(axis=1) | ~np.isfinite(g).all(axis=1))
        ll[bad], g[bad] = np.nan, np.nan
        return ll, g

    return score


def _probes(center, free, lo=-np.inf, hi=np.inf) -> tuple:
    """The central-difference probes of ``center`` over its coordinates
    ``free``, two per coordinate i, center +- h e_i with h = 1e-4
    max(|center_i|, 1), a pair that would leave the box [lo, hi] moved along
    its axis into it; and the map from the gradients at the probes, over
    those coordinates, to their symmetrised Jacobian, NaN in the row and
    column of a rejected probe."""
    c = center[free]
    h = 1e-4 * np.maximum(np.abs(c), 1.0)
    lo, hi = (np.broadcast_to(v, center.shape)[free] for v in (lo, hi))
    mid = np.clip(c, lo + h, hi - h) - c
    axes = np.eye(len(center))[free]

    def hessian(g):
        H = (g[: len(h)] - g[len(h):]) / (2 * h[:, None])
        return (H + H.T) / 2

    return center + np.vstack([axes * (mid + h)[:, None], axes * (mid - h)[:, None]]), hessian


def _objective(model, data, d=None, family=None, a=None, b=None):
    """Stage 2's evaluator, on ``_member_score``'s arguments: a map from a
    point z of the optimizer's coordinates and the search box [lo, hi] to
    the log-likelihood, gradient and Hessian (``_probes``) at z, from one
    kernel call on z and its 2m probes; (-inf, 0, None) where the
    log-likelihood or the score at z is not finite."""
    kinds = list(_MEMBERS[model][0].values())
    score = _member_score(model, data, d, family, a, b)

    def objective(z, lo=-np.inf, hi=np.inf):
        probes, hessian = _probes(z, np.arange(len(z)), lo, hi)
        with np.errstate(all="ignore"):
            theta = _from_free(kinds, np.vstack([z, probes]))
            ll, g = score(theta)
            g = g * _free_slope(kinds, theta)
        if not np.isfinite(ll[0]):
            return -np.inf, np.zeros(len(z)), None
        return float(ll[0]), g[0], hessian(g[1:])

    return objective


def _weibull_plot(t) -> tuple:
    """Shape and scale of a Weibull plot of the positive sample ``t``: the
    least-squares line of log(-log(1 - F)) on log t, with the median ranks
    F = (i - 0.3)/(n + 0.4). Its slope is the shape, clipped to [0.2, 20],
    and it crosses 0 at the log of the scale. Needs two distinct values."""
    t = np.log(np.sort(t))
    F = (np.arange(1, len(t) + 1) - 0.3) / (len(t) + 0.4)
    h = np.log(-np.log1p(-F))
    dt = t - t.mean()
    slope = dt @ h / (dt @ dt)
    scale = np.exp(t.mean() - h.mean() / slope)
    return float(np.clip(slope, 0.2, 20.0)), float(scale)


def _rho_from_spearman(rho_s, family, a, b) -> float:
    """The copula parameter with Spearman's rho ``rho_s``: 2 sin(pi rho_s/6)
    for the Gaussian copula, and rho_s / (12 B(b+1, a+1)^2) for GFGM(a, b),
    3 rho_s for FGM; clipped to [-0.95, 0.95]."""
    if family == "gaussian":
        rho = 2.0 * np.sin(np.pi * rho_s / 6.0)
    else:
        rho = rho_s / (12.0 * beta_fn(b + 1.0, a + 1.0) ** 2)
    return float(np.clip(rho, -0.95, 0.95))


def _start(data, model, p=None, d=None, family="gfgm", a=1.0, b=1.0) -> np.ndarray:
    """Optimizer start, with p as given.

    The plain start has shapes 1.5, scales at the margin means of all rows
    and rho at their Spearman rank correlation; M2 starts there. M3 starts
    from the rows past the square of side ``d``, which stage 1 leaves to
    the bivariate Weibull bulk: each margin's shape and scale from a
    Weibull plot of its positive values there (``_weibull_plot``), and rho
    from their Spearman rank correlation mapped through the copula
    (``_rho_from_spearman``). Where a margin has fewer than two distinct
    positive values past the square, M3 takes the plain start.

    Where the likelihood has more than one maximum, the start picks the
    one the search reaches. On Vannman bootstrap resamples with most rows
    in the origin cluster, the search from here reaches an interior
    maximum (p about 0.3 to 0.5), mostly the lower one, where from the
    plain start it reached p near 0.
    """
    x, y = data[:, 0], data[:, 1]
    guess = {
        "alpha1": 1.5,
        "beta1": x.mean() or 1.0,
        "alpha2": 1.5,
        "beta2": y.mean() or 1.0,
        "rho": float(np.clip(_spearman(x, y), -0.95, 0.95)),
        "p": p,
    }
    if model == "m3":
        past = (x > d) | (y > d)
        xp, yp = x[past], y[past]
        margins = [t[t > 0] for t in (xp, yp)]
        if all(len(np.unique(t)) >= 2 for t in margins):
            (a1, b1), (a2, b2) = map(_weibull_plot, margins)
            rho = _rho_from_spearman(_spearman(xp, yp), family, a, b)
            guess.update(alpha1=a1, beta1=b1, alpha2=a2, beta2=b2, rho=rho)
    return np.array([guess[nm] for nm in _MEMBERS[model][0]])


def _damped_step(A, g) -> tuple:
    """The Levenberg-Marquardt step for the finite matrix A: the least lam of
    0, 1e-8 s, 1e-7 s, ..., with s the largest |A_ii| or 1, for which A +
    lam I has a Cholesky factor, and the solution of (A + lam I) step = g."""
    lam, s = 0.0, max(np.abs(np.diag(A)).max(initial=0.0), 1.0)
    while True:
        try:
            np.linalg.cholesky(A + lam * np.eye(len(g)))
            return lam, np.linalg.solve(A + lam * np.eye(len(g)), g)
        except np.linalg.LinAlgError:
            lam = max(10 * lam, 1e-8 * s)


def _fit(data, model, theta0, compute_ses, diagnostics=None, **fixed):
    """Maximize the log-likelihood of member ``model`` from ``theta0`` by
    projected Newton (Bertsekas 1982, SIAM J. Control Optim. 20:221) in the
    kinds' coordinates, within the search box of ``_REACH`` and ``_RHO_BOX``.
    ``n_evals`` counts the calls of the ``_objective`` built here. An
    iteration holds each coordinate on a bound of the box whose gradient
    points out, takes the others' block of the last Hessian, steps by
    ``_damped_step``, and halves the step, projected onto the box, until an
    evaluation shows its gain. The fit has converged when the Newton
    decrement fell below ``_DECREMENT`` with an undamped Hessian, so
    negative definite over the free coordinates (Nocedal & Wright 2006, Thm.
    2.4), and the box stopped no log or logit coordinate short. ``fixed``
    holds the plugged-in parameters reported beside the estimates."""
    params, k = _MEMBERS[model]
    kinds = list(params.values())
    diagnostics = diagnostics or {}
    get = diagnostics.get
    objective = _objective(model, data, fixed.get("d"), get("copula_family", "gfgm"),
                           get("copula_a", 1.0), get("copula_b", 1.0))
    n_evals = 0

    def ascent(z, *box):
        nonlocal n_evals
        n_evals += 1
        return objective(z, *box)

    # a start's probes lie far inside the box, which is built around it
    z = _to_free(kinds, theta0)
    ll, g, H = ascent(z)
    shape = np.isin(list(params), ("alpha1", "alpha2"))
    if shape.any() and ll == -np.inf:
        # a start's shapes can be rejected only in pathological data, such
        # as a far outlier whose exponent (x/beta)^alpha overflows; retry
        # from shapes just above 1
        z = _to_free(kinds, np.where(shape, 1.05, theta0))
        ll, g, H = ascent(z)
    rho_box = _RHO_BOX[get("copula_family", "gfgm")]
    lo, hi = np.array([rho_box if kind == "box" else (v - _REACH, v + _REACH)
                       for kind, v in zip(kinds, z)]).T
    nit, at_maximum = 0, False
    while ll > -np.inf and n_evals < _MAX_EVALS:
        nit += 1
        free = np.flatnonzero(~(((z <= lo) & (g < 0)) | ((z >= hi) & (g > 0))))
        H = H[np.ix_(free, free)]
        if not np.isfinite(H).all():
            # a rejected probe leaves no Hessian: the fit stops short
            break
        lam, step = _damped_step(-H, g[free])
        direction = np.zeros(len(z))
        direction[free] = step
        # once the decrement is small the quadratic model holds: its full
        # step is the last, taken unless rounding makes it lose
        last = g[free] @ step <= _DECREMENT * (1.0 + abs(ll))
        at_maximum = last and lam == 0
        for t in 0.5 ** np.arange(1 if last else _HALVINGS):
            trial = np.clip(z + t * direction, lo, hi)
            ll_trial, g_trial, H_trial = ascent(trial, lo, hi)
            gain = ll_trial - ll
            if gain >= 0 if last else gain > 0 and gain >= _ARMIJO * (g @ (trial - z)):
                z, ll, g, H = trial, ll_trial, g_trial, H_trial
                break
            if n_evals >= _MAX_EVALS:
                break
        else:
            # no step along the direction gains
            break
        if last:
            break
    theta = _from_free(kinds, z)
    flags = sorted(nm for nm, kind, t in zip(params, kinds, theta)
                   if _KINDS[kind][2](t) < _BOUNDARY_GAP)
    # the box edge stops a coordinate short unless it stands in for the edge
    # of the space past it, as for p = 0, where the parameter is flagged
    edge = [nm for nm, kind, v, a, b in zip(params, kinds, z, lo, hi)
            if kind != "box" and not a < v < b and nm not in flags]
    interior = [nm not in flags and nm not in edge for nm in params]
    # the score left at the end, in the optimizer's coordinates
    diagnostics["score_max"] = float(np.max(np.abs(g[interior]), initial=0.0))
    if edge:
        diagnostics["box_edge"] = edge
    result = FitResult(model, {**dict(zip(params, theta.tolist())), **fixed}, float(ll), k,
                       converged=bool(at_maximum and not edge), iterations=nit,
                       n_evals=n_evals, boundary_flags=flags, diagnostics=diagnostics)
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
    log-likelihood over the six remaining parameters by projected Newton in
    a box (see ``_fit``). d counts as an estimated parameter in k.
    """
    data = _as_data(data)
    if len(data) < MIN_OBSERVATIONS:
        raise DomainError(f"fit_mbw needs at least {MIN_OBSERVATIONS} observations")
    # the copula settings are checked before stage 1, whose failure would hide them
    _copula(copula_family, 0.0, a, b)
    if eps is None:
        eps = select_eps(data, min_pts)
    d_hat, c1 = estimate_d(data, DbscanParams(min_pts=min_pts, eps=eps))

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
    theta0 = _start(data, "m3", p0, d_hat, copula_family, a, b)
    result = _fit(data, "m3", theta0, compute_ses, diagnostics, d=d_hat)
    if result.loglik > -np.inf:
        # the reported value is the public likelihood's at the estimates
        theta = (result.estimates[nm] for nm in PARAM_NAMES)
        result.loglik = loglik_mbw(data, mbw_params(*theta, copula_family, a, b))
    return result


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
    return _fit(data, "m2", _start(data, "m2"), compute_ses=True)


def _wald_p(est, se) -> float:
    if not (np.isfinite(se) and se > 0):
        return float("nan")
    return float(2.0 * ndtr(-abs(est / se)))


def compute_se(data, result: FitResult) -> dict:
    """Observed-information standard errors of an M2 or M3 fit. The
    Hessian of the log-likelihood at the optimum is the symmetrised
    central difference of its analytic score, taken over the parameters
    not in ``result.boundary_flags``: two probes per parameter, all scored
    in one kernel call (``_member_score``). d (for the mixture model) and
    the flagged parameters are held at their estimates, and a flagged
    parameter gets NaN for its standard error and p-value: at a boundary
    the Wald reference does not apply. A rejected probe leaves the Hessian
    undefined, and every standard error and p-value NaN. M1's standard
    errors are closed-form and set by ``fit_m1``.

    Updates ``result.std_errors`` / ``result.p_values`` in place and
    returns the standard-error dict.
    """
    data = _as_data(data)
    get = result.diagnostics.get
    score = _member_score(result.model, data, result.estimates.get("d"),
                          get("copula_family"), get("copula_a"), get("copula_b"))
    names = list(_MEMBERS[result.model][0])
    theta = np.array([result.estimates[k] for k in names])
    free = [i for i, nm in enumerate(names) if nm not in result.boundary_flags]
    probes, hessian = _probes(theta, free)
    H = hessian(score(probes)[1][:, free])
    se = dict.fromkeys(names, float("nan"))
    if not np.all(np.isfinite(H)):
        result.diagnostics["hessian"] = "rejected probe"
    else:
        try:
            cov = np.linalg.inv(-H)
            diag = np.diag(cov)
            if (diag <= 0).any():
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
