"""Likelihood evaluation and estimation.

The full mixture model (M3) is fitted in two stages: the rectangle side d
is plugged in from the origin cluster found by DBSCAN, then the remaining
parameters are maximized by projected Newton in a box (see ``_fit``):
shapes and scales on a log scale, p on a logit scale and rho as itself.
Each evaluation is one call of the log-space density kernel on one point:
log-likelihood, analytic score and closed-form Hessian, each row's second
derivatives summed as the mixture weighs them; the final evaluation's
Hessian is the observed information behind the standard errors. M3 reports
``loglik_mbw`` at its estimates.
Comparison models: M1 (independent exponential margins, closed form) and
M2 (FGM-coupled exponential margins). M2 is M3 with shapes 1, a GFGM(rho,
1, 1) copula and p = 0: its fit frees three positions of M3's parameter
vector and runs M3's evaluator with every row past its absent square.
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


# Stage 2's parameter vector theta is PARAM_NAMES without d: the kernel's
# five bulk parameters, then p. Each position has a fixed coordinate for the
# optimizer: log for a shape or scale, rho as itself and logit for p.
_NAMES = tuple(nm for nm in PARAM_NAMES if nm != "d")
_RHO, _P = 4, 5
# the positions on a log scale, where dtheta/dz = d2theta/dz2 = theta
_LOG = np.arange(len(_NAMES)) < _RHO

# A parameter closer than this to the edge of its space is on its boundary:
# the fit flags it and compute_se holds it fixed.
_BOUNDARY_GAP = 1e-3

# The nested family M2 within M3, by model name: the positions of theta it
# frees, and k. A member holds the others at _HELD, shapes 1 and p 0, so M2
# is M3 with shapes 1, a GFGM(rho, 1, 1) copula and no uniform component;
# M3's k counts its plugged-in d.
_MEMBERS = {"m2": (np.array([1, 3, 4]), 3), "m3": (np.arange(len(_NAMES)), 7)}
_HELD = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])

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


def _z(theta) -> np.ndarray:
    """The optimizer's coordinates of a whole vector theta."""
    return np.concatenate([np.log(theta[:_RHO]), theta[_RHO:_P], logit(theta[_P:])])


def _theta(z) -> np.ndarray:
    """The whole vector theta at the optimizer's coordinates z."""
    return np.concatenate([np.exp(z[:_RHO]), z[_RHO:_P], expit(z[_P:])])


def _whole(free, values, held=_HELD) -> np.ndarray:
    """The whole vector: ``values`` at the positions ``free``, else ``held``."""
    whole = held.copy()
    whole[free] = values
    return whole


_HELD_Z = _z(_HELD)


def _objective(model, data, d=None, family=None, a=None, b=None):
    """Stage 2's evaluator for member ``model`` on ``data``; M3 also takes
    its plugged-in d and its copula. A bad setting (model, family, GFGM
    exponent, d) raises DomainError here, once. The function returned maps a
    point z of the optimizer's coordinates at the member's free positions,
    in one one-point kernel call and without a warning, to the
    log-likelihood, summed in log space over the rows ``loglik_mbw`` counts,
    and its gradient and Hessian in z; (-inf, 0, NaN) for a point past the
    edge of the parameter space or where any of the three is not finite.

    Every member runs M3's mixture sum at its whole theta: each row's bulk
    derivatives weighted by the row's bulk share w, plus w (1 - w) s s^T in
    the Hessian, and logit p's derivatives in their own coordinate. M2 has
    no square, so every row counts and lies past it, and at p = 0 the sum
    is M2's likelihood; the derivatives at its held positions, which may
    not be finite on a row with a zero, are dropped."""
    x, y = data[:, 0], data[:, 1]
    if model == "m2":
        c = GfgmParams(0.0)
        past, log_area = np.ones(len(x), dtype=bool), 0.0
    elif model == "m3":
        # the settings are valid when they make a model with some free values
        c = mbw_params(1.0, 1.0, 1.0, 1.0, 0.0, d, 0.5, family, a, b).base.copula
        keep, past = _kept_rows(x, y, RectUniform(0.0, 0.0, d))
        x, y = x[keep], y[keep]
        log_area = 2 * np.log(d)
    else:
        raise DomainError(f"unknown model {model!r}")
    free = _MEMBERS[model][0]
    m, block, log_scale = len(free), np.ix_(free, free), _LOG[free]

    def objective(z):
        theta = _theta(_whole(free, z, _HELD_Z))
        with np.errstate(all="ignore"):
            logf, S, Hr = _log_density_score(x, y, theta[:_P], c)
            p = theta[_P]
            # the logs of the plateau's density p/d^2 and of the bulk's q f
            plateau, bulk = np.log(p) - log_area, np.log1p(-p) + logf
            ll = np.where(past, bulk, np.logaddexp(plateau, bulk)).sum()
            # a row on the plateau weighs its bulk derivatives by its bulk
            # share q f / (p/d^2 + q f); a row past the square has share 1
            w = np.where(past, 1.0, expit(bulk - plateau))
            # a row whose share underflowed has no bulk density left to
            # differentiate, and its derivatives may be NaN
            gone = w == 0
            if gone.any():
                S[gone], Hr[gone] = 0.0, 0.0
            v = w * (1 - w)
            vS = v @ S
            g, H = np.empty(6), np.empty((6, 6))
            g[:5], g[5] = w @ S, len(w) * (1 - p) - w.sum()
            H[:5, :5] = (w @ Hr.reshape(len(w), 25)).reshape(5, 5) + (S.T * v) @ S
            H[5, :5] = H[:5, 5] = -vS
            H[5, 5] = v.sum() - len(w) * p * (1 - p)
            g, H, t = g[free], H[block], theta[free]
            # the chain rule to z: H gains g times d2theta/dz2
            slope = np.where(log_scale, t, 1.0)
            H = H * np.outer(slope, slope) + np.diag(np.where(log_scale, g * t, 0.0))
            g = g * slope
        # the kernel still returns finite values for a GFGM rho past 1
        if (abs(theta[_RHO]) > 1
                or not (np.isfinite(ll) and np.isfinite(g).all() and np.isfinite(H).all())):
            return -np.inf, np.zeros(m), np.full((m, m), np.nan)
        return float(ll), g, H

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
    if model == "m3":
        past = (x > d) | (y > d)
        xp, yp = x[past], y[past]
        margins = [t[t > 0] for t in (xp, yp)]
        if all(len(np.unique(t)) >= 2 for t in margins):
            (a1, b1), (a2, b2) = map(_weibull_plot, margins)
            rho = _rho_from_spearman(_spearman(xp, yp), family, a, b)
            return np.array([a1, b1, a2, b2, rho, p])
    rho = np.clip(_spearman(x, y), -0.95, 0.95)
    # M2 is given no p, which it holds: its None becomes a NaN dropped here
    plain = np.array([1.5, x.mean() or 1.0, 1.5, y.mean() or 1.0, rho, p], dtype=float)
    return plain[_MEMBERS[model][0]]


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
    coordinates of its free positions, within the search box of ``_REACH``
    and ``_RHO_BOX``. ``n_evals`` counts the calls of the ``_objective`` built here. An
    iteration holds each coordinate on a bound of the box whose gradient
    points out, takes the others' block of the last Hessian, steps by
    ``_damped_step``, and halves the step, projected onto the box, until an
    evaluation shows its gain. It stops once the Newton decrement is below
    ``_DECREMENT``, before that step's evaluation (Boyd & Vandenberghe 2004,
    Alg. 9.5), and ``compute_se`` takes the Hessian of the last one. The fit
    has converged when it stopped so with an undamped Hessian, so negative
    definite over the moving coordinates (Nocedal & Wright 2006, Thm. 2.4),
    and the box stopped no log or logit coordinate short. ``fixed`` holds
    the plugged-in parameters reported beside the estimates."""
    free, k = _MEMBERS[model]
    names = [_NAMES[i] for i in free]
    diagnostics = diagnostics or {}
    get = diagnostics.get
    objective = _objective(model, data, fixed.get("d"), get("copula_family", "gfgm"),
                           get("copula_a", 1.0), get("copula_b", 1.0))
    n_evals = 0

    def ascent(z):
        nonlocal n_evals
        n_evals += 1
        return objective(z)

    z = _z(_whole(free, theta0))[free]
    ll, g, H = ascent(z)
    lo, hi = z - _REACH, z + _REACH
    is_rho = free == _RHO
    lo[is_rho], hi[is_rho] = _RHO_BOX[get("copula_family", "gfgm")]
    nit, at_maximum = 0, False
    while ll > -np.inf and n_evals < _MAX_EVALS:
        nit += 1
        moving = np.flatnonzero(~(((z <= lo) & (g < 0)) | ((z >= hi) & (g > 0))))
        lam, step = _damped_step(-H[np.ix_(moving, moving)], g[moving])
        # once the decrement is small the quadratic model holds and its step
        # would gain almost nothing: the fit ends here without evaluating it
        if g[moving] @ step <= _DECREMENT * (1.0 + abs(ll)):
            at_maximum = lam == 0
            break
        direction = np.zeros(len(z))
        direction[moving] = step
        for t in 0.5 ** np.arange(_HALVINGS):
            trial = np.clip(z + t * direction, lo, hi)
            ll_trial, g_trial, H_trial = ascent(trial)
            gain = ll_trial - ll
            if gain > 0 and gain >= _ARMIJO * (g @ (trial - z)):
                z, ll, g, H = trial, ll_trial, g_trial, H_trial
                break
            if n_evals >= _MAX_EVALS:
                break
        else:
            # no step along the direction gains
            break
    theta = _theta(_whole(free, z, _HELD_Z))
    # each position's distance to the edge of its space: rho's to -1 and 1,
    # p's to 0 and 1; a shape or scale has none
    gap = np.array([np.inf] * _RHO + [1.0 - abs(theta[_RHO]), min(theta[_P], 1.0 - theta[_P])])
    flagged = gap[free] < _BOUNDARY_GAP
    # the box edge stops a coordinate short unless it stands in for the edge
    # of the space past it, as for p = 0, where the parameter is flagged;
    # rho's box is its space
    short = ~(flagged | is_rho | ((lo < z) & (z < hi)))
    flags = sorted(nm for nm, f in zip(names, flagged) if f)
    edge = [nm for nm, s in zip(names, short) if s]
    # the score left at the end, in the optimizer's coordinates
    diagnostics["score_max"] = float(np.max(np.abs(g[~(flagged | short)]), initial=0.0))
    if edge:
        diagnostics["box_edge"] = edge
    result = FitResult(model, {**dict(zip(names, theta[free].tolist())), **fixed}, float(ll), k,
                       converged=bool(at_maximum and not edge), iterations=nit,
                       n_evals=n_evals, boundary_flags=flags, diagnostics=diagnostics)
    if compute_ses:
        # the Hessian of the evaluation at the reported point
        compute_se(data, result, H)
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
    """FGM-coupled exponential margins (M3 with shapes 1, a = b = 1 and p =
    0), fitted over (beta1, beta2, rho) by M3's evaluator."""
    data = _as_data(data)
    return _fit(data, "m2", _start(data, "m2"), compute_ses=True)


def _wald_p(est, se) -> float:
    if not (np.isfinite(se) and se > 0):
        return float("nan")
    return float(2.0 * ndtr(-abs(est / se)))


def compute_se(data, result: FitResult, hessian=None) -> dict:
    """Observed-information standard errors of an M2 or M3 fit from
    ``hessian``, the closed-form Hessian at the estimates in the optimizer's
    coordinates z: the fit's final evaluation, or else one one-point
    ``_objective`` evaluation at z(theta-hat). Over the parameters not in
    ``result.boundary_flags`` the delta method, exact at a stationary point,
    gives SE(theta_i) = |dtheta_i/dz_i| sqrt([(-H)^-1]_ii). d and the flagged
    parameters are held at their estimates, and a flagged one gets NaN for
    its standard error and p-value: at a boundary the Wald reference does
    not apply. A rejected point, whose Hessian is NaN, makes every one NaN.
    M1's are closed-form (``fit_m1``). Updates ``result.std_errors`` and
    ``result.p_values`` in place and returns the former."""
    data = _as_data(data)
    get = result.diagnostics.get
    if hessian is None:
        # built first, since it rejects an unknown model
        objective = _objective(result.model, data, result.estimates.get("d"),
                               get("copula_family"), get("copula_a"), get("copula_b"))
    free = _MEMBERS[result.model][0]
    names = [_NAMES[i] for i in free]
    theta = _whole(free, [result.estimates[nm] for nm in names])
    if hessian is None:
        hessian = objective(_z(theta)[free])[2]
    kept = [i for i, nm in enumerate(names) if nm not in result.boundary_flags]
    H = hessian[np.ix_(kept, kept)]
    se = np.full(len(names), np.nan)
    if not np.all(np.isfinite(H)):
        result.diagnostics["hessian"] = "rejected point"
    else:
        try:
            diag = np.diag(np.linalg.inv(-H))
            if (diag <= 0).any():
                raise np.linalg.LinAlgError("non-positive variance")
            # dtheta/dz: theta on a log scale, 1 for rho and p (1 - p) for p
            slope = np.where(_LOG, theta, 1.0)
            slope[_P] = theta[_P] * (1.0 - theta[_P])
            se[kept] = np.abs(slope[free][kept]) * np.sqrt(diag)
        except np.linalg.LinAlgError:
            result.diagnostics["hessian"] = "not positive definite"
    result.std_errors = dict(zip(names, se.tolist()))
    result.p_values = {nm: _wald_p(result.estimates[nm], v) for nm, v in result.std_errors.items()}
    return result.std_errors


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
