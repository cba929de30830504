"""Monte-Carlo study harness: replicate generation, repeated fitting,
and aggregation into per-parameter bias / MSE / coverage summaries."""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import PACKAGE_ERRORS, ConvergenceError, DomainError
from .fitting import MIN_OBSERVATIONS, d_confidence_interval, fit_mbw
from .mixture import PARAM_NAMES, MbwParams, param_dict
from .sampler import SeededStream, sample_mbw

__all__ = [
    "StudyConfig",
    "StudyReport",
    "bias_mse",
    "coverage_probability",
    "run_study",
]

# per-sample-size DBSCAN radii used by the reference design; select_eps
# is the fallback for other sample sizes
DEFAULT_EPS_BY_N = {100: 0.45, 200: 0.35, 300: 0.25}


@dataclass(frozen=True)
class StudyConfig:
    true_params: MbwParams
    sample_sizes: tuple = (100, 200, 300)
    n_replicates: int = 200
    level: float = 0.95
    base_seed: int = 20260823
    min_pts: int = 4
    eps_by_n: dict = field(default_factory=lambda: dict(DEFAULT_EPS_BY_N))
    # the fitted copula is the truth's; a family given here must name it
    copula_family: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.n_replicates < 1:
            raise DomainError("n_replicates must be >= 1")
        if not 0 < self.level < 1:
            raise DomainError("level must be in (0, 1)")
        if any(n < MIN_OBSERVATIONS for n in self.sample_sizes):
            raise DomainError(f"sample sizes must be >= {MIN_OBSERVATIONS}")
        if len(set(self.sample_sizes)) < len(self.sample_sizes):
            raise DomainError("sample sizes must be distinct")
        if self.min_pts < 1:
            raise DomainError("min_pts must be >= 1")
        if not all(eps > 0 for eps in self.eps_by_n.values()):
            raise DomainError("eps_by_n radii must be positive")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")
        truth = param_dict(self.true_params)["copula"]
        if self.copula_family not in (None, truth):
            raise DomainError(f"copula_family {self.copula_family!r} is not the truth's {truth!r}")


# the columns of a study report, after the parameter name
_COLUMNS = ("SampleMean", "CP", "BSE", "BCI_lo", "BCI_hi", "MSE", "Bias")


@dataclass
class StudyReport:
    """Aggregated study results for one sample size.

    ``rows`` maps parameter name to a dict with keys SampleMean, CP, BSE,
    BCI_lo, BCI_hi, MSE, Bias. CP is taken only over the replicates whose
    interval for that parameter is finite: a replicate whose estimate is
    flagged on its boundary has no standard error, so it does not count
    toward that parameter's coverage (NaN when no replicate counts).
    """

    sample_size: int
    n_replicates: int
    n_failures: int
    rows: dict

    def to_csv(self) -> str:
        lines = [("Parameter", *_COLUMNS)]
        lines += [(nm, *(f"{self.rows[nm][c]:.17g}" for c in _COLUMNS)) for nm in PARAM_NAMES]
        return "".join(",".join(line) + "\n" for line in lines)


def bias_mse(estimates, truth: float):
    """Bias (mean minus truth) and MSE (mean squared deviation from truth)."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size == 0:
        raise DomainError("need at least one estimate")
    bias = float(estimates.mean() - truth)
    mse = float(np.mean((estimates - truth) ** 2))
    return bias, mse


def coverage_probability(intervals, truth: float) -> float:
    """Fraction of (lo, hi) intervals containing the truth."""
    intervals = list(intervals)
    if not intervals:
        raise DomainError("need at least one interval")
    hits = sum(1 for lo, hi in intervals if lo <= truth <= hi)
    return hits / len(intervals)


def _replicate(args):
    cfg, n, r, eps = args
    stream = SeededStream(seed=cfg.base_seed, stream=n * 1_000_000 + r)
    data = sample_mbw(n, cfg.true_params, stream)
    truth = param_dict(cfg.true_params)
    try:
        fit = fit_mbw(
            data,
            copula_family=truth["copula"],
            a=truth["copula_a"],
            b=truth["copula_b"],
            min_pts=cfg.min_pts,
            eps=eps,
        )
    except PACKAGE_ERRORS:
        return None
    if not np.isfinite(fit.loglik):
        return None
    # Wald intervals; a NaN standard error (boundary) gives a NaN interval
    z = ndtri(1 - (1 - cfg.level) / 2)
    cis = {nm: (est - z * fit.std_errors[nm], est + z * fit.std_errors[nm])
           for nm, est in fit.estimates.items() if nm != "d"}
    cis["d"] = d_confidence_interval(fit.estimates["d"], fit.diagnostics["n_c1"], cfg.level)
    return fit.estimates, cis


def run_study(cfg: StudyConfig):
    """Run the full replicated design and aggregate one report per sample
    size. Deterministic for a fixed base seed, independent of the worker
    count (replicates map to fixed streams and are aggregated in index
    order). Raises ConvergenceError when more than a tenth of the
    replicates at one sample size fail."""
    truth = param_dict(cfg.true_params)
    reports = {}
    for n in cfg.sample_sizes:
        eps = cfg.eps_by_n.get(n)
        tasks = [(cfg, n, r, eps) for r in range(cfg.n_replicates)]
        if cfg.workers > 1:
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(_replicate, tasks, chunksize=8))
        else:
            results = [_replicate(t) for t in tasks]
        ok = [payload for payload in results if payload is not None]
        failures = cfg.n_replicates - len(ok)
        if failures > 0.1 * cfg.n_replicates:
            raise ConvergenceError(
                f"{failures}/{cfg.n_replicates} replicates failed at n={n}"
            )
        rows = {}
        for name in PARAM_NAMES:
            ests = np.array([est[name] for est, _ in ok])
            bias, mse = bias_mse(ests, truth[name])
            finite_cis = [ci[name] for _, ci in ok if np.all(np.isfinite(ci[name]))]
            cp = coverage_probability(finite_cis, truth[name]) if finite_cis else float("nan")
            tail = 100 * (1 - cfg.level) / 2
            lo, hi = np.percentile(ests, [tail, 100 - tail])
            rows[name] = {
                "SampleMean": float(ests.mean()),
                "CP": cp,
                "BSE": float(ests.std(ddof=1)) if len(ests) > 1 else 0.0,
                "BCI_lo": float(lo),
                "BCI_hi": float(hi),
                "MSE": mse,
                "Bias": bias,
            }
        reports[n] = StudyReport(
            sample_size=n,
            n_replicates=cfg.n_replicates,
            n_failures=failures,
            rows=rows,
        )
    return reports
