"""The benchmark's workloads: inputs built from a seed, one batch of
timed work, and the checks on its outputs.

Every workload uses the criterion-5 truth
(alpha1, beta1, alpha2, beta2, rho, d, p) = (4, 1.5, 3.5, 5, 0.6, 0.1, 0.3)
and runs in this process, on one core. The package is always reached
through module attributes (``fitting.fit_mbw``, ``studies.run_study``,
``cli.main``) so that a traced run sees the same calls.

A batch returns a ``Batch``: operations attempted and failed, the failed
checks, and timing samples, each a pair (value, reference seconds) from
``clock.Clock``. Each workload names its samples in ``latency`` and
``throughput``; run.py reports their quantiles.
"""

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from mbweibull import cli, fitting, studies
from mbweibull.bivariate import BivariateWeibull
from mbweibull.copulas import GaussianCopulaParams, GfgmParams
from mbweibull.mixture import MbwParams
from mbweibull.sampler import SeededStream, sample_mbw
from mbweibull.univariate import RectUniform, WeibullParams
from mbweibull.vannman import VANNMAN_DATA

# bound before tracing wraps the module attributes, so the checks add no
# spans
loglik_mbw = fitting.loglik_mbw


def truth(copula, d=0.1) -> MbwParams:
    return MbwParams(
        base=BivariateWeibull(WeibullParams(4.0, 1.5), WeibullParams(3.5, 5.0), copula),
        rect=RectUniform(0.0, 0.0, d),
        p=0.3,
    )


def substream_seed(seed, index) -> int:
    """A distinct, reproducible base seed for batch ``index``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Batch:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    latency_ms: list = field(default_factory=list)  # (ms, reference s)
    throughput: list = field(default_factory=list)  # (per s, reference s)

    def check(self, ok, message, ops=1):
        """Record a check; a failed one counts ``ops`` failed operations."""
        if not ok:
            self.errors.append(message)
            self.failed += ops


# --- study -----------------------------------------------------------------

class Study:
    """Monte-Carlo throughput behind criterion 5: ``run_study`` with the
    Gaussian copula at n = 100 and 300, preset eps, one worker.

    Per-replicate substreams make the serial run do the same work as a
    pool; on two shared cores ``workers=2`` would time the scheduler.
    select_eps, CSV I/O and the hazard grid never run here.
    """

    name = "study"
    replicates = 10  # per sample size and batch; run_study allows 1 failure
    sample_sizes = (100, 300)
    ops = "replicates"
    latency = ("replicate_ms", "ms per replicate, one sample per run_study batch")
    throughput = ("replicates_per_s", "one sample per run_study batch")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.true_params = truth(GaussianCopulaParams(0.6))

    def config(self, index):
        return studies.StudyConfig(
            true_params=self.true_params,
            sample_sizes=self.sample_sizes,
            n_replicates=self.replicates,
            base_seed=substream_seed(self.seed, index),
            copula_family="gaussian",
            workers=1,
        )

    def probe(self):
        """One replicate-sized fit, for the trace-overhead comparison."""
        data = sample_mbw(300, self.true_params, SeededStream(self.seed, 0))
        return lambda: fitting.fit_mbw(data, copula_family="gaussian", eps=0.25)

    def warm_up(self):
        self.probe()()

    def batch(self, index, clock) -> Batch:
        b = Batch()
        n_ops = self.replicates * len(self.sample_sizes)
        b.attempted = n_ops
        try:
            reports, dt, ref = clock.time(studies.run_study, self.config(index))
        except RuntimeError as e:  # more than 10% of replicates failed
            b.check(False, f"batch {index}: run_study raised {type(e).__name__}: {e}", n_ops)
            return b
        b.latency_ms.append((dt * 1e3 / n_ops, ref))
        b.throughput.append((n_ops / dt, ref))
        for n, report in reports.items():
            b.failed += report.n_failures
            for name, row in report.rows.items():
                b.check(
                    all(math.isfinite(v) for v in row.values()),
                    f"batch {index} n={n} {name}: non-finite row {row}",
                )
                # MSE = variance + Bias^2; allow rounding in the last bits
                b.check(
                    row["MSE"] >= row["Bias"] ** 2 * (1 - 1e-9),
                    f"batch {index} n={n} {name}: MSE {row['MSE']} < Bias^2",
                )
        return b


# --- vannman ---------------------------------------------------------------

class BootstrapFitter:
    """The M3 refit handed to ``bootstrap``. After every ``chunk`` refits it
    records their rate and runs the reference kernel, outside the timing."""

    def __init__(self, clock, chunk):
        self.clock = clock
        self.chunk = chunk
        self.rates = []  # (refits per s, reference s)
        self._done = 0
        self._start = time.perf_counter()

    def __call__(self, sample):
        try:
            return fitting.fit_mbw(sample, min_pts=4, eps=1.6, compute_ses=False).estimates
        finally:
            self._done += 1
            if self._done % self.chunk == 0:
                rate = self.chunk / (time.perf_counter() - self._start)
                self.rates.append((rate, self.clock.mark()))
                self._start = time.perf_counter()


class Vannman:
    """The three-model Vannman analysis, repeated, then a case-resampling
    bootstrap of the GFGM M3 fit with standard errors off.

    Real data, n = 36, 17 rows on an axis, resampled ties: per-call
    overhead dominates and about 4% of likelihood calls are rejected.
    """

    name = "vannman"
    analyses = 20  # per batch
    B = 100  # bootstrap replicates per batch, the minimum bootstrap allows
    chunk = 5  # refits per throughput sample
    ops = "analyses and bootstrap fits"
    latency = ("analysis_ms", "M1, M2 and M3 fits plus both deviance tests")
    throughput = ("bootstrap_fits_per_s", "one sample per 5 consecutive refits")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.data = VANNMAN_DATA.copy()

    def analysis(self):
        m1 = fitting.fit_m1(self.data)
        m2 = fitting.fit_m2(self.data)
        m3 = fitting.fit_mbw(self.data, min_pts=4, eps=1.6)
        fitting.deviance_test(m2, m1)
        fitting.deviance_test(m3, m2)
        return m1, m2, m3

    def probe(self):
        return self.analysis

    def warm_up(self):
        self.analysis()

    def _check_analysis(self, b, m1, m2, m3):
        means = self.data.mean(axis=0)
        b.check(
            np.allclose([m1.estimates["beta1"], m1.estimates["beta2"]], means, rtol=1e-12, atol=0),
            f"M1 estimates {m1.estimates} are not the sample means {means}",
        )
        b.check(m2.loglik >= -94.8955 - 1e-3, f"M2 loglik {m2.loglik} < -94.8955")
        b.check(m3.loglik >= -70.2624 - 1e-3, f"M3 loglik {m3.loglik} < -70.2624")
        b.check(
            m3.loglik > m2.loglik > m1.loglik,
            f"loglik order broken: M1 {m1.loglik}, M2 {m2.loglik}, M3 {m3.loglik}",
        )

    def _analyses(self, b, clock, count):
        for _ in range(count):
            b.attempted += 1
            fits, dt, ref = clock.time(self.analysis)
            b.latency_ms.append((dt * 1e3, ref))
            self._check_analysis(b, *fits)

    def batch(self, index, clock) -> Batch:
        # half the analyses on each side of the bootstrap, so that their
        # samples come from two moments of the run
        b = Batch()
        self._analyses(b, clock, self.analyses // 2)
        self._bootstrap(b, clock, index)
        self._analyses(b, clock, self.analyses - self.analyses // 2)
        return b

    def _bootstrap(self, b, clock, index):
        b.attempted += self.B
        fitter = BootstrapFitter(clock, self.chunk)
        try:
            boot = fitting.bootstrap(self.data, fitter, self.B, substream_seed(self.seed, index))
        except RuntimeError as e:  # more than 20% of refits failed
            b.check(False, f"batch {index}: bootstrap raised {type(e).__name__}: {e}", self.B)
            return
        b.throughput.extend(fitter.rates)
        b.failed += boot["failures"]
        for name, se in boot["bse"].items():
            lo, hi = boot["bci"][name]
            b.check(
                math.isfinite(se) and se >= 0 and lo <= hi,
                f"batch {index}: bootstrap {name} bse={se} ci=({lo}, {hi})",
            )


# --- cli -------------------------------------------------------------------

class Cli:
    """In-process ``mbw`` commands with stdout captured: ``mbw fit`` on
    n = 300 GFGM samples (automatic eps, SEs on, CSV in, JSON and
    manifest out), then one ``mbw hazard-grid`` over [0.01, 2]^2 at step
    0.005 (159201 nodes, about 16 MB of CSV).

    The only workload where select_eps and CSV I/O run, and the only
    vectorised-kernel path: the grid runs no likelihood code.
    """

    name = "cli"
    datasets = 128  # distinct n = 300 samples, cycled through
    fits = 8  # fit commands per batch, followed by one grid command
    grid = {"x_min": 0.01, "x_max": 2.0, "y_min": 0.01, "y_max": 2.0, "step": 0.005}
    ops = "commands"
    latency = ("fit_ms", "one `mbw fit --model m3` command")
    throughput = ("grid_points_per_s", "one sample per `mbw hazard-grid` command")

    def __init__(self, seed, workdir):
        self.true_params = truth(GfgmParams(0.6))
        self.samples = []
        for k in range(self.datasets):
            data = sample_mbw(300, self.true_params, SeededStream(seed, k))
            path = os.path.join(workdir, f"sample{k:03d}.csv")
            with open(path, "w") as fh:
                fh.write("x,y\n")
                fh.writelines(f"{x:.17g},{y:.17g}\n" for x, y in data)
            self.samples.append((path, data))
        self.fit_out = os.path.join(workdir, "fit.json")
        self.grid_out = os.path.join(workdir, "grid.csv")
        n_axis = round((self.grid["x_max"] - self.grid["x_min"]) / self.grid["step"]) + 1
        self.grid_nodes = n_axis * n_axis

    @staticmethod
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def fit_argv(self, k):
        path = self.samples[k % self.datasets][0]
        return ["fit", "--data", path, "--model", "m3", "--out", self.fit_out]

    def grid_argv(self, step):
        g = self.grid
        return [
            "hazard-grid", "--copula", "gaussian",
            "--x-min", str(g["x_min"]), "--x-max", str(g["x_max"]),
            "--y-min", str(g["y_min"]), "--y-max", str(g["y_max"]),
            "--step", str(step), "--out", self.grid_out,
        ]

    def probe(self):
        argv = self.fit_argv(0)
        return lambda: self.run(argv)

    def warm_up(self):
        self.run(self.fit_argv(0))
        self.run(self.grid_argv(0.1))

    def _check_fit(self, b, k, code):
        if code != cli.EXIT_OK:
            b.check(False, f"mbw fit on sample {k} exited {code}")
            return
        with open(self.fit_out) as fh:
            fit = json.load(fh)
        data = self.samples[k % self.datasets][1]
        # an MLE at fixed d_hat cannot lose to the truth at that d_hat
        floor = loglik_mbw(data, truth(GfgmParams(0.6), d=fit["estimates"]["d"]))
        b.check(
            fit["loglik"] >= floor - 1e-9,
            f"sample {k}: fitted loglik {fit['loglik']} < truth at d_hat {floor}",
        )

    def _check_grid(self, b, code):
        if code != cli.EXIT_OK:
            b.check(False, f"mbw hazard-grid exited {code}")
            return
        with open(self.grid_out) as fh:
            lines = fh.read().splitlines()
        b.check(lines[0] == "x,y,f,R,h", f"grid header {lines[0]!r}")
        b.check(
            len(lines) - 1 == self.grid_nodes,
            f"grid has {len(lines) - 1} nodes, expected {self.grid_nodes}",
        )
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1::997]])
        f, R, h = rows[:, 2], rows[:, 3], rows[:, 4]
        b.check(bool(np.all(f >= 0)), "grid has negative densities")
        b.check(bool(np.all((R >= 0) & (R <= 1))), "grid has survival outside [0, 1]")
        pos = R > 0
        b.check(
            bool(np.allclose(h[pos] * R[pos], f[pos], rtol=1e-12, atol=0)),
            "grid rows break h * R = f",
        )

    def batch(self, index, clock) -> Batch:
        b = Batch()
        for j in range(self.fits):
            k = index * self.fits + j
            b.attempted += 1
            code, dt, ref = clock.time(self.run, self.fit_argv(k))
            b.latency_ms.append((dt * 1e3, ref))
            self._check_fit(b, k, code)
        b.attempted += 1
        code, dt, ref = clock.time(self.run, self.grid_argv(self.grid["step"]))
        b.throughput.append((self.grid_nodes / dt, ref))
        self._check_grid(b, code)
        return b


WORKLOADS = {w.name: w for w in (Study, Vannman, Cli)}
