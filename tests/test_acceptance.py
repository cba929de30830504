"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line. Tolerances are fixed here and nowhere else."""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy import optimize, stats

from mbweibull import (
    BivariateWeibull,
    DbscanParams,
    GaussianCopulaParams,
    GfgmParams,
    MbwParams,
    RectUniform,
    SeededStream,
    StudyConfig,
    WeibullParams,
    bvw_pdf,
    bvw_survival,
    conditional_cdf,
    copula_cdf,
    copula_density,
    dbscan,
    deviance_test,
    fit_m1,
    fit_m2,
    fit_mbw,
    loglik_mbw,
    mbw_hazard,
    mbw_pdf,
    mbw_survival,
    run_study,
    sample_bvw,
    vannman_data,
    weibull_cdf,
)
from mbweibull.bivariate import _composed_pdf, _composed_survival
from mbweibull.cli import EXIT_OK, main


def _report(num, checks):
    """checks: list of (label, ok) pairs; prints one summary line."""
    failed = [label for label, ok in checks if not ok]
    verdict = "PASS" if not failed else "FAIL"
    detail = "" if not failed else " — failed: " + "; ".join(failed)
    print(f"\n[criterion {num}] {verdict}{detail}")
    assert not failed, f"criterion {num}: {detail}"


def test_criterion_1_m1_exact():
    res = fit_m1(vannman_data())
    checks = [
        ("beta1", abs(res.estimates["beta1"] - 2.759445) < 1e-3),
        ("beta2", abs(res.estimates["beta2"] - 1.108056) < 1e-3),
        ("loglik", abs(res.loglik - (-112.2349)) < 1e-3),
        ("aic", abs(res.aic - 228.4698) < 1e-3),
        ("se_beta1", abs(res.std_errors["beta1"] - 0.4599071) < 1e-3),
    ]
    _report(1, checks)


def test_criterion_2_m2_reproduction():
    t0 = time.time()
    res = fit_m2(vannman_data())
    elapsed = time.time() - t0
    checks = [
        ("loglik", abs(res.loglik - (-94.90337)) < 0.05),
        ("aic", abs(res.aic - 195.8067) < 0.1),
        ("rho boundary", res.estimates["rho"] >= 0.995),
        ("runtime < 1 s", elapsed < 1.0),
    ]
    _report(2, checks)


def _oracle_loglik(data, theta, d):
    """The README "Model" log-likelihood written with numpy and scipy.stats
    alone: Weibull margins joined by the FGM density
    1 + rho (1 - 2u)(1 - 2v), plus the plateau p / d^2 on rows in the
    closed square [0, d]^2. Rows on an axis inside the square are left out;
    every row past the square counts."""
    a1, b1, a2, b2, rho, p = theta
    x, y = data[:, 0], data[:, 1]
    inside = (x > 0) & (y > 0) & (x <= d) & (y <= d)
    outside = (x > d) | (y > d)
    m1 = stats.weibull_min(a1, scale=b1)
    m2 = stats.weibull_min(a2, scale=b2)
    u, v = m1.cdf(x), m2.cdf(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = m1.pdf(x) * m2.pdf(y) * (1 + rho * (1 - 2 * u) * (1 - 2 * v))
        return float(
            np.sum(np.log(p / d**2 + (1 - p) * f[inside]))
            + np.sum(np.log((1 - p) * f[outside]))
        )


def test_criterion_3_m3_reproduction():
    # The paper reports loglik -75.6412 and AIC 165.2824 for these
    # estimates; its likelihood convention is not in PAPER.md, and the
    # documented likelihood neither gives that value here nor is
    # stationary here (docs/criterion3.md). The fit and the value at the
    # published point are checked against an independent evaluation of
    # the documented likelihood instead.
    data = vannman_data()
    t0 = time.time()
    res = fit_mbw(data, min_pts=4, eps=1.6)
    elapsed = time.time() - t0
    pub_theta = (2.691784, 7.739789, 1.000698, 3.309285, 0.9849288, 0.5784499)
    pub_d = 1.4
    a1, b1, a2, b2, rho, p = pub_theta
    published = MbwParams(
        base=BivariateWeibull(
            WeibullParams(a1, b1), WeibullParams(a2, b2), GfgmParams(rho)
        ),
        rect=RectUniform(0.0, 0.0, pub_d),
        p=p,
    )
    eval_at_published = loglik_mbw(data, published)
    oracle_at_published = _oracle_loglik(data, pub_theta, pub_d)
    # the oracle's maximum over the six free parameters at d = 1.4, on
    # their natural bounds, from the published estimates
    tiny = 1e-9
    opt = optimize.minimize(
        lambda theta: -_oracle_loglik(data, theta, pub_d),
        pub_theta,
        method="L-BFGS-B",
        bounds=[(tiny, None)] * 4 + [(-1.0, 1.0), (tiny, 1.0 - tiny)],
        options={"ftol": 1e-12, "gtol": 1e-10, "maxiter": 1000},
    )
    oracle_max = float(-opt.fun)
    paper_loglik, paper_aic = -75.6412, 165.2824
    checks = [
        ("d_hat exact", res.estimates["d"] == 1.4),
        (
            "fit loglik",
            abs(res.loglik - oracle_max) < 1e-6 and res.loglik >= oracle_at_published,
        ),
        (
            "fit aic",
            res.k == 7
            and res.aic == 2 * 7 - 2 * res.loglik
            and abs(paper_aic - (2 * 7 - 2 * paper_loglik)) < 1e-4
            and res.aic <= paper_aic,
        ),
        ("eval at published estimates", abs(eval_at_published - oracle_at_published) < 1e-9),
        ("runtime < 10 s", elapsed < 10.0),
    ]
    print(
        f"\n  (criterion 3 observed: fit loglik {res.loglik:.4f}, "
        f"aic {res.aic:.4f}, eval at published {eval_at_published:.4f}, "
        f"oracle max {oracle_max:.4f})"
    )
    _report(3, checks)


def test_criterion_4_model_ordering():
    data = vannman_data()
    m1 = fit_m1(data)
    m2 = fit_m2(data)
    m3 = fit_mbw(data, min_pts=4, eps=1.6, compute_ses=False)
    d32 = deviance_test(m3, m2)
    d21 = deviance_test(m2, m1)
    checks = [
        ("AIC(M3) < AIC(M2)", m3.aic < m2.aic),
        ("AIC(M2) < AIC(M1)", m2.aic < m1.aic),
        ("M3 vs M2 p < 0.0001", d32["p_value"] < 1e-4),
        ("M2 vs M1 p < 0.0001", d21["p_value"] < 1e-4),
    ]
    _report(4, checks)


# published reference rows: parameter -> (bias, mse, bse)
_TABLE_N100 = {
    "alpha1": (0.0823, 0.1967, 0.4360),
    "beta1": (-0.0017, 0.0033, 0.0581),
    "alpha2": (0.0628, 0.1588, 0.3936),
    "beta2": (-0.0181, 0.0738, 0.2711),
    "rho": (-0.0029, 0.0062, 0.0789),
    "d": (0.0005, 0.0008, 0.0284),
    "p": (-0.0030, 0.0025, 0.0507),
}
_TABLE_N300 = {
    "alpha1": (0.0225, 0.1822, 0.4264),
    "beta1": (-0.0060, 0.0043, 0.0660),
    "alpha2": (0.0349, 0.1442, 0.3782),
    "beta2": (-0.0231, 0.0744, 0.2719),
    "rho": (0.0010, 0.0052, 0.0722),
    "d": (0.0025, 0.0013, 0.0360),
    "p": (-0.0015, 0.0020, 0.0451),
}


def test_criterion_5_simulation_study():
    truth = MbwParams(
        base=BivariateWeibull(
            WeibullParams(4.0, 1.5), WeibullParams(3.5, 5.0), GaussianCopulaParams(0.6)
        ),
        rect=RectUniform(0.0, 0.0, 0.1),
        p=0.3,
    )
    n_reps = 200
    cfg = StudyConfig(
        true_params=truth,
        sample_sizes=(100, 300),
        n_replicates=n_reps,
        copula_family="gaussian",
        workers=os.cpu_count() or 1,
    )
    t0 = time.time()
    reports = run_study(cfg)
    elapsed = time.time() - t0
    checks = [("runtime < 15 min", elapsed < 900.0)]
    for n, table in ((100, _TABLE_N100), (300, _TABLE_N300)):
        rep = reports[n]
        for name, (t_bias, t_mse, t_bse) in table.items():
            row = rep.rows[name]
            # 3x the published figure plus a Monte-Carlo allowance for
            # the reduced replicate count
            bias_bound = 3 * abs(t_bias) + 3 * t_bse / math.sqrt(n_reps)
            checks.append(
                (f"n={n} {name} bias", abs(row["Bias"]) <= bias_bound)
            )
            checks.append((f"n={n} {name} mse", row["MSE"] <= 3 * t_mse))
            checks.append((f"n={n} {name} cp", 0.88 <= row["CP"] <= 0.98))
    print(f"\n  (criterion 5 study took {elapsed:.0f} s)")
    _report(5, checks)


def test_criterion_6_property_suites():
    rng = np.random.default_rng(2026)
    checks = []

    # copula axioms + rectangle inequality, both families
    sweep = [GfgmParams(r, a=a, b=b) for a in (1, 2, 3) for b in (1, 2, 3)
             for r in (-1, -0.5, 0, 0.5, 1)]
    sweep += [GaussianCopulaParams(r) for r in (-0.9, 0, 0.6, 0.9)]
    ok_axioms = ok_rect = True
    us = np.linspace(0, 1, 17)
    for c in sweep:
        ok_axioms &= np.allclose(copula_cdf(us, np.ones_like(us), c), us, atol=1e-9)
        ok_axioms &= np.allclose(copula_cdf(np.zeros_like(us), us, c), 0, atol=1e-12)
        u = np.sort(rng.random((500, 2)), axis=1)
        v = np.sort(rng.random((500, 2)), axis=1)
        mass = (
            copula_cdf(u[:, 1], v[:, 1], c) - copula_cdf(u[:, 1], v[:, 0], c)
            - copula_cdf(u[:, 0], v[:, 1], c) + copula_cdf(u[:, 0], v[:, 0], c)
        )
        ok_rect &= bool(np.all(np.asarray(mass) >= -1e-12))
    checks.append(("copula axioms", ok_axioms))
    checks.append(("rectangle inequality", ok_rect))

    # density normalization by tensor quadrature
    nodes, weights = np.polynomial.legendre.leggauss(220)
    gu = 0.5 * (nodes + 1)
    gw = 0.5 * weights
    uu, vv = np.meshgrid(gu, gu, indexing="ij")
    ok_norm = True
    for c in sweep:
        dens = copula_density(uu.ravel(), vv.ravel(), c).reshape(uu.shape)
        ok_norm &= abs(gw @ dens @ gw - 1.0) < 1e-4
    checks.append(("copula density integrates to 1", ok_norm))

    # closed-form pdf/survival vs generic composition
    ok_pdf = ok_surv = True
    for _ in range(20):
        m = BivariateWeibull(
            WeibullParams(rng.uniform(0.6, 4), rng.uniform(0.5, 3)),
            WeibullParams(rng.uniform(0.6, 4), rng.uniform(0.5, 3)),
            GfgmParams(rng.uniform(-1, 1), a=rng.uniform(1, 3), b=rng.uniform(1, 3)),
        )
        x = rng.uniform(0.05, 4, 50)
        y = rng.uniform(0.05, 4, 50)
        pc = np.asarray(bvw_pdf(x, y, m))
        pg = np.asarray(_composed_pdf(x, y, m))
        ok_pdf &= bool(np.allclose(pc, pg, rtol=1e-10, atol=1e-12))
        sc = np.asarray(bvw_survival(x, y, m))
        sg = np.asarray(_composed_survival(x, y, m))
        ok_surv &= bool(np.allclose(sc, sg, atol=1e-12))
    checks.append(("closed pdf == composed pdf", ok_pdf))
    checks.append(("closed survival == generic survival", ok_surv))

    # hazard identity at 1000 random points of the mixture
    m = MbwParams(
        base=BivariateWeibull(
            WeibullParams(2.5, 1.2), WeibullParams(1.5, 0.8), GfgmParams(-0.4)
        ),
        rect=RectUniform(0.0, 0.0, 0.5),
        p=0.25,
    )
    x = rng.uniform(0.01, 3, 1000)
    y = rng.uniform(0.01, 3, 1000)
    h = np.asarray(mbw_hazard(x, y, m))
    f = np.asarray(mbw_pdf(x, y, m))
    R = np.asarray(mbw_survival(x, y, m))
    checks.append(("h*R == f", bool(np.allclose(h * R, f, rtol=1e-10))))

    # DBSCAN vs brute-force transitive-closure oracle
    ok_dbscan = True
    for _ in range(200):
        n = int(rng.integers(5, 31))
        pts = rng.uniform(0, 4, (n, 2))
        min_pts = int(rng.integers(2, 6))
        eps = float(rng.uniform(0.3, 1.5))
        lab = dbscan(pts, DbscanParams(min_pts, eps))
        d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, axis=-1)
        adj = d2 <= eps * eps
        core = adj.sum(axis=1) >= min_pts
        comp = -np.ones(n, dtype=int)
        cid = 0
        for i in range(n):
            if not core[i] or comp[i] >= 0:
                continue
            stack = [i]
            comp[i] = cid
            while stack:
                j = stack.pop()
                for k in np.flatnonzero(adj[j] & core):
                    if comp[k] < 0:
                        comp[k] = cid
                        stack.append(k)
            cid += 1
        for i in np.flatnonzero(core):
            same_lab = lab[core] == lab[i]
            same_comp = comp[core] == comp[i]
            ok_dbscan &= bool(np.array_equal(same_lab, same_comp))
        for i in np.flatnonzero(~core):
            nb = np.flatnonzero(adj[i] & core)
            if len(nb) == 0:
                ok_dbscan &= lab[i] == -1
            else:
                ok_dbscan &= lab[i] in set(lab[nb])
    checks.append(("dbscan matches oracle", ok_dbscan))

    # sampler conditional-quantile residuals and marginal KS
    cop = GfgmParams(0.8, a=2, b=2)
    bm = BivariateWeibull(WeibullParams(2, 1), WeibullParams(2, 1), cop)
    s = SeededStream(33)
    pts = sample_bvw(1000, bm, s)
    g = s.generator()
    u = np.clip(g.random(1000), 1e-15, 1 - 1e-15)
    t = np.clip(g.random(1000), 1e-15, 1 - 1e-15)
    v = weibull_cdf(pts[:, 1], bm.margin2)
    resid = np.abs(np.asarray(conditional_cdf(v, u, cop)) - t)
    checks.append(("conditional residuals <= 1e-10", bool(np.all(resid <= 1e-10))))

    big = sample_bvw(50_000, bm, SeededStream(77))
    ok_ks = True
    for col, margin in ((0, bm.margin1), (1, bm.margin2)):
        d = stats.kstest(big[:, col], lambda q: weibull_cdf(q, margin)).statistic
        ok_ks &= d < 1.63 / math.sqrt(50_000)
    checks.append(("marginal KS at n=50k", ok_ks))

    _report(6, checks)


def test_criterion_7_cli_reproducibility(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")

    def run_twice(argv, outputs):
        first = {}
        assert main(argv) == EXIT_OK
        for path in outputs:
            with open(path, "rb") as fh:
                first[path] = fh.read()
        assert main(argv) == EXIT_OK
        for path in outputs:
            with open(path, "rb") as fh:
                if fh.read() != first[path]:
                    return False
        return True

    checks = []
    sim = tmp_path / "sim.csv"
    checks.append(
        ("simulate", run_twice(
            ["simulate", "--n", "50", "--seed", "9", "--out", str(sim)],
            [str(sim), str(sim) + ".manifest.json"],
        ))
    )
    fit_out = tmp_path / "fit.json"
    checks.append(
        ("fit", run_twice(
            ["fit", "--data", "vannman", "--model", "m3", "--minpts", "4",
             "--eps", "1.6", "--out", str(fit_out)],
            [str(fit_out), str(fit_out) + ".manifest.json"],
        ))
    )
    grid = tmp_path / "grid.csv"
    checks.append(
        ("hazard-grid", run_twice(
            ["hazard-grid", "--d", "0.4", "--p", "0.3", "--x-min", "0.05",
             "--x-max", "0.75", "--y-min", "0.05", "--y-max", "0.75",
             "--step", "0.1", "--out", str(grid)],
            [str(grid), str(grid) + ".manifest.json"],
        ))
    )

    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({
        "true_params": {"alpha1": 4.0, "beta1": 1.5, "alpha2": 3.5,
                        "beta2": 5.0, "rho": 0.6, "d": 0.1, "p": 0.3},
        "sample_sizes": [100],
        "n_replicates": 4,
        "base_seed": 20260823,
    }))
    dirs = [tmp_path / "w1", tmp_path / "w2", tmp_path / "w1b"]
    for d, w in zip(dirs, ("1", "2", "1")):
        assert main(["study", "--config", str(cfg), "--out-dir", str(d),
                     "--workers", w]) == EXIT_OK
    names = ["study_n100.csv", "study_n100.json", "study_n100.csv.manifest.json"]
    same = all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
        and (dirs[0] / n).read_bytes() == (dirs[2] / n).read_bytes()
        for n in names
    )
    checks.append(("study across runs and worker counts", same))
    _report(7, checks)
