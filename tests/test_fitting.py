import copy
import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mbweibull import (
    BivariateWeibull,
    DbscanParams,
    GaussianCopulaParams,
    GfgmParams,
    MbwParams,
    RectUniform,
    SeededStream,
    WeibullParams,
    aic,
    bootstrap,
    bvw_pdf,
    compute_se,
    d_confidence_interval,
    deviance_test,
    estimate_d,
    fit_m1,
    fit_m2,
    fit_mbw,
    loglik_mbw,
    mbw_pdf,
    sample_mbw,
    vannman_data,
)
from mbweibull import fitting
from mbweibull.clustering import select_eps
from mbweibull.bivariate import _log_density_score
from mbweibull.errors import (
    PACKAGE_ERRORS,
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    SingularityError,
)
from mbweibull.copulas import copula_cdf
from mbweibull.fitting import (
    _fit,
    _objective,
    _ranks,
    _rho_from_spearman,
    _spearman,
    _start,
    _weibull_plot,
)
from mbweibull.mixture import PARAM_NAMES, mbw_params


def _mix(a1, b1, a2, b2, rho, d, p):
    return MbwParams(
        base=BivariateWeibull(
            WeibullParams(a1, b1), WeibullParams(a2, b2), GfgmParams(rho)
        ),
        rect=RectUniform(0.0, 0.0, d),
        p=p,
    )


def _member_names(model):
    return [fitting._NAMES[i] for i in fitting._MEMBERS[model][0]]


def _member_z(model, theta):
    # the optimizer's coordinates of member ``model`` at its parameters theta
    free = fitting._MEMBERS[model][0]
    return fitting._z(fitting._whole(free, theta))[free]


def _member_theta(model, z):
    # the member's parameters at the optimizer's coordinates z
    free = fitting._MEMBERS[model][0]
    return fitting._theta(fitting._whole(free, z, fitting._HELD_Z))[free]


def _evaluate(model, data, *settings):
    # the stage-2 evaluator at a point theta of the member's parameters: the
    # log-likelihood and its gradient in the optimizer's coordinates
    objective = _objective(model, data, *settings)
    return lambda theta: objective(_member_z(model, theta))[:2]


def _m2_loglik(data, theta) -> float:
    # M2's likelihood written out by hand: FGM-coupled exponential margins
    b1, b2, rho = theta
    if b1 <= 0 or b2 <= 0 or not -1 <= rho <= 1:
        return -np.inf
    x, y = data[:, 0], data[:, 1]
    A = x / b1
    B = y / b2
    dens = (1 + rho * (2 * np.exp(-A) - 1) * (2 * np.exp(-B) - 1)) / (b1 * b2)
    f = dens * np.exp(-(A + B))
    if np.any(f <= 0):
        return -np.inf
    return float(np.sum(np.log(f)))


class TestCoordinates:
    def test_roundtrip(self):
        theta = np.array([2.5, 0.01, 40.0, 1e-5, -0.73, 0.9])
        back = fitting._theta(fitting._z(theta))
        assert np.allclose(back, theta, rtol=1e-12)


class TestLoglik:
    def test_single_point_near_uniform_limit(self):
        m = _mix(2, 1, 2, 1, 0.0, 0.5, 1 - 1e-12)
        ll = loglik_mbw([[0.2, 0.3]], m)
        assert ll == pytest.approx(math.log(1 / 0.25), abs=1e-9)

    def test_additivity(self):
        m = _mix(2, 1.5, 3, 5, 0.6, 0.1, 0.3)
        data = sample_mbw(40, m, SeededStream(2))
        ll1 = loglik_mbw(data, m)
        ll2 = loglik_mbw(np.vstack([data, data]), m)
        assert ll2 == pytest.approx(2 * ll1, rel=1e-12)

    def test_outside_zero_density_is_minus_inf(self):
        # shape-2 bulk vanishes on the axes, so an outside point at y=0
        # past the rectangle has no density under the model
        m = _mix(2, 1, 2, 1, 0.0, 0.5, 0.3)
        assert loglik_mbw([[0.2, 0.2], [3.0, 0.0]], m) == -np.inf

    def test_anchor_ties_carry_no_information(self):
        # observations sitting exactly on the anchor axes are excluded
        m = _mix(2, 1, 2, 1, 0.0, 0.5, 0.3)
        base = loglik_mbw([[0.2, 0.2], [1.0, 1.0]], m)
        with_ties = loglik_mbw([[0.2, 0.2], [1.0, 1.0], [0.0, 0.0], [0.3, 0.0]], m)
        assert with_ties == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("source", ["vannman", "sampled"])
    def test_excluded_rows_never_reach_the_density(self, source):
        # axis rows inside the square are excluded, so dropping them leaves
        # the value unchanged for any parameters, shapes below 1 included
        if source == "vannman":
            data, d = vannman_data(), 1.4
        else:
            d = 0.5
            sample = sample_mbw(60, _mix(1.5, 2, 2, 3, 0.4, d, 0.3), SeededStream(11))
            ties = [[0.0, 0.0], [0.0, 0.2], [0.35, 0.0], [0.0, d], [d, 0.0]]
            data = np.vstack([sample, ties])
        x, y = data[:, 0], data[:, 1]
        kept = data[((x > 0) & (y > 0)) | (x > d) | (y > d)]
        assert len(kept) < len(data)
        rng = np.random.default_rng(5)
        for _ in range(40):
            m = _mix(
                rng.uniform(0.3, 3), rng.uniform(0.5, 10), rng.uniform(0.3, 3),
                rng.uniform(0.5, 10), rng.uniform(-1, 1), d, rng.uniform(0.05, 0.95),
            )
            assert loglik_mbw(data, m) == pytest.approx(loglik_mbw(kept, m), rel=1e-12)

    def test_shape_below_one_with_axis_ties(self):
        # Vannman holds 17 axis rows inside the d = 1.4 square
        m = _mix(3.16, 7.363, 0.99, 2.898, 0.99, 1.4, 0.26)
        assert np.isfinite(loglik_mbw(vannman_data(), m))

    def test_decreasing_in_d_past_cluster(self):
        data = vannman_data()
        fit = fit_mbw(data, min_pts=4, eps=1.6, compute_ses=False)
        e = fit.estimates
        # between the cluster edge and the next observed coordinate the
        # likelihood must fall as the plateau spreads
        ds = np.linspace(1.4, 2.95, 16)
        vals = [
            loglik_mbw(
                data,
                _mix(e["alpha1"], e["beta1"], e["alpha2"], e["beta2"], e["rho"], d, e["p"]),
            )
            for d in ds
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_empty_data_rejected(self):
        with pytest.raises(DomainError):
            loglik_mbw(np.empty((0, 2)), _mix(2, 1, 2, 1, 0.0, 0.5, 0.3))

    # a fixed example sequence and no example database keep the suite
    # deterministic
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        a1=st.floats(0.3, 20.0), b1=st.floats(0.1, 10.0), a2=st.floats(0.3, 20.0),
        b2=st.floats(0.1, 10.0), rho=st.floats(-1.0, 1.0), gaussian=st.booleans(),
        d=st.floats(0.01, 1.0),
        p=st.one_of(st.sampled_from([1e-12, 1 - 1e-12]),
                    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        axis_past=st.booleans(), seed=st.integers(0, 2**16),
    )
    def test_equals_log_density_over_kept_rows(self, a1, b1, a2, b2, rho, gaussian, d, p,
                                               axis_past, seed):
        # the likelihood is the sum of log mbw_pdf over every row that is not
        # on the square's anchor edges, or both raise
        copula = GaussianCopulaParams(0.999 * rho) if gaussian else GfgmParams(rho)
        m = MbwParams(
            BivariateWeibull(WeibullParams(a1, b1), WeibullParams(a2, b2), copula),
            RectUniform(0.0, 0.0, d), p,
        )
        rng = np.random.default_rng(seed)
        ties = [[0, 0], [0, d / 2], [d / 2, 0], [0, d], [d, 0],
                [d, d / 2], [d / 2, d], [d, d], [d, 2 * d], [2 * d, d]]
        if axis_past:
            ties += [[0, 2 * d], [3 * d, 0]]
        data = np.vstack([
            rng.uniform(0, d, (6, 2)),
            np.column_stack([b1 * rng.weibull(a1, 6), b2 * rng.weibull(a2, 6)]),
            ties,
        ])
        x, y = data[:, 0], data[:, 1]
        kept = data[~(((x == 0) | (y == 0)) & (x <= d) & (y <= d))]
        try:
            ll = loglik_mbw(data, m)
        except SingularityError:
            with pytest.raises(SingularityError):
                mbw_pdf(kept[:, 0], kept[:, 1], m)
            return
        with np.errstate(divide="ignore"):
            logs = np.log(mbw_pdf(kept[:, 0], kept[:, 1], m))
        expect = logs.sum()
        if np.isfinite(expect):
            assert ll == pytest.approx(expect, rel=1e-12, abs=1e-12 * np.abs(logs).sum())
        else:
            assert ll == expect

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        a1=st.floats(0.3, 20.0), b1=st.floats(0.1, 10.0), a2=st.floats(0.3, 20.0),
        b2=st.floats(0.1, 10.0), rho=st.floats(-1.0, 1.0), gaussian=st.booleans(),
        d=st.floats(0.01, 1.0),
        p=st.one_of(st.sampled_from([1e-12, 1 - 1e-12]), st.floats(1e-12, 1 - 1e-12)),
        axis_past=st.booleans(), seed=st.integers(0, 2**16),
    )
    def test_evaluator_takes_the_likelihood_in_log_space(self, a1, b1, a2, b2, rho, gaussian,
                                                         d, p, axis_past, seed):
        # the stage-2 evaluator's log-likelihood, summed from the kernel's
        # log f, is loglik_mbw's wherever that is finite; where loglik_mbw
        # raises, or is -inf with no row past the square whose density only
        # underflowed, the evaluator rejects the point
        family = "gaussian" if gaussian else "gfgm"
        rho = 0.999 * rho if gaussian else rho
        rng = np.random.default_rng(seed)
        ties = [[0, 0], [0, d / 2], [d / 2, 0], [0, d], [d, 0],
                [d, d / 2], [d / 2, d], [d, d], [d, 2 * d], [2 * d, d]]
        if axis_past:
            ties += [[0, 2 * d], [3 * d, 0]]
        data = np.vstack([
            rng.uniform(0, d, (6, 2)),
            np.column_stack([b1 * rng.weibull(a1, 6), b2 * rng.weibull(a2, 6)]),
            ties,
        ])
        z = _member_z("m3", np.array([a1, b1, a2, b2, rho, p]))
        ll, g, H = _objective("m3", data, d, family, 1.0, 1.0)(z)
        # the point the evaluator took
        theta = _member_theta("m3", z)
        m = mbw_params(*theta[:5], d, theta[5], family, 1.0, 1.0)
        try:
            expect = loglik_mbw(data, m)
        except SingularityError:
            assert ll == -np.inf and np.isnan(H).all()
            return
        x, y = data[:, 0], data[:, 1]
        kept = data[((x > 0) & (y > 0)) | (x > d) | (y > d)]
        with np.errstate(divide="ignore"):
            logs = np.log(mbw_pdf(kept[:, 0], kept[:, 1], m))
        if np.isfinite(expect):
            assert ll == pytest.approx(expect, rel=1e-12, abs=1e-12 * np.abs(logs).sum())
            assert np.isfinite(g).all()
            return
        past = data[(x > d) | (y > d)]
        with np.errstate(over="ignore"):
            A, B = (past[:, 0] / theta[1]) ** theta[0], (past[:, 1] / theta[3]) ** theta[2]
        underflow = (past > 0).all(axis=1) & np.isfinite(A + B) & (
            m.q * bvw_pdf(past[:, 0], past[:, 1], m.base) == 0)
        if not underflow.any():
            assert ll == -np.inf and np.isnan(H).all()


class TestEstimateD:
    def test_definition(self):
        pts = np.array([[0.02, 0.05], [0.09, 0.01], [0.05, 0.03], [0.04, 0.04]])
        d_hat, c1 = estimate_d(pts, DbscanParams(min_pts=2, eps=0.2))
        assert d_hat == 0.09
        assert len(c1) == 4

    def test_vannman(self):
        d_hat, c1 = estimate_d(vannman_data(), DbscanParams(min_pts=4, eps=1.6))
        assert d_hat == pytest.approx(1.4)
        assert len(c1) == 22

    def test_all_zero_cluster_rejected(self):
        pts = np.zeros((6, 2))
        pts = np.vstack([pts, [[3.0, 3.0]]])
        with pytest.raises(DegenerateDataError):
            estimate_d(pts, DbscanParams(min_pts=3, eps=0.5))


class TestFitM1:
    def test_closed_form(self):
        data = vannman_data()
        res = fit_m1(data)
        assert res.estimates["beta1"] == pytest.approx(99.34 / 36, abs=1e-12)
        assert res.estimates["beta2"] == pytest.approx(39.89 / 36, abs=1e-12)
        n = 36
        expect_ll = -n * (math.log(99.34 / 36) + 1) - n * (math.log(39.89 / 36) + 1)
        assert res.loglik == pytest.approx(expect_ll, rel=1e-12)
        assert res.aic == pytest.approx(2 * 2 - 2 * expect_ll, rel=1e-12)

    def test_constant_margin(self):
        data = np.column_stack([np.full(20, 3.7), np.linspace(1, 2, 20)])
        assert fit_m1(data).estimates["beta1"] == pytest.approx(3.7)

    def test_analytic_se(self):
        res = fit_m1(vannman_data())
        assert res.std_errors["beta1"] == pytest.approx(res.estimates["beta1"] / 6, rel=1e-12)

    def test_zero_mean_margin(self):
        data = np.column_stack([np.linspace(1, 2, 20), np.zeros(20)])
        with pytest.raises(DegenerateDataError, match="zero mean"):
            fit_m1(data)

    def test_symmetric_margins(self):
        x = np.linspace(0.5, 3, 25)
        res = fit_m1(np.column_stack([x, x]))
        assert res.std_errors["beta1"] == res.std_errors["beta2"]


class TestFitM2:
    def test_rho_zero_reduces_to_m1(self):
        rng = np.random.default_rng(6)
        data = np.column_stack([rng.exponential(2.0, 80), rng.exponential(0.5, 80)])
        m1 = fit_m1(data)
        ll0 = _m2_loglik(data, np.array([m1.estimates["beta1"], m1.estimates["beta2"], 0.0]))
        assert ll0 == pytest.approx(m1.loglik, rel=1e-12)

    def test_kernel_is_m3_bulk_with_unit_shapes(self):
        # M2 is M3's bivariate Weibull with shapes 1 and GFGM(rho, 1, 1),
        # including rows on the axes
        rng = np.random.default_rng(12)
        for _ in range(20):
            b1, b2 = rng.uniform(0.2, 5.0, 2)
            rho = rng.uniform(-1.0, 1.0)
            data = np.column_stack([rng.exponential(b1, 30), rng.exponential(b2, 30)])
            data[:3, 0] = 0.0
            data[2:5, 1] = 0.0
            bulk = BivariateWeibull(WeibullParams(1.0, b1), WeibullParams(1.0, b2), GfgmParams(rho, 1.0, 1.0))
            expect = np.sum(np.log(bvw_pdf(data[:, 0], data[:, 1], bulk)))
            assert _m2_loglik(data, np.array([b1, b2, rho])) == pytest.approx(expect, rel=1e-12)

    @settings(derandomize=True, database=None, deadline=None)
    @given(
        b1=st.floats(0.05, 20.0), b2=st.floats(0.05, 20.0), rho=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_objective_equals_hand_written_likelihood(self, b1, b2, rho, seed):
        # M2's objective counts every row, including the rows with a zero on
        # either axis. The densities stay above the normal range's floor,
        # where the hand-written product, in linear space, keeps its digits
        rng = np.random.default_rng(seed)
        data = rng.exponential(rng.uniform(0.2, 2.0), (30, 2))
        data[:3, 0] = 0.0
        data[2:5, 1] = 0.0
        theta = np.array([b1, b2, rho])
        expect = _m2_loglik(data, theta)
        assert _evaluate("m2", data)(theta)[0] == pytest.approx(expect, rel=1e-12, abs=1e-10)

    def test_underflowing_density_still_counts(self):
        # at beta2 = 0.05 on data of mean 10 some rows' densities fall below
        # 5e-324; the objective sums log f in log space and stays finite
        rng = np.random.default_rng(3)
        data = rng.exponential(10.0, (200, 2))
        b1, b2, rho = 1.5, 0.05, 0.25
        A, B = data[:, 0] / b1, data[:, 1] / b2
        logf = -np.log(b1 * b2) - A - B + np.log1p(rho * (2 * np.exp(-A) - 1) * (2 * np.exp(-B) - 1))
        assert np.any(np.exp(logf) == 0)
        ll, score = _evaluate("m2", data)(np.array([b1, b2, rho]))
        assert ll == pytest.approx(np.sum(logf), rel=1e-12)
        assert ll == pytest.approx(-43579.96860956549, rel=1e-12)
        assert np.all(np.isfinite(score))

    def test_nesting_improves_fit(self):
        rng = np.random.default_rng(7)
        wins = 0
        for trial in range(200):
            data = np.column_stack(
                [rng.exponential(1.0, 50), rng.exponential(1.0, 50)]
            )
            m1 = fit_m1(data)
            m2 = fit_m2(data)
            gain = 2 * (m2.loglik - m1.loglik)
            if -1e-6 <= gain < 6.635:  # chi-square(1) 99th percentile
                wins += 1
        assert wins >= 190

    def test_vannman_estimates(self):
        res = fit_m2(vannman_data())
        assert res.loglik == pytest.approx(-94.90337, abs=0.05)
        assert res.aic == pytest.approx(195.8067, abs=0.1)
        assert res.estimates["rho"] >= 0.995
        assert "rho" in res.boundary_flags


class TestFitMbw:
    def test_vannman_two_stage(self):
        res = fit_mbw(vannman_data(), min_pts=4, eps=1.6)
        assert res.estimates["d"] == pytest.approx(1.4)
        assert res.converged
        assert res.k == 7
        assert res.loglik > -80
        # the d-fixed stage never moves d
        assert res.diagnostics["d_hat"] == res.estimates["d"]

    def test_optimizer_start_invariance(self):
        # jittered starting points land on the same optimum
        data = vannman_data()
        d_hat, c1 = estimate_d(data, DbscanParams(4, 1.6))
        theta0 = np.array(
            [1.5, data[:, 0].mean(), 1.5, data[:, 1].mean(), 0.9, len(c1) / len(data)]
        )
        rng = np.random.default_rng(7)
        lls = []
        for _ in range(5):
            z0 = _member_z("m3", theta0) + rng.normal(0, 0.02, 6)
            res = _fit(data, "m3", _member_theta("m3", z0), compute_ses=False, d=d_hat)
            lls.append(res.loglik)
        assert max(lls) - min(lls) < 1e-3

    def test_scale_equivariance(self):
        data = vannman_data()
        base = fit_mbw(data, min_pts=4, eps=1.6, compute_ses=False)
        scaled = fit_mbw(2.0 * data, min_pts=4, eps=3.2, compute_ses=False)
        e, s = base.estimates, scaled.estimates
        assert s["beta1"] == pytest.approx(2 * e["beta1"], abs=1e-3)
        assert s["beta2"] == pytest.approx(2 * e["beta2"], abs=1e-3)
        assert s["d"] == pytest.approx(2 * e["d"])
        for k in ("alpha1", "alpha2", "rho", "p"):
            assert s[k] == pytest.approx(e[k], abs=1e-3)

    def test_recovers_simulated_parameters(self):
        truth = _mix(4.0, 1.5, 3.5, 5.0, 0.6, 0.1, 0.3)
        data = sample_mbw(300, truth, SeededStream(101))
        res = fit_mbw(data, min_pts=4, eps=0.25, compute_ses=False)
        e = res.estimates
        assert e["beta1"] == pytest.approx(1.5, abs=0.2)
        assert e["beta2"] == pytest.approx(5.0, abs=0.6)
        assert e["alpha1"] == pytest.approx(4.0, abs=1.2)
        assert e["d"] == pytest.approx(0.1, abs=0.02)
        assert e["p"] == pytest.approx(0.3, abs=0.1)

    def test_too_small_sample(self):
        with pytest.raises(DomainError):
            fit_mbw(np.random.default_rng(0).random((5, 2)))

    @pytest.mark.parametrize("x", [1e50, 1e100, 1e150, 1e200, 1e250, 1e300])
    def test_far_outlier_start_is_a_finite_point(self, monkeypatch, x):
        # the data-driven start's Weibull plot takes a far outlier into its
        # shape and scale, so that (x/beta)^alpha stays finite: the fit's
        # first evaluation is finite, with no retry from other shapes
        evaluations = _recorded_evaluations(monkeypatch)
        fit_mbw(_outlier_sample(x), eps=0.05, compute_ses=False)
        _, (ll, g, H) = evaluations[0]
        assert np.isfinite(ll) and np.isfinite(g).all() and np.isfinite(H).all()

    def test_far_outlier_start_counts_in_log_space(self):
        # x = 150 sits ~95 margin means out: at the start's shapes, about 1.6
        # and 1.8, its density underflows to 0, and the evaluator sums its
        # log f in log space, where the start is a point like any other
        data = _outlier_sample(150.0)
        d_hat, c1 = estimate_d(data, DbscanParams(4, 0.05))
        theta = _start(data, "m3", len(c1) / len(data), d_hat)
        a1, b1, a2, b2, rho, p = theta
        x, y = data[:, 0], data[:, 1]
        past = (x > d_hat) | (y > d_hat)
        keep = past | ((x > 0) & (y > 0))
        x, y, past = x[keep], y[keep], past[keep]
        A, B = (x / b1) ** a1, (y / b2) ** a2
        logf = (np.log(a1 / b1 * a2 / b2) + (a1 - 1) * np.log(x / b1) + (a2 - 1) * np.log(y / b2)
                - A - B + np.log1p(rho * (2 * np.exp(-A) - 1) * (2 * np.exp(-B) - 1)))
        assert np.any(np.exp(logf) == 0)
        bulk = np.log(1 - p) + logf
        expect = bulk[past].sum() + np.logaddexp(np.log(p / d_hat**2), bulk[~past]).sum()
        ll, score = _evaluate("m3", data, d_hat, "gfgm", 1.0, 1.0)(theta)
        assert ll == pytest.approx(expect, rel=1e-12)
        assert np.all(np.isfinite(score))
        res = fit_mbw(data, eps=0.05)
        assert res.converged
        assert res.loglik == pytest.approx(-250.81, abs=0.01)

    def test_json_serialization(self):
        res = fit_m1(vannman_data())
        payload = json.loads(json.dumps(res.to_dict()))
        assert payload["model"] == "m1"
        assert payload["aic"] == pytest.approx(res.aic)
        assert set(payload["estimates"]) == {"beta1", "beta2"}


# the criterion-5 truth with its Gaussian copula
_CRITERION_5_GAUSSIAN = mbw_params(4.0, 1.5, 3.5, 5.0, 0.6, 0.1, 0.3, "gaussian", 1.0, 1.0)


def _outlier_sample(x):
    # an origin cluster of 30 rows in [0, 0.05]^2 and 170 Weibull(2) pairs,
    # the last with first coordinate x
    rng = np.random.default_rng(3)
    data = np.column_stack([rng.weibull(2.0, 200), rng.weibull(2.0, 200)])
    data[:30] = rng.uniform(0, 0.05, (30, 2))
    data[-1, 0] = x
    return data


def _origin_cluster_and_column(x):
    # 20 rows in an origin cluster of side about 0.1 and 20 past it with
    # first coordinates x
    rng = np.random.default_rng(5)
    origin = rng.uniform(0, 0.1, (20, 2))
    return np.vstack([origin, np.column_stack([x, 1.0 + rng.weibull(2.0, 20)])])


class TestStart:
    """M3's start from the rows past the square: Weibull-plot margins and
    rho from their rank correlation, or the plain start where a margin
    has too few values there."""

    def test_weibull_plot_recovers_shape_and_scale(self):
        t = 1.5 * np.random.default_rng(11).weibull(4.0, 2000)
        shape, scale = _weibull_plot(t)
        assert shape == pytest.approx(4.0, rel=0.1)
        assert scale == pytest.approx(1.5, rel=0.1)

    def test_rho_from_spearman(self):
        for rs in (-0.5, 0.0, 0.1, 0.3):
            assert _rho_from_spearman(rs, "gaussian", 1.0, 1.0) == pytest.approx(
                2 * np.sin(np.pi * rs / 6))
            assert _rho_from_spearman(rs, "gfgm", 1.0, 1.0) == pytest.approx(
                np.clip(3 * rs, -0.95, 0.95))
        # GFGM(2, 3): Spearman's rho 12 int int (C - uv) du dv, by 10-node
        # Gauss-Legendre, exact on C's polynomial
        c = GfgmParams(0.5, 2.0, 3.0)
        nodes, weights = np.polynomial.legendre.leggauss(10)
        u, w = (nodes + 1) / 2, weights / 2
        U, V = np.meshgrid(u, u)
        rs = 12 * w @ (copula_cdf(U, V, c) - U * V) @ w
        assert _rho_from_spearman(rs, "gfgm", 2.0, 3.0) == pytest.approx(0.5, rel=1e-12)

    def test_m3_start_from_the_rows_past_the_square(self):
        data = vannman_data()
        x, y = data[:, 0], data[:, 1]
        past = (x > 1.4) | (y > 1.4)
        a1, b1, a2, b2, rho, p = _start(data, "m3", 0.25, 1.4, "gfgm", 1.0, 1.0)
        assert (a1, b1) == _weibull_plot(x[past & (x > 0)])
        assert (a2, b2) == _weibull_plot(y[past & (y > 0)])
        assert rho == _rho_from_spearman(_spearman(x[past], y[past]), "gfgm", 1.0, 1.0)
        assert p == 0.25

    @pytest.mark.parametrize("x", [np.full(20, 2.0), np.zeros(20)],
                             ids=["one distinct value", "on an axis"])
    def test_too_few_values_past_the_square_fall_back(self, x):
        # warnings are errors in this suite
        data = _origin_cluster_and_column(x)
        d_hat, c1 = estimate_d(data, DbscanParams(4, 0.1))
        assert len(c1) == 20
        plain = [1.5, data[:, 0].mean(), 1.5, data[:, 1].mean(),
               np.clip(_spearman(data[:, 0], data[:, 1]), -0.95, 0.95), 0.5]
        assert _start(data, "m3", 0.5, d_hat, "gfgm", 1.0, 1.0) == pytest.approx(plain)
        assert fit_mbw(data, eps=0.1).model == "m3"


def _cpu_per_wall_in_fits(seconds=0.5):
    # process CPU seconds per wall second over Vannman M3 fits that run for
    # at least ``seconds``; one busy thread reads at most 1
    data = vannman_data()
    t0, w0 = os.times(), time.perf_counter()
    while time.perf_counter() - w0 < seconds:
        fit_mbw(data, min_pts=4, eps=1.6, compute_ses=False)
    t1, w1 = os.times(), time.perf_counter()
    return (t1.user + t1.system - t0.user - t0.system) / (w1 - w0)


class TestOptimizer:
    """Stage 2 by projected Newton on the analytic score in a box: as good
    as the Nelder-Mead and L-BFGS-B fits it replaced, in fewer evaluations,
    and converged only at a maximum."""

    def test_vannman_m3_reaches_the_nelder_mead_optimum(self):
        # Nelder-Mead reached -70.2624151190 in 1214 evaluations,
        # finite-difference gradients in 203 and L-BFGS-B in 24; Newton takes 8
        res = fit_mbw(vannman_data(), min_pts=4, eps=1.6, compute_ses=False)
        assert res.loglik >= -70.2624151190 - 1e-9
        assert res.n_evals <= 12
        assert res.converged

    def test_vannman_m2_reaches_the_nelder_mead_optimum(self):
        # Nelder-Mead reached -94.8955435785 in 377 evaluations,
        # finite-difference gradients in 36 and L-BFGS-B in 9; Newton takes 6
        res = fit_m2(vannman_data())
        assert res.loglik >= -94.8955435785 - 1e-9
        assert res.n_evals <= 9
        assert res.converged

    def test_counts_and_the_score_left(self, monkeypatch):
        # n_evals counts the evaluator's calls, each one kernel call on one
        # point, and iterations the Newton steps; loglik_mbw runs once, for
        # the reported value
        lls, hessians = [], []
        loglik, step = fitting.loglik_mbw, fitting._damped_step

        def spy_loglik(d, m):
            lls.append(loglik(d, m))
            return lls[-1]

        def spy_step(A, g):
            hessians.append(A)
            return step(A, g)

        monkeypatch.setattr(fitting, "loglik_mbw", spy_loglik)
        monkeypatch.setattr(fitting, "_damped_step", spy_step)
        calls = _kernel_calls(monkeypatch)
        evaluations = _recorded_evaluations(monkeypatch)
        res = fit_mbw(vannman_data(), min_pts=4, eps=1.6, compute_ses=False)
        assert res.n_evals == len(evaluations) == len(calls)
        assert res.iterations == len(hessians)
        assert all(np.shape(theta) == (5,) for theta in calls)
        assert len(lls) == 1 and res.loglik == lls[0]
        # rho sits on its bound with its gradient pointing out: held, so the
        # step's Hessian spans the other five
        assert res.boundary_flags == ["rho"] and res.estimates["rho"] == 1.0
        assert hessians[-1].shape == (5, 5)
        # the score left at the end, in the optimizer's coordinates at the
        # last point evaluated, over every parameter but the flagged rho
        z = evaluations[-1][0]
        theta = np.array([res.estimates[nm] for nm in _member_names("m3")])
        assert np.array_equal(_member_theta("m3", z), theta)
        ll, g, H = _objective("m3", vannman_data(), 1.4, "gfgm", 1.0, 1.0)(z)
        assert res.diagnostics["score_max"] == np.delete(np.abs(g), 4).max()
        # what the stop certifies: the Newton decrement over the free block
        # at the estimates is below the stopping test's bound
        free = [0, 1, 2, 3, 5]
        decrement = g[free] @ np.linalg.solve(-H[np.ix_(free, free)], g[free])
        assert 0 <= decrement <= fitting._DECREMENT * (1 + abs(ll))
        payload = json.loads(json.dumps(res.to_dict()))
        assert payload["diagnostics"]["score_max"] == res.diagnostics["score_max"]
        assert {"message", "passes"}.isdisjoint(res.diagnostics)

    @pytest.mark.parametrize("family", ["gfgm", "gaussian"])
    def test_the_fit_ends_on_the_decrement_test(self, monkeypatch, family):
        # once the Newton decrement is small the fit stops before the step's
        # evaluation: its last event is a step, with no kernel call after it
        events = []
        step, kernel = fitting._damped_step, fitting._log_density_score

        def spy_step(A, g):
            events.append("step")
            return step(A, g)

        def spy_kernel(*args):
            events.append("kernel")
            return kernel(*args)

        monkeypatch.setattr(fitting, "_damped_step", spy_step)
        monkeypatch.setattr(fitting, "_log_density_score", spy_kernel)
        res = fit_mbw(vannman_data(), copula_family=family, min_pts=4, eps=1.6, compute_ses=False)
        assert res.converged and events[-2:] == ["kernel", "step"]
        assert events.count("kernel") == res.n_evals and events.count("step") == res.iterations

    def test_converged_needs_the_decrement_test(self, monkeypatch):
        # with no decrement small enough the search ends when no step
        # gains, short of the test
        monkeypatch.setattr(fitting, "_DECREMENT", -1.0)
        res = fit_mbw(vannman_data(), min_pts=4, eps=1.6, compute_ses=False)
        assert not res.converged
        assert res.loglik >= -70.2624151190 - 1e-9

    def test_converged_needs_an_undamped_hessian(self, monkeypatch):
        # the same path, with every step reported as damped
        step = fitting._damped_step
        monkeypatch.setattr(fitting, "_damped_step", lambda A, g: (1e-300, step(A, g)[1]))
        res = fit_mbw(vannman_data(), min_pts=4, eps=1.6, compute_ses=False)
        assert not res.converged
        assert res.loglik >= -70.2624151190 - 1e-9

    def test_no_maximum_is_not_converged(self):
        # every row past the square has x = 2: at beta1 = 2 the likelihood
        # grows without bound as alpha1 does. L-BFGS-B stopped at alpha1
        # about 1.4e7 and reported converged
        res = fit_mbw(_origin_cluster_and_column(np.full(20, 2.0)), eps=0.1)
        assert not res.converged
        assert res.estimates["alpha1"] > 1e3
        assert res.estimates["beta1"] == pytest.approx(2.0, rel=1e-4)

    def test_end_on_the_box_edge_is_not_converged(self, monkeypatch):
        # a box this small stops p (and the scales) short of the optimum
        monkeypatch.setattr(fitting, "_REACH", 0.05)
        res = fit_mbw(vannman_data(), min_pts=4, eps=1.6, compute_ses=False)
        assert not res.converged
        assert "p" in res.diagnostics["box_edge"]

    def test_flagged_p_on_the_box_edge_is_converged(self, monkeypatch):
        # the Gaussian Vannman fit has p-hat = 0, past any box in logit p;
        # with a reach of 20 it ends with p on the box edge, about 3e-9,
        # where the box edge stands in for p = 0
        def fit():
            return fit_mbw(vannman_data(), copula_family="gaussian", min_pts=4, eps=1.6,
                           compute_ses=False)

        full = fit()
        monkeypatch.setattr(fitting, "_REACH", 20.0)
        res = fit()
        assert res.converged and res.boundary_flags == ["p"]
        assert "box_edge" not in res.diagnostics
        assert res.estimates["p"] < 1e-8
        assert res.loglik == pytest.approx(full.loglik, abs=1e-6)

    @pytest.mark.parametrize("model, theta0, flags", [
        ("m3", (1.5, 2.0, 1.5, 2.0, -1 + 1e-4, 0.3), ["rho"]),
        ("m3", (1.5, 2.0, 1.5, 2.0, 1 - 1e-4, 0.3), ["rho"]),
        ("m3", (1.5, 2.0, 1.5, 2.0, 0.5, 1e-4), ["p"]),
        ("m3", (1.5, 2.0, 1.5, 2.0, 0.5, 1 - 1e-4), ["p"]),
        ("m3", (1e-8, 1e8, 1e8, 1e-8, -1 + 1e-4, 1 - 1e-4), ["p", "rho"]),
        ("m3", (1e-8, 1e-8, 1e8, 1e8, 0.5, 0.3), []),
        ("m2", (1e-8, 1e8, 1 - 1e-4), ["rho"]),
        ("m2", (1e8, 1e-8, 0.5), []),
    ], ids=["rho-to-minus-1", "rho-to-1", "p-to-0", "p-to-1", "all-edges", "m3-interior",
            "m2-rho-to-1", "m2-interior"])
    def test_boundary_rule(self, monkeypatch, model, theta0, flags):
        # on a flat likelihood the fit ends where it starts, and flags rho
        # within _BOUNDARY_GAP of -1 or 1 and p within it of 0 or 1; a shape
        # or a scale has no edge to be near, and M2 holds p at 0 unflagged
        monkeypatch.setattr(fitting, "_objective", lambda *args: (
            lambda z: (0.0, np.zeros(len(z)), -np.eye(len(z)))))
        fixed = {"d": 1.4} if model == "m3" else {}
        res = _fit(vannman_data(), model, np.array(theta0), compute_ses=False, **fixed)
        assert res.n_evals == 1 and res.converged
        assert res.boundary_flags == flags
        assert [res.estimates[nm] for nm in _member_names(model)] == pytest.approx(theta0)

    def test_spent_budget_is_not_converged(self, monkeypatch):
        # the fit converges in 8 evaluations
        monkeypatch.setattr(fitting, "_MAX_EVALS", 3)
        res = fit_mbw(vannman_data(), min_pts=4, eps=1.6, compute_ses=False)
        assert not res.converged
        assert res.n_evals >= 3

    @pytest.mark.parametrize("n, eps", [(100, 0.45), (300, 0.25)])
    def test_criterion_5_replicates(self, n, eps):
        # Nelder-Mead took 500-720 evaluations per replicate, finite-difference
        # gradients about 280, the analytic score from the plain start about
        # 36 and L-BFGS-B from the data-driven start about 22; Newton takes 4-7
        truth = mbw_params(4.0, 1.5, 3.5, 5.0, 0.6, 0.1, 0.3, "gaussian", 1.0, 1.0)
        for r in range(3):
            data = sample_mbw(n, truth, SeededStream(20260823, n * 1_000_000 + r))
            res = fit_mbw(data, copula_family="gaussian", eps=eps, compute_ses=False)
            assert res.converged
            assert res.n_evals <= 12

    def test_hessian_on_the_bound_of_the_box(self, monkeypatch):
        # the GFGM Vannman fit ends with rho on its bound 1, where a central
        # difference would leave the space: the closed-form Hessian there is
        # the one-sided difference of the score, to first order in the step
        evaluations = _recorded_evaluations(monkeypatch)
        res = fit_mbw(vannman_data(), min_pts=4, eps=1.6, compute_ses=False)
        assert res.estimates["rho"] == 1.0
        objective = _objective("m3", vannman_data(), 1.4, "gfgm", 1.0, 1.0)
        z, (_, g, H) = evaluations[-1]
        assert np.isfinite(H).all()
        for h in (1e-5, 1e-6):
            below = z.copy()
            below[4] -= h
            fd = (g - objective(below)[1]) / h
            np.testing.assert_allclose(fd, H[4], rtol=0, atol=100 * h * np.abs(H[4]).max())

    @pytest.mark.parametrize("where", ["this process", "pool worker"])
    def test_fits_keep_to_one_core(self, where):
        # no library thread spins beside the fit: a spinning thread reads
        # about 2 CPU seconds per wall second
        if where == "pool worker":
            with ProcessPoolExecutor(max_workers=1) as pool:
                ratio = pool.submit(_cpu_per_wall_in_fits).result(timeout=60)
        else:
            ratio = _cpu_per_wall_in_fits()
        assert ratio < 1.5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_a_rejected_point(self):
        # at beta1 = 0.01 the exponent (x/beta1)^1000 of every row past the
        # square overflows, and the bulk density is 0 there: the evaluator
        # rejects the point without a warning (an error in these tests)
        data = sample_mbw(100, _CRITERION_5_GAUSSIAN, SeededStream(1))
        theta = (1000.0, 0.01, 1000.0, 50.0, 1 - 1e-6, 0.3)
        objective = _objective("m3", data, 0.1, "gaussian", 1.0, 1.0)
        ll, g, H = objective(_member_z("m3", np.array(theta)))
        assert ll == -np.inf and not g.any() and np.isnan(H).all()
        m = mbw_params(*theta[:5], 0.1, theta[5], "gaussian", 1.0, 1.0)
        assert loglik_mbw(data, m) == -np.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_copula_density_counts_in_log_space(self):
        # every margin probability underflows and counts as the smallest
        # normal float, where the Gaussian copula density at rho = 1 - 1e-6
        # is about e^710 and overflows in linear space: loglik_mbw is -inf,
        # and the evaluator sums the rows' log f. The pinned value is the
        # same sum with mpmath at 50 digits; scipy's multivariate normal
        # forms 1 - rho^2 by cancellation and keeps about 11 digits
        data = sample_mbw(100, _CRITERION_5_GAUSSIAN, SeededStream(1))
        theta = np.array((1000.0, 10.0, 1000.0, 50.0, 1 - 1e-6, 0.3))
        m = mbw_params(*theta[:5], 0.1, theta[5], "gaussian", 1.0, 1.0)
        assert loglik_mbw(data, m) == -np.inf
        a1, b1, a2, b2, rho, p = theta
        x, y = data[:, 0], data[:, 1]
        past = (x > 0.1) | (y > 0.1)
        keep = past | ((x > 0) & (y > 0))
        x, y, past = x[keep], y[keep], past[keep]
        tiny = np.finfo(float).tiny
        z1 = stats.norm.ppf(np.maximum(stats.weibull_min.cdf(x, a1, scale=b1), tiny))
        z2 = stats.norm.ppf(np.maximum(stats.weibull_min.cdf(y, a2, scale=b2), tiny))
        normal = stats.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]])
        logf = (stats.weibull_min.logpdf(x, a1, scale=b1)
                + stats.weibull_min.logpdf(y, a2, scale=b2)
                + normal.logpdf(np.column_stack([z1, z2]))
                - stats.norm.logpdf(z1) - stats.norm.logpdf(z2))
        bulk = np.log(1 - p) + logf
        expect = bulk[past].sum() + np.logaddexp(np.log(p / 0.01), bulk[~past]).sum()
        ll, score = _evaluate("m3", data, 0.1, "gaussian", 1.0, 1.0)(theta)
        assert ll == pytest.approx(expect, rel=1e-10)
        assert ll == pytest.approx(-268502.59764180076, rel=1e-12)
        assert np.all(np.isfinite(score))


def _quantile_rows(rng, shapes, scales, n):
    # rows at margin quantiles in [0.01, 0.99], so each A = (x/beta)^alpha
    # stays below 4.6
    u = rng.uniform(0.01, 0.99, (n, 2))
    return np.asarray(scales) * (-np.log1p(-u)) ** (1 / np.asarray(shapes))


def _difference_gradient(objective, z):
    # the central difference of the evaluator's log-likelihood at z, with
    # steps 1e-6 max(|z_i|, 1)
    fd = np.empty(len(z))
    for i in range(len(z)):
        step = np.zeros(len(z))
        step[i] = 1e-6 * max(abs(z[i]), 1.0)
        fd[i] = (objective(z + step)[0] - objective(z - step)[0]) / (2 * step[i])
    return fd


# the members and copulas of the evaluator's tests, and their parameters
_member_strategies = dict(
    # M3's copula: family, a, b; None stands for M2
    copula=st.sampled_from(
        [None, ("gfgm", 1.0, 1.0), ("gfgm", 2.0, 3.0), ("gaussian", 1.0, 1.0)]),
    shapes=st.tuples(st.floats(0.7, 4.0), st.floats(0.7, 4.0)),
    scales=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
    rho=st.floats(-0.9, 0.9),
    p=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**16),
)


def _member_point(copula, shapes, scales, rho, p, seed):
    # the evaluator of a member on 40 rows and a point z in its coordinates:
    # M2 counts rows with a zero coordinate; M3 has rows on its plateau and
    # past its square
    rng = np.random.default_rng(seed)
    if copula is None:
        data = _quantile_rows(rng, (1.0, 1.0), scales, 40)
        data[:3, 0] = 0.0
        data[2:5, 1] = 0.0
        model, settings = "m2", ()
        theta = np.array([*scales, rho])
    else:
        data = _quantile_rows(rng, shapes, scales, 40)
        d = 0.3 * min(scales)
        data[:8] = d * rng.uniform(0.05, 1.0, (8, 2))
        model, settings = "m3", (d, *copula)
        theta = np.array([shapes[0], scales[0], shapes[1], scales[1], rho, p])
    return _objective(model, data, *settings), _member_z(model, theta)


class TestScore:
    @settings(derandomize=True, database=None, deadline=None)
    @given(**_member_strategies)
    def test_score_is_the_gradient_of_the_objective(self, copula, shapes, scales, rho, p, seed):
        objective, z = _member_point(copula, shapes, scales, rho, p, seed)
        ll, score, _ = objective(z)
        assert ll > -np.inf
        fd = _difference_gradient(objective, z)
        np.testing.assert_allclose(score, fd, rtol=0, atol=1e-6 * max(np.abs(score).max(), 1.0))

    @settings(derandomize=True, database=None, deadline=None)
    @given(**_member_strategies)
    def test_hessian_is_the_jacobian_of_the_score(self, copula, shapes, scales, rho, p, seed):
        # the closed-form Hessian in the optimizer's coordinates, mixture
        # weights and logit p included, against the central difference of
        # the closed-form score
        objective, z = _member_point(copula, shapes, scales, rho, p, seed)
        ll, _, H = objective(z)
        assert ll > -np.inf
        np.testing.assert_allclose(H, H.T, rtol=0, atol=1e-14 * np.abs(H).max())
        fd = np.empty_like(H)
        for i in range(len(z)):
            step = np.zeros(len(z))
            step[i] = 1e-6 * max(abs(z[i]), 1.0)
            fd[i] = (objective(z + step)[1] - objective(z - step)[1]) / (2 * step[i])
        np.testing.assert_allclose(H, fd, rtol=0, atol=1e-5 * max(np.abs(H).max(), 1.0))

    def test_gaussian_score_in_both_tails(self):
        # where 1 - e^-A rounds to 0 (A < 1e-12) or to 1 (A > 40), the
        # normal score comes from the tail A lies in
        A = np.array([1e-300, 1e-13, 0.5, 45.0, 200.0, 700.0])
        logf, S, H = _log_density_score(
            np.sqrt(A), np.sqrt(A[::-1]), (2.0, 1.0, 2.0, 1.0, 0.6), GaussianCopulaParams(0.6))
        assert np.all(np.isfinite(logf)) and np.all(np.isfinite(S)) and np.all(np.isfinite(H))
        # the same rows in an M3 fit: a plateau row with A = 1e-13 and a row
        # past the square with A = 45
        rng = np.random.default_rng(2)
        data = _quantile_rows(rng, (2.0, 2.0), (1.0, 1.0), 20)
        data[0] = np.sqrt([1e-13, 1e-2])
        data[1] = np.sqrt([45.0, 1.0])
        ll, score = _evaluate("m3", data, 0.2, "gaussian", 1.0, 1.0)(
            np.array([2.0, 1.0, 2.0, 1.0, 0.6, 0.3]))
        assert np.isfinite(ll) and np.all(np.isfinite(score))

    @pytest.mark.parametrize("alpha1", [3.0, 3.5, 4.0])
    def test_gaussian_value_and_score_agree_at_large_exponents(self, alpha1):
        # rows past the square with A = (x/0.6)^alpha1 up to 37, 76 and 124,
        # where u = 1 - e^-A rounds to 1: the value and the score both take
        # the normal score from e^-A
        rng = np.random.default_rng(0)
        data = np.vstack([
            rng.uniform(0.0, 0.1, (20, 2)),
            np.column_stack([np.repeat([2.0, 1.5, 1.2, 1.1], 5), rng.uniform(0.5, 2.0, 20)]),
        ])
        objective = _objective("m3", data, 0.1, "gaussian", 1.0, 1.0)
        z = _member_z("m3", [alpha1, 0.6, 2.0, 1.0, 0.6, 0.5])
        ll, score, _ = objective(z)
        fd = _difference_gradient(objective, z)
        np.testing.assert_allclose(score, fd, rtol=0, atol=1e-6 * np.abs(score).max())


def _recorded_evaluations(monkeypatch, change=None):
    # the point z and the value (ll, g, H) of every evaluation by each
    # evaluator that fitting._objective builds, changed by ``change`` first
    # if it is given
    evaluations = []
    build = fitting._objective

    def spy(*args):
        objective = build(*args)

        def recorded(z):
            value = objective(z)
            if change is not None:
                value = change(*value)
            evaluations.append((z, value))
            return value

        return recorded

    monkeypatch.setattr(fitting, "_objective", spy)
    return evaluations


def _kernel_calls(monkeypatch):
    # the theta of every call of the density kernel that fitting makes
    calls = []
    kernel = fitting._log_density_score

    def spy(x, y, theta, c):
        calls.append(theta)
        return kernel(x, y, theta, c)

    monkeypatch.setattr(fitting, "_log_density_score", spy)
    return calls


def _vannman_fit(model):
    data = vannman_data()
    if model == "m2":
        return fit_m2(data)
    return fit_mbw(data, "gaussian" if model == "m3-gaussian" else "gfgm", min_pts=4, eps=1.6)


def _criterion_5_fit():
    # the first n = 300 replicate of the Gaussian criterion-5 study
    data = sample_mbw(300, _CRITERION_5_GAUSSIAN, SeededStream(20260823, 300_000_000))
    return data, fit_mbw(data, copula_family="gaussian", eps=0.25)


# fits with standard errors and no coordinate stopped by the search box,
# whose probes stay where compute_se would put them
_SE_FITS = {
    "m2": lambda: (vannman_data(), fit_m2(vannman_data())),
    "m3": lambda: (vannman_data(), fit_mbw(vannman_data(), min_pts=4, eps=1.6)),
    "criterion-5-gaussian": _criterion_5_fit,
}


class TestStandardErrors:
    @pytest.mark.parametrize("model, expect", [
        ("m2", {"beta1": 0.46345956456633935, "beta2": 0.16458220865058704}),
        ("m3", {"alpha1": 0.6491673096850429, "beta1": 0.6138004959849315,
                "alpha2": 0.25907358380701545, "beta2": 0.628639297790273,
                "p": 0.10161305356038954}),
        # rho-hat is 0.988 and p is flagged; pinned at the closed-form
        # Hessian's values, from which a central difference with h = 1e-4 is
        # off by up to 1.6e-4 (rho; see test_the_difference_converges_as_h_squared)
        ("m3-gaussian", {"alpha1": 0.30081110216728707, "beta1": 0.8389421838034525,
                         "alpha2": 0.12150827077010849, "beta2": 0.5668475619639902,
                         "rho": 0.005058548964322432}),
    ])
    def test_vannman(self, model, expect):
        # M2 and GFGM M3 as the central-difference Hessian of the
        # log-likelihood gave them
        res = _vannman_fit(model)
        for name, se in expect.items():
            assert res.std_errors[name] == pytest.approx(se, rel=1e-5)
        assert set(res.std_errors) - set(expect) == set(res.boundary_flags)

    def test_the_difference_converges_as_h_squared(self, monkeypatch):
        # on the Gaussian Vannman fit, the central difference of the score
        # with step h approaches the closed-form Hessian's rho row as h^2:
        # the gap falls 100-fold per 10-fold smaller step, so at h = 1e-4 it
        # is the difference that is in error, by about 7e-5
        evaluations = _recorded_evaluations(monkeypatch)
        res = _vannman_fit("m3-gaussian")
        assert res.boundary_flags == ["p"]
        assert res.estimates["rho"] == pytest.approx(0.988, abs=1e-3)
        monkeypatch.undo()
        objective = _objective("m3", vannman_data(), 1.4, "gaussian", 1.0, 1.0)
        z, (_, _, H) = evaluations[-1]
        gaps = []
        for h in (1e-4, 1e-5, 1e-6):
            step = np.zeros(len(z))
            step[4] = h
            fd = (objective(z + step)[1] - objective(z - step)[1]) / (2 * h)
            gaps.append(np.abs(fd - H[4]).max() / np.abs(H[4]).max())
        assert gaps[0] > 1e-5
        assert 50 < gaps[0] / gaps[1] < 200 and 50 < gaps[1] / gaps[2] < 200

    @pytest.mark.parametrize("model", ["m2", "m3"])
    def test_one_kernel_call_for_a_fit_built_elsewhere(self, monkeypatch, model):
        # a fit's own standard errors take the Hessian of its final
        # evaluation and make no kernel call; for a FitResult built
        # elsewhere one one-point kernel call at theta-hat gives them
        calls = _kernel_calls(monkeypatch)
        se_calls = []
        compute = fitting.compute_se

        def spy(*args):
            before = len(calls)
            compute(*args)
            se_calls.append(len(calls) - before)

        monkeypatch.setattr(fitting, "compute_se", spy)
        res = _vannman_fit(model)
        assert se_calls == [0]
        calls.clear()
        compute_se(vannman_data(), res)
        assert len(calls) == 1
        e = res.estimates
        expect = ([1.0, e["beta1"], 1.0, e["beta2"], e["rho"]] if model == "m2" else
                  [e[nm] for nm in ("alpha1", "beta1", "alpha2", "beta2", "rho")])
        np.testing.assert_allclose(calls[0], expect, rtol=1e-15)

    @pytest.mark.parametrize("fit", _SE_FITS.values(), ids=_SE_FITS.keys())
    def test_a_fit_with_standard_errors_makes_n_evals_kernel_calls(self, monkeypatch, fit):
        calls = _kernel_calls(monkeypatch)
        _, res = fit()
        # the search's evaluations only
        assert len(calls) == res.n_evals
        assert np.isfinite([v for nm, v in res.std_errors.items()
                            if nm not in res.boundary_flags]).all()

    @pytest.mark.parametrize("fit", _SE_FITS.values(), ids=_SE_FITS.keys())
    def test_both_routes_give_the_same_standard_errors(self, monkeypatch, fit):
        # the fit's standard errors from its final evaluation, and those of
        # compute_se on a copy from one evaluation at z(theta-hat): bit for
        # bit where z(theta-hat) is the fit's last point, and to 1e-13
        # where exp and log or expit and logit moved it by rounding, about
        # 1e-16 in z
        evaluations = _recorded_evaluations(monkeypatch)
        data, res = fit()
        assert "box_edge" not in res.diagnostics
        monkeypatch.undo()
        again = copy.deepcopy(res)
        compute_se(data, again)
        theta = np.array([res.estimates[nm] for nm in _member_names(res.model)])
        rtol = 0 if np.array_equal(_member_z(res.model, theta), evaluations[-1][0]) else 1e-13
        expect, got = (np.array(list(r.std_errors.values())) for r in (res, again))
        np.testing.assert_allclose(got, expect, rtol=rtol, atol=0, equal_nan=True)

    def test_rejected_point_voids_every_standard_error(self):
        # a fit from a start past the parameter space (GFGM rho = 1.5) is
        # rejected at its first evaluation and takes no step: the Hessian
        # it hands on is NaN, whose inverse can still have finite entries
        data = vannman_data()
        start = _start(data, "m3", 0.3, 1.4)
        start[4] = 1.5
        res = _fit(data, "m3", start, compute_ses=True, d=1.4)
        assert res.loglik == -np.inf and res.n_evals == 1 and res.iterations == 0
        assert res.diagnostics["hessian"] == "rejected point"
        assert all(math.isnan(se) for se in res.std_errors.values())
        assert all(math.isnan(pv) for pv in res.p_values.values())

    def test_point_past_the_parameter_space_is_rejected(self):
        # the GFGM M3 fit has rho-hat on 1; moved past it and unflagged by
        # hand, rho lies where the kernel still returns a finite score
        res = _vannman_fit("m3")
        assert res.estimates["rho"] == 1.0
        res.estimates["rho"] = 1.0 + 1e-4
        res.boundary_flags.remove("rho")
        compute_se(vannman_data(), res)
        assert res.diagnostics["hessian"] == "rejected point"
        assert all(math.isnan(se) for se in res.std_errors.values())
        assert all(math.isnan(pv) for pv in res.p_values.values())

    def test_indefinite_information_voids_every_standard_error(self, monkeypatch):
        # with the signs of the score and the Hessian flipped the optimum is
        # a minimum, whose observed information is negative definite
        res = _vannman_fit("m2")
        _recorded_evaluations(monkeypatch, change=lambda ll, g, H: (ll, -g, -H))
        compute_se(vannman_data(), res)
        assert res.diagnostics["hessian"] == "not positive definite"
        assert all(math.isnan(se) for se in res.std_errors.values())
        assert all(math.isnan(pv) for pv in res.p_values.values())

    @pytest.mark.parametrize("model", ["m2", "m3", "m3-gaussian"])
    def test_evaluator_rejects_a_point_past_the_parameter_space(self, model):
        # rho past 1, where the kernel's value and derivatives are finite
        # for GFGM: (-inf, 0, NaN), as for any rejected point
        data = vannman_data()
        if model == "m2":
            args, theta = ("m2", data), np.array([1.9, 0.7, 1.0 + 1e-9])
        else:
            family = "gaussian" if model == "m3-gaussian" else "gfgm"
            args = ("m3", data, 1.4, family, 1.0, 1.0)
            theta = np.array([2.7, 7.7, 1.0, 3.3, 1.0 + 1e-9, 0.58])
        names = _member_names(args[0])
        objective = _objective(*args)
        ll, g, H = objective(_member_z(args[0], theta))
        assert ll == -np.inf and not g.any() and np.isnan(H).all()
        # and the same point with rho inside
        theta[names.index("rho")] = 0.6
        ll, g, H = objective(_member_z(args[0], theta))
        assert np.isfinite(ll) and np.isfinite(g).all() and np.isfinite(H).all()


def _vannman_board_21_x(value):
    # board 21, (1.23, 0.04), lies inside the d = 1.4 square: loglik_mbw
    # used to drop it silently once its x turned negative
    data = vannman_data()
    data[20, 0] = value
    return data


@st.composite
def _sweep_samples(draw):
    # a model from the whole parameter space, its copula settings and an
    # n = 100 sample: shapes log-uniform on [0.4, 20], scales on [0.1, 10],
    # rho over the copula's space, p on [0.02, 0.9], d a share of the
    # smaller scale
    family, a, b = draw(st.sampled_from(
        [("gfgm", 1.0, 1.0), ("gfgm", 2.0, 3.0), ("gaussian", 1.0, 1.0)]))
    shapes = [float(np.exp(draw(st.floats(np.log(0.4), np.log(20.0))))) for _ in range(2)]
    scales = [float(np.exp(draw(st.floats(np.log(0.1), np.log(10.0))))) for _ in range(2)]
    edge = 0.99 if family == "gaussian" else 1.0
    rho = draw(st.floats(-edge, edge))
    p = draw(st.floats(0.02, 0.9))
    d = draw(st.floats(0.02, 0.3)) * min(scales)
    truth = mbw_params(shapes[0], scales[0], shapes[1], scales[1], rho, d, p, family, a, b)
    data = sample_mbw(100, truth, SeededStream(draw(st.integers(0, 2**16))))
    return data, (family, a, b)


def _fit_or_error(data, copula, eps):
    try:
        return fit_mbw(data, *copula, eps=eps, compute_ses=False)
    except PACKAGE_ERRORS as e:
        return type(e)


def _eps_off_a_distance(data):
    # select_eps returns a distance between two rows, where DBSCAN's test
    # dist <= eps is decided by the last bit, and 3.7 * dist and the
    # distance of the rows times 3.7 can differ in it; 1e-9 above, no row
    # pair of a sample sits on the radius
    return select_eps(data, 4) * (1 + 1e-9)


class TestSymmetry:
    """The fit respects the model's symmetries over the whole parameter
    space: it commutes with a change of time unit and with swapping the
    two lifetimes. Where the fit found no maximum, so does the transformed
    one, and its end point is not compared."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(sample=_sweep_samples())
    def test_scaling_the_data_scales_the_fit(self, sample):
        # eps scales with the data, and each kept row's density with c^-2
        data, copula = sample
        c = 3.7
        eps = _eps_off_a_distance(data)
        base = _fit_or_error(data, copula, eps)
        scaled = _fit_or_error(c * data, copula, c * eps)
        if isinstance(base, type) or not base.converged:
            assert scaled is base if isinstance(base, type) else not scaled.converged
            return
        keep, _ = fitting._kept_rows(data[:, 0], data[:, 1], RectUniform(0.0, 0.0, base.estimates["d"]))
        assert scaled.loglik == pytest.approx(base.loglik - 2 * keep.sum() * np.log(c), abs=1e-6)
        for name, value in base.estimates.items():
            expect = c * value if name in ("beta1", "beta2", "d") else value
            assert scaled.estimates[name] == pytest.approx(expect, rel=1e-4, abs=1e-4)
        assert scaled.boundary_flags == base.boundary_flags

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(sample=_sweep_samples())
    def test_swapping_the_lifetimes_swaps_the_margins(self, sample):
        data, copula = sample
        eps = _eps_off_a_distance(data)
        base = _fit_or_error(data, copula, eps)
        swapped = _fit_or_error(data[:, ::-1], copula, eps)
        if isinstance(base, type) or not base.converged:
            assert swapped is base if isinstance(base, type) else not swapped.converged
            return
        assert swapped.loglik == pytest.approx(base.loglik, abs=1e-6)
        twin = {"alpha1": "alpha2", "beta1": "beta2", "alpha2": "alpha1", "beta2": "beta1"}
        for name, value in base.estimates.items():
            assert swapped.estimates[twin.get(name, name)] == pytest.approx(value, rel=1e-4, abs=1e-4)


class TestDataBoundary:
    @pytest.mark.parametrize("value", [-0.5, np.nan, np.inf, -np.inf],
                             ids=["negative", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("call", [
        fit_m1,
        fit_m2,
        lambda data: fit_mbw(data, min_pts=4, eps=1.6),
        lambda data: loglik_mbw(data, _mix(2.7, 7.7, 1.0, 3.3, 0.98, 1.4, 0.58)),
        lambda data: bootstrap(data, lambda d: fit_m1(d).estimates, B=100, seed=0),
    ], ids=["fit_m1", "fit_m2", "fit_mbw", "loglik_mbw", "bootstrap"])
    def test_rejects_negative_and_nonfinite_lifetimes(self, call, value):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            call(_vannman_board_21_x(value))


class TestSettings:
    @pytest.mark.parametrize("setting", [
        {"copula_family": "clayton"}, {"a": 0.5}, {"b": 0.5}, {"a": float("nan")},
    ], ids=["clayton", "a-0.5", "b-0.5", "a-nan"])
    def test_bad_setting_raises_before_any_likelihood_call(self, monkeypatch, setting):
        calls = []
        monkeypatch.setattr(fitting, "loglik_mbw", lambda d, m: calls.append(m))
        with pytest.raises(DomainError):
            fit_mbw(vannman_data(), min_pts=4, eps=1.6, **setting)
        assert calls == []

    @pytest.mark.parametrize("eps", [1e-9, None], ids=["eps-preset", "eps-auto"])
    def test_bad_family_raises_before_stage_1(self, monkeypatch, eps):
        # with eps 1e-9 the origin cluster is degenerate, which would
        # otherwise be the error reported
        calls = []
        monkeypatch.setattr(fitting, "select_eps", lambda *a: calls.append("select_eps"))
        monkeypatch.setattr(fitting, "dbscan", lambda *a: calls.append("dbscan"))
        with pytest.raises(DomainError, match="'clayton'"):
            fit_mbw(vannman_data(), copula_family="clayton", eps=eps)
        assert calls == []

    def test_compute_se_rejects_m1(self):
        data = vannman_data()
        with pytest.raises(DomainError, match="unknown model 'm1'"):
            compute_se(data, fit_m1(data))


def _gfgm_replicate(rho, stream):
    # a criterion-5 truth with a GFGM copula, sampled at n = 100
    truth = MbwParams(
        base=BivariateWeibull(WeibullParams(4.0, 1.5), WeibullParams(3.5, 5.0), GfgmParams(rho)),
        rect=RectUniform(0.0, 0.0, 0.1),
        p=0.3,
    )
    return sample_mbw(100, truth, SeededStream(1, 100_000_000 + stream))


class TestBoundary:
    @pytest.mark.parametrize("model", ["m2", "m3"])
    def test_vannman_rho_has_no_standard_error(self, model):
        data = vannman_data()
        res = fit_m2(data) if model == "m2" else fit_mbw(data, min_pts=4, eps=1.6)
        assert res.boundary_flags == ["rho"]
        assert math.isnan(res.std_errors["rho"])
        assert math.isnan(res.p_values["rho"])
        assert set(res.std_errors) == set(res.estimates) - {"d"}
        for name, se in res.std_errors.items():
            if name != "rho":
                assert np.isfinite(se) and se > 0

    def test_boundary_rho_keeps_interior_standard_errors(self):
        # rho-hat sits 1e-13 from 1; stepping it in the Hessian made the
        # information matrix indefinite and lost every other SE with it
        res = fit_mbw(_gfgm_replicate(0.6, 6), eps=0.45)
        assert res.boundary_flags == ["rho"]
        assert "hessian" not in res.diagnostics
        for name in ("alpha1", "beta1", "alpha2", "beta2", "p"):
            assert np.isfinite(res.std_errors[name]) and res.std_errors[name] > 0
        assert math.isnan(res.std_errors["rho"])

    def test_flags_do_not_depend_on_standard_errors(self):
        # rho-hat = 0.99959 lies within the boundary gap of 1
        data = _gfgm_replicate(0.9, 4)
        with_se = fit_mbw(data, eps=0.45)
        without = fit_mbw(data, eps=0.45, compute_ses=False)
        assert with_se.boundary_flags == without.boundary_flags == ["rho"]

    def test_gaussian_rho_at_the_edge_stays_in_the_model(self):
        # y = 3x: the likelihood grows without bound as rho goes to 1, so
        # the fit ends next to the edge and must report a rho-hat inside
        # the model, with the log-likelihood taken at its estimates
        truth = MbwParams(
            base=BivariateWeibull(
                WeibullParams(4.0, 1.5), WeibullParams(3.5, 5.0), GaussianCopulaParams(0.6)
            ),
            rect=RectUniform(0.0, 0.0, 0.1),
            p=0.3,
        )
        x = sample_mbw(200, truth, SeededStream(1))[:, 0]
        data = np.column_stack([x, 3 * x])
        fit = fit_mbw(data, copula_family="gaussian", compute_ses=False)
        est = fit.estimates
        GaussianCopulaParams(est["rho"])
        assert "rho" in fit.boundary_flags
        m = mbw_params(*(est[k] for k in PARAM_NAMES), "gaussian", 1.0, 1.0)
        assert fit.loglik == loglik_mbw(data, m)


class TestBootstrap:
    def test_percentile_contains_median(self):
        rng = np.random.default_rng(3)
        data = np.column_stack([rng.exponential(2, 60), rng.exponential(1, 60)])

        def fitter(d):
            return fit_m1(d).estimates

        out = bootstrap(data, fitter, B=200, seed=11)
        reps = [
            fitter(data[np.random.default_rng(np.random.SeedSequence(entropy=[11, r])).integers(0, 60, 60)])
            for r in range(200)
        ]
        med = np.median([r["beta1"] for r in reps])
        lo, hi = out["bci"]["beta1"]
        assert lo <= med <= hi

    def test_degenerate_data(self):
        rng = np.random.default_rng(4)
        base = np.array([[1.0, 2.0]])
        data = np.repeat(base, 50, axis=0) + rng.normal(0, 1e-9, (50, 2))

        def fitter(d):
            return fit_m1(d).estimates

        out = bootstrap(data, fitter, B=150, seed=5)
        assert out["bse"]["beta1"] < 1e-8

    def test_reproducible(self):
        rng = np.random.default_rng(8)
        data = np.column_stack([rng.exponential(1, 40), rng.exponential(1, 40)])

        def fitter(d):
            return fit_m1(d).estimates

        a = bootstrap(data, fitter, B=120, seed=99)
        b = bootstrap(data, fitter, B=120, seed=99)
        assert a["bse"] == b["bse"]

    def test_minimum_b(self):
        with pytest.raises(DomainError):
            bootstrap(np.ones((10, 2)), lambda d: {}, B=50, seed=0)

    def test_fitter_bug_propagates(self):
        def fitter(d):
            raise TypeError("bug in the fitter")

        with pytest.raises(TypeError):
            bootstrap(np.ones((10, 2)), fitter, B=100, seed=0)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, np.nan])
    def test_level_checked_before_any_refit(self, level):
        calls = []
        with pytest.raises(DomainError, match="level"):
            bootstrap(np.ones((10, 2)), lambda d: calls.append(d) or {}, B=100,
                      seed=0, level=level)
        assert calls == []

    @staticmethod
    def _failing_first(k):
        # a fitter whose first k calls fail on their data
        calls = []

        def fitter(d):
            calls.append(None)
            if len(calls) <= k:
                raise DegenerateDataError("degenerate resample")
            return {"m": float(d.mean())}

        return fitter

    def test_a_fifth_of_failed_replicates_is_tolerated(self):
        out = bootstrap(np.arange(20.0).reshape(10, 2), self._failing_first(20), B=100,
                        seed=0)
        assert out["failures"] == 20
        assert out["B"] == 100

    def test_more_than_a_fifth_failed_raises(self):
        with pytest.raises(ConvergenceError, match="21/100"):
            bootstrap(np.arange(20.0).reshape(10, 2), self._failing_first(21), B=100,
                      seed=0)


class TestIntervalsAndComparison:
    def test_d_interval_pivot(self):
        # C1 = {(0.05, 0.1), (0.02, 0.08)}: largest coordinate 0.1, |C1| = 2
        lo, hi = d_confidence_interval(0.1, 2, 0.95)
        assert lo == 0.1
        assert hi == pytest.approx(0.1 * 0.05 ** (-1 / 4), rel=1e-12)
        assert hi == pytest.approx(0.2115, abs=5e-5)

    def test_d_interval_widens_with_level(self):
        pts = np.random.default_rng(0).uniform(0, 1, (20, 2))
        _, hi90 = d_confidence_interval(pts.max(), len(pts), 0.90)
        _, hi99 = d_confidence_interval(pts.max(), len(pts), 0.99)
        assert hi99 > hi90

    def test_d_interval_contains_max(self):
        pts = np.random.default_rng(1).uniform(0, 0.5, (15, 2))
        lo, hi = d_confidence_interval(pts.max(), len(pts), 0.95)
        assert lo == pts.max()
        assert hi > lo

    def test_aic_values(self):
        assert aic(-75.6412, 7) == pytest.approx(165.2824)
        assert aic(-112.2349, 2) == pytest.approx(228.4698)
        assert aic(0.0, 1) == 2.0

    def test_deviance_identical_models(self):
        res = fit_m1(vannman_data())
        other = fit_m2(vannman_data())
        same = deviance_test(other, res)
        assert same["df"] == 1
        zero = deviance_test(other, other.__class__(**{**other.__dict__, "k": 2}))
        assert zero["statistic"] == pytest.approx(0.0)
        assert zero["p_value"] == pytest.approx(1.0)

    def test_deviance_m2_vs_m1(self):
        m1 = fit_m1(vannman_data())
        m2 = fit_m2(vannman_data())
        out = deviance_test(m2, m1)
        assert out["statistic"] == pytest.approx(34.66, abs=0.2)
        assert out["df"] == 1
        assert out["p_value"] < 1e-4

    def test_negative_deviance_flagged(self):
        m1 = fit_m1(vannman_data())
        worse = m1.__class__(**{**m1.__dict__})
        worse.k = 5
        worse.loglik = m1.loglik - 3.0
        out = deviance_test(worse, m1)
        assert "warning" in out

    def test_ranks_average_ties(self):
        data = vannman_data()
        for a in (data[:, 0], data[:, 1], np.array([3.0, 1.0, 3.0, 2.0, 1.0, 3.0])):
            np.testing.assert_array_equal(_ranks(a), stats.rankdata(a))

    def test_fit_and_deviance_test_leave_scipy_stats_unloaded(self):
        code = (
            "import sys\n"
            "from mbweibull import deviance_test, fit_m2, fit_mbw, vannman_data\n"
            "data = vannman_data()\n"
            "deviance_test(fit_mbw(data, min_pts=4, eps=1.6), fit_m2(data))\n"
            "assert 'scipy.stats' not in sys.modules\n"
        )
        src = str(Path(fitting.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, check=True
        )
