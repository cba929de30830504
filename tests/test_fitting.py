import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mbweibull.errors import DegenerateDataError, DomainError, SingularityError
from mbweibull.fitting import _fit, _from_free, _objective, _to_free


def _mix(a1, b1, a2, b2, rho, d, p):
    return MbwParams(
        base=BivariateWeibull(
            WeibullParams(a1, b1), WeibullParams(a2, b2), GfgmParams(rho)
        ),
        rect=RectUniform(0.0, 0.0, d),
        p=p,
    )


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


class TestParamKinds:
    def test_roundtrip(self):
        kinds = ["scale", "scale", "tanh", "logit"]
        theta = np.array([2.5, 0.01, -0.73, 0.9])
        back = _from_free(kinds, _to_free(kinds, theta))
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
        # M2's objective, on the GFGM closed form, counts every row,
        # including the rows with a zero on either axis. The densities stay
        # above the normal range's floor: below it the two products of the
        # same terms round to different subnormals
        rng = np.random.default_rng(seed)
        data = rng.exponential(rng.uniform(0.2, 2.0), (30, 2))
        data[:3, 0] = 0.0
        data[2:5, 1] = 0.0
        theta = np.array([b1, b2, rho])
        expect = _m2_loglik(data, theta)
        assert _objective("m2", data)(theta) == pytest.approx(expect, rel=1e-12, abs=1e-10)

    def test_nesting_improves_fit(self):
        rng = np.random.default_rng(7)
        wins = 0
        for trial in range(200):
            data = np.column_stack(
                [rng.exponential(1.0, 50), rng.exponential(1.0, 50)]
            )
            m1 = fit_m1(data)
            m2 = fit_m2(data, compute_ses=False)
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
        loglik = _objective("m3", data, d_hat)
        kinds = list(fitting._MEMBERS["m3"][0].values())
        theta0 = np.array(
            [1.5, data[:, 0].mean(), 1.5, data[:, 1].mean(), 0.9, len(c1) / len(data)]
        )
        rng = np.random.default_rng(7)
        lls = []
        for _ in range(5):
            z0 = _to_free(kinds, theta0) + rng.normal(0, 0.02, 6)
            res = _fit(data, "m3", loglik, _from_free(kinds, z0), compute_ses=False, d=d_hat)
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

    def test_start_retry_from_shapes_near_one(self, monkeypatch):
        # x = 150 sits ~95 margin means out: at the start's shapes of 1.5 its
        # density underflows to 0, so the fit restarts from shapes 1.05
        rng = np.random.default_rng(3)
        data = np.column_stack([rng.weibull(2.0, 200), rng.weibull(2.0, 200)])
        data[:30] = rng.uniform(0, 0.05, (30, 2))
        data[-1, 0] = 150.0
        calls = []

        def spy(d, m):
            ll = loglik_mbw(d, m)
            calls.append((m.base.margin1.shape, m.base.margin2.shape, ll))
            return ll

        monkeypatch.setattr(fitting, "loglik_mbw", spy)
        res = fit_mbw(data, eps=0.05)
        assert calls[0] == pytest.approx((1.5, 1.5, -np.inf))
        assert calls[1] == pytest.approx((1.05, 1.05, -348.98), abs=0.01)
        assert res.converged
        assert res.loglik == pytest.approx(-250.81, abs=0.01)

    def test_json_serialization(self):
        res = fit_m1(vannman_data())
        payload = json.loads(res.to_json())
        assert payload["model"] == "m1"
        assert payload["aic"] == pytest.approx(res.aic)
        assert set(payload["estimates"]) == {"beta1", "beta2"}


def _vannman_board_21_x(value):
    # board 21, (1.23, 0.04), lies inside the d = 1.4 square: loglik_mbw
    # used to drop it silently once its x turned negative
    data = vannman_data()
    data[20, 0] = value
    return data


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
        other = fit_m2(vannman_data(), compute_ses=False)
        same = deviance_test(other, res)
        assert same["df"] == 1
        zero = deviance_test(other, other.__class__(**{**other.__dict__, "k": 2}))
        assert zero["statistic"] == pytest.approx(0.0)
        assert zero["p_value"] == pytest.approx(1.0)

    def test_deviance_m2_vs_m1(self):
        m1 = fit_m1(vannman_data())
        m2 = fit_m2(vannman_data(), compute_ses=False)
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
