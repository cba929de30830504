import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from mbweibull import (
    BivariateWeibull,
    GaussianCopulaParams,
    GfgmParams,
    WeibullParams,
    bvw_cdf,
    bvw_hazard,
    bvw_pdf,
    bvw_survival,
    weibull_cdf,
    weibull_pdf,
)
from mbweibull.bivariate import (
    _composed_pdf,
    _composed_survival,
    _gaussian_z,
    _log_density_score,
)
from mbweibull.errors import SingularityError, SurvivalUnderflowError
from mbweibull.mixture import (
    DEFAULT_PARAMS, mbw_hazard, mbw_params, mbw_pdf, mbw_survival, mixture_weight
)


_shape = st.floats(0.3, 20.0)
_scale = st.floats(0.1, 10.0)
_exponent = st.floats(1.0, 4.0)
_ratio = st.floats(1e-4, 3.0)


def _truth(copula="gfgm"):
    """The criterion-5 mixture, with the given copula family."""
    return mbw_params(**{**DEFAULT_PARAMS, "copula": copula})


# the ratios over a survival that is positive in theory, on a mixture
_RATIOS = {
    "bvw_hazard": lambda x, y, m: bvw_hazard(x, y, m.base),
    "mbw_hazard": mbw_hazard,
    "mixture_weight": mixture_weight,
}


def _model(a1=1.0, b1=1.0, a2=1.0, b2=1.0, copula=None):
    return BivariateWeibull(
        WeibullParams(a1, b1), WeibullParams(a2, b2), copula or GfgmParams(0.5)
    )


def _random_models(rng, n):
    out = []
    for _ in range(n):
        cop = GfgmParams(
            rho=rng.uniform(-1, 1),
            a=rng.uniform(1, 3),
            b=rng.uniform(1, 3),
        )
        out.append(
            _model(
                a1=rng.uniform(0.6, 4),
                b1=rng.uniform(0.5, 3),
                a2=rng.uniform(0.6, 4),
                b2=rng.uniform(0.5, 3),
                copula=cop,
            )
        )
    return out


class TestCdf:
    def test_independence_product(self):
        m = _model(a1=2, b1=1.5, a2=3, b2=0.8, copula=GfgmParams(0.0))
        val = bvw_cdf(1.5, 0.8, m)
        assert val == pytest.approx((1 - math.exp(-1)) ** 2, abs=1e-12)

    def test_gfgm_hand_value(self):
        # at (beta1, beta2) the a=b=1 closed form is (1-e^-1)^2 (1 + rho e^-2)
        m = _model(a1=2, b1=0.4, a2=1.3, b2=6.0)
        expect = (1 - math.exp(-1)) ** 2 * (1 + 0.5 * math.exp(-2))
        assert bvw_cdf(0.4, 6.0, m) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.4266146, abs=5e-7)

    def test_grounded(self):
        m = _model()
        assert bvw_cdf(0.0, 3.0, m) == 0.0
        assert bvw_cdf(3.0, 0.0, m) == 0.0

    def test_margins_recovered(self):
        for cop in [GfgmParams(0.8, a=2, b=2), GaussianCopulaParams(-0.6)]:
            m = _model(a1=2.5, b1=1.2, a2=1.4, b2=0.9, copula=cop)
            far = 50 * max(m.margin1.scale, m.margin2.scale)
            xs = np.linspace(0.05, 4.0, 50)
            joint = np.asarray(bvw_cdf(xs, np.full_like(xs, far), m))
            assert np.allclose(joint, weibull_cdf(xs, m.margin1), atol=1e-10)
            joint = np.asarray(bvw_cdf(np.full_like(xs, far), xs, m))
            assert np.allclose(joint, weibull_cdf(xs, m.margin2), atol=1e-10)

    def test_componentwise_monotone(self):
        m = _model(a1=2, b1=1, a2=2, b2=1, copula=GfgmParams(-1.0))
        xs = np.linspace(0, 4, 80)
        for y in (0.3, 1.0, 2.5):
            vals = np.asarray(bvw_cdf(xs, np.full_like(xs, y), m))
            assert np.all(np.diff(vals) >= -1e-14)


class TestPdf:
    def test_independence_product(self):
        m = _model(a1=2, b1=1.5, a2=3, b2=0.8, copula=GfgmParams(0.0))
        x, y = 0.7, 1.1
        expect = weibull_pdf(x, m.margin1) * weibull_pdf(y, m.margin2)
        assert bvw_pdf(x, y, m) == pytest.approx(expect, rel=1e-12)

    def test_fgm_hand_value(self):
        # unit exponential margins at (1,1): e^-2 (1 + rho (2e^-1 - 1)^2),
        # an independent derivation route from the implementation's D form
        m = _model()
        expect = math.exp(-2) * (1 + 0.5 * (2 * math.exp(-1) - 1) ** 2)
        assert bvw_pdf(1.0, 1.0, m) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.14006007, abs=5e-8)

    def test_matches_cdf_second_difference(self):
        m = _model(a1=2.2, b1=1.1, a2=1.7, b2=0.9, copula=GfgmParams(0.7, a=2, b=2))
        h = 1e-4
        num = (
            bvw_cdf(1.0 + h, 1.0 + h, m)
            - bvw_cdf(1.0 + h, 1.0 - h, m)
            - bvw_cdf(1.0 - h, 1.0 + h, m)
            + bvw_cdf(1.0 - h, 1.0 - h, m)
        ) / (4 * h * h)
        assert num == pytest.approx(bvw_pdf(1.0, 1.0, m), abs=1e-5)

    def test_closed_form_equals_composition(self):
        # the dual-route invariant that audits the closed-form algebra
        rng = np.random.default_rng(11)
        for m in _random_models(rng, 20):
            x = rng.uniform(0.05, 4.0, 50)
            y = rng.uniform(0.05, 4.0, 50)
            closed = np.asarray(bvw_pdf(x, y, m))
            composed = np.asarray(_composed_pdf(x, y, m))
            assert np.allclose(closed, composed, rtol=1e-10, atol=1e-12)

    def test_singularity(self):
        m = _model(a1=0.7)
        with pytest.raises(SingularityError):
            bvw_pdf(0.0, 1.0, m)

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.9])
    @pytest.mark.parametrize("family", ["gfgm", "gaussian"])
    def test_normalization(self, alpha, rho, family):
        cop = GfgmParams(rho) if family == "gfgm" else GaussianCopulaParams(rho)
        m = _model(a1=alpha, b1=1.0, a2=alpha, b2=2.0, copula=cop)
        # substitute t = (x / beta)^alpha per axis: the marginal factor of
        # the integrand becomes e^-t, which tames both the heavy tail and
        # the alpha < 1 endpoint singularity
        nodes, weights = np.polynomial.legendre.leggauss(160)
        t = 0.5 * 40.0 * (nodes + 1)
        wt = 0.5 * 40.0 * weights

        def pulled_back(margin):
            x = margin.scale * t ** (1.0 / margin.shape)
            jac = margin.scale / margin.shape * t ** (1.0 / margin.shape - 1.0)
            return x, wt * jac

        x, wx = pulled_back(m.margin1)
        y, wy = pulled_back(m.margin2)
        gx, gy = np.meshgrid(x, y, indexing="ij")
        dens = np.asarray(bvw_pdf(gx.ravel(), gy.ravel(), m)).reshape(gx.shape)
        total = wx @ dens @ wy
        assert total == pytest.approx(1.0, abs=1e-3)


# bvw_pdf of the criterion-5 truth with a Gaussian copula where a margin's
# survival e^-A is tiny (A = 41, 51, 123), computed with mpmath at 200
# digits by docs/gaussian_tail.py
GAUSSIAN_TAIL = {
    (3.8, 8.5): 3.6870292683556374e-19,
    (4.0, 9.0): 1.8518609948122733e-23,
    (5.0, 12.0): 4.447494056816662e-56,
}

# coordinates from the origin to infinity, zero and subnormal-range
# exponents included
_COORDS = np.array([0.0, 1e-300, 1e-10, 0.01, 0.5, 1.0, 3.0, 10.0, 1e3, 1e100, np.inf])


class TestLogSpaceDensity:
    @pytest.mark.parametrize("point", list(GAUSSIAN_TAIL), ids=str)
    def test_gaussian_upper_tail(self, point):
        # u = 1 - e^-A rounds to 1 here; the normal score comes from e^-A
        assert bvw_pdf(*point, _truth("gaussian").base) == pytest.approx(
            GAUSSIAN_TAIL[point], rel=1e-10, abs=0)

    # a fixed example sequence and no example database keep the suite
    # deterministic
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        a1=st.floats(0.3, 1000.0), b1=st.floats(0.01, 100.0),
        a2=st.floats(0.3, 1000.0), b2=st.floats(0.01, 100.0),
        rho=st.floats(-1.0, 1.0), gaussian=st.booleans(),
        a=_exponent, b=_exponent,
    )
    # the margins' product overflows where the copula density underflows
    @example(a1=0.4175, b1=0.1919, a2=0.5298, b2=0.2017, rho=-0.744469,
             gaussian=True, a=1.0, b=1.0)
    # 1 + rho g(A) g(B) at rho = -1 and A = B = 0, where (a+b) - a rounds
    # above b
    @example(a1=170.5164452460386, b1=0.1520848371820683, a2=20.34056169655595,
             b2=0.09196433021797147, rho=-1.0, gaussian=False, a=3.1344771605379953, b=1.0)
    def test_never_nan_nor_negative(self, a1, b1, a2, b2, rho, gaussian, a, b):
        if gaussian:
            c = GaussianCopulaParams(np.clip(rho, -1 + 1e-6, 1 - 1e-6))
        else:
            c = GfgmParams(rho, a, b)
        m = _model(a1, b1, a2, b2, c)
        # a zero coordinate with a shape below 1 raises SingularityError
        x, y = np.meshgrid(_COORDS[a1 < 1:], _COORDS[a2 < 1:])
        f = np.asarray(bvw_pdf(x.ravel(), y.ravel(), m))
        assert not np.any(np.isnan(f))
        assert np.all(f >= 0)


class TestSurvival:
    def test_at_origin(self):
        assert bvw_survival(0.0, 0.0, _model()) == pytest.approx(1.0, abs=1e-14)

    def test_fgm_hand_value(self):
        m = _model()
        expect = math.exp(-2) * (1 + 0.5 * (1 - math.exp(-1)) ** 2)
        assert bvw_survival(1.0, 1.0, m) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.16237368, abs=5e-8)

    def test_independence_product(self):
        m = _model(a1=2, b1=1.5, a2=1.2, b2=0.8, copula=GfgmParams(0.0))
        x, y = 0.9, 0.4
        A = (x / 1.5) ** 2
        B = (y / 0.8) ** 1.2
        assert bvw_survival(x, y, m) == pytest.approx(math.exp(-A - B), rel=1e-12)

    def test_closed_form_equals_generic(self):
        rng = np.random.default_rng(23)
        for m in _random_models(rng, 20):
            x = rng.uniform(0.0, 4.0, 50)
            y = rng.uniform(0.0, 4.0, 50)
            closed = np.asarray(bvw_survival(x, y, m))
            generic = np.asarray(_composed_survival(x, y, m))
            assert np.allclose(closed, generic, atol=1e-12)

    def test_nonincreasing(self):
        m = _model(a1=3, b1=1, a2=0.8, b2=2, copula=GfgmParams(-0.7, a=2, b=1))
        xs = np.linspace(0, 5, 60)
        for y in (0.2, 1.0):
            vals = np.asarray(bvw_survival(xs, np.full_like(xs, y), m))
            assert np.all(np.diff(vals) <= 1e-14)


class TestHazard:
    def test_exponential_constant(self):
        m = _model(copula=GfgmParams(0.0))
        for x, y in [(0.3, 0.9), (1.5, 2.0), (0.01, 3.0)]:
            assert bvw_hazard(x, y, m) == pytest.approx(1.0, rel=1e-12)

    def test_at_origin(self):
        # exponential margins: f(0,0)/R(0,0) = (1+rho)/(beta1 beta2)
        m = _model(b1=2.0, b2=0.5, copula=GfgmParams(0.3))
        assert bvw_hazard(0.0, 0.0, m) == pytest.approx(1.3 / (2.0 * 0.5), rel=1e-12)

    def test_identity(self):
        rng = np.random.default_rng(3)
        for m in _random_models(rng, 10):
            x = rng.uniform(0.05, 3.0, 100)
            y = rng.uniform(0.05, 3.0, 100)
            h = np.asarray(bvw_hazard(x, y, m))
            f = np.asarray(bvw_pdf(x, y, m))
            R = np.asarray(bvw_survival(x, y, m))
            assert np.allclose(h * R, f, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("ratio", _RATIOS.values(), ids=list(_RATIOS))
    def test_underflow_reported(self, ratio):
        with pytest.raises(SurvivalUnderflowError):
            ratio(50.0, 50.0, _truth())


class TestInfiniteExponent:
    """Where either (x/beta1)^alpha1 or (y/beta2)^alpha2 is +inf, f and R
    are 0, not NaN and not the rounding of 1 - u, and without a warning;
    the hazards then report the underflow."""

    @pytest.mark.parametrize(
        "point", [(np.inf, 1.0), (1e100, 1.0), (1.0, np.inf), (1.0, 1e100)],
        ids=["inf", "1e100", "y-inf", "y-1e100"],
    )
    @pytest.mark.parametrize("copula", ["gfgm", "gaussian"])
    @pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
    def test_density_and_survival_vanish(self, point, copula, array):
        m = _truth(copula)
        x, y = (np.array([v, v]) for v in point) if array else point
        for value in (bvw_pdf(x, y, m.base), bvw_survival(x, y, m.base),
                      mbw_pdf(x, y, m), mbw_survival(x, y, m)):
            assert np.all(np.asarray(value) == 0.0)
        for ratio in _RATIOS.values():
            with pytest.raises(SurvivalUnderflowError):
                ratio(x, y, m)


class TestGfgmClosedFormProperty:
    # a fixed example sequence and no example database keep the suite
    # deterministic; half the examples are Gaussian
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        a1=_shape, b1=_scale, a2=_shape, b2=_scale,
        a=_exponent, b=_exponent, rho=st.floats(-1.0, 1.0), s=_ratio, t=_ratio,
        gaussian=st.booleans(),
    )
    def test_closed_form_equals_composition(self, a1, b1, a2, b2, a, b, rho, s, t, gaussian):
        if gaussian:
            # the Gaussian composition's u = 1 - e^-A keeps its digits only
            # for moderate A, so the points have A, B <= 10
            m = _model(a1, b1, a2, b2, GaussianCopulaParams(0.999 * rho))
            x, y = b1 * min(s, 10 ** (1 / a1)), b2 * min(t, 10 ** (1 / a2))
            assert bvw_pdf(x, y, m) == pytest.approx(_composed_pdf(x, y, m), rel=1e-9, abs=0)
            return
        m = _model(a1, b1, a2, b2, GfgmParams(rho, a, b))
        x, y = s * b1, t * b2
        for fn, composed_fn in ((bvw_pdf, _composed_pdf), (bvw_survival, _composed_survival)):
            closed = fn(x, y, m)
            composed = composed_fn(x, y, m)
            assert closed == pytest.approx(composed, rel=1e-8, abs=1e-12)


class TestLogDensityScore:
    @settings(derandomize=True, database=None, deadline=None)
    @given(
        a1=st.floats(0.5, 5.0), b1=_scale, a2=st.floats(0.5, 5.0), b2=_scale,
        a=_exponent, b=_exponent, rho=st.floats(-0.9, 0.9), gaussian=st.booleans(),
        levels=st.lists(st.floats(1e-3, 0.999), min_size=4, max_size=4),
    )
    def test_score_is_the_gradient_of_the_log_density(self, a1, b1, a2, b2, a, b, rho,
                                                      gaussian, levels):
        # GFGM for any exponents a, b >= 1, and the Gaussian copula, at
        # points between the margins' 0.001 and 0.999 quantiles
        def model(theta):
            c = GaussianCopulaParams(theta[4]) if gaussian else GfgmParams(theta[4], a, b)
            return _model(*theta[:4], copula=c)

        theta = np.array([a1, b1, a2, b2, rho])
        q = np.array(levels)
        x = b1 * (-np.log1p(-q)) ** (1 / a1)
        y = b2 * (-np.log1p(-q[::-1])) ** (1 / a2)
        logf, S = _log_density_score(x, y, model(theta))
        np.testing.assert_allclose(
            logf, np.log(_composed_pdf(x, y, model(theta))), rtol=1e-9, atol=1e-9)
        for i in range(5):
            step = np.zeros(5)
            step[i] = 1e-6 * max(abs(theta[i]), 1.0)
            fd = (_log_density_score(x, y, model(theta + step))[0]
                  - _log_density_score(x, y, model(theta - step))[0]) / (2 * step[i])
            tol = 1e-6 * max(np.abs(S[:, i]).max(), 1.0)
            np.testing.assert_allclose(S[:, i], fd, rtol=0, atol=tol)

    def test_gaussian_z_takes_one_ndtri_per_row(self):
        # bit for bit the two-branch form, which took ndtri of both tails
        log2 = np.log(2.0)
        A = np.concatenate([
            np.exp(np.linspace(-40.0, 6.0, 200_000)),
            [log2, np.nextafter(log2, 0.0), np.nextafter(log2, np.inf),
             1e-300, 700.0, 745.0, 746.0],
        ])
        with np.errstate(all="ignore"):
            z_two = np.where(A < log2, ndtri(-np.expm1(-A)), -ndtri(np.exp(-A)))
            k_two = np.exp(np.log(A) - A + 0.5 * z_two * z_two + 0.5 * np.log(2 * np.pi))
            z, k = _gaussian_z(A)
        assert np.array_equal(z.view(np.int64), z_two.view(np.int64))
        assert np.array_equal(k.view(np.int64), k_two.view(np.int64))
