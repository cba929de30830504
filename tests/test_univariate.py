import math

import numpy as np
import pytest

from mbweibull import (
    RectUniform,
    WeibullParams,
    rect_hazard,
    rect_pdf,
    rect_survival,
    weibull_cdf,
    weibull_pdf,
    weibull_quantile,
)
from mbweibull.errors import DomainError, SingularityError


class TestWeibullCdf:
    def test_at_scale(self):
        # x = beta forces the exponent to 1
        assert weibull_cdf(1.5, WeibullParams(4, 1.5)) == pytest.approx(
            1 - math.exp(-1), abs=1e-12
        )

    def test_at_zero(self):
        assert weibull_cdf(0.0, WeibullParams(2.3, 0.7)) == 0.0

    def test_interior_value(self):
        # (0.75/1.5)^4 = 0.0625
        expect = -math.expm1(-0.0625)
        assert weibull_cdf(0.75, WeibullParams(4, 1.5)) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.0605869, abs=5e-7)

    def test_monotone_and_limits(self):
        p = WeibullParams(0.5, 2.0)
        xs = np.linspace(0, 40, 1000)
        vals = weibull_cdf(xs, p)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == 0.0
        # pick x so that (x / scale)^shape = 25, i.e. survival = e^-25
        far = p.scale * 25 ** (1 / p.shape)
        assert weibull_cdf(far, p) > 1 - 1e-8

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            weibull_cdf(-0.1, WeibullParams(1, 1))

    def test_bad_params_rejected(self):
        with pytest.raises(DomainError):
            WeibullParams(0.0, 1.0)
        with pytest.raises(DomainError):
            WeibullParams(1.0, -2.0)

    @pytest.mark.parametrize("shape, scale", [
        (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
    ])
    def test_nonfinite_params_rejected(self, shape, scale):
        with pytest.raises(DomainError, match="finite"):
            WeibullParams(shape, scale)


class TestWeibullPdf:
    def test_exponential_at_zero(self):
        assert weibull_pdf(0.0, WeibullParams(1, 2)) == pytest.approx(0.5, abs=1e-14)

    def test_exponential_at_scale(self):
        assert weibull_pdf(1.0, WeibullParams(1, 1)) == pytest.approx(
            math.exp(-1), abs=1e-12
        )

    def test_interior_value(self):
        # high-precision oracle for (x=1, alpha=4, beta=1.5):
        # (4/1.5)(2/3)^3 exp(-(2/3)^4) computed with mpmath to 50 digits
        assert weibull_pdf(1.0, WeibullParams(4, 1.5)) == pytest.approx(
            0.6484976263097426, abs=1e-12
        )

    def test_singularity_at_zero(self):
        with pytest.raises(SingularityError):
            weibull_pdf(0.0, WeibullParams(0.5, 1.0))
        # arrays holding a zero are rejected the same way
        with pytest.raises(SingularityError):
            weibull_pdf(np.array([0.5, 0.0]), WeibullParams(0.9, 1.0))

    def test_matches_cdf_derivative(self):
        p = WeibullParams(2.7, 1.3)
        xs = np.linspace(0.05, 5.0, 200)
        h = 1e-6
        num = (weibull_cdf(xs + h, p) - weibull_cdf(xs - h, p)) / (2 * h)
        assert np.allclose(num, weibull_pdf(xs, p), atol=1e-6)

    def test_zero_where_exponent_overflows(self):
        # (x/scale)^shape is +inf at both points; the density is 0 there, not
        # inf * 0, and the CDF is 1, both without an overflow warning
        p = WeibullParams(4, 1.5)
        assert weibull_pdf(np.inf, p) == 0.0
        assert weibull_pdf(1e100, p) == 0.0
        assert weibull_pdf(np.array([np.inf, 1e100]), p).tolist() == [0.0, 0.0]
        assert weibull_cdf(1e100, p) == 1.0


class TestWeibullQuantile:
    def test_zero(self):
        assert weibull_quantile(0.0, WeibullParams(3, 2)) == 0.0

    def test_scale_level(self):
        u = 1 - math.exp(-1)
        assert weibull_quantile(u, WeibullParams(2.5, 3.7)) == pytest.approx(3.7, rel=1e-12)

    def test_exponential_median(self):
        assert weibull_quantile(0.5, WeibullParams(1, 1)) == pytest.approx(
            math.log(2), abs=1e-14
        )

    def test_roundtrip(self):
        p = WeibullParams(1.8, 2.2)
        xs = np.linspace(0.01 * p.scale, 5 * p.scale, 97)
        back = weibull_quantile(weibull_cdf(xs, p), p)
        assert np.allclose(back, xs, rtol=1e-9)

    def test_cdf_of_quantile(self):
        p = WeibullParams(4, 1.5)
        us = np.linspace(0.001, 0.999, 51)
        assert np.allclose(weibull_cdf(weibull_quantile(us, p), p), us, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            weibull_quantile(1.0, WeibullParams(1, 1))


class TestRectUniform:
    def test_pdf_values(self):
        r = RectUniform(0, 0, 0.5)
        assert rect_pdf(0.1, 0.1, r) == 4.0
        assert rect_pdf(0.6, 0.1, r) == 0.0
        assert rect_pdf(2.0, 3.0, RectUniform(1, 2, 2)) == 0.25

    def test_pdf_integrates_exactly(self):
        r = RectUniform(0.2, 0.1, 0.7)
        assert rect_pdf(0.3, 0.3, r) * r.d**2 == pytest.approx(1.0, abs=1e-14)

    def test_survival_branches(self):
        r = RectUniform(0, 0, 1)
        assert rect_survival(0.0, 0.0, r) == 1.0
        assert rect_survival(0.5, 0.5, r) == pytest.approx(0.25)
        assert rect_survival(1.2, 0.3, r) == 0.0
        # one coordinate before the rectangle: only the other ramp is active
        r2 = RectUniform(1, 1, 2)
        assert rect_survival(0.5, 2.0, r2) == pytest.approx(0.5)

    def test_hazard_branches(self):
        r = RectUniform(0, 0, 1)
        assert rect_hazard(0.0, 0.0, r) == 1.0
        assert rect_hazard(0.5, 0.5, r) == pytest.approx(4.0)
        assert rect_hazard(2.0, 2.0, r) == np.inf
        assert rect_hazard(1.0, 0.5, r) == np.inf

    def test_hazard_branches_array(self):
        # square [1, 3] x [2, 4]: before it, inside, on the far x edge, beyond it
        r = RectUniform(1, 2, 2)
        h = rect_hazard(np.array([0.5, 1.5, 3.0, 3.5]), np.array([2.5, 2.5, 3.0, 2.5]), r)
        assert h[0] == 0.0
        assert h[1] == pytest.approx(1 / ((3 - 1.5) * (4 - 2.5)), rel=1e-12)
        assert h[2:].tolist() == [np.inf, np.inf]

    def test_hazard_times_survival_is_pdf(self):
        r = RectUniform(0.0, 0.0, 0.8)
        xs = np.linspace(0.05, 0.75, 9)
        for x in xs:
            for y in xs:
                assert rect_hazard(x, y, r) * rect_survival(x, y, r) == pytest.approx(
                    rect_pdf(x, y, r), rel=1e-12
                )

    def test_invalid_rect(self):
        with pytest.raises(DomainError):
            RectUniform(0, 0, 0.0)
        with pytest.raises(DomainError):
            RectUniform(-1, 0, 1.0)

    @pytest.mark.parametrize("x0, y0, d", [
        (0.0, 0.0, math.inf), (0.0, 0.0, math.nan), (math.inf, 0.0, 1.0),
        (0.0, math.inf, 1.0), (math.nan, 0.0, 1.0),
    ])
    def test_nonfinite_rect_rejected(self, x0, y0, d):
        with pytest.raises(DomainError, match="finite"):
            RectUniform(x0, y0, d)
