import math

import numpy as np
import pytest
from scipy import integrate

from mbweibull import (
    GaussianCopulaParams,
    GfgmParams,
    conditional_cdf,
    conditional_quantile,
    copula_cdf,
    copula_density,
    std_bivariate_normal_cdf,
)
from mbweibull.errors import DomainError

GFGM_SWEEP = [
    GfgmParams(rho, a=a, b=b)
    for a in (1.0, 2.0, 3.0)
    for b in (1.0, 2.0, 3.0)
    for rho in (-1.0, -0.5, 0.0, 0.5, 1.0)
]
GAUSS_SWEEP = [GaussianCopulaParams(rho) for rho in (-0.9, 0.0, 0.6, 0.9)]


class TestGfgmParams:
    @pytest.mark.parametrize("a, b", [
        (0.5, 1.0), (1.0, 0.5), (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
    ])
    def test_exponents_finite_and_at_least_one(self, a, b):
        with pytest.raises(DomainError, match="finite a >= 1 and b >= 1"):
            GfgmParams(0.5, a, b)


class TestCopulaCdf:
    def test_gfgm_hand_value(self):
        # uv + rho (uv)^b ((1-u)(1-v))^a = 0.25 + 0.5 * 0.0625
        assert copula_cdf(0.5, 0.5, GfgmParams(0.5)) == pytest.approx(0.28125, abs=1e-14)

    def test_uniform_margins(self):
        us = np.linspace(0, 1, 21)
        for c in [GfgmParams(0.7, a=2, b=2), GaussianCopulaParams(0.4)]:
            assert np.allclose(copula_cdf(us, np.ones_like(us), c), us, atol=1e-9)
            assert np.allclose(copula_cdf(np.ones_like(us), us, c), us, atol=1e-9)
            assert np.allclose(copula_cdf(us, np.zeros_like(us), c), 0.0, atol=1e-12)
            assert np.allclose(copula_cdf(np.zeros_like(us), us, c), 0.0, atol=1e-12)

    def test_gaussian_independence(self):
        assert copula_cdf(0.3, 0.7, GaussianCopulaParams(0.0)) == pytest.approx(
            0.21, abs=1e-9
        )

    def test_outside_unit_square(self):
        with pytest.raises(DomainError):
            copula_cdf(1.2, 0.5, GfgmParams(0.5))

    @pytest.mark.parametrize("c", GFGM_SWEEP + GAUSS_SWEEP)
    def test_rectangle_inequality(self, c):
        rng = np.random.default_rng(42)
        u = np.sort(rng.random((500, 2)), axis=1)
        v = np.sort(rng.random((500, 2)), axis=1)
        mass = (
            copula_cdf(u[:, 1], v[:, 1], c)
            - copula_cdf(u[:, 1], v[:, 0], c)
            - copula_cdf(u[:, 0], v[:, 1], c)
            + copula_cdf(u[:, 0], v[:, 0], c)
        )
        assert np.all(np.asarray(mass) >= -1e-12)


class TestCopulaDensity:
    def test_gfgm_center(self):
        # a=b=1 density is 1 + rho(1-2u)(1-2v): exactly 1 at the center
        assert copula_density(0.5, 0.5, GfgmParams(0.8)) == pytest.approx(1.0, abs=1e-14)

    def test_rho_zero_flat(self):
        rng = np.random.default_rng(1)
        u, v = rng.random(50), rng.random(50)
        assert np.allclose(copula_density(u, v, GfgmParams(0.0, a=3, b=2)), 1.0, atol=1e-14)

    def test_gaussian_center(self):
        # 1/sqrt(1-rho^2) at the median point
        assert copula_density(0.5, 0.5, GaussianCopulaParams(0.6)) == pytest.approx(
            1.25, abs=1e-9
        )

    @pytest.mark.parametrize("c", GFGM_SWEEP + GAUSS_SWEEP)
    def test_integrates_to_one(self, c):
        nodes, weights = np.polynomial.legendre.leggauss(220)
        u = 0.5 * (nodes + 1)
        w = 0.5 * weights
        uu, vv = np.meshgrid(u, u, indexing="ij")
        dens = copula_density(uu.ravel(), vv.ravel(), c).reshape(uu.shape)
        total = w @ dens @ w
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_matches_cdf_second_difference(self):
        h = 1e-4
        for c in [GfgmParams(0.6, a=2, b=1), GaussianCopulaParams(-0.5)]:
            for u in (0.2, 0.5, 0.8):
                for v in (0.3, 0.6):
                    num = (
                        copula_cdf(u + h, v + h, c)
                        - copula_cdf(u + h, v - h, c)
                        - copula_cdf(u - h, v + h, c)
                        + copula_cdf(u - h, v - h, c)
                    ) / (4 * h * h)
                    assert num == pytest.approx(copula_density(u, v, c), abs=1e-4)


class TestConditional:
    def test_gfgm_identity_at_half(self):
        vs = np.linspace(0.01, 0.99, 25)
        out = conditional_cdf(vs, 0.5, GfgmParams(0.9))
        assert np.allclose(out, vs, atol=1e-14)

    def test_independence(self):
        vs = np.linspace(0.0, 1.0, 11)
        for c in [GfgmParams(0.0, a=2, b=3), GaussianCopulaParams(0.0)]:
            assert np.allclose(conditional_cdf(vs, 0.3, c), vs, atol=1e-9)

    def test_gaussian_symmetry(self):
        assert conditional_cdf(0.5, 0.5, GaussianCopulaParams(0.6)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_endpoints_and_monotone(self):
        for c in [GfgmParams(-0.8, a=2, b=2), GaussianCopulaParams(0.7)]:
            assert conditional_cdf(0.0, 0.4, c) == pytest.approx(0.0, abs=1e-12)
            assert conditional_cdf(1.0, 0.4, c) == pytest.approx(1.0, abs=1e-12)
            vs = np.linspace(0.001, 0.999, 300)
            assert np.all(np.diff(conditional_cdf(vs, 0.4, c)) > -1e-14)

    def test_matches_cdf_partial(self):
        h = 1e-6
        for c in [GfgmParams(0.7, a=2, b=2), GaussianCopulaParams(0.5)]:
            for u in (0.2, 0.6, 0.9):
                for v in (0.25, 0.75):
                    num = (copula_cdf(u + h, v, c) - copula_cdf(u - h, v, c)) / (2 * h)
                    assert num == pytest.approx(conditional_cdf(v, u, c), abs=1e-6)

    def test_bad_conditioning_point(self):
        with pytest.raises(DomainError):
            conditional_cdf(0.5, 0.0, GfgmParams(0.5))


class TestConditionalQuantile:
    def test_rho_zero(self):
        for c in [GfgmParams(0.0), GaussianCopulaParams(0.0)]:
            assert conditional_quantile(0.37, 0.8, c) == pytest.approx(0.37, abs=1e-10)

    def test_gfgm_identity_at_half(self):
        assert conditional_quantile(0.37, 0.5, GfgmParams(0.9)) == pytest.approx(
            0.37, abs=1e-10
        )

    def test_gaussian_symmetry(self):
        assert conditional_quantile(0.5, 0.5, GaussianCopulaParams(0.6)) == pytest.approx(
            0.5, abs=1e-12
        )

    @pytest.mark.parametrize(
        "c",
        [
            GfgmParams(1.0),
            GfgmParams(-1.0),
            GfgmParams(0.6, a=2, b=2),
            GfgmParams(-0.9, a=3, b=1),
            GaussianCopulaParams(0.95),
            GaussianCopulaParams(-0.6),
        ],
    )
    def test_roundtrip(self, c):
        rng = np.random.default_rng(5)
        t = rng.uniform(0.001, 0.999, 400)
        u = rng.uniform(0.001, 0.999, 400)
        v = conditional_quantile(t, u, c)
        assert np.all((np.asarray(v) >= 0) & (np.asarray(v) <= 1))
        assert np.allclose(conditional_cdf(v, u, c), t, atol=1e-8)

    def test_roundtrip_other_direction(self):
        c = GfgmParams(0.8, a=2, b=2)
        v = np.linspace(0.02, 0.98, 49)
        t = conditional_cdf(v, 0.3, c)
        assert np.allclose(conditional_quantile(t, 0.3, c), v, atol=1e-8)


class TestBivariateNormalCdf:
    def test_independent_center(self):
        assert std_bivariate_normal_cdf(0, 0, 0.0) == pytest.approx(0.25, abs=1e-12)

    def test_total_mass(self):
        for rho in (-0.9, 0.3, 0.8):
            assert std_bivariate_normal_cdf(8.0, 8.0, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthant_formula(self):
        expect = 0.25 + math.asin(0.5) / (2 * math.pi)
        assert std_bivariate_normal_cdf(0, 0, 0.5) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(1 / 3, abs=1e-9)

    def test_against_quadrature(self):
        # dblquad oracle at an asymmetric point
        rho = 0.4
        z1, z2 = 1.2, -0.3

        def dens(y, x):
            det = 1 - rho * rho
            return math.exp(-(x * x - 2 * rho * x * y + y * y) / (2 * det)) / (
                2 * math.pi * math.sqrt(det)
            )

        oracle, _ = integrate.dblquad(dens, -8, z1, -8, z2, epsabs=1e-11)
        assert std_bivariate_normal_cdf(z1, z2, rho) == pytest.approx(oracle, abs=1e-7)

    def test_negative_correlation_edge(self):
        # P(Z1<=0, Z2<=0) for rho -> -1 approaches 0
        assert std_bivariate_normal_cdf(0, 0, -0.999999) < 1e-3

    def test_rho_domain(self):
        with pytest.raises(DomainError):
            std_bivariate_normal_cdf(0, 0, 1.0)
