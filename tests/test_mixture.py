import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbweibull import (
    BivariateWeibull,
    GfgmParams,
    MbwParams,
    RectUniform,
    WeibullParams,
    bvw_cdf,
    bvw_hazard,
    bvw_pdf,
    bvw_survival,
    mbw_cdf,
    mbw_hazard,
    mbw_pdf,
    mbw_survival,
    mixture_weight,
    rect_hazard,
    rect_survival,
)
from mbweibull.errors import DomainError
from mbweibull.mixture import (
    DEFAULT_PARAMS, _csv, hazard_grid, hazard_grid_csv, mbw_params, param_dict
)


def _mix(p=0.3, d=0.1, a1=4.0, b1=1.5, a2=3.5, b2=5.0, rho=0.6, x0=0.0, y0=0.0):
    return MbwParams(
        base=BivariateWeibull(
            WeibullParams(a1, b1), WeibullParams(a2, b2), GfgmParams(rho)
        ),
        rect=RectUniform(x0, y0, d),
        p=p,
    )


class TestPdf:
    def test_uniform_dominates(self):
        m = _mix(p=1 - 1e-12, d=0.1)
        assert mbw_pdf(0.05, 0.05, m) == pytest.approx(100.0, rel=1e-6)

    def test_outside_is_scaled_bulk(self):
        m = _mix()
        x, y = 0.9, 2.0
        assert mbw_pdf(x, y, m) == pytest.approx(m.q * bvw_pdf(x, y, m.base), rel=1e-12)

    def test_plateau_height(self):
        m = _mix(p=0.3, d=0.1)
        # p/d^2 = 30 plus a nonnegative bulk term
        val = mbw_pdf(0.05, 0.05, m)
        assert val >= 30.0
        assert val - 30.0 == pytest.approx(m.q * bvw_pdf(0.05, 0.05, m.base), rel=1e-9)

    def test_boundary_jump(self):
        m = _mix(p=0.4, d=0.5, a1=2, b1=1, a2=2, b2=1)
        eps = 1e-9
        inner = mbw_pdf(0.5 - eps, 0.3, m)
        outer = mbw_pdf(0.5 + eps, 0.3, m)
        assert inner - outer == pytest.approx(m.p / m.rect.d**2, rel=1e-6)

    def test_p_bounds(self):
        with pytest.raises(DomainError):
            _mix(p=0.0)
        with pytest.raises(DomainError):
            _mix(p=1.0)


class TestCdf:
    def test_at_origin(self):
        assert mbw_cdf(0.0, 0.0, _mix()) == 0.0

    def test_tends_to_one(self):
        m = _mix()
        assert mbw_cdf(100.0, 500.0, m) == pytest.approx(1.0, abs=1e-9)

    def test_rect_corner(self):
        m = _mix(p=0.3, d=0.1)
        expect = 0.3 + 0.7 * bvw_cdf(0.1, 0.1, m.base)
        assert mbw_cdf(0.1, 0.1, m) == pytest.approx(expect, rel=1e-12)

    def test_monotone(self):
        m = _mix(d=0.5)
        xs = np.linspace(0, 4, 100)
        vals = np.asarray(mbw_cdf(xs, xs, m))
        assert np.all(np.diff(vals) >= -1e-14)


class TestSurvival:
    def test_origin(self):
        assert mbw_survival(0.0, 0.0, _mix()) == pytest.approx(1.0, abs=1e-14)

    def test_past_rectangle(self):
        m = _mix(d=0.1)
        assert mbw_survival(0.2, 0.05, m) == pytest.approx(
            m.q * bvw_survival(0.2, 0.05, m.base), rel=1e-12
        )

    def test_inside_branch(self):
        m = _mix(p=0.3, d=0.1)
        expect = 0.3 * 0.25 + 0.7 * bvw_survival(0.05, 0.05, m.base)
        assert mbw_survival(0.05, 0.05, m) == pytest.approx(expect, rel=1e-12)

    def test_continuous_across_boundary(self):
        m = _mix(d=0.5, a1=2, b1=1, a2=2, b2=1)
        eps = 1e-10
        for y in (0.1, 0.4):
            assert mbw_survival(0.5 - eps, y, m) == pytest.approx(
                mbw_survival(0.5 + eps, y, m), abs=1e-9
            )

    def test_nonincreasing_grid(self):
        m = _mix(d=0.4, p=0.2)
        g = np.linspace(0, 3, 100)
        R = np.asarray(mbw_survival(g[:, None], g[None, :], m))
        assert np.all(np.diff(R, axis=0) <= 1e-14)
        assert np.all(np.diff(R, axis=1) <= 1e-14)


class TestHazard:
    def test_past_rectangle_p_cancels(self):
        m = _mix(d=0.1)
        x, y = 0.8, 1.4
        assert mbw_hazard(x, y, m) == pytest.approx(bvw_hazard(x, y, m.base), rel=1e-12)

    def test_origin_with_vanishing_bulk(self):
        # shape-2 margins give f2(0,0)=0 and R(0,0)=1, so h(0,0) = p/d^2
        m = _mix(p=0.3, d=0.1, a1=2, a2=2)
        assert mbw_hazard(0.0, 0.0, m) == pytest.approx(m.p / m.rect.d**2, rel=1e-12)

    def test_identity_random_points(self):
        m = _mix(d=0.5, p=0.25, a1=2.5, b1=1.2, a2=1.5, b2=0.8, rho=-0.4)
        rng = np.random.default_rng(19)
        x = np.concatenate([rng.uniform(0.01, 0.5, 500), rng.uniform(0.5, 3.0, 500)])
        y = rng.uniform(0.01, 3.0, 1000)
        h = np.asarray(mbw_hazard(x, y, m))
        f = np.asarray(mbw_pdf(x, y, m))
        R = np.asarray(mbw_survival(x, y, m))
        assert np.allclose(h * R, f, rtol=1e-10)

    def test_weighted_form(self):
        # h = w h1 + (1-w) h2 wherever the rectangle hazard is finite
        m = _mix(d=0.5, p=0.35, a1=2, b1=1.1, a2=3, b2=0.9)
        rng = np.random.default_rng(7)
        x = rng.uniform(0.01, 0.49, 200)
        y = rng.uniform(0.01, 0.49, 200)
        w = np.asarray(mixture_weight(x, y, m))
        h1 = np.asarray(rect_hazard(x, y, m.rect))
        h2 = np.asarray(bvw_hazard(x, y, m.base))
        direct = np.asarray(mbw_hazard(x, y, m))
        # the two-component weighting uses the bulk's share 1-w* where
        # w* = q R2 / R; with w = p R1 / R they sum to 1
        w2 = m.q * np.asarray(bvw_survival(x, y, m.base)) / np.asarray(
            mbw_survival(x, y, m)
        )
        assert np.allclose(w + w2, 1.0, atol=1e-12)
        assert np.allclose(w * h1 + w2 * h2, direct, rtol=1e-10)


class TestMixtureWeight:
    def test_origin(self):
        m = _mix(p=0.3)
        assert mixture_weight(0.0, 0.0, m) == pytest.approx(0.3, rel=1e-12)

    def test_past_rectangle(self):
        m = _mix(d=0.1)
        assert mixture_weight(0.15, 0.02, m) == 0.0

    def test_interior_formula(self):
        m = _mix(p=0.4, d=0.5, a1=2, a2=2)
        x, y = 0.2, 0.3
        expect = 0.4 * rect_survival(x, y, m.rect) / mbw_survival(x, y, m)
        assert mixture_weight(x, y, m) == pytest.approx(expect, rel=1e-12)
        assert 0.0 <= mixture_weight(x, y, m) <= 1.0


class TestNormalization:
    @pytest.mark.parametrize(
        "m",
        [
            _mix(),  # the simulation-study parameter set
            _mix(p=0.3, d=0.4, a1=0.9, b1=1.0, a2=0.9, b2=1.0, rho=0.5),
        ],
    )
    def test_integrates_to_one(self, m):
        nodes, weights = np.polynomial.legendre.leggauss(120)

        def cell(x0, x1, y0, y1):
            x = 0.5 * (x1 - x0) * (nodes + 1) + x0
            wx = 0.5 * (x1 - x0) * weights
            y = 0.5 * (y1 - y0) * (nodes + 1) + y0
            wy = 0.5 * (y1 - y0) * weights
            gx, gy = np.meshgrid(x, y, indexing="ij")
            f = np.asarray(mbw_pdf(gx.ravel(), gy.ravel(), m)).reshape(gx.shape)
            return wx @ f @ wy

        d = m.rect.d
        hi1 = 9 * m.base.margin1.scale
        hi2 = 9 * m.base.margin2.scale
        # split the plateau subdomain from the tails so the jump at the
        # rectangle edge does not pollute the quadrature
        total = (
            cell(0, d, 0, d)
            + cell(d, hi1, 0, d)
            + cell(0, d, d, hi2)
            + cell(d, hi1, d, hi2)
        )
        assert total == pytest.approx(1.0, abs=2e-3)


class TestHazardGrid:
    def test_shape_and_identity(self):
        m = _mix(p=0.3, d=0.4, a1=0.5, b1=1.0, a2=0.5, b2=1.0, rho=0.5)
        grid = hazard_grid(m, 0.05, 0.45, 0.05, 0.45, 0.1)
        assert grid.shape == (25, 5)
        assert np.all(grid[:, 4] > 0)
        ok = grid[:, 3] > 0
        assert np.allclose(grid[ok, 4] * grid[ok, 3], grid[ok, 2], rtol=1e-12)

    def test_row_major_order(self):
        m = _mix(d=0.5)
        grid = hazard_grid(m, 0.0, 0.2, 0.0, 0.1, 0.1)
        # y varies fastest
        assert np.allclose(grid[:2, 0], 0.0)
        assert np.allclose(grid[:2, 1], [0.0, 0.1])
        assert grid[2, 0] == pytest.approx(0.1)

    def test_degenerate_single_cell(self):
        m = _mix(d=0.5)
        grid = hazard_grid(m, 0.3, 0.3, 0.2, 0.2, 0.5)
        assert grid.shape == (1, 5)

    @pytest.mark.parametrize("spec", [
        (1.0, 0.0, 0.0, 1.0, 0.1),
        (0.0, 1.0, 0.0, 1.0, float("nan")),
        (0.0, 1.0, 0.0, 1.0, float("inf")),
        (0.0, float("inf"), 0.0, 1.0, 0.1),
        (0.0, 1.0, 0.0, float("nan"), 0.1),
        (float("-inf"), 1.0, 0.0, 1.0, 0.1),
        (0.0, 1.0, float("nan"), 1.0, 0.1),
    ], ids=["reversed", "nan-step", "inf-step", "inf-x-stop", "nan-y-stop", "-inf-x-start",
            "nan-y-start"])
    def test_bad_grid(self, spec):
        with pytest.raises(DomainError, match="invalid grid specification"):
            hazard_grid(_mix(), *spec)


def _savetxt(table, header):
    # the writer's oracle: numpy's own %.17g CSV
    buf = io.StringIO()
    np.savetxt(buf, table, fmt="%.17g", delimiter=",", header=header, comments="")
    return buf.getvalue()


_INF = float("inf")
_NAN = float("nan")
# values whose text tells a wrong writer apart: the signed zeros, which are
# equal as floats and print differently, the infinities, NaN, the extremes
# of the range and integral floats, which print without a point
_EDGES = [0.0, -0.0, _INF, -_INF, _NAN, 5e-324, -5e-324, 1e308, -1e308, 1.0, 3.0, -2.0, 0.1]
_VALUE = st.sampled_from(_EDGES) | st.floats(allow_nan=True, allow_infinity=True)
# axis columns draw from a few values, so that each one repeats
_AXIS = st.sampled_from(_EDGES[:8] + [0.25, 1e-300])


class TestCsv:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(rows=st.lists(st.tuples(_AXIS, _AXIS, _VALUE, _VALUE, _VALUE), min_size=1, max_size=40))
    @example(rows=[(0.0, -0.0, _INF, -_INF, _NAN), (-0.0, 0.0, 5e-324, 1e308, 3.0)])
    @example(rows=[(0.0, 0.0, 0.0, 1.0, 0.0)])
    def test_grid_bytes_equal_savetxt(self, rows):
        table = np.array(rows, dtype=float)
        assert hazard_grid_csv(table) == _savetxt(table, "x,y,f,R,h")

    @settings(derandomize=True, database=None, deadline=None)
    @given(rows=st.lists(st.tuples(_VALUE, _VALUE), min_size=0, max_size=40))
    @example(rows=[(0.0, -0.0), (-0.0, 0.0), (_INF, _NAN)])
    def test_two_columns_equal_savetxt(self, rows):
        # the writer of mbw simulate, which formats every value in one pass
        table = np.array(rows, dtype=float).reshape(-1, 2)
        assert _csv(table, "x,y") == _savetxt(table, "x,y")

    @pytest.mark.parametrize("values", [[], [-0.0, 0.0, _NAN], [1.0, 1.0, -2.5]])
    def test_one_dimensional_input(self, values):
        # savetxt writes a 1-D array as one column
        table = np.array(values, dtype=float)
        assert _csv(table, "x") == _savetxt(table, "x")

    def test_empty_grid(self):
        assert hazard_grid_csv(np.empty((0, 5))) == "x,y,f,R,h\n" == _savetxt(np.empty((0, 5)), "x,y,f,R,h")

    @pytest.mark.parametrize("copula", ["gfgm", "gaussian"])
    def test_criterion_7_grid(self, copula):
        # the grid mbw hazard-grid writes in acceptance criterion 7
        m = mbw_params(**dict(DEFAULT_PARAMS, copula=copula, d=0.4, p=0.3))
        grid = hazard_grid(m, 0.05, 0.75, 0.05, 0.75, 0.1)
        assert hazard_grid_csv(grid) == _savetxt(grid, "x,y,f,R,h")

    def test_benchmark_grid(self):
        # the benchmark's 159,201-node Gaussian grid: 399 x values and 399 y
        # values, each repeated 399 times
        m = mbw_params(**dict(DEFAULT_PARAMS, copula="gaussian"))
        grid = hazard_grid(m, 0.01, 2.0, 0.01, 2.0, 0.005)
        assert grid.shape == (159_201, 5)
        assert hazard_grid_csv(grid) == _savetxt(grid, "x,y,f,R,h")


class TestCodec:
    @pytest.mark.parametrize("copula", ["gfgm", "gaussian"])
    def test_roundtrip(self, copula):
        flat = dict(DEFAULT_PARAMS, copula=copula)
        m = mbw_params(**flat)
        assert param_dict(m) == flat
        assert mbw_params(**param_dict(m)) == m

    def test_unknown_copula(self):
        with pytest.raises(DomainError):
            mbw_params(**dict(DEFAULT_PARAMS, copula="clayton"))
