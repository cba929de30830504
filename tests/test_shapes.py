"""The scalar/array contract of the 20 public density functions: scalars
in, a float out; arrays in, an array of the same shape out."""

import numpy as np
import pytest

from mbweibull import (
    BivariateWeibull,
    GaussianCopulaParams,
    GfgmParams,
    MbwParams,
    RectUniform,
    WeibullParams,
    bvw_cdf,
    bvw_hazard,
    bvw_pdf,
    bvw_survival,
    conditional_cdf,
    conditional_quantile,
    copula_cdf,
    copula_density,
    mbw_cdf,
    mbw_hazard,
    mbw_pdf,
    mbw_survival,
    mixture_weight,
    rect_hazard,
    rect_pdf,
    rect_survival,
    std_bivariate_normal_cdf,
    weibull_cdf,
    weibull_pdf,
    weibull_quantile,
)


def _functions(num):
    """Each function as f(x, y, copula), fed the same kind of input for x
    and y, with model parameters of type ``num``: the optimizer passes
    numpy floats."""
    w1 = WeibullParams(num(1.5), num(1.0))
    w2 = WeibullParams(num(2.0), num(0.8))
    rect = RectUniform(num(0.0), num(0.0), num(0.5))

    def bvw(c):
        return BivariateWeibull(w1, w2, c)

    def mbw(c):
        return MbwParams(bvw(c), rect, num(0.3))

    return {
        "weibull_cdf": lambda x, y, c: weibull_cdf(x, w1),
        "weibull_pdf": lambda x, y, c: weibull_pdf(x, w1),
        "weibull_quantile": lambda x, y, c: weibull_quantile(x, w1),
        "rect_pdf": lambda x, y, c: rect_pdf(x, y, rect),
        "rect_survival": lambda x, y, c: rect_survival(x, y, rect),
        "rect_hazard": lambda x, y, c: rect_hazard(x, y, rect),
        "std_bivariate_normal_cdf": lambda x, y, c: std_bivariate_normal_cdf(x, y, c.rho),
        "copula_cdf": lambda x, y, c: copula_cdf(x, y, c),
        "copula_density": lambda x, y, c: copula_density(x, y, c),
        "conditional_cdf": lambda x, y, c: conditional_cdf(y, x, c),
        "conditional_quantile": lambda x, y, c: conditional_quantile(y, x, c),
        "bvw_cdf": lambda x, y, c: bvw_cdf(x, y, bvw(c)),
        "bvw_pdf": lambda x, y, c: bvw_pdf(x, y, bvw(c)),
        "bvw_survival": lambda x, y, c: bvw_survival(x, y, bvw(c)),
        "bvw_hazard": lambda x, y, c: bvw_hazard(x, y, bvw(c)),
        "mbw_pdf": lambda x, y, c: mbw_pdf(x, y, mbw(c)),
        "mbw_cdf": lambda x, y, c: mbw_cdf(x, y, mbw(c)),
        "mbw_survival": lambda x, y, c: mbw_survival(x, y, mbw(c)),
        "mbw_hazard": lambda x, y, c: mbw_hazard(x, y, mbw(c)),
        "mixture_weight": lambda x, y, c: mixture_weight(x, y, mbw(c)),
    }


NUMBERS = {"float": float, "float64": np.float64}
FUNCTIONS = {num: _functions(make) for num, make in NUMBERS.items()}


def _copulas(num):
    return {
        "gfgm": GfgmParams(num(0.5), num(2.0), num(3.0)),
        "gaussian": GaussianCopulaParams(num(0.6)),
    }


# input kinds built from one value; the first three are scalars
KINDS = {
    "float": lambda v: v,
    "float64": np.float64,
    "0d": np.array,
    "(1,)": lambda v: np.array([v]),
    "(1, 2)": lambda v: np.full((1, 2), v),
}
SCALAR_KINDS = ("float", "float64", "0d")


@pytest.mark.parametrize("params", NUMBERS)
@pytest.mark.parametrize("copula", ["gfgm", "gaussian"])
@pytest.mark.parametrize("name", FUNCTIONS["float"])
def test_scalars_give_a_float_and_arrays_keep_their_shape(name, copula, params):
    fn = FUNCTIONS[params][name]
    c = _copulas(NUMBERS[params])[copula]
    expected = fn(0.3, 0.4, c)
    for kind, make in KINDS.items():
        out = fn(make(0.3), make(0.4), c)
        if kind in SCALAR_KINDS:
            assert type(out) is float, kind
        else:
            assert isinstance(out, np.ndarray), kind
            assert out.shape == np.shape(make(0.3)), kind
        np.testing.assert_array_equal(out, expected, err_msg=kind)
