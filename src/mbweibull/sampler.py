"""Random variate generation for the bivariate Weibull and the mixture
model, with reproducible seeded streams."""

from dataclasses import dataclass

import numpy as np

from .bivariate import BivariateWeibull
from .copulas import conditional_quantile
from .mixture import MbwParams
from .univariate import weibull_quantile

__all__ = ["SeededStream", "sample_bvw", "sample_mbw"]

# uniforms are nudged into the open interval so conditional quantities stay
# in-domain; probability of hitting the clamp is ~2^-53 per draw
_EPS = 1e-15


@dataclass(frozen=True)
class SeededStream:
    """A (seed, stream) pair naming one reproducible random stream.

    Identical pairs reproduce identical sequences bit-exactly; distinct
    stream ids give statistically independent streams, so replicates can
    run in parallel without coordination.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=[int(self.seed), int(self.stream)])
        )


def _open_unit(u):
    return np.clip(u, _EPS, 1.0 - _EPS)


def sample_bvw(n: int, m: BivariateWeibull, s: SeededStream):
    """Draw n pairs from the bivariate Weibull by conditional sampling.

    Per pair: u, t ~ U(0,1) independently, v = C_u^{-1}(t), then the pair
    is (F1^{-1}(u), F2^{-1}(v)).
    """
    return _draw_bvw(n, m, s.generator())


def _draw_bvw(n: int, m: BivariateWeibull, rng: np.random.Generator):
    u = _open_unit(rng.random(n))
    t = _open_unit(rng.random(n))
    v = conditional_quantile(t, u, m.copula)
    x = weibull_quantile(u, m.margin1)
    y = weibull_quantile(v, m.margin2)
    return np.column_stack([x, y])


def sample_mbw(n: int, m: MbwParams, s: SeededStream):
    """Draw n pairs from the mixture.

    Stream layout (fixed, so sequences are stable): n uniforms decide the
    component per draw, then the uniform-component coordinates are drawn
    as one (k, 2) block, then the Weibull-component pairs as in
    ``sample_bvw``.
    """
    rng = s.generator()
    z = rng.random(n) < m.p
    out = np.empty((n, 2))
    k = int(z.sum())
    r = m.rect
    out[z] = np.array([r.x0, r.y0]) + r.d * rng.random((k, 2))
    out[~z] = _draw_bvw(n - k, m.base, rng)
    return out
