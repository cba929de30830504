"""Recompute the Gaussian-copula tail densities and survivals pinned in
tests/test_bivariate.py (GAUSSIAN_TAIL and GAUSSIAN_TAIL_SURVIVAL), and the
normal score's second slope (GAUSSIAN_TAIL_SLOPE), with mpmath at 200
digits.

    PYTHONPATH=src python docs/gaussian_tail.py

The model is the criterion-5 truth with a Gaussian copula: margins
(4, 1.5) and (3.5, 5), rho = 0.6. The survival is the normal orthant
P(Z1 > z1, Z2 > z2) = int_z1^inf phi(t) Phibar((z2 - rho t) / s) dt with
s = sqrt(1 - rho^2). The slope at an exponent A is A dk/dA = k (1 + z k -
A), with z solving log Phibar(z) = -A and k = A Phibar(z) / phi(z). Exits
1 if a pinned value differs from its reference by more than 1e-12
relative. Needs mpmath.
"""

import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_bivariate import (  # noqa: E402
    GAUSSIAN_TAIL, GAUSSIAN_TAIL_SLOPE, GAUSSIAN_TAIL_SURVIVAL
)

mp.mp.dps = 200
MARGINS = ((4, mp.mpf(1.5)), (mp.mpf(3.5), 5))
RHO = mp.mpf(0.6)
D = 1 - RHO**2


def log_margin(t, shape, scale):
    """log f_i(t) and the normal score of F_i(t)."""
    E = (t / scale) ** shape
    z = mp.sqrt(2) * mp.erfinv(-2 * mp.expm1(-E) - 1)
    return mp.log(shape / scale) + (shape - 1) * mp.log(t / scale) - E, z


def density(z1, z2, l1, l2):
    log_c = -(RHO**2 * (z1**2 + z2**2) - 2 * RHO * z1 * z2) / (2 * D) - mp.log(D) / 2
    return mp.exp(l1 + l2 + log_c)


def survival(z1, z2, l1, l2):
    def integrand(t):
        # phi(t) Phibar((z2 - rho t) / s)
        return mp.npdf(t) * mp.erfc((z2 - RHO * t) / mp.sqrt(2 * D)) / 2

    return mp.quad(integrand, [z1, z1 + 2, z1 + 6, mp.inf])


def slope(A):
    A = mp.mpf(A)
    z = mp.findroot(lambda t: mp.log(mp.erfc(t / mp.sqrt(2)) / 2) + A,
                    mp.sqrt(2 * A - mp.log(4 * mp.pi * A)))
    k = A * mp.erfc(z / mp.sqrt(2)) / 2 / mp.npdf(z)
    return k * (1 + z * k - A)


def check(name, pinned, ref):
    err = abs(pinned / ref - 1)
    print(f"{name}: reference {mp.nstr(ref, 17)}, pinned {pinned!r}, rel {mp.nstr(err, 3)}")
    return err > 1e-12


pins = [(p, v, density) for p, v in GAUSSIAN_TAIL.items()]
pins += [(p, v, survival) for p, (v, _) in GAUSSIAN_TAIL_SURVIVAL.items()]
bad = 0
for (x, y), pinned, fn in pins:
    (l1, z1), (l2, z2) = (log_margin(mp.mpf(t), *p) for t, p in zip((x, y), MARGINS))
    bad += check(f"{fn.__name__} ({x}, {y})", pinned, fn(z1, z2, l1, l2))
for A, pinned in GAUSSIAN_TAIL_SLOPE.items():
    bad += check(f"slope (A = {A:g})", pinned, slope(A))
sys.exit(1 if bad else 0)
