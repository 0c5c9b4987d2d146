"""The two transform kernels: series coefficients on a circle, and Laplace
inversion on the fixed Talbot contour.

`coefficients(G, n)` reads the first n/4 power-series coefficients of G from
its values on the circle |u| = r = 10^(-13/n) (Abate & Whitt 1992).  The
count route of a Levy clock calls it on the generating function
G(u) = E u^{N(X(t))} = exp(-t phi(lam (1 - u))) (`timechange._pgf_table`).

`invert(F, t)` returns f(t) from its Laplace transform F by the fixed Talbot
contour of Abate & Valko (2004) at 32 nodes, with its distance to the 24-node
value as a self-check (`timechange.fractional_poisson_pmf`).

Neither takes a node count, radius or digits argument: each caller's
accuracy rests on the one contour.
"""

import math
from functools import lru_cache

import numpy as np

# the aliasing bound r^n / (1 - r^n) of `coefficients` on coefficients in
# [0, 1]: r^n = 1e-13 on every circle of `contour`
ALIAS = 1e-13 / (1.0 - 1e-13)


@lru_cache(maxsize=16)
def contour(n: int):
    """(r, u, scale) of the n-point circle, built once per n and returned
    read-only: r = 10^(-13/n), the half circle u_j = r e^{2 pi i j/n},
    j <= n/2, and scale_k = n r^k for k < n/4."""
    r = 10.0 ** (-13 / n)
    u = r * np.exp(2j * math.pi * np.arange(n // 2 + 1) / n)
    scale = n * r ** np.arange(n // 4)
    u.flags.writeable = scale.flags.writeable = False
    return r, u, scale


def coefficients(G, n: int):
    """(c_k for k < n/4, the radius r) of G(u) = sum_k c_k u^k, from G on the
    half circle u of `contour(n)`.

    G takes that complex array and returns G there; its coefficients must be
    real, so G is Hermitian around the circle and half of it gives the real
    transform.  FFT(G)[k] / (n r^k) is c_k plus the aliased
    sum_{m >= 1} c_{k+mn} r^{mn}, at most ALIAS = 1e-13 when every c_j lies
    in [0, 1] (a pmf).  Rounding is amplified by r^-k <= 10^(13/4): a pmf's
    far coefficients carry absolute noise near 1e-14, enough for mass but
    not for k^2-weighted sums: G(u) = exp(c (u - 1)), c in {0.5, 20}, gives
    the Poisson(c) pmf within 1.1e-14 at n = 256 and 5.3e-14 at n = 8004.
    """
    r, u, scale = contour(n)
    return np.fft.hfft(G(u), n)[: n // 4] / scale, r


def invert(F, t: float):
    """(f(t), gap) from the Laplace transform F of f, t > 0: f(t) by fixed
    Talbot at 32 nodes, and gap = |f_32 - f_24|, its distance to the 24-node
    value.

    F takes a complex number and a complex array.  The domain is a transform
    whose singularities lie on (-inf, 0], as for every transform built from
    the complete Bernstein exponents of this package's clocks (s^beta,
    (s + mu)^beta - mu^beta, the IG exponent and their compositions): there
    the contour encloses them all.  1/(s + a), a in {0.5, 2}, and
    s^(beta-1)/(s^beta + 1), beta in {0.3, 0.7, 0.97}, read within 1.4e-11
    of e^(-at) and of a 40-digit Mittag-Leffler series at t in {1e-3, 0.1,
    1, 10}, with gaps <= 1.3e-11.  Off that domain the gap is a check, not a
    proof: 1/((s + 0.05)^2 + 1), with poles at -0.05 +- i, has a gap of
    1.7e-7 at t = 10, but at t = 50 and 100 both node counts read about
    2e-13 against -0.0215 and -0.0034, with a gap near 1e-13, as neither
    contour reaches the poles.
    """
    coarse, fine = (_trapezoid(F, t, m) for m in (24, 32))
    return fine, abs(fine - coarse)


def _trapezoid(F, t: float, m: int) -> float:
    """The m-point trapezoid sum of Abate & Valko's contour
    s(theta) = r theta (cot theta + i), r = 2m/(5t), at theta_j = j pi/m (the
    j = 0 point taken at its limit s = r)."""
    theta = np.arange(1, m) * math.pi / m
    cot = 1.0 / np.tan(theta)
    r = 2.0 * m / (5.0 * t)
    s = r * theta * (cot + 1j)
    sigma = theta + (theta * cot - 1.0) * cot
    ends = 0.5 * math.exp(r * t) * F(complex(r)).real
    return r / m * (ends + float(np.sum((np.exp(t * s) * F(s) * (1.0 + 1j * sigma)).real)))
