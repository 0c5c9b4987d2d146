"""The two transform kernels of `tcpp.transforms` against 40-digit mpmath.

The oracles are mpmath alone, so the module runs with scipy blocked.
"""

import math

import numpy as np
import pytest
from mpmath import factorial, mp, mpf
from mpmath import exp as mp_exp
from mpmath import gamma as mp_gamma

from tcpp.transforms import ALIAS, coefficients, contour, invert

TIMES = [1e-3, 0.1, 1.0, 10.0]


def _mittag_leffler_of_minus_power(beta, t):
    """E_beta(-t^beta) by its Taylor series at 40 digits: the largest term at
    t = 10 is below 1e5, so 30 digits survive the cancellation."""
    with mp.workdps(40):
        z, total, n = -mpf(t) ** mpf(beta), mpf(0), 0
        while True:
            term = z ** n / mp_gamma(mpf(beta) * n + 1)
            total += term
            if n > 5 and abs(term) < mpf(10) ** -45:
                return float(total)
            n += 1


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("a", [0.5, 2.0])
def test_invert_exponential(a, t):
    value, gap = invert(lambda s: 1.0 / (s + a), t)
    assert abs(value - math.exp(-a * t)) <= 1e-10
    assert gap <= 1e-10


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("beta", [0.3, 0.7, 0.97])
def test_invert_mittag_leffler(beta, t):
    # L[E_beta(-t^beta)](s) = s^(beta-1) / (s^beta + 1): the fractional
    # relaxation, the k = 0 pmf of the fractional Poisson process at lambda 1
    value, gap = invert(lambda s: s ** (beta - 1.0) / (s ** beta + 1.0), t)
    assert abs(value - _mittag_leffler_of_minus_power(beta, t)) <= 1e-10
    assert gap <= 1e-10


def _damped_sine(s):
    # L[e^(-t/20) sin t](s): poles at -0.05 +- i, off the negative real axis
    return 1.0 / ((s + 0.05) ** 2 + 1.0)


def test_gap_flags_off_axis_poles():
    # at t = 10 the 24-node contour crosses the imaginary axis inside the
    # poles, and the gap (1.7e-7) says so
    assert invert(_damped_sine, 10.0)[1] > 1e-9


@pytest.mark.parametrize("t", [50.0, 100.0])
def test_gap_misses_off_axis_poles_the_contour_leaves_behind(t):
    # outside invert's domain the self-check is not a proof: both node counts
    # read about 0 against the true value, and agree
    value, gap = invert(_damped_sine, t)
    assert gap <= 1e-12 and abs(value) <= 1e-12
    assert abs(math.exp(-0.05 * t) * math.sin(t)) > 1e-3


@pytest.mark.parametrize("n", [256, 8004])
@pytest.mark.parametrize("c", [0.5, 20.0])
def test_coefficients_poisson(c, n):
    raw, r = coefficients(lambda u: np.exp(c * (u - 1.0)), n)
    assert raw.shape == (n // 4,)
    assert r == contour(n)[0] and r ** n == pytest.approx(1e-13, rel=1e-12)
    with mp.workdps(40):
        want = np.array([float(mp_exp(-mpf(c)) * mpf(c) ** k / factorial(k))
                         for k in range(n // 4)])
    assert np.max(np.abs(raw - want)) <= 1e-13


def test_contour_is_cached_read_only():
    r, u, scale = contour(256)
    assert contour(256)[1] is u
    assert u.size == 129 and scale.size == 64
    assert not u.flags.writeable and not scale.flags.writeable
    assert np.allclose(np.abs(u), r, rtol=1e-15, atol=0.0)
    assert ALIAS == pytest.approx(1e-13, rel=1e-12)
