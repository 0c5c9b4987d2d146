"""Special-function oracles: closed identities and dual-route agreement."""

import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sc
from scipy.special import erfc

from oracles.transforms import laplace_numeric, mittag_leffler
from tcpp import _erfcx_coef, specfun
from tcpp.errors import DomainError, GridTooCoarseError
from tcpp.quadrules import gauss_legendre
from tcpp.specfun import caputo_derivative


class TestGaussLegendre:
    def test_rules_in_use_against_the_50_digit_oracle(self):
        # the orders in use; written by tests/oracles/make_gauss_legendre.py
        oracle = json.loads((Path(__file__).parent / "oracles" / "gauss_legendre.json").read_text())
        for n, rule in oracle["rules"].items():
            x, w = gauss_legendre(int(n))
            ref_x = np.array([float(v) for v in rule["nodes"]])
            ref_w = np.array([float(v) for v in rule["weights"]])
            assert np.max(np.abs(x - ref_x)) <= 2e-16, n
            assert np.max(np.abs(w - ref_w)) <= 4e-15, n
            # the exact sum of the float weights, with no rounding of its own
            assert abs(sum(map(Fraction, w.tolist())) - 2) <= 4e-16, n
            assert not x.flags.writeable and not w.flags.writeable
            again = gauss_legendre(int(n))
            assert again[0] is x and again[1] is w


def _mp(f, x, dps=40):
    """f at each point of x, at dps digits, as floats."""
    from mpmath import mpf, workdps

    with workdps(dps):
        return np.array([float(f(mpf(float(v)))) for v in np.ravel(x)])


class TestLogGamma:
    def test_against_mpmath_and_scipy(self):
        from mpmath import loggamma

        x = np.concatenate([np.geomspace(1e-3, 1e4, 1500), np.linspace(0.5, 6.0, 2000),
                            np.arange(1.0, 2003.0)])
        want = _mp(loggamma, x, 30)
        got = specfun.log_gamma(x)
        # math.lgamma's Lanczos sum is 1.3e-15 off on 2 < x < 4.5, scipy 4.4e-16
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) <= 2e-15
        assert np.max(np.abs(got - sc.gammaln(x)) / scale) <= 2e-15

    def test_shapes(self):
        assert isinstance(specfun.log_gamma(5.0), float) and specfun.log_gamma(5.0) == math.lgamma(5.0)
        assert specfun.log_gamma(np.ones((3, 1, 2))).shape == (3, 1, 2)


class TestErrorFunctions:
    def test_erfcx_against_mpmath_and_scipy(self):
        from mpmath import erfc as mp_erfc, exp

        rng = np.random.default_rng(2)
        x = np.concatenate([[0.0, 50.0, np.nextafter(50.0, 0.0), 5e7, 1e8],
                            np.linspace(0.0, 60.0, 3000), np.geomspace(1e-10, 1e8, 2000),
                            rng.uniform(0.0, 50.0, 1000)])
        want = _mp(lambda v: exp(v * v) * mp_erfc(v), x)
        got = specfun.erfcx(x)
        assert np.max(np.abs(got - want) / want) <= 1e-15
        assert np.max(np.abs(got - sc.erfcx(x)) / want) <= 2e-15
        assert specfun.erfcx(0.0) == 1.0 and specfun.erfcx(np.inf) == 0.0
        assert np.isnan(specfun.erfcx(np.nan)) and isinstance(specfun.erfcx(1.0), float)
        assert specfun.erfcx(np.zeros((2, 0))).shape == (2, 0)

    def test_erfc_against_mpmath_and_scipy(self):
        from mpmath import erfc as mp_erfc

        x = np.concatenate([np.linspace(-6.0, 27.0, 4000), np.geomspace(1e-12, 26.0, 1000)])
        want = _mp(mp_erfc, x)
        got = specfun.erfc(x)
        normal = want > 1e-300
        assert np.max(np.abs(got - want)[normal] / want[normal]) <= 2e-15
        # scipy's erfc is 5.7e-14 off where it is small
        assert np.max(np.abs(got - sc.erfc(x))[normal] / want[normal]) <= 1e-13
        assert specfun.erfc(0.0) == 1.0 and specfun.erfc(np.inf) == 0.0
        assert specfun.erfc(-np.inf) == 2.0

    def test_ndtr_against_mpmath_and_scipy(self):
        from mpmath import ncdf

        z = np.concatenate([np.linspace(-37.0, 8.0, 4000), [0.0, -1e-300, 1e-300]])
        want = _mp(ncdf, z)
        got = specfun.ndtr(z)
        # erfcx(|z|/sqrt 2) e^{-z^2/2}: the square is split exactly from z,
        # where Phi(z) = erfc(-z/sqrt 2)/2 takes the rounding of z/sqrt 2 into
        # the exponential (scipy: 2.1e-13 here)
        assert np.max(np.abs(got - want) / want) <= 3e-15
        assert np.max(np.abs(got - sc.ndtr(z)) / want) <= 3e-13
        assert specfun.ndtr(0.0) == 0.5 and specfun.ndtr(np.inf) == 1.0

    def test_erfcx_coefficients_regenerate(self):
        from oracles.make_erfcx import FIRST, coefficients

        assert _erfcx_coef.FIRST == FIRST
        assert [list(row) for row in _erfcx_coef.COEF] == coefficients()


class TestPoissonTail:
    @pytest.mark.parametrize("k,tol", [(0, 1e-13), (1, 1e-13), (5, 1e-13), (20, 1e-13),
                                       (64, 1e-13), (300, 5e-12), (2000, 5e-12)])
    def test_against_mpmath_and_scipy(self, k, tol):
        from mpmath import gammainc

        m = np.concatenate([np.geomspace(1e-4, 3 * k + 60, 400),
                            [0.0, k + 1.0, np.nextafter(k + 1.0, 0.0), k + 1.000001]])
        want = _mp(lambda v: gammainc(k + 1, 0, v, regularized=True), m)
        got = specfun.poisson_sf(k, m)
        ref = sc.gammainc(k + 1.0, m)
        assert got[-4] == 0.0 and ref[-4] == 0.0
        normal = want > 1e-300
        assert np.max(np.abs(got - want)[normal] / want[normal]) <= tol
        assert np.max(np.abs(got - ref)[normal] / want[normal]) <= 2 * tol
        assert np.all((got >= 0.0) & (got <= 1.0))

    def test_shapes(self):
        m = np.linspace(0.1, 30.0, 12).reshape(3, 4)
        assert specfun.poisson_sf(7, m).shape == (3, 4)
        assert isinstance(specfun.poisson_sf(7, 3.0), float)
        assert specfun.poisson_sf(7, np.array([])).shape == (0,)
        # every head 0: no Horner pass, no 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert specfun.poisson_sf(0, 0.0) == 0.0
            assert specfun.poisson_sf(500, np.zeros(2)).tolist() == [0.0, 0.0]


class TestMittagLeffler:
    def test_at_zero(self):
        for beta in (0.1, 0.5, 0.9, 1.0):
            assert mittag_leffler(beta, 0.0) == 1.0

    def test_beta_one_is_exp(self):
        for z in np.linspace(-10, 2, 25):
            assert mittag_leffler(1.0, float(z)) == pytest.approx(
                math.exp(z), rel=1e-12, abs=1e-15
            )

    def test_half_erfc_identity(self):
        assert mittag_leffler(0.5, -1.0) == pytest.approx(
            math.e * erfc(1.0), rel=1e-12
        )

    @pytest.mark.parametrize("beta", [0.25, 0.4, 0.75])
    def test_series_integral_agreement(self, beta):
        from oracles.transforms import _ml_cm_integral, _ml_series

        z = -0.8 * min(5.0, 14.0 ** beta)
        series, ok = _ml_series(beta, z, 1e-10)
        integral = _ml_cm_integral(beta, -z, 1e-10)
        assert ok
        assert series == pytest.approx(integral, abs=2e-10)

    @pytest.mark.parametrize("beta", [0.25, 0.75])
    def test_defining_laplace_transform(self, beta):
        # int_0^inf e^{-st} E_beta(-t^beta) dt = s^(beta-1)/(s^beta + 1)
        for s in (0.5, 1.5):
            lt = laplace_numeric(lambda t: mittag_leffler(beta, -t ** beta), s)
            assert lt == pytest.approx(s ** (beta - 1) / (s ** beta + 1), abs=2e-9)

    def test_domain_wide_finite_monotone(self):
        for beta in (0.25, 0.5, 0.75, 0.9):
            vals = [mittag_leffler(beta, z) for z in np.linspace(-50, 0, 40)]
            assert all(np.isfinite(vals))
            assert all(np.diff(vals) > 0)  # increasing toward E(0)=1
            assert vals[-1] == 1.0

    def test_bad_beta(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, -1.0)
        with pytest.raises(DomainError):
            mittag_leffler(1.2, -1.0)


class TestCaputo:
    def _grid(self, n, T=1.0):
        h = T / n
        return h * np.arange(1, n + 1)

    def test_constant_is_zero(self):
        t = self._grid(64)
        d = caputo_derivative(np.full(t.size, 3.7), t[0], 0.5, 3.7)
        assert np.max(np.abs(d)) < 1e-14

    def test_linear_power_rule(self):
        # d^beta t / dt^beta = t^(1-beta)/Gamma(2-beta); exact for L1 on linears
        t = self._grid(256)
        d = caputo_derivative(t.copy(), t[0], 0.5, 0.0)
        exact = t ** 0.5 / math.gamma(1.5)
        assert np.max(np.abs(d - exact)) < 1e-12

    def test_power_rule_convergence_order(self):
        beta, p = 0.5, 2.3
        errs = []
        for n in (64, 128, 256, 512):
            t = self._grid(n)
            d = caputo_derivative(t ** p, t[0], beta, 0.0)
            exact = math.gamma(p + 1) / math.gamma(p + 1 - beta) * t ** (p - beta)
            errs.append(np.max(np.abs(d - exact)))
        order = np.polyfit(np.log([1 / 64, 1 / 128, 1 / 256, 1 / 512]), np.log(errs), 1)[0]
        assert order >= 1.4

    def test_mittag_leffler_eigenfunction(self):
        t = self._grid(512)
        u = np.array([mittag_leffler(0.5, -math.sqrt(x)) for x in t])
        d = caputo_derivative(u, t[0], 0.5, 1.0)
        err = np.max(np.abs(d + u)[t > 0.25])
        assert err < 5e-4

    def test_too_coarse(self):
        t = np.array([0.5, 1.0])
        with pytest.raises((GridTooCoarseError, DomainError)):
            caputo_derivative(t, 0.5, 0.5, 0.0)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 1.5])
    def test_order_outside_unit_interval(self, beta):
        t = self._grid(8)
        with pytest.raises(DomainError):
            caputo_derivative(t, t[0], beta, 0.0)


class TestLaplaceNumeric:
    def test_ig_oracle(self):
        def ig(x):
            return (
                (2 * math.pi) ** -0.5 * x ** -1.5
                * math.exp(1.0 - 0.5 * (1.0 / x + x))
            )

        assert laplace_numeric(ig, 1.0) == pytest.approx(
            math.exp(1 - math.sqrt(3)), abs=1e-10
        )

    def test_normalization_at_small_s(self):
        def expo(x):
            return math.exp(-x)

        assert laplace_numeric(expo, 1e-7) == pytest.approx(1.0, abs=1e-5)

    def test_tempered_stable_oracle(self):
        from tcpp.subordinators.densities import tempered_stable_density

        lt = laplace_numeric(
            lambda x: float(tempered_stable_density(np.array([x]), 1.0, 0.5, 1.0)[0]),
            1.0,
        )
        assert lt == pytest.approx(math.exp(-(math.sqrt(2.0) - 1.0)), abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            laplace_numeric(lambda x: math.exp(-x), 0.0)
