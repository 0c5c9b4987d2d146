"""Special-function oracles: closed identities and dual-route agreement."""

import math

import numpy as np
import pytest
from scipy.special import erfc, roots_legendre

from oracles.transforms import laplace_numeric, mittag_leffler
from tcpp.errors import DomainError, GridTooCoarseError, PoleError
from tcpp.quadrules import gauss_legendre
from tcpp.specfun import TimeSeries, caputo_derivative, gamma_fn


class TestGamma:
    def test_factorial_anchor(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(5.0) == 24.0

    def test_sqrt_pi(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_recurrence_oracle(self):
        # Gamma(1.5) = 0.5 * Gamma(0.5)
        assert gamma_fn(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-13)

    def test_negative_non_integer(self):
        # reflection: Gamma(-0.5) = -2 sqrt(pi)
        assert gamma_fn(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma_fn(x)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [12, 16, 96])
    def test_rule_is_scipys_bit_for_bit(self, n):
        # the orders in use; every frozen rule and table rests on these bits
        x, w = gauss_legendre(n)
        ref_x, ref_w = roots_legendre(n)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert not x.flags.writeable and not w.flags.writeable


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
        d = caputo_derivative(TimeSeries(t, np.full(t.size, 3.7)), 0.5, 3.7)
        assert np.max(np.abs(d.values)) < 1e-14

    def test_linear_power_rule(self):
        # d^beta t / dt^beta = t^(1-beta)/Gamma(2-beta); exact for L1 on linears
        t = self._grid(256)
        d = caputo_derivative(TimeSeries(t, t.copy()), 0.5, 0.0)
        exact = t ** 0.5 / math.gamma(1.5)
        assert np.max(np.abs(d.values - exact)) < 1e-12

    def test_power_rule_convergence_order(self):
        beta, p = 0.5, 2.3
        errs = []
        for n in (64, 128, 256, 512):
            t = self._grid(n)
            d = caputo_derivative(TimeSeries(t, t ** p), beta, 0.0)
            exact = math.gamma(p + 1) / math.gamma(p + 1 - beta) * t ** (p - beta)
            errs.append(np.max(np.abs(d.values - exact)))
        order = np.polyfit(np.log([1 / 64, 1 / 128, 1 / 256, 1 / 512]), np.log(errs), 1)[0]
        assert order >= 1.4

    def test_mittag_leffler_eigenfunction(self):
        t = self._grid(512)
        u = np.array([mittag_leffler(0.5, -math.sqrt(x)) for x in t])
        d = caputo_derivative(TimeSeries(t, u), 0.5, 1.0)
        err = np.max(np.abs(d.values + u)[t > 0.25])
        assert err < 5e-4

    def test_too_coarse(self):
        t = np.array([0.5, 1.0])
        with pytest.raises((GridTooCoarseError, DomainError)):
            caputo_derivative(TimeSeries(t, t), 0.5, 0.0)

    def test_needs_origin_anchor(self):
        t = np.array([1.0, 1.1, 1.2, 1.3, 1.4])
        with pytest.raises(DomainError):
            caputo_derivative(TimeSeries(t, t), 0.5, 0.0)


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
