"""Density evaluators: closed forms, transform identities, duality."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from tcpp.errors import ConvergenceError, DivergenceError, DomainError, NoDensityError
from tcpp.quadrules import gauss_panels, linear_panel_edges
from tcpp.specfun import laplace_numeric
from tcpp.subordinators.densities import (
    _inverse_tempered_tilt,
    _tempered_partial_moments,
    hitting_time_cdf_ig,
    hitting_time_density_ig,
    ig_cdf,
    ig_density,
    inverse_stable_cdf,
    inverse_stable_density,
    inverse_tempered_cdf,
    inverse_tempered_density,
    stable_cdf,
    stable_density,
    stable_moment,
    tempered_half_as_ig,
    tempered_stable_cdf,
    tempered_stable_density,
)
from tcpp.subordinators.spec import (
    Composition,
    InverseGaussian,
    InverseOf,
    Stable,
    TAIL_LOG,
    TemperedStable,
    flatten_stable_composition,
    spec_from_json,
)
from tcpp.subordinators.stable import stable_unit


class TestSpecTypes:
    def test_json_round_trip(self):
        spec = InverseOf(Composition((Stable(0.5), TemperedStable(0.25, 2.0))))
        again = spec_from_json(spec.to_json())
        assert again == spec

    def test_wire_format(self):
        d = json.loads(InverseGaussian(1.0, 0.5).to_json())
        assert d == {"type": "ig", "delta": 1.0, "gamma": 0.5}

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            Stable(1.0)
        with pytest.raises(DomainError):
            TemperedStable(0.5, 0.0)
        with pytest.raises(DomainError):
            InverseGaussian(0.0, 1.0)

    def test_composition_constraints(self):
        with pytest.raises(DomainError):
            Composition(())
        with pytest.raises(DomainError):
            Composition((InverseOf(Stable(0.5)),))
        with pytest.raises(DomainError):
            InverseOf(InverseOf(Stable(0.5)))

    def test_flatten_composition_index(self):
        spec = Composition((Stable(0.5), Stable(0.5), Stable(0.5)))
        assert flatten_stable_composition(spec) == pytest.approx(0.125)
        assert flatten_stable_composition(InverseGaussian(1, 1)) is None


class TestLaplaceExponent:
    """phi(s) against the analytic exponents of criterion 08, real and complex s."""

    S_GRID = [0.5, 1.0, 2.0, 0.5 + 1.0j, 1.0 - 2.0j, 3.0 + 0.25j]

    @pytest.mark.parametrize("spec,want", [
        (InverseGaussian(1.0, 1.0), lambda s: np.sqrt(1 + 2 * s) - 1),
        (InverseGaussian(1.0, 0.0), lambda s: np.sqrt(2 * s)),
        (Stable(0.25), lambda s: s ** 0.25),
        (Stable(0.5), lambda s: s ** 0.5),
        (Stable(0.7), lambda s: s ** 0.7),
        (TemperedStable(0.5, 1.0), lambda s: (s + 1) ** 0.5 - 1),
        (Composition((Stable(0.5), Stable(0.5))), lambda s: s ** 0.25),
    ], ids=["ig", "ig-gamma0", "stable0.25", "stable0.5", "stable0.7", "tempered",
            "stable0.5^2"])
    def test_matches_analytic(self, spec, want):
        s = np.array(self.S_GRID)
        assert np.max(np.abs(spec.phi(s) - want(s))) <= 1e-14
        assert np.all(spec.phi(s).real > 0)

    @pytest.mark.parametrize("spec", [
        InverseGaussian(1.0, 1.0), Stable(0.5), TemperedStable(0.3, 1.0),
        Composition((Stable(0.5), Stable(0.5))),
    ], ids=["ig", "stable", "tempered", "stable0.5^2"])
    def test_density_transform_at_complex_s(self, spec):
        # int e^{-s x} f(x, 1) dx on the frozen quadrature rule equals e^{-phi(s)}
        from tcpp.timechange import mixture_rule

        rule = mixture_rule(spec, 1.0, 1.0, 1.0, 64)
        x, wd = rule.law.weighted(rule, 1.0)
        for s in self.S_GRID:
            assert abs(np.sum(wd * np.exp(-s * x)) - np.exp(-spec.phi(s))) <= 1e-12

    def test_composition_chains_outermost_first(self):
        ig, tem = InverseGaussian(1.0, 1.0), TemperedStable(0.4, 1.0)
        s = np.array(self.S_GRID)
        assert np.array_equal(Composition((ig, tem)).phi(s), tem.phi(ig.phi(s)))
        assert np.max(np.abs(Composition((ig, tem)).phi(s)
                             - Composition((tem, ig)).phi(s))) > 1e-2

    @pytest.mark.parametrize("spec,rate", [
        (InverseGaussian(2.0, 0.5), 4.0),
        (TemperedStable(0.3, 2.0), 0.3 * 2.0 ** -0.7),
        (Composition((InverseGaussian(1.0, 1.0), TemperedStable(0.4, 1.0))), 0.4),
        (InverseGaussian(1.0, 0.0), math.inf),
        (Stable(0.9), math.inf),
        (Composition((TemperedStable(0.4, 1.0), Stable(0.5))), math.inf),
    ], ids=["ig", "tempered", "ig-tempered", "ig-gamma0", "stable", "tempered-stable"])
    def test_mean_rate_is_phi_slope_at_zero(self, spec, rate):
        assert spec.mean_rate() == pytest.approx(rate, rel=1e-15)
        h = 1e-7
        slope, coarse = spec.phi(h).real / h, spec.phi(100.0 * h).real / (100.0 * h)
        if math.isinf(rate):  # phi(h)/h grows at least like h^(beta - 1), beta <= 0.9
            assert slope > 1.5 * coarse
        else:
            assert slope == pytest.approx(rate, rel=1e-6)

    def test_ig_gamma_zero_exponent_at_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert InverseGaussian(1.0, 0.0).phi(0.0) == 0.0
            assert InverseGaussian(2.5, 0.0).phi(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_inverse_clock_has_no_mean_rate(self):
        assert InverseOf(InverseGaussian(1.0, 1.0)).mean_rate() is None

    def test_inverse_clock_has_no_exponent(self):
        with pytest.raises(NoDensityError):
            InverseOf(Stable(0.5)).phi(1.0)


class TestIGDensity:
    def test_vanishes_at_ends(self):
        assert ig_density(np.array([1e-8]), 1.0, 1.0, 1.0)[0] == 0.0
        assert ig_density(np.array([1e8]), 1.0, 1.0, 1.0)[0] == 0.0

    def test_normalization(self):
        val = quad(lambda x: float(ig_density(x, 1.0, 1.0, 1.0)), 0, np.inf, limit=300)[0]
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_laplace_oracle(self):
        lt = laplace_numeric(lambda x: float(ig_density(x, 1.0, 1.0, 1.0)), 1.0)
        assert lt == pytest.approx(math.exp(1 - math.sqrt(3)), abs=1e-9)

    def test_cdf_matches_quadrature(self):
        for u in (0.3, 1.0, 3.0):
            direct = quad(lambda x: float(ig_density(x, 1.0, 1.0, 1.0)), 0, u)[0]
            assert float(ig_cdf(np.array([u]), 1.0, 1.0, 1.0)[0]) == pytest.approx(
                direct, abs=1e-10
            )

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 1e3, 1e6, 1e8])
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    def test_against_mpmath_at_large_gamma(self, gamma, t):
        # at the mode, where delta gamma t - ((delta t)^2/x + gamma^2 x)/2 is a
        # difference of terms near 1e8 at gamma = 1e8; a wide law also at 1/5
        # and 5 times the mode (off the mode of a narrow one, one rounding of x
        # moves the density by more than 1e-12)
        from mpmath import mp, workdps

        dt = 1.0 * t
        mode = dt / (math.sqrt(gamma * gamma + 2.25 / dt / dt) + 1.5 / dt)
        xs = mode * (np.array([0.2, 1.0, 5.0]) if gamma * dt < 10.0 else np.ones(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ig_density(xs, t, 1.0, gamma)
        with workdps(60):
            for x, g in zip(xs, got):
                x = mp.mpf(x)
                want = dt / mp.sqrt(2 * mp.pi * x ** 3) * mp.exp(-(dt - gamma * x) ** 2 / (2 * x))
                assert float(abs(g - want) / want) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            ig_density(np.array([-1.0]), 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            ig_density(np.array([1.0]), 0.0, 1.0, 1.0)


class TestStableDensity:
    def test_half_closed_form(self):
        x = np.array([0.3, 1.0, 5.0])
        t = 1.7
        closed = t / (2 * math.sqrt(math.pi)) * x ** -1.5 * np.exp(-t * t / (4 * x))
        assert np.max(np.abs(stable_density(x, t, 0.5) - closed)) < 1e-12

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.7])
    def test_laplace_exponent(self, beta):
        for s in (0.5, 1.0, 2.0):
            lt = laplace_numeric(
                lambda x: float(stable_density(np.array([x]), 1.0, beta)[0]), s
            )
            assert lt == pytest.approx(math.exp(-(s ** beta)), abs=1e-8)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.7])
    def test_normalization(self, beta):
        val = quad(
            lambda x: float(stable_density(np.array([x]), 1.0, beta)[0]),
            0, np.inf, limit=400,
        )[0]
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_large_x_asymptotic(self):
        # leading term beta/(Gamma(1-beta) x^(1+beta)); the relative gap is the
        # second series term ~ c x^(-beta), about 5% at x=50 for beta=0.7
        beta = 0.7
        lead = lambda x: beta / (math.gamma(1 - beta) * x ** (1 + beta))
        f50 = float(stable_density(np.array([50.0]), 1.0, beta)[0])
        assert abs(f50 / lead(50.0) - 1.0) < 0.06
        f200 = float(stable_density(np.array([200.0]), 1.0, beta)[0])
        assert abs(f200 / lead(200.0) - 1.0) < 0.02

    def test_small_x_asymptotic(self):
        # stretched-exponential form is exact for beta = 1/2
        f = float(stable_density(np.array([0.01]), 1.0, 0.5)[0])
        closed = 0.5 / math.sqrt(math.pi) * 0.01 ** -1.5 * math.exp(-25.0)
        assert f == pytest.approx(closed, rel=1e-10)

    def test_cdf_consistency(self):
        for beta in (0.25, 0.7):
            for x in (0.5, 2.0, 20.0):
                direct = quad(
                    lambda u: float(stable_density(np.array([u]), 1.0, beta)[0]),
                    0, x, limit=400,
                )[0]
                assert float(stable_cdf(np.array([x]), 1.0, beta)[0]) == pytest.approx(
                    direct, abs=1e-8
                )

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.7])
    def test_cdf_at_tiny_t_is_one(self, beta):
        # t^(-1/beta) overflows at t = 1e-40: x t^(-1/beta) is inf, and the cdf 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert float(stable_cdf(1.0, 1e-40, beta)[0]) == 1.0

    @staticmethod
    def _lead(x, t, beta):
        # the leading right-tail term beta t x^(-1-beta) / Gamma(1-beta)
        return beta * t * np.asarray(x, dtype=float) ** (-1.0 - beta) / math.gamma(1.0 - beta)

    @pytest.mark.parametrize("beta,t", [(0.1, 1e-40), (0.5, 1e-160), (0.7, 1e-250)])
    def test_density_at_tiny_t_is_the_leading_tail_term(self, beta, t):
        # t^(-1/beta) overflows, so x t^(-1/beta) is far out in D(1)'s right
        # tail: the density is its leading term (9.36e-42 at beta = 0.1,
        # 2.82e-161 at 1/2, 2.34e-251 at 0.7, x = 1), for the tempered law
        # times e^(-mu x + mu^beta t)
        x = np.array([0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stable_density(x, t, beta)
            one = float(stable_density(1.0, t, beta)[0])
            tempered = float(tempered_stable_density(1.0, t, beta, 1.0)[0])
        assert np.allclose(got, self._lead(x, t, beta), rtol=1e-12, atol=0.0)
        assert one == pytest.approx(float(self._lead(1.0, t, beta)), rel=1e-12, abs=0.0)
        assert tempered == pytest.approx(math.exp(t - 1.0) * one, rel=1e-12, abs=0.0)

    def test_density_at_tiny_array_t_is_the_leading_tail_term(self):
        # an array t overflows t^(-1/beta) to inf rather than raising: the
        # density there is the same leading term, next to ordinary values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stable_density(1.0, np.array([1e-40, 1.0]), 0.1)
            grid = stable_density(np.array([[0.5], [1.0]]), np.array([1e-40, 1.0, 1e-300]), 0.1)
        assert got[0] == pytest.approx(float(self._lead(1.0, 1e-40, 0.1)), rel=1e-12, abs=0.0)
        assert got[1] == float(stable_density(1.0, 1.0, 0.1)[0]) > 0.0
        assert grid.shape == (2, 3)
        lead = self._lead(np.array([[0.5], [1.0]]), np.array([1e-40, 1e-300]), 0.1)
        assert np.allclose(grid[:, [0, 2]], lead, rtol=1e-12, atol=0.0)
        assert np.array_equal(grid[:, 1], stable_density(np.array([0.5, 1.0]), 1.0, 0.1))

    def test_density_where_x_t_scale_overflows(self):
        # t^(-1/beta) = 1e300 is finite but x t^(-1/beta) is not.  x = inf
        # has density 0 at any scale.  x = 5e-324 at t = 1e-160, beta = 1/2,
        # has log u = log x + 736.8 = -7.6, left of the tail series: the
        # closed form t/(2 sqrt(pi)) x^(-3/2) e^(-t^2/(4x)) there is 4.5e104,
        # and the rounding of log u is amplified about 500 times
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = float(stable_density(1e10, 1e-30, 0.1)[0])
            small = float(stable_density(1.0, 1e-20, 0.05)[0])
            at_inf = [stable_density(np.inf, t, 0.1)[0] for t in (1.0, 1e-30, 1e-40)]
            tempered_at_inf = tempered_stable_density(np.inf, 1e-30, 0.1, 1.0)[0]
            subnormal = stable_density(np.array([5e-324, 1.0]), 1e-160, 0.5)
        assert got == pytest.approx(9.357787209e-43, rel=1e-9)
        assert got == pytest.approx(float(self._lead(1e10, 1e-30, 0.1)), rel=1e-12, abs=0.0)
        assert small == pytest.approx(float(self._lead(1.0, 1e-20, 0.05)), rel=1e-12, abs=0.0)
        assert at_inf == [0.0, 0.0, 0.0] and tempered_at_inf == 0.0
        assert subnormal[0] == pytest.approx(4.51090563744e104, rel=1e-10, abs=0.0)
        assert subnormal[1] == pytest.approx(float(self._lead(1.0, 1e-160, 0.5)), rel=1e-12, abs=0.0)

    def test_density_where_the_scaled_argument_underflows(self):
        # t^(-1/beta) = 1e-3000 at t = 1e300, and x^(-1/beta) at x = 1e40 or
        # 1e300, round D(1)'s argument to 0: the density there is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [float(stable_density(1.0, 1e300, 0.1)[0]),
                   float(inverse_stable_density(1e300, 1.0, 0.1)[0]),
                   float(inverse_stable_density(1e40, 1.0, 0.1)[0])]
        assert got == [0.0, 0.0, 0.0]

    def test_right_tail_at_tiny_t(self):
        # pdf(x t^(-1/beta)) leaves the normal floats before the scale lifts
        # it back; the density keeps the leading tail term
        x = np.array([1.0, 3.0, 1e4])
        for t in np.geomspace(1e-20, 1e-30, 11):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = stable_density(x, t, 0.1)
            lead = 0.1 * t * x ** -1.1 / math.gamma(0.9)
            assert np.all(np.abs(got / lead - 1.0) <= 1e-6), t

    def test_far_regimes_take_one_log_sum(self):
        # where a factor of a density's product leaves the normal floats, the
        # density is one exponential of the sum of logs: the tempered(1/2, 1)
        # density, whose tilt e^(t - x) overflows while f(x, t) underflows,
        # is the IG(1/sqrt 2, sqrt 2) density; the inverse stable density,
        # whose x^(-1-1/beta) overflows, reaches 1/Gamma(1 - beta) at x -> 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide, near = (0.5, 1.0, 1.5), (0.9, 1.0, 1.1)
            for t, fracs in ((1e3, wide), (2e3, wide), (1e4, near)):
                x = 0.5 * t * np.array(fracs)  # times the mean t/2
                got = tempered_stable_density(x, t, 0.5, 1.0)
                ig = ig_density(x, t, 1.0 / math.sqrt(2.0), math.sqrt(2.0))
                assert np.allclose(got, ig, rtol=1e-10, atol=0.0)
            x = np.array([1e-80, 1e-200, 1e-300])
            for beta in (0.3, 0.5, 0.7):
                got = inverse_stable_density(x, 1.0, beta)
                assert np.allclose(got, 1.0 / math.gamma(1.0 - beta), rtol=0.0, atol=1e-12)
            # at index 0.3 the tilt identity's cdf is an independent route
            x, h = 0.9 * 0.3 * 1e3, 1e-3  # 0.9 times the mean
            tempered = float(tempered_stable_density(x, 1e3, 0.3, 1.0)[0])
            slope = (tempered_stable_cdf(x + h, 1e3, 0.3, 1.0)
                     - tempered_stable_cdf(x - h, 1e3, 0.3, 1.0)) / (2.0 * h)
        assert tempered == pytest.approx(slope, rel=1e-7)

    def test_left_tail_zeros_skip_the_integral(self, monkeypatch):
        # left of x_lo, D(1)'s density is below e^-1200: at a lift below
        # e^450 the three densities are 0 there without D(1)'s theta integral
        x = np.geomspace(1e-4, 10.0, 200)
        calls = (lambda: stable_density(x, 1.3, 0.7),
                 lambda: tempered_stable_density(x, 1.3, 0.7, 1.0),
                 lambda: inverse_stable_density(1.0 / x, 1.3, 0.7))
        want = [f() for f in calls]  # builds the unit's table
        monkeypatch.setattr(stable_unit(0.7), "_log_raw", None)
        for f, w in zip(calls, want):
            got = f()
            assert np.array_equal(got, w) and got[0] == 0.0 and got[-1] > 0.0

    @pytest.mark.parametrize("beta", [0.1, 1.0 / 3.0, 0.7])
    def test_normal_unit_pdf_keeps_the_scaled_product(self, beta):
        x, t = np.geomspace(1e-3, 1e4, 60)[:, None], np.geomspace(1e-6, 10.0, 25)[None, :]
        scale = t ** (-1.0 / beta)
        assert np.array_equal(stable_density(x, t, beta), scale * stable_unit(beta).pdf(x * scale))


class TestTemperedStable:
    def test_mu_zero_reduces_to_stable(self):
        x = np.array([0.4, 1.1, 3.0])
        assert np.allclose(
            tempered_stable_density(x, 1.3, 0.5, 0.0), stable_density(x, 1.3, 0.5)
        )

    def test_normalization(self):
        val = quad(
            lambda x: float(tempered_stable_density(np.array([x]), 1.0, 0.5, 1.0)[0]),
            0, np.inf, limit=300,
        )[0]
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_laplace_eq_4_4(self):
        # LT = exp(-t((s+mu)^beta - mu^beta)); s=2, beta=1/2, mu=1 -> e^{-(sqrt3-1)}
        lt = laplace_numeric(
            lambda x: float(tempered_stable_density(np.array([x]), 1.0, 0.5, 1.0)[0]),
            2.0,
        )
        assert lt == pytest.approx(math.exp(-(math.sqrt(3.0) - 1.0)), abs=1e-9)

    def test_cdf_at_tiny_t_is_refused(self):
        # x t^(-1/beta) = 1e400 is past float range: refused, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="float range"):
                tempered_stable_cdf(1.0, 1e-40, 0.1, 1.0)


class TestInverseStable:
    def test_half_closed_form(self):
        x = np.array([0.2, 1.0, 2.5])
        t = 2.2
        closed = np.exp(-x * x / (4 * t)) / math.sqrt(math.pi * t)
        assert np.max(np.abs(inverse_stable_density(x, t, 0.5) - closed)) < 1e-12

    def test_boundary_value(self):
        # m(0+, t) = t^(-beta)/Gamma(1-beta); at beta=1/2, t=4: 1/sqrt(4 pi)
        val = float(inverse_stable_density(np.array([1e-9]), 4.0, 0.5)[0])
        assert val == pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-10)
        val = float(inverse_stable_density(np.array([1e-9]), 2.0, 0.25)[0])
        assert val == pytest.approx(2.0 ** -0.25 / math.gamma(0.75), rel=1e-8)

    @pytest.mark.parametrize("beta", [0.25, 0.5])
    def test_laplace_in_time(self, beta):
        # int_0^inf e^{-st} m(x,t) dt = s^(beta-1) exp(-x s^beta)
        for s in (0.5, 1.0, 2.0):
            lt = laplace_numeric(
                lambda t: float(inverse_stable_density(np.array([1.0]), t, beta)[0]), s
            )
            assert lt == pytest.approx(
                s ** (beta - 1.0) * math.exp(-(s ** beta)), abs=1e-8
            )

    @pytest.mark.parametrize("beta", [0.25, 0.5])
    def test_duality_lattice(self, beta):
        for x in np.linspace(0.4, 2.0, 5):
            for t in np.linspace(0.4, 2.0, 5):
                lhs = inverse_stable_cdf(float(x), float(t), beta)
                rhs = 1.0 - float(stable_cdf(np.array([t]), float(x), beta)[0])
                assert abs(lhs - rhs) <= 1e-5


def _tempered_levy_tail(t, beta, mu):
    """nu_mu(t, inf) by direct quadrature of the Levy density c e^{-mu u} u^{-beta-1},
    c = beta/Gamma(1-beta)."""
    c = beta / math.gamma(1.0 - beta)
    return quad(lambda u: c * math.exp(-mu * u) * u ** (-beta - 1.0), t, np.inf,
                epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _mpmath_inverse_tempered(x, t, beta, mu, want):
    """30-digit Talbot inversion in t of the density transform
    phi(s) e^{-x phi(s)}/s or of the CDF transform (1 - e^{-x phi(s)})/s,
    phi(s) = (s+mu)^beta - mu^beta."""
    from mpmath import exp, expm1, invertlaplace, mpf, workdps

    with workdps(30):
        b, m, xx = mpf(beta), mpf(mu), mpf(x)

        def phi(s):
            return (s + m) ** b - m ** b

        if want == "density":
            return float(invertlaplace(lambda s: phi(s) * exp(-xx * phi(s)) / s, t,
                                       method="talbot"))
        return float(invertlaplace(lambda s: -expm1(-xx * phi(s)) / s, t, method="talbot"))


class TestInverseTempered:
    def test_normalization(self):
        val = quad(
            lambda x: float(inverse_tempered_density(np.array([x]), 1.3, 0.5, 1.0)[0]),
            1e-9, 60, limit=400,
        )[0]
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_mu_to_zero_reduction(self):
        x = np.array([0.3, 0.8, 2.0])
        a = inverse_tempered_density(x, 1.3, 0.5, 1e-12)
        b = inverse_stable_density(x, 1.3, 0.5)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_mu_to_zero_reduction_general_index(self):
        # mu = 1e-30 gives mu^beta = 1e-9 at beta = 0.3: within ~1e-9 of mu = 0
        x = np.array([1e-3, 0.05, 0.3, 0.8, 2.0, 5.0])
        a = inverse_tempered_density(x, 1.3, 0.3, 1e-30)
        b = inverse_stable_density(x, 1.3, 0.3)
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-12)

    def test_boundary_is_levy_tail(self):
        # m(0+, t) is the tail of the tempered Levy measure beyond t
        for beta in (0.3, 0.5, 0.7):
            for mu, t in ((1.0, 0.25), (1.0, 1.3), (4.0, 1.0)):
                val = float(inverse_tempered_density(np.array([1e-9]), t, beta, mu)[0])
                assert val == pytest.approx(_tempered_levy_tail(t, beta, mu), rel=1e-6)

    def test_duality(self):
        lhs = inverse_tempered_cdf(1.0, 1.0, 0.5, 1.0)
        rhs = 1.0 - tempered_stable_cdf(1.0, 1.0, 0.5, 1.0)
        assert abs(lhs - rhs) <= 1e-6

    @pytest.mark.parametrize("beta", [0.3, 0.7])
    @pytest.mark.parametrize("mu", [1.0, 4.0])
    def test_against_mpmath_oracle(self, beta, mu):
        xs = np.array([1e-4, 0.01, 0.2, 0.7, 2.0])
        for t in (0.25, 1.0, 2.0):
            dens = inverse_tempered_density(xs, t, beta, mu)
            cdf = inverse_tempered_cdf(xs, t, beta, mu)
            for i, x in enumerate(xs):
                assert abs(dens[i] - _mpmath_inverse_tempered(x, t, beta, mu, "density")) <= 1e-12
                assert abs(cdf[i] - _mpmath_inverse_tempered(x, t, beta, mu, "cdf")) <= 1e-12

    def test_against_50_digit_oracle(self, inverse_tempered_oracle):
        # the (0.3, 1) clock from t = 5 to t = 100, where the tilt's integral
        # lies wholly in the unit stable law's deep left tail, and two points
        # with mu = 20; at (0.7, 20, 8, 10) the density is 6.7e-37, a
        # cancellation of O(1) terms in the tilt identity, so only absolute
        # accuracy is in reach there
        for p in inverse_tempered_oracle["points"]:
            args = (p["t"], p["beta"], p["mu"])
            got = (float(inverse_tempered_density(np.array([p["x"]]), *args)[0]),
                   inverse_tempered_cdf(p["x"], *args))
            for g, w in zip(got, (p["density"], p["cdf"])):
                assert abs(g - w) <= (1e-15 if p["beta"] == 0.7 else 1e-10 * w), (p, g)

    def test_density_integrates_to_cdf(self):
        for t in (0.5, 2.0):
            for x in (0.1, 0.6, 1.5):
                nodes, w = gauss_panels(linear_panel_edges(0.0, x, 8), 12)
                integral = float(np.sum(w * inverse_tempered_density(nodes, t, 0.7, 1.0)))
                assert integral == pytest.approx(inverse_tempered_cdf(x, t, 0.7, 1.0), abs=1e-12)

    @pytest.mark.parametrize("mu", [0.25, 1.0, 3.0])
    def test_quadrature_route_matches_closed_form_at_half(self, mu):
        # the general-index tilt identity, run at beta = 1/2, against the closed
        # IG hitting density and CDF of the equal law IG(1/sqrt 2, sqrt(2 mu))
        x = np.array([1e-6, 0.01, 0.1, 0.4, 1.0, 2.0, 4.0, 8.0, 15.0])
        ig = tempered_half_as_ig(mu)
        for t in (0.1, 0.3, 1.0, 2.5, 6.0):
            closed = hitting_time_density_ig(x, t, *ig)
            assert np.max(np.abs(_inverse_tempered_tilt(x, t, 0.5, mu) - closed)) <= 1e-12
            assert np.array_equal(inverse_tempered_density(x, t, 0.5, mu), closed)
            tilt_cdf = 1.0 - tempered_stable_cdf(t, x, 0.5, mu)
            assert np.max(np.abs(tilt_cdf - hitting_time_cdf_ig(x, t, *ig))) <= 1e-12


class TestDensitiesBroadcastInTime:
    @pytest.mark.parametrize("dens", [
        lambda x, t: stable_density(x, t, 1.0 / 3.0),
        lambda x, t: stable_density(x, t, 0.5),
        lambda x, t: inverse_stable_density(x, t, 0.5),
        lambda x, t: inverse_stable_density(x, t, 0.25),
        lambda x, t: tempered_stable_density(x, t, 1.0 / 3.0, 1.0),
        lambda x, t: tempered_stable_density(x, t, 0.5, 0.7),
        lambda x, t: inverse_tempered_density(x, t, 0.3, 1.0),
        lambda x, t: inverse_tempered_density(x, t, 0.7, 1.0),
    ], ids=["stable1/3", "stable1/2", "inverse-stable1/2", "inverse-stable1/4",
            "tempered1/3", "tempered1/2", "inverse-tempered0.3", "inverse-tempered0.7"])
    def test_grid_equals_scalar_t_calls(self, dens):
        x = np.array([0.3, 0.5, 1.0, 2.0, 4.0])
        t = np.linspace(0.5, 2.5, 9)
        grid = dens(x[:, None], t[None, :])
        assert grid.shape == (5, 9)
        by_t = np.stack([dens(x, float(tj)) for tj in t], axis=1)
        np.testing.assert_allclose(grid, by_t, rtol=1e-14, atol=0.0)


class TestHittingTimeIG:
    @staticmethod
    def _analytic(x, t, delta, gamma):
        # running-maximum density of drifted Brownian motion, mapped by 1/delta
        return (2 * delta / math.sqrt(t)) * norm.pdf(
            (delta * x - gamma * t) / math.sqrt(t)
        ) - 2 * gamma * delta * np.exp(2 * gamma * delta * x) * norm.cdf(
            -(delta * x + gamma * t) / math.sqrt(t)
        )

    @pytest.mark.parametrize(
        "params", [(1.0, 1.0, 1.0), (1 / math.sqrt(2), 1.0, 0.8), (0.7, 0.4, 2.0)]
    )
    def test_against_reflection_oracle(self, params):
        delta, gamma, t = params
        x = np.array([0.05, 0.3, 1.0, 2.5])
        got = hitting_time_density_ig(x, t, delta, gamma)
        want = self._analytic(x, t, delta, gamma)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_normalization(self):
        val = quad(
            lambda u: float(hitting_time_density_ig(np.array([u]), 1.0, 1.0, 1.0)[0]),
            1e-9, 40, limit=400,
        )[0]
        assert val == pytest.approx(1.0, abs=1e-5)

    def test_gamma_zero_is_inverse_half_stable(self):
        x = np.array([0.1, 0.6, 1.4])
        got = hitting_time_density_ig(x, 1.3, 1 / math.sqrt(2), 0.0)
        want = inverse_stable_density(x, 1.3, 0.5)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_boundary_identity(self):
        # h_x(0,t) = 2 delta gamma h(0,t); h(0,t) comes from the closed form at
        # x = 0 and h_x(0,t) from a second-order one-sided difference
        eps = 1e-4
        h0, h1, h2 = hitting_time_density_ig(np.array([0.0, eps, 2 * eps]), 1.0, 1.0, 1.0)
        hx0 = (-3.0 * h0 + 4.0 * h1 - h2) / (2 * eps)
        assert hx0 == pytest.approx(2.0 * h0, rel=1e-6)
        # and h(0,t) = (2 delta/sqrt t) phi(gamma sqrt t) - 2 delta gamma Phi(-gamma sqrt t)
        assert h0 == pytest.approx(2.0 * norm.pdf(1.0) - 2.0 * norm.cdf(-1.0), rel=1e-14)

    def test_broadcasts_over_x_and_t(self):
        x = np.array([0.0, 0.3, 1.0, 2.5])
        t = np.array([0.5, 1.0, 2.0])
        grid = hitting_time_density_ig(x[:, None], t[None, :], 0.7, 0.4)
        assert grid.shape == (4, 3)
        for j, tj in enumerate(t):
            assert np.array_equal(grid[:, j], hitting_time_density_ig(x, tj, 0.7, 0.4))

    @pytest.mark.parametrize(
        "delta,gamma",
        [(1.0, 1.0), (1 / math.sqrt(2), math.sqrt(2)), (0.7, 0.4), (1.0, 5.0), (1.0, 0.0)],
    )
    def test_against_mpmath_oracle(self, delta, gamma):
        from mpmath import mp, workdps

        def oracle(x, t):
            x, t, d, g = (mp.mpf(v) for v in (x, t, delta, gamma))
            st = mp.sqrt(t)
            return (2 * d / st) * mp.npdf((g * t - d * x) / st) - 2 * d * g * mp.exp(
                2 * d * g * x
            ) * mp.ncdf(-(g * t + d * x) / st)

        ts = np.geomspace(0.05, 20.0, 9)
        xs = np.concatenate([[1e-12, 1e-6, 1e-3], np.geomspace(0.01, 30.0, 14)])
        got = hitting_time_density_ig(xs[:, None], ts[None, :], delta, gamma)
        with workdps(50):
            for i, x in enumerate(xs):
                for j, t in enumerate(ts):
                    want = oracle(x, t)
                    assert abs(got[i, j] - float(want)) <= 1e-13
                    if want > mp.mpf("1e-280"):
                        assert float(abs(mp.mpf(got[i, j]) - want) / want) <= 1e-9

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1e6])
    def test_ig_cdf_against_mpmath(self, gamma):
        # P(G(t) <= u) = Phi(z1) + e^{2 delta gamma t} Phi(z2), at 60 digits
        from mpmath import mp, workdps

        d, t = 1.0, 1.0
        if gamma == 0.0:
            us = np.geomspace(0.05, 50.0, 9)
        elif gamma == 1.0:
            us = np.geomspace(0.05, 20.0, 9)
        else:  # mean 1e-6, relative spread 1e-3
            us = 1e-6 * (1.0 + 1e-3 * np.linspace(-4.0, 6.0, 11))
        got = ig_cdf(us, t, d, gamma)
        with workdps(60):
            for u, g in zip(us, got):
                u, dt = mp.mpf(u), mp.mpf(d) * t
                z1, z2 = (gamma * u - dt) / mp.sqrt(u), -(gamma * u + dt) / mp.sqrt(u)
                want = mp.ncdf(z1) + mp.exp(2 * gamma * dt) * mp.ncdf(z2)
                assert float(abs(g - want) / want) <= 1e-12

    def test_cdf_duality(self):
        # P(H(t) <= x) = P(G(x) >= t)
        got = float(hitting_time_cdf_ig(np.array([1.2]), 1.0, 1.0, 1.0)[0])
        want = 1.0 - float(ig_cdf(np.array([1.0]), 1.2, 1.0, 1.0)[0])
        assert got == pytest.approx(want, abs=1e-14)


class TestStableMoment:
    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.7])
    def test_gamma_formula(self, beta):
        for frac in (0.2, 0.5, 0.8):
            p = frac * beta
            want = math.gamma(1 - p / beta) / math.gamma(1 - p)
            assert stable_moment(beta, p) == pytest.approx(want, rel=1e-10)

    def test_small_p_limit(self):
        assert stable_moment(0.5, 1e-6) == pytest.approx(1.0, abs=1e-4)

    def test_divergence(self):
        assert np.isfinite(stable_moment(0.5, 0.4))
        with pytest.raises(DivergenceError):
            stable_moment(0.5, 0.6)
        with pytest.raises(DivergenceError):
            stable_moment(0.5, 0.5)

    @pytest.mark.parametrize("beta", [0.97, 0.99])
    def test_closed_form_past_the_density_engine(self, beta):
        # the density engine stops at beta = 0.95; the moment does not need it
        from tcpp.subordinators.sampling import rng_stream, _sample_stable_unit

        p = 0.4
        draws = _sample_stable_unit(rng_stream(2025, 0), beta, (400_000,)) ** p
        mc, se = draws.mean(), draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(stable_moment(beta, p) - mc) <= 4.0 * se

    def test_monte_carlo_agreement(self):
        from tcpp.subordinators.sampling import rng_stream, _sample_stable_unit

        rng = rng_stream(2024, 0)
        draws = _sample_stable_unit(rng, 0.5, (1_000_000,)) ** 0.25
        mc, se = draws.mean(), draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(stable_moment(0.5, 0.25) - mc) <= 3.0 * se


def _window_end(spec, t, cut=0.0, n_panels=32):
    """x_hi of the frozen rule that spec's mixing law builds at the single time t,
    in the variable of its nodes."""
    return spec.mixing_law().rule_nodes(t, t, cut, n_panels)[3]


def _first_node(clock, t):
    """The first node, a hair past the window's left end, of a rule on many
    panels; the cut is wide enough not to cap the window."""
    return clock.rule_nodes(t, t, 1e9, 2048)[0][0]


def _mass_outside(clock, t):
    """The mass each window end leaves out, from a CDF that does not use the rule."""
    if isinstance(clock, InverseOf) and isinstance(clock.base, Stable):
        # nodes in v = x t^(-b): P(E(t) > x) = P(D(1) < t x^(-1/b)) = P(D(1) < v^(-1/b))
        b = clock.base.beta
        return [stable_unit(b).cdf(_window_end(clock, t) ** (-1.0 / b))[0]]
    if isinstance(clock, Stable):
        # nodes in y = x t^(-1/b); the right end is the Poisson cut, with a survivor
        return [stable_unit(clock.beta).cdf(_first_node(clock, t))[0]]
    if isinstance(clock, InverseOf) and isinstance(clock.base, InverseGaussian):
        # P(H(t) > x) = P(G(x) < t)
        d, g = clock.base.delta, clock.base.gamma
        return [ig_cdf(np.array([t]), _window_end(clock, t), d, g)[0]]
    if isinstance(clock, InverseOf):
        # P(E_mu(t) > x) = P(D_mu(x) < t) = 1 - inverse_tempered_cdf, read
        # without the complement, which would round e^-45 away
        b, mu = clock.base.beta, clock.base.mu
        x = _window_end(clock, t)
        assert 1.0 - inverse_tempered_cdf(x, t, b, mu) <= 1e-15
        return [tempered_stable_cdf(t, x, b, mu)]
    if isinstance(clock, InverseGaussian):
        # P(G(t) < x) at the first node, a hair past x_lo, and P(G(t) > x_hi)
        # = P(H(x_hi) < t); the cut is wide enough not to cap x_hi
        d, g = clock.delta, clock.gamma
        nodes, _, _, x_hi = clock.rule_nodes(t, t, 1e9, 2048)
        return [ig_cdf(nodes[:1], t, d, g)[0], hitting_time_cdf_ig(t, x_hi, d, g)[0]]
    # tempered, nodes in y = x t^(-1/b): P(D_mu(t) < x) at the first node and
    # P(D_mu(t) > x) at the window end, by quadrature of the density
    b, mu = clock.beta, clock.mu

    def density(y):
        return float(tempered_stable_density(np.array([y]), t, b, mu)[0])

    x_lo, x_hi = (t ** (1.0 / b) * y for y in (_first_node(clock, t), _window_end(clock, t)))
    return [quad(density, 0.0, x_lo, epsabs=0.0, limit=200)[0],
            quad(density, x_hi, x_hi + 300.0 / mu, epsabs=0.0, limit=200)[0]]


class TestNodeWindows:
    """Each frozen rule's node window leaves out at most e^-TAIL_LOG of its
    clock's mass (the Chernoff bound), and not a great deal less."""

    @pytest.mark.parametrize("clock", [
        pytest.param(InverseOf(Stable(0.3)), id="inverse-stable(0.3)"),
        pytest.param(InverseOf(Stable(0.5)), id="inverse-stable(0.5)"),
        pytest.param(InverseOf(Stable(0.7)), id="inverse-stable(0.7)"),
        pytest.param(InverseOf(InverseGaussian(1.0, 1.0)), id="ig-hitting(1,1)"),
        pytest.param(InverseOf(InverseGaussian(0.5, 100.0)), id="ig-hitting(0.5,100)"),
        pytest.param(InverseOf(InverseGaussian(2.0, 0.0)), id="ig-hitting(2,0)"),
        pytest.param(InverseOf(TemperedStable(0.5, 2.0)), id="inverse-tempered(0.5,2)"),
        pytest.param(InverseOf(TemperedStable(0.3, 1.0)), id="inverse-tempered(0.3,1)"),
        pytest.param(InverseOf(TemperedStable(0.7, 0.5)), id="inverse-tempered(0.7,0.5)"),
        pytest.param(InverseOf(TemperedStable(0.3, 400.0)), id="inverse-tempered(0.3,400)"),
        pytest.param(Stable(0.1), id="stable(0.1)"),
        pytest.param(Stable(0.3), id="stable(0.3)"),
        pytest.param(Stable(0.5), id="stable(0.5)"),
        pytest.param(Stable(0.7), id="stable(0.7)"),
        pytest.param(InverseGaussian(1.0, 1.0), id="ig(1,1)"),
        pytest.param(InverseGaussian(0.5, 100.0), id="ig(0.5,100)"),
        pytest.param(InverseGaussian(1.0, 1e6), id="ig(1,1e6)"),
        pytest.param(TemperedStable(0.3, 1.0), id="tempered(0.3,1)"),
        pytest.param(TemperedStable(0.7, 0.5), id="tempered(0.7,0.5)"),
        pytest.param(TemperedStable(0.3, 400.0), id="tempered(0.3,400)"),
        pytest.param(TemperedStable(0.1, 1.0), id="tempered(0.1,1)"),
    ])
    @pytest.mark.parametrize("t", [0.1, 1.0, 20.0])
    def test_window_leaves_out_at_most_the_tail_bound(self, clock, t):
        for mass in _mass_outside(clock, t):
            assert math.exp(-TAIL_LOG - 12.0) < mass <= math.exp(-TAIL_LOG)

    @pytest.mark.parametrize("beta, mu", [(0.3, 1.0), (0.7, 0.5), (0.3, 400.0), (0.1, 1.0)])
    @pytest.mark.parametrize("t", [0.1, 1.0, 20.0])
    def test_tilt_integrals_drop_at_most_the_tail_bound(self, monkeypatch, beta, mu, t):
        # against the same integrals from a lower limit ten times further left,
        # at points where the dropped mass would show: the shifted panels move
        # the rest by about 1e-14 relative
        x = t * beta * mu ** (beta - 1.0) * np.array([1e-3, 1e-2, 0.1, 0.3])
        near = _tempered_partial_moments(x, t, beta, mu)
        su = stable_unit(beta)
        left_end = su.left_end
        monkeypatch.setattr(su, "left_end", lambda lift: left_end(lift) / 10.0)
        far = _tempered_partial_moments(x, t, beta, mu)
        for a, b in zip(near, far):
            assert np.all(np.abs(a - b) <= math.exp(-TAIL_LOG) + 1e-13 * b)

    def test_huge_gamma_window_is_refused(self):
        # at gamma = 1e200 both ends round onto delta t / gamma
        with pytest.raises(ConvergenceError, match="floating point"):
            InverseGaussian(1.0, 1e200).rule_nodes(1.0, 1.0, 100.0, 32)
