"""Pmf, moment, and waiting-time computations for time-changed counts."""

import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import erfc, gammaln

import tcpp.timechange as timechange
from oracles.poisson import poisson_pmf
from oracles.transforms import mittag_leffler
from tcpp.errors import POSITIVE, ConvergenceError, DomainError, NoDensityError
from tcpp.specfun import log_gamma
from tcpp.subordinators.densities import ig_density
from tcpp.subordinators.sampling import rng_stream, sample, sample_path
from tcpp.subordinators.spec import (
    Composition,
    InverseGaussian,
    InverseOf,
    Stable,
    SubordinatorSpec,
    TemperedStable,
)
from tcpp.timechange import (
    MixtureRule,
    PmfTable,
    _poisson_cut,
    fractional_poisson_pmf,
    ig_moment_table,
    mixture_rule,
    moments_ig,
    pmf_bessel_ig,
    pmf_monte_carlo,
    pmf_quadrature,
    pmf_table,
    table_cache,
    waiting_time_lt,
    waiting_time_survival,
)
from tcpp.transforms import ALIAS, coefficients


def _mpmath_inverse_pmf(k, t, lam, beta, mu):
    """P(N(E(t)) = k) for the inverse tempered(beta, mu) clock (inverse stable at
    mu = 0): 30-digit Talbot inversion in t of (phi(s)/s) lam^k/(lam + phi(s))^(k+1),
    phi(s) = (s+mu)^beta - mu^beta."""
    from mpmath import invertlaplace, mpf, workdps

    with workdps(30):
        b, m, la = mpf(beta), mpf(mu), mpf(lam)

        def transform(s):
            phi = (s + m) ** b - m ** b
            return phi / s * la ** k / (la + phi) ** (k + 1)

        return float(invertlaplace(transform, t, method="talbot"))


class TestPoissonPmf:
    def test_initial_conditions(self):
        assert poisson_pmf(0, 0.0, 1.0) == 1.0
        for k in (1, 2, 5):
            assert poisson_pmf(k, 0.0, 1.0) == 0.0

    def test_direct_value(self):
        assert poisson_pmf(3, 2.0, 1.0) == pytest.approx(
            math.exp(-2.0) * 8.0 / 6.0, rel=1e-14
        )

    def test_derivative_at_zero(self):
        lam = 1.7
        assert poisson_pmf(0, 0.0, lam, order=1) == pytest.approx(-lam)
        assert poisson_pmf(1, 0.0, lam, order=1) == pytest.approx(lam)
        assert poisson_pmf(2, 0.0, lam, order=1) == 0.0

    def test_derivatives_match_finite_differences(self):
        lam, x, h = 1.3, 2.0, 1e-5
        for k in (0, 1, 4):
            fd1 = (poisson_pmf(k, x + h, lam) - poisson_pmf(k, x - h, lam)) / (2 * h)
            assert poisson_pmf(k, x, lam, order=1) == pytest.approx(fd1, abs=1e-9)
            fd2 = (
                poisson_pmf(k, x + h, lam)
                - 2 * poisson_pmf(k, x, lam)
                + poisson_pmf(k, x - h, lam)
            ) / (h * h)
            assert poisson_pmf(k, x, lam, order=2) == pytest.approx(fd2, abs=1e-6)

    @pytest.mark.parametrize("k,x,order", [(-1, 1.0, 0), (0, -1.0, 0), (1, -0.5, 1), (2, 1.0, 3)])
    def test_domain(self, k, x, order):
        with pytest.raises(DomainError):
            poisson_pmf(k, x, 1.0, order=order)


class TestBesselPmf:
    def test_k0_laplace_anchor(self):
        got = pmf_bessel_ig(0, 1.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(math.exp(1.0 - math.sqrt(3.0)), abs=1e-12)

    def test_sum_with_tail_is_one(self):
        # the k <= 60 partial sum misses exactly the true tail mass (~1e-7
        # at these parameters); the identity holds once the tail is added
        s = sum(pmf_bessel_ig(k, 2.0, 2.0, 1.0, 1.0) for k in range(61))
        tail = pmf_table(2.0, 2.0, InverseGaussian(1.0, 1.0), kmax=60).tail_bound
        assert s + tail == pytest.approx(1.0, abs=1e-9)
        s200 = sum(pmf_bessel_ig(k, 2.0, 2.0, 1.0, 1.0) for k in range(201))
        assert s200 == pytest.approx(1.0, abs=1e-9)

    def test_matches_quadrature(self):
        for k in range(0, 31, 3):
            b = pmf_bessel_ig(k, 1.0, 1.0, 1.0, 1.0)
            q = pmf_quadrature(k, 1.0, 1.0, InverseGaussian(1.0, 1.0))
            assert abs(b - q) <= 1e-8

    def test_gamma_zero_rejected(self):
        with pytest.raises(DomainError):
            pmf_bessel_ig(0, 1.0, 1.0, 1.0, 0.0)

    def test_large_k_no_overflow(self):
        assert pmf_bessel_ig(400, 1.0, 1.0, 1.0, 1.0) >= 0.0

    @pytest.mark.parametrize("lam,t,gamma,ks", [
        (20.0, 20.0, 1.0, [100, 400, 1000, 1400]),
        (1.0, 100.0, 1.0, [50, 100, 200]),
        (1.0, 0.01, 1.0, range(21)),
        (1.0, 1.0, 0.5, range(0, 41, 5)),
        (1.0, 1.0, 1e6, range(4)),
    ])
    def test_recurrence_against_mpmath(self, lam, t, gamma, ks):
        # the ratio recurrence against the closed form at 50 digits, deep in k
        from mpmath import mp, workdps

        with workdps(50):
            lm, tm, g = mp.mpf(lam), mp.mpf(t), mp.mpf(gamma)
            c = mp.sqrt(g * g + 2 * lm)
            want = [mp.sqrt(2 * tm * c / mp.pi) * (lm * tm / c) ** k / mp.factorial(k)
                    * mp.exp(g * tm) * mp.besselk(k - mp.mpf(1) / 2, tm * c) for k in ks]
        for k, w in zip(ks, want):
            assert float(abs(pmf_bessel_ig(k, t, lam, 1.0, gamma) - w) / w) <= 1e-12, k

    @pytest.mark.parametrize("gamma", [1.0, 1e3, 1e6, 1e9, 1e15, 1e20, 1e200])
    def test_large_gamma_against_mpmath(self, gamma):
        # IG(1, gamma) at lambda = t = 1: the Bessel closed form, the PGF table
        # and the waiting-time transform all take the IG exponent from
        # `ig_exponent`, which holds no difference of large terms
        from mpmath import mp, workdps

        with workdps(60):
            g = mp.mpf(gamma)
            c = mp.sqrt(g * g + 2)
            # e^{gamma - c} taken as e^{-2/(c + gamma)}: 60 digits do not resolve
            # c - gamma = 1e-200 at gamma = 1e200
            want = [mp.sqrt(2 / mp.pi) * mp.exp(-2 / (c + g)) / mp.factorial(k)
                    * c ** (0.5 - k) * mp.besselk(k - 0.5, c) * mp.exp(c) for k in range(3)]
            lt = [1 / (1 + 2 * s / (mp.sqrt(g * g + 2 * s) + g)) for s in (0.5, 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bessel = [pmf_bessel_ig(k, 1.0, 1.0, 1.0, gamma) for k in range(3)]
            pgf = pmf_table(1.0, 1.0, InverseGaussian(1.0, gamma), kmax=3, method="pgf").values
            waits = [waiting_time_lt(s, 1.0, 1.0, gamma) for s in (0.5, 2.0)]
        for k, w in enumerate(want):
            if w >= mp.mpf("1e-300"):
                assert float(abs(bessel[k] - w) / w) <= 1e-13, k
            assert float(abs(pgf[k] - w)) <= 1e-14, k
        for got, w in zip(waits, lt):
            assert float(abs(got - w) / w) <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("omega", [0.1, 1.0, 5.0, 20.0])
    def test_against_mixing_integral(self, k, omega):
        # dual route: the closed form (Bessel order k - 1/2 at omega = delta t c)
        # against scipy's quadrature of the Poisson pmf over the IG(delta t,
        # gamma) density, both written out here
        from scipy.integrate import quad

        lam, delta, gamma = 1.0, 0.7, 1.3
        c = math.sqrt(gamma * gamma + 2.0 * lam)
        t = omega / (delta * c)
        a = delta * t

        def integrand(x):
            log_ig = (math.log(a / math.sqrt(2.0 * math.pi)) - 1.5 * math.log(x)
                      + a * gamma - 0.5 * (a * a / x + gamma * gamma * x))
            return math.exp(log_ig - lam * x + k * math.log(lam * x) - math.lgamma(k + 1))

        mode = a * a / 3.0 if a < 1.0 else a / gamma  # split near the density's mass
        want = sum(quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
                   for lo, hi in ((0.0, mode), (mode, np.inf)))
        assert pmf_bessel_ig(k, t, lam, delta, gamma) == pytest.approx(want, rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 5, 20, 100])
    def test_log_recurrence_against_kve(self, n):
        # log form: at omega = 700 the closed form's factors e^{-omega} and
        # K_{n+1/2}(omega) each underflow alone, and kve keeps only their product
        from scipy.special import kve

        lam, delta, gamma = 1.0, 2.0, 0.5
        c = math.sqrt(gamma * gamma + 2.0 * lam)
        omega = np.array([1.0, 10.0, 100.0, 700.0])
        t = omega / (delta * c)
        k = n + 1
        want = (0.5 * np.log(2.0 * omega / math.pi) + k * np.log(lam * delta * t / c)
                - math.lgamma(k + 1) - t * delta * (c - gamma) + np.log(kve(n + 0.5, omega)))
        logs = timechange._ig_count_logs(t, lam, delta, gamma)
        got = next(itertools.islice(logs, k, None))
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("method", ["bessel", "pgf", "quadrature"])
    @pytest.mark.parametrize("t,lam,delta,gamma", [
        (0.3, 1.0, 1.0, 1.0),
        (1.0, 2.5, 0.4, 0.8),
        (4.0, 0.5, 1.5, 2.0),
        (10.0, 1.0, 0.2, 0.3),
    ])
    def test_every_route_against_kve(self, method, t, lam, delta, gamma):
        # the three table routes of an IG clock against the closed form with
        # scipy's e^omega K_{k-1/2}(omega)
        from scipy.special import kve

        c = math.sqrt(gamma * gamma + 2.0 * lam)
        omega = delta * t * c
        ks = np.arange(21)
        want = np.exp(0.5 * np.log(2.0 * omega / math.pi) + ks * math.log(lam * delta * t / c)
                      - gammaln(ks + 1.0) - t * delta * (c - gamma)) * kve(ks - 0.5, omega)
        got = pmf_table(t, lam, InverseGaussian(delta, gamma), kmax=20, method=method).values
        assert np.max(np.abs(got - want)) <= 1e-10

    @pytest.mark.parametrize("k,t,lam,delta", [
        (-1, 1.0, 1.0, 1.0),
        (0, 0.0, 1.0, 1.0),
        (0, -1.0, 1.0, 1.0),
        (0, math.nan, 1.0, 1.0),
        (0, 1.0, 0.0, 1.0),
        (0, 1.0, 1.0, 0.0),
        (0, 1.0, 1.0, -2.0),
        (2, [1.0, -1.0], 1.0, 1.0),
    ])
    def test_domain(self, k, t, lam, delta):
        with pytest.raises(DomainError):
            pmf_bessel_ig(k, t, lam, delta, 1.0)


def _doubling_kmax(kmax):
    """The K of the quadrature table's doubling (63, 127, ..., 1023, 2000)
    whose rule made a table of automatic kmax."""
    k = timechange._KMAX_START
    while k < kmax:
        k = min(2 * k + 1, timechange._KMAX_CAP)
    return k


# (clock, lambda, t, kmax, tol) of the settle test: every clock kind with a
# mixing law at two of the (lambda, t) in {0.5, 20} x {1e-3, 1, 100} that
# serve it, automatic kmax and the table's tol; then a given kmax whose mass
# (near k = 45 000) lies far from the counts 0, K/2 and K, and two window
# rules at their callers' tol
_SETTLE_CELLS = [
    pytest.param(spec, lam, t, None, None, id=f"{name}-lam{lam:g}-t{t:g}")
    for name, spec, cells in [
        ("invIG(1,0)", InverseOf(InverseGaussian(1.0, 0.0)), [(20.0, 1.0), (20.0, 100.0)]),
        ("invIG(1,1)", InverseOf(InverseGaussian(1.0, 1.0)), [(0.5, 100.0), (20.0, 1.0)]),
        ("invIG(1,30)", InverseOf(InverseGaussian(1.0, 30.0)), [(0.5, 100.0), (20.0, 1.0)]),
        ("invS(0.3)", InverseOf(Stable(0.3)), [(20.0, 1.0), (20.0, 100.0)]),
        ("invS(0.5)", InverseOf(Stable(0.5)), [(0.5, 1e-3), (20.0, 100.0)]),
        ("invS(0.9)", InverseOf(Stable(0.9)), [(0.5, 100.0), (20.0, 1.0)]),
        ("invT(0.3,1)", InverseOf(TemperedStable(0.3, 1.0)), [(0.5, 100.0), (20.0, 1.0)]),
        ("invT(0.7,2)", InverseOf(TemperedStable(0.7, 2.0)), [(0.5, 100.0), (20.0, 1e-3)]),
        ("S(0.3)", Stable(0.3), [(0.5, 1e-3), (20.0, 100.0)]),
        ("S(0.7)", Stable(0.7), [(0.5, 1e-3), (20.0, 1.0)]),
        ("T(0.3,1)", TemperedStable(0.3, 1.0), [(0.5, 1.0), (20.0, 100.0)]),
        ("T(0.5,50)", TemperedStable(0.5, 50.0), [(0.5, 1e-3), (20.0, 100.0)]),
        ("IG(1,1)", InverseGaussian(1.0, 1.0), [(0.5, 100.0), (20.0, 1e-3)]),
        ("IG(1,0)", InverseGaussian(1.0, 0.0), [(0.5, 1e-3), (20.0, 1.0)]),
        ("S(1/2)oS(1/2)", Composition((Stable(0.5), Stable(0.5))), [(0.5, 1e-3), (0.5, 100.0)]),
    ]
    for lam, t in cells
] + [
    pytest.param(InverseOf(InverseGaussian(1.0, 30.0)), 5.0, 300.0, 80000, None,
                 id="invIG(1,30)-lam5-t300-kmax80000"),
    *(pytest.param(InverseOf(InverseGaussian(1.0, 1.0)), 1.0, (0.5, 2.0), 5, tol,
                   id=f"invIG(1,1)-window-tol{tol:g}") for tol in (1e-11, 1e-12)),
]


class TestQuadraturePmf:
    def test_small_t_degenerates(self):
        assert pmf_quadrature(0, 1e-3, 1.0, InverseGaussian(1.0, 1.0)) == pytest.approx(
            1.0, abs=1e-3
        )
        assert pmf_quadrature(1, 1e-3, 1.0, InverseGaussian(1.0, 1.0)) < 2e-3

    @pytest.mark.parametrize("gamma", [100.0, 1e6, 1e12])
    def test_large_gamma_ig_table_matches_bessel(self, gamma):
        # the window's lower end follows gamma: G(1) sits near delta t / gamma
        table = pmf_table(1.0, 1.0, InverseGaussian(1.0, gamma), method="quadrature")
        want = [pmf_bessel_ig(k, 1.0, 1.0, 1.0, gamma) for k in range(table.kmax + 1)]
        assert np.max(np.abs(table.values - want)) <= 1e-10
        assert abs(table.normalization_defect) <= 1e-10

    @pytest.mark.parametrize("spec, t, lam", [
        (Stable(0.1), 1.0, 1.0),
        (Stable(0.05), 1.0, 1.0),
        (TemperedStable(0.1, 1.0), 1.0, 1.0),
        (TemperedStable(0.3, 1.0), 100.0, 0.05),
        (TemperedStable(0.3, 1.0), 300.0, 0.02),
        (TemperedStable(0.5, 1.0), 1000.0, 0.01),
        (TemperedStable(0.3, 1.0), 1000.0, 0.01),
    ], ids=["stable0.1", "stable0.05", "tempered0.1", "tempered0.3-t100", "tempered0.3-t300",
            "tempered0.5-t1000", "tempered0.3-t1000"])
    @pytest.mark.filterwarnings("error")
    def test_stable_family_table_matches_pgf(self, spec, t, lam):
        # the unit windows start at D(1)'s Chernoff left end, at the lift
        # e^(mu^beta t) for the tempered clocks: none of their mass is left out.
        # At t = 1000 the weights w f1(y) e^(mu^beta t - mu x) have f1 below the
        # floats or a tilt past e^709, so they are taken as one log sum
        table = pmf_table(t, lam, spec, kmax=40, method="quadrature")
        want = pmf_table(t, lam, spec, kmax=40, method="pgf").values
        assert np.max(np.abs(table.values - want)) <= 1e-12
        assert abs(table.normalization_defect) <= 1e-12

    @pytest.mark.parametrize("lam", [1.0, 1e4])
    def test_poisson_cut_is_its_tail_root(self, lam):
        # the cut is the root of the bound (m - K)^2 / (2m) = 45 on log p_K(m),
        # and every p_k(lam x), k <= K, is at most e^-45 there
        for kmax in (0, 8, 64, 2000):
            m = lam * _poisson_cut(kmax, lam)
            assert (m - kmax) ** 2 / (2.0 * m) == pytest.approx(45.0, rel=1e-12)
            k = np.arange(kmax + 1)
            assert np.max(k * math.log(m) - m - gammaln(k + 1.0)) <= -45.0

    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    def test_poisson_cut_left_of_the_mass(self, gamma):
        # at lambda = 1e4 every p_k(lambda x), k <= 10, is negligible where G(10)
        # lives: the window keeps right of its lower end, the survivor has the mass
        table = pmf_table(10.0, 1e4, InverseGaussian(1.0, gamma), kmax=10, method="quadrature")
        assert np.all(table.values <= 1e-15)
        assert table.tail_bound == pytest.approx(1.0, abs=1e-12)

    def test_inverse_stable_k0_erfc(self):
        got = pmf_quadrature(0, 1.0, 1.0, InverseOf(Stable(0.5)))
        assert got == pytest.approx(math.e * erfc(1.0), abs=1e-10)

    def test_no_density_error(self):
        spec = InverseOf(Composition((Stable(0.5), TemperedStable(0.5, 1.0))))
        with pytest.raises(NoDensityError):
            pmf_quadrature(0, 1.0, 1.0, spec)

    def test_table_normalization_all_kinds(self):
        specs = [
            InverseGaussian(1.0, 1.0),
            InverseGaussian(1.0, 0.0),
            Stable(0.5),
            TemperedStable(0.5, 1.0),
            InverseOf(Stable(0.5)),
            InverseOf(Stable(0.25)),
            InverseOf(InverseGaussian(1.0, 1.0)),
            InverseOf(TemperedStable(0.5, 1.0)),
            Composition((Stable(0.5), Stable(0.5))),
        ]
        for spec in specs:
            table = pmf_table(1.0, 1.0, spec, kmax=32)
            assert abs(table.normalization_defect) <= 1e-6, spec.label()
            assert np.all(table.values >= 0)

    def test_tail_decay_beyond_mean(self):
        table = pmf_table(1.0, 2.0, InverseGaussian(1.0, 1.0), kmax=40)
        mean = 2.0  # lam delta t / gamma
        past = table.values[int(mean) + 2 :]
        assert np.all(np.diff(past) < 0)

    @pytest.mark.parametrize("spec,lam,t", [
        (InverseOf(Stable(0.5)), 1.0, 1.0),
        (InverseOf(InverseGaussian(1.0, 1.0)), 1.0, 1.0),
        (InverseOf(TemperedStable(0.5, 1.0)), 1.0, 1.0),
        (TemperedStable(0.5, 1.0), 1.0, 1.0),
        (InverseOf(InverseGaussian(1.0, 1.0)), 5.0, 10.0),  # past the first rule's 64
        (Stable(0.3), 1.0, 1.0),  # no K reaches 1e-10
    ], ids=["inverse-stable0.5", "hitting-ig", "inverse-tempered0.5", "tempered0.5",
            "hitting-ig-doubling", "stable0.3-cap"])
    def test_auto_kmax_is_smallest_with_tail_below_1e_10(self, spec, lam, t):
        table = pmf_table(t, lam, spec, method="quadrature")
        if spec == Stable(0.3):
            assert table.kmax == 2000 and table.tail_bound >= 1e-10
        else:
            # one count fewer leaves more than 1e-10 behind
            assert table.tail_bound < 1e-10 <= table.tail_bound + table.values[-1]
        if lam == 5.0:
            assert table.kmax > 64
        fixed = pmf_table(t, lam, spec, kmax=table.kmax, method="quadrature")
        assert np.max(np.abs(table.values - fixed.values)) <= 1e-10
        assert abs(table.tail_bound - fixed.tail_bound) <= 1e-10

    @staticmethod
    def _doubling(t, lam, spec):
        """Oracle for auto kmax: uncached rules at K = 63, 127, ..., 1023, 2000,
        each table its own pmf_matrix pass, stopping at the first whose tail
        column falls below 1e-10."""
        k_rule, ts = 63, np.array([t])
        while True:
            rule = mixture_rule.__wrapped__(spec, lam, t, t, k_rule)
            values = np.clip(rule.pmf_matrix(ts, np.arange(k_rule + 1))[:, 0], 0.0, 1.0)
            tails = rule.tail_mass(ts, k_rule)[0] + np.append(np.cumsum(values[:0:-1])[::-1], 0.0)
            below = np.flatnonzero(tails < 1e-10)
            if below.size or k_rule == 2000:
                kmax = int(below[0]) if below.size else 2000
                route = {"nodes": int(rule.nodes.size), "tol": 1e-10}
                return values[:kmax + 1], kmax, float(tails[kmax]), route
            k_rule = min(2 * k_rule + 1, 2000)

    @pytest.mark.parametrize("spec", [
        Stable(0.3), Stable(0.7), InverseGaussian(1.0, 0.0),
        Composition((Stable(0.5), Stable(0.5)))], ids=["stable0.3", "stable0.7", "ig-gamma0",
                                                        "stable0.5^2"])
    def test_infinite_mean_one_rule_matches_doubling(self, monkeypatch, spec):
        # the PGF route's cap-first search, on frozen rules: stable(0.7) at
        # t = 1e-8 starts the doubling (lambda 0.5) or falls back to it from
        # the cap (lambda 20), as do stable(0.7) at t = 3e-8, lambda 2 (kmax
        # 1446) and IG(1, 0) at t = 1e-9, lambda 20 (kmax 1272); every cell
        # at t >= 1e-3 keeps the cap rule alone.  A fallback asks for no K
        # below the first count whose cap tail is below 2e-10
        assert spec.mean_rate() == math.inf
        calls, rule = [], timechange.mixture_rule

        def counted(spec, lam, t_lo, t_hi, kmax, *args):
            calls.append(kmax)
            return rule(spec, lam, t_lo, t_hi, kmax, *args)

        monkeypatch.setattr(timechange, "mixture_rule", counted)
        for t, lam in [(1e-9, 20.0), (1e-8, 0.5), (1e-8, 20.0), (3e-8, 2.0), (1e-3, 0.5),
                       (1e-3, 20.0), (1.0, 0.5), (1.0, 20.0)]:
            values, kmax, tail, route = self._doubling(t, lam, spec)
            calls.clear()
            table_cache.cache_clear()
            table = pmf_table(t, lam, spec, method="quadrature")
            assert table.values.tobytes() == values.tobytes()
            assert (table.kmax, table.tail_bound, table.route) == (kmax, tail, route)
            # the cap rule comes first unless the tail bound rules it out;
            # a doubling after it reuses it at 2000
            first = 2000 if timechange._cap_tail_bound(t, lam, spec) >= 2e-10 else 63
            assert calls[0] == first and 2000 not in calls[1:]
            if first == 2000 and calls[1:]:
                cap = rule(spec, lam, t, t, 2000)
                values = np.clip(cap.probe[:, 0], 0.0, 1.0)
                tails = cap.tail_mass(np.array([t]), 2000)[0] + np.append(
                    np.cumsum(values[:0:-1])[::-1], 0.0)
                assert min(calls[1:]) >= np.flatnonzero(tails < 2e-10)[0]
            if t >= 1e-3:  # the tail stays high: the cap rule is the table
                assert calls == [2000]
            if (spec, t, lam) == (Stable(0.7), 1e-8, 20.0):  # no K below 2000 can qualify
                assert calls == [2000]

    @pytest.mark.parametrize("spec,lam,t,kmax", [
        (InverseOf(InverseGaussian(1.0, 1.0)), 1.3, 0.9, 12),
        (InverseOf(TemperedStable(0.3, 1.0)), 1.3, 2.1, None),
        (Stable(0.7), 20.0, 1.0, None),
        (TemperedStable(0.5, 50.0), 0.5, 100.0, None),
    ], ids=["hitting-ig-kmax12", "inverse-tempered0.3", "stable0.7-cap", "tempered0.5-doubling"])
    def test_one_column_table_is_the_settle_probe(self, monkeypatch, spec, lam, t, kmax):
        # each pmf_matrix call is a settle level of a rule not yet returned:
        # the table is the returned rule's last probe, not one more pass
        probed, pmf_matrix = [], MixtureRule.pmf_matrix

        def counted(self, ts, ks):
            probed.append(self)
            return pmf_matrix(self, ts, ks)

        monkeypatch.setattr(MixtureRule, "pmf_matrix", counted)
        mixture_rule.cache_clear()
        table_cache.cache_clear()
        table = pmf_table(t, lam, spec, kmax=kmax, method="quadrature")
        assert len({id(r) for r in probed}) == len(probed)
        k_rule = _doubling_kmax(table.kmax) if kmax is None else kmax
        rule = mixture_rule(spec, lam, t, t, k_rule)
        assert rule is probed[-1] and not rule.probe.flags.writeable
        if kmax is not None:  # one rule: 96, 192, ... nodes, one pass each
            assert len(probed) == int(math.log2(rule.nodes.size // 96)) + 1
        want = rule.pmf_matrix([t], np.arange(k_rule + 1))
        assert rule.probe.tobytes() == want.tobytes()
        assert table.values.tobytes() == np.clip(want[:table.kmax + 1, 0], 0.0, 1.0).tobytes()

    def test_one_probe_column_when_window_is_one_time(self, monkeypatch):
        import tcpp.subordinators.spec as spec_module

        cols = []
        weighted = spec_module.Clock.weighted

        def counted(self, rule, t):
            cols.append(np.size(t))
            return weighted(self, rule, t)

        monkeypatch.setattr(spec_module.Clock, "weighted", counted)
        # parameters no other test builds, so the rule is not in the cache
        mixture_rule(InverseOf(InverseGaussian(1.0, 1.0)), 1.7, 0.77, 0.77, 9)
        assert len(cols) >= 2 and set(cols) == {1}

    @pytest.mark.parametrize("mu,t", [(1.0, 1.0), (0.3, 2.5)])
    def test_inverse_tempered_half_is_ig_hitting(self, mu, t):
        # tempered(1/2, mu) is IG(1/sqrt 2, sqrt(2 mu)), so their hitting clocks agree
        a = pmf_table(t, 1.0, InverseOf(TemperedStable(0.5, mu)))
        b = pmf_table(t, 1.0, InverseOf(InverseGaussian(1 / math.sqrt(2), math.sqrt(2 * mu))))
        assert a.kmax == b.kmax
        assert np.max(np.abs(a.values - b.values)) <= 1e-12
        assert abs(a.tail_bound - b.tail_bound) <= 1e-12

    def test_general_index_inverse_tempered_table_against_mpmath(self):
        # index 0.3 takes the tilted-stable density: the table is right to
        # rounding and settles at tol with no floor
        table = pmf_table(1.0, 1.0, InverseOf(TemperedStable(0.3, 1.0)), kmax=24)
        want = np.array([_mpmath_inverse_pmf(k, 1.0, 1.0, 0.3, 1.0) for k in range(25)])
        assert np.max(np.abs(table.values - want)) <= 1e-11
        assert abs(table.normalization_defect) <= 1e-11

    def test_general_index_inverse_tempered_table_at_large_t(self, inverse_tempered_oracle):
        # E(20) has mean 67: its tilt integrals reach far into the unit stable
        # law's left tail
        want = next(e for e in inverse_tempered_oracle["pmf"] if e["t"] == 20.0)
        table = pmf_table(20.0, 1.0, InverseOf(TemperedStable(0.3, 1.0)))
        assert abs(table.normalization_defect) <= 1e-10 and table.kmax >= max(want["k"])
        assert np.max(np.abs(table.values[want["k"]] - want["values"])) <= 1e-12

    @pytest.mark.parametrize("spec,lam,t,kmax,tol", _SETTLE_CELLS)
    def test_hitting_rule_settles_below_1e_10(self, spec, lam, t, kmax, tol):
        # the rule of 4x the panels agrees at every count: a table's own rule
        # at the table's tol, or a window rule at the tol its caller asks for
        if tol is None:
            table = pmf_table(t, lam, spec, kmax=kmax, method="quadrature")
            kmax = _doubling_kmax(table.kmax) if kmax is None else kmax
            tol, ts = table.route["tol"], np.array([t])
            rule = mixture_rule(spec, lam, t, t, kmax)
            assert rule.nodes.size == table.route["nodes"]
        else:
            ts = np.linspace(*t, 7)
            rule = mixture_rule(spec, lam, *t, kmax, tol)
        fine = MixtureRule(lam, rule.law, *rule.law.rule_nodes(
            ts[0], ts[-1], _poisson_cut(kmax, lam), 4 * rule.nodes.size // 12))
        ks = np.arange(kmax + 1)
        assert np.max(np.abs(rule.pmf_matrix(ts, ks) - fine.pmf_matrix(ts, ks))) <= tol


def _dense_pmf_matrix(rule, ts, ks):
    """Oracle: sum_i p_k(lam x_i) wd_i over every node of the rule, no band."""
    ks = np.asarray(ks)
    out = np.empty((ks.size, len(ts)))
    for j, t in enumerate(ts):
        x, wd = rule.law.weighted(rule, float(t))
        m = rule.lam * x
        logp = ks[:, None] * np.log(m)[None, :] - m[None, :] - gammaln(ks + 1.0)[:, None]
        out[:, j] = np.exp(logp) @ wd
    return out


def _poisson_terms_reference(kb, mb):
    """`_poisson_terms` as one expression, before it was formed in place."""
    return np.exp(kb * np.log(mb) - mb - log_gamma(kb + 1.0))


def _poisson_mix_reference(ks, x, lam, wd):
    """`_poisson_mix` with a `searchsorted` per row for the bands and the
    reference terms, as it was before the bands became two counts."""
    ks = np.asarray(ks, dtype=int)
    m = lam * np.asarray(x, dtype=float)
    rows, wd = np.atleast_2d(m), np.atleast_2d(wd)
    order = np.argsort(ks, kind="stable")
    out = np.empty((ks.size, max(len(rows), len(wd))))
    for start in range(0, ks.size, timechange._K_BLOCK):
        idx = order[start:start + timechange._K_BLOCK]
        k0, k1 = float(ks[idx[0]]), float(ks[idx[-1]])
        cuts = [k0 - math.sqrt(2.0 * timechange._LOG_CUT * k0),
                _poisson_cut(k1, 1.0, timechange._LOG_CUT)]
        bands = [np.searchsorted(row, cuts) for row in rows]
        kb, a, b = ks[idx][:, None], min(lo for lo, _ in bands), max(hi for _, hi in bands)
        if m.ndim == 1:
            out[idx] = _poisson_terms_reference(kb, m[a:b]) @ wd[:, a:b].T
        elif len(rows) * idx.size * (b - a) <= timechange._UNION_CELLS:
            out[idx] = (_poisson_terms_reference(kb, m[:, None, a:b])
                        @ wd[:, a:b, None])[..., 0].T
        else:
            wd = np.broadcast_to(wd, m.shape)
            for j, (lo, hi) in enumerate(bands):
                out[idx, j] = _poisson_terms_reference(kb, m[j, lo:hi]) @ wd[j, lo:hi]
    return out


class TestInPlaceKernel:
    """The in-place Poisson terms and the counted bands give the bits of the
    expressions they replaced."""

    def test_terms_scalar_2d_and_3d(self):
        rng = np.random.default_rng(5)
        m = np.sort(rng.uniform(0.0, 400.0, 300))
        kb = np.arange(0, 300, 7)[:, None]
        for k, mb in [(3, np.asarray(2.5)), (0, np.asarray(0.0)), (kb, m),
                      (kb, rng.uniform(0.0, 400.0, (4, 1, 300)))]:
            with np.errstate(divide="ignore", invalid="ignore"):
                got, want = timechange._poisson_terms(k, mb), _poisson_terms_reference(k, mb)
            assert got.shape == np.shape(want)
            assert np.array_equal(got, want, equal_nan=True)
        assert poisson_pmf(3, 2.5, 1.0) == _poisson_terms_reference(3, 2.5)

    @pytest.mark.parametrize("shared,columns,nodes,counts", [
        (True, 5, 900, 240), (False, 5, 400, 16), (False, 3, 4000, 240),
    ], ids=["shared-x", "union-band", "per-column-bands"])
    def test_mix_matches_searchsorted_bands(self, shared, columns, nodes, counts):
        # the three branches of _poisson_mix: one x for every column, the
        # union of the columns' bands, and each column on its own band
        rng = np.random.default_rng(columns)
        x = np.sort(rng.uniform(0.0, 3.0, (columns, nodes)), axis=1)
        x = x[0] if shared else x
        wd = rng.uniform(0.0, 1.0, (columns, nodes))
        ks = rng.permutation(np.arange(0, 3 * counts, 3))
        got = timechange._poisson_mix(ks, x, 200.0, wd)
        assert np.array_equal(got, _poisson_mix_reference(ks, x, 200.0, wd))


def _mpmath_poisson(ks, m):
    """p_k(m) = exp(k log m - m - log k!) at 30 digits."""
    from mpmath import exp, log, loggamma, mpf, workdps

    with workdps(30):
        return np.array([[float(exp(k * log(mpf(v)) - mpf(v) - loggamma(k + 1))) for v in m]
                         for k in ks])


def _rows(ks, m):
    """`_poisson_rows` on m, repeated to enough terms a row for the ratio."""
    ks, reps = np.asarray(ks), -(-timechange._RATIO_TERMS // m.size)
    return timechange._poisson_rows(ks, np.tile(m, reps), np.empty(ks.size * m.size * reps))[
        :, :m.size]


class TestRatioRows:
    """A block's rows by the ratio p_k = p_{k-1} m/k from a direct head."""

    def test_first_block_against_mpmath(self):
        ks, m = np.arange(128), np.geomspace(1e-3, 300.0, 41)[1:]
        want = _mpmath_poisson(ks, m)
        normal = want >= 1e-290
        rel = np.abs(_rows(ks, m) - want)[normal] / want[normal]
        assert np.max(rel) <= 5e-15
        # the direct formula carries the rounding of k log m, which this bound sees
        direct = _poisson_terms_reference(ks[:, None], m)
        assert np.max(np.abs(direct - want)[normal] / want[normal]) > 5e-15

    @pytest.mark.parametrize("k0", [1000, 1872])
    def test_far_blocks_against_mpmath(self, k0):
        ks = np.arange(k0, k0 + 128)
        m = np.linspace(k0 - math.sqrt(100.0 * k0), _poisson_cut(k0 + 127, 1.0, 50.0), 40)
        want = _mpmath_poisson(ks, m)
        normal = want >= 1e-290
        assert np.max(np.abs(_rows(ks, m) - want)[normal] / want[normal]) <= 5e-12

    def test_heads_take_the_direct_formula(self):
        # the first count, a count after a gap and a repeat: the bits of
        # `_poisson_terms`, k = 0 included
        m = np.geomspace(1e-2, 250.0, 300)
        ks = [0, 1, 2, 9, 9, 10, 40, 64]
        got = _rows(ks, m)
        for i in (0, 3, 4, 6, 7):
            assert np.array_equal(got[i], timechange._poisson_terms(ks[i], m))
        assert np.array_equal(got[1], got[0] * (m / 1))

    @pytest.mark.parametrize("shared,columns,nodes", [
        (True, 5, 900), (False, 5, 400), (False, 3, 4000),
    ], ids=["shared-x", "union-band", "per-column-bands"])
    def test_mixed_counts_match_a_dense_sum(self, shared, columns, nodes):
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0.0, 3.0, (columns, nodes)), axis=1)
        x = x[0] if shared else x
        wd = rng.uniform(0.0, 1.0, (columns, nodes)) / nodes
        # consecutive runs, gaps and repeats, some runs across a block's end
        ks = np.array([0, 1, 2, 3, 3, 5, 6, 6, 6, 7, 30, *range(100, 240), 240, 240, 300, 599])
        ks = rng.permutation(ks)
        got = timechange._poisson_mix(ks, x, 200.0, wd)
        m = 200.0 * np.broadcast_to(x, wd.shape)
        dense = np.stack([_poisson_terms_reference(ks[:, None], row) @ w
                          for row, w in zip(m, wd)], axis=1)
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(dense)


class TestBandedKernel:
    HEAVY = [Stable(0.3), Composition((Stable(0.5), Stable(0.5))), InverseGaussian(1.0, 0.0)]

    @pytest.mark.parametrize("spec", HEAVY, ids=["stable0.3", "stable0.5^2", "ig-gamma0"])
    def test_matches_dense_sum_at_kmax_2000(self, spec):
        kmax = 2000
        ts = np.linspace(0.5, 2.0, 5)  # a multi-t window rule, as the registry builds
        rule = mixture_rule(spec, 1.0, 0.5, 2.0, kmax, 1e-11)
        ks = np.array([kmax, 0, kmax // 2])
        got = rule.pmf_matrix(ts, ks)
        assert np.max(np.abs(got - _dense_pmf_matrix(rule, ts, ks))) <= 1e-15
        # every count, shuffled: many blocks of the sorted counts
        ks = np.random.default_rng(0).permutation(kmax + 1)
        got = rule.pmf_matrix(ts[::2], ks)
        assert np.max(np.abs(got - _dense_pmf_matrix(rule, ts[::2], ks))) <= 1e-15

    @pytest.mark.parametrize("spec", [
        InverseGaussian(1.0, 1.0),
        Stable(0.5),
        TemperedStable(0.3, 1.0),
        InverseOf(Stable(0.5)),
        InverseOf(InverseGaussian(1.0, 1.0)),
        InverseOf(TemperedStable(0.5, 1.0)),
    ], ids=["ig", "stable", "tempered", "inverse-stable", "hitting-ig", "inverse-tempered0.5"])
    def test_rule_nodes_ascend(self, spec):
        law = spec.mixing_law()
        nodes = law.rule_nodes(0.5, 2.0, _poisson_cut(64, 1.0), 32)[0]
        assert np.all(np.diff(nodes) > 0)
        rule = mixture_rule(spec, 1.0, 0.5, 2.0, 64)
        for t in (0.5, 1.3, 2.0):
            assert np.all(np.diff(law.weighted(rule, t)[0]) > 0)

    def test_rule_rejects_unsorted_nodes(self):
        rule = mixture_rule(Stable(0.5), 1.0, 1.0, 1.0, 16)
        with pytest.raises(AssertionError):
            MixtureRule(1.0, rule.law, rule.nodes[::-1],
                        rule.weights[::-1], rule.dens[::-1], rule.x_hi)


def _by_column(rule, ts, ks):
    return np.column_stack([rule.pmf_matrix(np.array([t]), ks) for t in ts])


class TestBlockedColumns:
    """pmf_matrix and tail_mass take the times in blocks; single columns are the oracle."""

    @pytest.mark.parametrize("spec", [
        InverseGaussian(1.0, 0.5),
        Stable(0.25),
        TemperedStable(0.5, 1.0),
        InverseOf(Stable(1.0 / 3.0)),
        InverseOf(InverseGaussian(1.0, 1.0)),
    ], ids=["ig", "stable1/4", "tempered1/2", "inverse-stable1/3", "hitting-ig"])
    def test_blocks_equal_single_columns(self, spec):
        rule = mixture_rule(spec, 1.0, 0.5, 2.5, 4, 1e-11)
        # two full blocks and a ragged one, in shuffled order; few counts, as
        # the registry asks, so a block of columns shares one band
        ts = np.random.default_rng(1).permutation(np.linspace(0.5, 2.5, 37))
        ks = np.arange(4)
        got = rule.pmf_matrix(ts, ks)
        assert got.shape == (4, 37)
        assert np.max(np.abs(got - _by_column(rule, ts, ks))) <= 1e-14
        tails = [rule.tail_mass(np.array([t]), 3)[0] for t in ts]
        assert np.max(np.abs(rule.tail_mass(ts, 3) - tails)) <= 1e-14

    def test_blocks_equal_single_columns_at_kmax_2000(self):
        rule = mixture_rule(Stable(0.7), 20.0, 1.0, 3.0, 2000, 1e-11)
        ts, ks = np.linspace(1.0, 3.0, 18), np.arange(2001)
        got = rule.pmf_matrix(ts, ks)
        assert np.max(np.abs(got - _by_column(rule, ts, ks))) <= 1e-14

    def test_inverse_tempered_weighted_stacks_columns(self):
        spec = InverseOf(TemperedStable(0.3, 1.0))
        law = spec.mixing_law()
        nodes = np.array([0.2, 0.5, 1.0, 2.0])
        rule = MixtureRule(1.0, law, nodes, np.full(4, 0.25), None, 2.0)
        ts = np.array([1.5, 0.5, 1.0])
        x, wd = law.weighted(rule, ts[:, None])
        assert np.array_equal(x, nodes) and wd.shape == (3, 4)
        for j, t in enumerate(ts):
            x1, wd1 = law.weighted(rule, t)
            assert wd1.shape == (4,)
            assert np.array_equal(wd[j], wd1)
        ks = np.arange(5)
        assert np.max(np.abs(rule.pmf_matrix(ts, ks) - _by_column(rule, ts, ks))) <= 1e-14


class TestDensityMemo:
    """A one-column table makes one density pass: the settled rule's last
    probe is the table, and tail_mass shares its (x, wd) of one weighted()
    call."""

    @pytest.mark.parametrize("name,spec,points", [
        ("inverse_tempered_density", InverseOf(TemperedStable(0.3, 1.0)), 288),
        ("hitting_time_density_ig", InverseOf(InverseGaussian(1.0, 1.0)), 288),
    ], ids=["inverse-tempered0.3", "hitting-ig"])
    def test_one_density_pass_per_table(self, monkeypatch, name, spec, points):
        import tcpp.subordinators.spec as spec_module

        density, counted = getattr(spec_module, name), []

        def counting(x, *args):
            counted.append(np.size(x))
            return density(x, *args)

        monkeypatch.setattr(spec_module, name, counting)
        # the oracle forgets the memo before every call: one pass per call
        with monkeypatch.context() as forget:
            for method_name in ("pmf_matrix", "tail_mass"):
                method = getattr(MixtureRule, method_name)

                def forgetful(self, *args, _method=method):
                    self._last = None
                    return _method(self, *args)

                forget.setattr(MixtureRule, method_name, forgetful)
            mixture_rule.cache_clear()
            table_cache.cache_clear()
            want = pmf_table(1.0, 1.0, spec, method="quadrature")
        assert sum(counted) == points + want.route["nodes"]
        counted.clear()
        mixture_rule.cache_clear()
        table_cache.cache_clear()
        got = pmf_table(1.0, 1.0, spec, method="quadrature")
        assert sum(counted) == points
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.kmax, got.tail_bound, got.route) == (want.kmax, want.tail_bound, want.route)
        counted.clear()
        table_cache.cache_clear()
        again = pmf_table(1.0, 1.0, spec, method="quadrature")  # the cached rule
        assert sum(counted) == 0 and again.values.tobytes() == want.values.tobytes()

    def test_many_columns_keep_no_memo(self):
        rule = dataclasses.replace(
            mixture_rule(InverseOf(InverseGaussian(1.0, 1.0)), 1.0, 0.5, 2.0, 5))
        rule.pmf_matrix(np.linspace(0.5, 2.0, 7), np.arange(6))
        rule.tail_mass(np.linspace(0.5, 2.0, 7), 5)
        assert rule._last is None
        rule.pmf_matrix(np.array([0.7]), np.arange(6))
        assert rule._last[0] == 0.7


class TestPgfRoute:
    KMAX2000 = [Stable(0.3), Stable(0.5), Stable(0.7), InverseGaussian(1.0, 0.0),
                Composition((Stable(0.5), Stable(0.5))), TemperedStable(0.3, 1.0),
                TemperedStable(0.5, 1.0)]

    @pytest.mark.parametrize("spec", KMAX2000, ids=[
        "stable0.3", "stable0.5", "stable0.7", "ig-gamma0", "stable0.5^2", "tempered0.3",
        "tempered0.5"])
    def test_matches_quadrature_at_kmax_2000(self, spec):
        pgf = pmf_table(1.0, 1.0, spec, kmax=2000, method="pgf")
        quad = pmf_table(1.0, 1.0, spec, kmax=2000, method="quadrature")
        assert pgf.method == "pgf" and quad.method == "quadrature"
        assert np.max(np.abs(pgf.values - quad.values)) <= 1e-12
        assert abs(pgf.tail_bound - quad.tail_bound) <= 1e-12

    @pytest.mark.parametrize("lam,t", [(0.5, 0.5), (2.0, 1.0), (2.0, 5.0)])
    def test_ig_matches_bessel(self, lam, t):
        table = pmf_table(t, lam, InverseGaussian(1.0, 0.5), kmax=300, method="pgf")
        bessel = np.array([pmf_bessel_ig(k, t, lam, 1.0, 0.5) for k in range(301)])
        assert np.max(np.abs(table.values - bessel)) <= 1e-12

    def test_auto_routes(self):
        assert pmf_table(1.0, 1.0, Stable(0.5), kmax=8).method == "pgf"
        assert pmf_table(1.0, 1.0, InverseOf(Stable(0.5)), kmax=8).method == "quadrature"
        with pytest.raises(NoDensityError):
            pmf_table(1.0, 1.0, InverseOf(Stable(0.5)), kmax=8, method="pgf")
        with pytest.raises(DomainError):
            pmf_table(1.0, 1.0, Stable(0.5), method="fft")

    def test_auto_kmax_is_smallest_with_tail_below_1e_10(self):
        table = pmf_table(1.0, 2.0, InverseGaussian(1.0, 1.0))
        assert table.tail_bound < 1e-10
        # one count fewer leaves more than 1e-10 behind
        assert table.tail_bound + table.values[-1] >= 1e-10
        heavy = pmf_table(1.0, 1.0, Stable(0.5))
        assert heavy.kmax == 2000 and heavy.route["nodes"] == 8004

    def test_tail_bound_includes_aliasing(self):
        table = pmf_table(1.0, 1.0, TemperedStable(0.5, 1.0), kmax=64)
        alias = table.route["aliasing_bound"]
        assert table.route["radius"] ** table.route["nodes"] == pytest.approx(1e-13, rel=1e-9)
        assert alias == pytest.approx(1e-13, rel=1e-9)
        assert table.tail_bound >= alias
        assert abs(table.normalization_defect) <= 2 * alias

    ONE_PASS = [Stable(b) for b in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)] + [
        InverseGaussian(1.0, 0.0), Composition((Stable(0.5), InverseGaussian(1.0, 1.0))),
        Composition((InverseGaussian(1.0, 1.0), Stable(0.9)))]

    @staticmethod
    def _pass(t, lam, spec, n):
        """(raw p_k for k < n/4, radius) of one n-point pass of the PGF route."""
        return coefficients(lambda u: np.exp(-t * spec.phi(lam * (1.0 - u))), n)

    @classmethod
    def _doubling(cls, t, lam, spec):
        """Oracle for auto kmax: passes of n = 256, 512, ... points up to
        8004, stopping at the first whose tail column falls below 1e-10."""
        n = 256
        while True:
            raw, r = cls._pass(t, lam, spec, n)
            below = np.flatnonzero(1.0 - np.cumsum(np.clip(raw, 0.0, 1.0)) + ALIAS < 1e-10)
            if below.size or n == 8004:
                kmax = int(below[0]) if below.size else 2000
                values = np.clip(raw[: kmax + 1], 0.0, 1.0)
                tail = max(0.0, 1.0 - float(np.sum(values))) + ALIAS
                route = {"radius": r, "nodes": n, "aliasing_bound": ALIAS}
                return values, kmax, tail, route
            n = min(2 * n, 8004)

    @staticmethod
    def _counting(monkeypatch):
        import tcpp.timechange as timechange

        calls = []

        def counted(G, n):
            calls.append(n)
            return coefficients(G, n)

        monkeypatch.setattr(timechange, "coefficients", counted)
        return calls

    @pytest.mark.parametrize("spec", ONE_PASS, ids=[
        "stable0.1", "stable0.3", "stable0.5", "stable0.7", "stable0.9", "stable0.99",
        "ig-gamma0", "stable0.5-ig", "ig-stable0.9"])
    def test_infinite_mean_one_pass_matches_doubling(self, monkeypatch, spec):
        assert spec.mean_rate() == math.inf
        calls = self._counting(monkeypatch)
        for t in (1e-12, 1e-8, 1e-5, 1e-3, 0.25, 1.0, 4.0, 100.0):
            for lam in (0.5, 2.0, 20.0):
                values, kmax, tail, route = self._doubling(t, lam, spec)
                calls.clear()
                table = pmf_table(t, lam, spec, method="pgf")
                assert table.values.tobytes() == values.tobytes()
                assert (table.kmax, table.tail_bound, table.route) == (kmax, tail, route)
                # the cap pass comes first unless the tail bound rules it out;
                # a doubling after it reuses it at 8004
                first = 8004 if timechange._cap_tail_bound(t, lam, spec) >= 2e-10 else 256
                assert calls[0] == first and 8004 not in calls[1:]
                if t >= 1e-3:  # the tail stays high: the cap pass is the table
                    assert calls == [8004]
                if t == 1e-12:  # p_0 ~ 1: the doubling stops at once
                    assert calls == [256] and kmax < 64

    @pytest.mark.parametrize("t,lam,want", [
        (1e-12, 1.0, [256]), (1e-8, 0.5, [256, 512]), (1.0, 1.0, [8004])])
    def test_tail_bound_skips_the_cap_pass_at_tiny_t(self, monkeypatch, t, lam, want):
        spec = Stable(0.7)
        values, kmax, tail, route = self._doubling(t, lam, spec)
        calls = self._counting(monkeypatch)
        table = pmf_table(t, lam, spec, method="pgf")
        assert calls == want
        assert table.values.tobytes() == values.tobytes()
        assert (table.kmax, table.tail_bound, table.route) == (kmax, tail, route)

    @pytest.mark.parametrize("spec", ONE_PASS[:4] + ONE_PASS[6:], ids=[
        "stable0.1", "stable0.3", "stable0.5", "stable0.7", "ig-gamma0", "stable0.5-ig",
        "ig-stable0.9"])
    def test_cap_tail_bound_holds(self, spec):
        # P(N > 2000) = 1 - sum of the cap pass's 2001 values, up to its 1e-13 aliasing
        for t in (1e-8, 1e-5, 1e-3, 1.0):
            for lam in (0.5, 20.0):
                raw, _ = self._pass(t, lam, spec, 8004)
                past = 1.0 - float(np.sum(raw[:2001]))
                assert past <= timechange._cap_tail_bound(t, lam, spec) + 1e-12

    def test_finite_or_unstated_mean_keeps_the_doubling(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class PlainStable(SubordinatorSpec):
            # states no mean rate, so pmf_table may not assume an infinite one
            def to_dict(self):
                return {"type": "plain-stable", "beta": 0.7}

            def phi(self, s):
                # the same exponent, so the two searches must end on one table
                return Stable(0.7).phi(s)

        calls = self._counting(monkeypatch)
        plain = pmf_table(1.0, 1.0, PlainStable(), method="pgf")
        assert calls == [256, 512, 1024, 2048, 4096, 8004]
        stable = pmf_table(1.0, 1.0, Stable(0.7), method="pgf")
        assert calls[6:] == [8004]
        assert plain.values.tobytes() == stable.values.tobytes()
        assert plain.kmax == stable.kmax == 2000 and plain.route == stable.route
        calls.clear()
        tempered = pmf_table(1.0, 1.0, TemperedStable(0.3, 1.0), method="pgf")
        assert calls[0] == 256 and tempered.kmax < 2000

    def test_negative_coefficient_raises(self):
        class NotBernstein(Stable):
            # exp(-(1-u)^2) has negative u^3 coefficient: not a pgf
            def phi(self, s):
                return np.asarray(s, dtype=complex) ** 2

        with pytest.raises(ConvergenceError):
            pmf_table(1.0, 1.0, NotBernstein(0.5), kmax=8, method="pgf")

    def test_ig_tempered_composition_matches_monte_carlo(self):
        # no density evaluator, so Monte Carlo is the oracle: each cell within
        # 4 SE, widened by Bonferroni over the cells, plus a 5-draw floor
        from statistics import NormalDist

        spec = Composition((InverseGaussian(1.0, 1.0), TemperedStable(0.4, 1.0)))
        table = pmf_table(1.0, 1.0, spec)
        assert table.method == "pgf" and table.tail_bound < 1e-10
        n = 400_000
        mc = pmf_monte_carlo(1.0, 1.0, spec, n, seed=2026, kmax=table.kmax)
        p = np.append(table.values, table.tail_bound)
        q = np.append(mc.values, mc.tail_bound)
        z = NormalDist().inv_cdf(1.0 - NormalDist().cdf(-4.0) / p.size)
        allowed = z * np.sqrt(p * (1.0 - p) / n) + 5.0 / n
        assert np.all(np.abs(q - p) <= allowed)


class TestMonteCarloPmf:
    def test_within_4se_of_bessel(self):
        table = pmf_monte_carlo(1.0, 1.0, InverseGaussian(1.0, 1.0), 100_000, seed=77)
        n = 100_000
        for k in range(0, min(table.kmax, 12) + 1):
            p = pmf_bessel_ig(k, 1.0, 1.0, 1.0, 1.0)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(table.values[k] - p) <= 4.0 * se

    def test_halving_count_stability(self):
        big = pmf_monte_carlo(1.0, 1.0, InverseGaussian(1.0, 1.0), 80_000, seed=5)
        small = pmf_monte_carlo(1.0, 1.0, InverseGaussian(1.0, 1.0), 40_000, seed=6)
        for k in range(5):
            se = math.sqrt(
                big.stderr[k] ** 2 + (small.stderr[k] if k <= small.kmax else 0.0) ** 2
            )
            assert abs(big.values[k] - small.values[k]) <= 5.0 * se + 1e-4

    def test_composition_matches_quadrature(self):
        spec = Composition((Stable(0.5), Stable(0.5)))
        table = pmf_monte_carlo(1.0, 1.0, spec, 100_000, seed=19)
        for k in range(4):
            q = pmf_quadrature(k, 1.0, 1.0, spec)  # index-1/4 stable density
            se = max(float(table.stderr[k]), 1e-6)
            assert abs(table.values[k] - q) <= 4.0 * se

    def test_count_floor(self):
        with pytest.raises(DomainError):
            pmf_monte_carlo(1.0, 1.0, Stable(0.5), 10, seed=1)

    @pytest.mark.parametrize("spec, lam, count", [
        (InverseGaussian(1.0, 1.0), 1.0, 1000),
        (InverseGaussian(1.0, 1.0), 1.0, 2 ** 14),
        (InverseGaussian(1.0, 1.0), 1.0, 2 ** 14 + 1),
        (InverseGaussian(1.0, 1.0), 1.0, 100_000),
        (Stable(0.3), 20.0, 100_000),
        (Stable(0.9), 1.0, 100_000),
    ])
    def test_blocked_histogram_is_the_one_call_table(self, spec, lam, count):
        # the counts drawn block by block into a capped histogram, and kmax
        # read off it, give the table of one Poisson call under the rule of
        # every route: kmax is the largest count, or the 2000 cap
        seed, t = 12, 0.8
        table = pmf_monte_carlo(t, lam, spec, count, seed)
        values = sample(spec, t, count, seed).values
        counts = rng_stream(seed, 1).poisson(np.minimum(lam * values, 1e12))
        kmax = int(min(np.max(counts), 2000))
        freq = np.bincount(np.minimum(counts, kmax + 1), minlength=kmax + 2)
        assert table.kmax == kmax
        assert np.array_equal(table.values, freq[:kmax + 1] / count)
        assert table.tail_bound == float(freq[kmax + 1] / count)
        if isinstance(spec, Stable):
            assert kmax == 2000 and table.tail_bound > 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_heavy_tailed_kmax_is_the_exact_tables(self, seed):
        # a stable(0.9) count has no tail below 1e-10 before the cap: the
        # Monte Carlo table covers the cells of the PGF table it is checked
        # against (the 0.999-quantile rule gave 796, 768, 704 and 740)
        table = pmf_monte_carlo(1.0, 1.0, Stable(0.9), 100_000, seed)
        assert table.kmax == pmf_table(1.0, 1.0, Stable(0.9)).kmax == 2000


class TestFractionalPoisson:
    @pytest.mark.parametrize("beta", [0.25, 0.5])
    def test_k0_is_mittag_leffler(self, beta):
        got = fractional_poisson_pmf(0, 1.0, 1.0, beta)
        assert got == pytest.approx(mittag_leffler(beta, -1.0), abs=1e-9)

    def test_k0_half_erfc_form(self):
        got = fractional_poisson_pmf(0, 2.0, 1.5, 0.5)
        want = math.exp(1.5 ** 2 * 2.0) * erfc(1.5 * math.sqrt(2.0))
        assert got == pytest.approx(want, abs=1e-9)

    def test_beta_to_one_limit(self):
        for k in range(6):
            a = fractional_poisson_pmf(k, 1.0, 1.0, 0.999)
            assert a == pytest.approx(poisson_pmf(k, 1.0, 1.0), abs=1e-2)

    def test_normalization(self):
        total = sum(fractional_poisson_pmf(k, 1.0, 1.0, 0.5) for k in range(40))
        assert total == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("beta", [0.96, 0.99])
    def test_near_one_against_mpmath(self, beta):
        for t, lam in ((1.0, 1.0), (2.0, 1.5), (5.0, 3.0)):
            for k in (0, 1, 2, 5, 20):
                want = _mpmath_inverse_pmf(k, t, lam, beta, 0.0)
                assert abs(fractional_poisson_pmf(k, t, lam, beta) - want) <= 1e-10

    @pytest.mark.parametrize("k,t,lam,beta,want", [
        (0, 1e-300, 1.0, 0.97, 1.0), (0, 1e-300, 20.0, 0.977, 1.0), (0, 1e-30, 3.0, 0.975, 1.0),
        (60, 10.0, 1.0, 0.951, 0.0), (100, 5.0, 3.0, 0.96, 0.0), (100, 1.0, 20.0, 0.951, 0.0)])
    def test_near_one_is_a_probability(self, k, t, lam, beta, want):
        # the settled 32-node values read 1 + 6.6e-10, 1 + 9.4e-10, 1 + 7.6e-11,
        # -4.5e-25, -2.1e-23 and -3.7e-16; the law is 1 - O(t^beta) at k = 0
        # and far below 1e-16 at these counts, so the clip reads the truth
        assert fractional_poisson_pmf(k, t, lam, beta) == want

    def test_near_one_raises_when_node_counts_disagree(self):
        # at k = 100, t = 10, lambda = 5 the 24- and 32-node contours give
        # -2.5e2 and -1.5e-4
        with pytest.raises(ConvergenceError):
            fractional_poisson_pmf(100, 10.0, 5.0, 0.96)


class TestMomentsIG:
    def test_closed_form_values(self):
        # lam d t/g and lam d t/g + lam^2 d t/g^3, exact in binary here
        assert moments_ig(3.0, 2.0, 1.0, 1.0) == (6.0, 18.0)
        assert moments_ig(5.0, 2.0, 1.0, 0.5) == (20.0, 180.0)

    def test_huge_lambda_is_refused_before_the_table(self):
        # lam^2 Var G(t) overflows: the variance is inf, not inf - inf, and the
        # table search refuses before it sizes a table from it
        assert moments_ig(1.0, 1e300, 1.0, 1.0) == (1e300, math.inf)
        with pytest.raises(ConvergenceError, match="second-moment tail"):
            ig_moment_table(1.0, 1e300, 1.0, 1.0)

    def test_matches_pmf_summation(self):
        mean, var = moments_ig(1.0, 1.0, 1.0, 1.0)
        table = pmf_table(1.0, 1.0, InverseGaussian(1.0, 1.0), kmax=256)
        ks = np.arange(257, dtype=float)
        m1 = float(np.sum(ks * table.values))
        m2 = float(np.sum(ks * ks * table.values))
        assert abs(m1 - mean) <= 1e-6
        assert abs(m2 - m1 * m1 - var) <= 1e-6

    def test_overdispersion(self):
        for lam in (0.5, 2.0):
            for g in (0.5, 1.0, 2.0):
                mean, var = moments_ig(1.5, lam, 1.0, g)
                assert var >= mean

    def test_domain(self):
        with pytest.raises(DomainError):
            moments_ig(1.0, 1.0, 1.0, 0.0)


class TestWaitingTimes:
    def test_lt_closed_form(self):
        lam, delta, gamma, s = 1.0, 1.0, 1.0, 2.0
        want = lam / (lam + delta * (math.sqrt(gamma * gamma + 2 * s) - gamma))
        assert waiting_time_lt(s, lam, delta, gamma) == want

    def test_lt_tempered_ml_form(self):
        # delta = 1/sqrt(2): LT = lam/(lam + (s+a)^(1/2) - a^(1/2)), a = g^2/2
        lam, gamma, s = 1.3, 0.8, 1.7
        a = gamma * gamma / 2.0
        want = lam / (lam + math.sqrt(s + a) - math.sqrt(a))
        got = waiting_time_lt(s, lam, 1 / math.sqrt(2.0), gamma)
        assert got == pytest.approx(want, rel=1e-14)

    def test_lt_gamma_zero(self):
        for s in (0.3, 1.0, 4.0):
            got = waiting_time_lt(s, 1.0, 1 / math.sqrt(2.0), 0.0)
            assert got == pytest.approx(1.0 / (1.0 + math.sqrt(s)), rel=1e-14)

    def test_lt_small_s_limit(self):
        assert waiting_time_lt(1e-12, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_survival_vs_lt_consistency(self):
        # E e^{-s J}, with J's survival from quadrature, must match the closed
        # LT: s int_0^inf e^{-sx} P(J > x) dx = 1 - E e^{-sJ}
        from scipy.integrate import quad

        lam, delta, gamma, s = 1.0, 1.0, 1.0, 1.0
        integral = quad(
            lambda x: math.exp(-s * x) * waiting_time_survival(x, lam, delta, gamma),
            0, 50, limit=200,
        )[0]
        assert s * integral == pytest.approx(
            1.0 - waiting_time_lt(s, lam, delta, gamma), abs=1e-7
        )

    def test_survival_is_ml_at_gamma_zero(self):
        # P(J > x) = E e^{-lam H(x)} = E_{1/2}(-lam sqrt(x)) for the 1/2-stable clock
        lam = 1.0
        for x in (0.5, 1.0, 2.0):
            got = waiting_time_survival(x, lam, 1 / math.sqrt(2.0), 0.0)
            assert got == pytest.approx(
                mittag_leffler(0.5, -lam * math.sqrt(x)), abs=1e-7
            )


class TestPmfTableSerialization:
    def test_json_round_trip(self):
        table = pmf_table(1.0, 1.0, TemperedStable(0.5, 1.0), kmax=12)
        again = PmfTable.from_dict(table.to_dict())
        assert again.spec == table.spec
        assert np.allclose(again.values, table.values)
        assert again.tail_bound == table.tail_bound

    def test_csv_17_digits(self):
        table = pmf_table(1.0, 1.0, InverseGaussian(1.0, 1.0), kmax=4)
        rows = list(table.csv_rows())
        assert rows[0] == ["k", "value"]
        val = rows[1][1]
        # 17 significant digits, '.' decimal separator, round-trips exactly
        assert "," not in val
        assert len(val.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 15
        assert float(val) == table.values[0]

    def test_mc_stderr_column(self):
        table = pmf_monte_carlo(1.0, 1.0, InverseGaussian(1.0, 1.0), 2000, seed=3)
        rows = list(table.csv_rows())
        assert rows[0] == ["k", "value", "stderr"]

    def test_pgf_provenance_round_trip(self):
        table = pmf_table(1.0, 1.0, Stable(0.5), kmax=40)
        d = table.to_dict()
        assert d["method"] == "pgf"
        assert set(d["route"]) == {"radius", "nodes", "aliasing_bound"}
        assert d["route"]["nodes"] == 256
        again = PmfTable.from_dict(json.loads(table.to_json()))
        assert again.route == table.route and again.method == "pgf"
        assert np.array_equal(again.values, table.values)

    def test_quadrature_provenance_round_trip(self):
        table = pmf_table(1.0, 1.0, InverseOf(Stable(0.5)), kmax=12)
        d = table.to_dict()
        assert d["route"] == {"nodes": mixture_rule(InverseOf(Stable(0.5)), 1.0, 1.0, 1.0,
                                                    12).nodes.size,
                              "tol": 1e-10}
        assert "tolerances" not in d
        assert PmfTable.from_dict(json.loads(table.to_json())).route == d["route"]

    @pytest.mark.parametrize("field, value", [
        ("kmax", 3.7), ("kmax", -1), ("kmax", "12"), ("lambda", "1"), ("lambda", 0.0),
        ("t", True), ("t", None), ("tail_bound", "0"), ("seed", 1.5), ("seed", False),
    ])
    def test_from_dict_refuses_what_the_rule_refuses(self, field, value):
        # t, lambda, tail_bound, kmax and seed are read by the shared rule, not coerced
        table = pmf_monte_carlo(1.0, 1.0, InverseGaussian(1.0, 1.0), 2000, seed=3, kmax=3)
        d = json.loads(table.to_json())
        assert PmfTable.from_dict(dict(d)).kmax == 3
        d[field] = value
        with pytest.raises(DomainError):
            PmfTable.from_dict(d)

    @pytest.mark.parametrize("values,tail", [([math.nan, 0.5], 0.5), ([0.5, 0.5], math.nan),
                                             ([math.inf, 0.0], 0.0), ([0.5, 0.5], math.inf)],
                             ids=["nan-value", "nan-tail", "inf-value", "inf-tail"])
    def test_non_finite_values_or_tail_rejected(self, values, tail):
        with pytest.raises(DomainError, match="finite"):
            PmfTable(spec=Stable(0.5), lam=1.0, t=1.0, kmax=1, values=np.array(values),
                     tail_bound=tail)
        d = pmf_table(1.0, 1.0, Stable(0.5), kmax=1).to_dict()
        d.update(values=values, tail_bound=tail)
        with pytest.raises(DomainError, match="finite"):
            PmfTable.from_dict(json.loads(json.dumps(d)))

    def test_gross_normalization_violation_rejected(self):
        with pytest.raises(DomainError):
            PmfTable(
                spec=Stable(0.5), lam=1.0, t=1.0, kmax=1,
                values=np.array([0.3, 0.3]), tail_bound=0.0,
            )


class TestTableCache:
    """An identical request, once normalized, is served the table already made."""

    IG = InverseGaussian(1.0, 1.0)

    def test_repeat_returns_identical_bytes(self):
        first = pmf_table(1, 1, self.IG)
        again = pmf_table(1.0, 1.0, self.IG, kmax=None, method="bessel")
        mc = pmf_monte_carlo(1.0, 2.0, self.IG, 2000, seed=4)
        mc_again = pmf_monte_carlo(1, 2, self.IG, 2000, 4)
        assert again.values.tobytes() == first.values.tobytes()
        assert mc_again.values.tobytes() == mc.values.tobytes()
        assert mc_again.stderr.tobytes() == mc.stderr.tobytes()
        info = table_cache.cache_info()
        assert (info.hits, info.misses) == (2, 2)

    def test_tables_are_read_only_copies(self):
        table = pmf_monte_carlo(1.0, 1.0, self.IG, 2000, seed=3)
        with pytest.raises(ValueError):
            table.values[0] = 0.5
        with pytest.raises(ValueError):
            table.stderr[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.kmax = 3
        pgf = pmf_table(1.0, 1.0, self.IG, kmax=4, method="pgf")
        with pytest.raises(TypeError):
            pgf.route["nodes"] = 1
        d = pgf.to_dict()
        d["route"]["nodes"] = 1
        assert pgf.route["nodes"] == 256
        given = np.array([0.5, 0.25])
        built = PmfTable(spec=self.IG, lam=1.0, t=1.0, kmax=1, values=given, tail_bound=0.25)
        given[0] = 0.0
        assert built.values[0] == 0.5 and given.flags.writeable

    def test_new_entry_per_seed_kmax_and_method(self):
        base = pmf_table(1.0, 1.0, self.IG)
        assert pmf_table(1.0, 1.0, self.IG, method="auto") is base
        assert pmf_table(1.0, 1.0, self.IG, method="bessel") is base
        others = [pmf_table(1.0, 1.0, self.IG, kmax=8), pmf_table(1.0, 1.0, self.IG,
                                                                  method="pgf")]
        assert others[1].method == "pgf" and others[0].kmax == 8
        inverse = InverseOf(Stable(0.5))
        quad = pmf_table(1.0, 1.0, inverse, kmax=6)
        assert pmf_table(1.0, 1.0, inverse, kmax=6, method="quadrature") is quad
        mcs = [pmf_monte_carlo(1.0, 1.0, self.IG, 2000, seed) for seed in (1, 2)]
        assert mcs[0].values.tobytes() != mcs[1].values.tobytes()
        info = table_cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 6, 6)

    def test_cache_clear_empties_the_cache(self):
        first = pmf_table(1.0, 1.0, self.IG)
        assert table_cache.cache_info().currsize == 1
        table_cache.cache_clear()
        assert table_cache.cache_info().currsize == 0
        again = pmf_table(1.0, 1.0, self.IG)
        assert again is not first and again.values.tobytes() == first.values.tobytes()

    def test_raised_error_is_not_cached(self, monkeypatch):
        import tcpp.timechange as timechange

        calls = []
        real = timechange.ROUTES["bessel"].table

        def flaky(*args):
            calls.append(args)
            if len(calls) == 1:
                raise ConvergenceError("first call fails")
            return real(*args)

        monkeypatch.setitem(timechange.ROUTES, "bessel",
                            timechange.ROUTES["bessel"]._replace(table=flaky))
        with pytest.raises(ConvergenceError):
            pmf_table(1.0, 1.0, self.IG, method="bessel")
        assert table_cache.cache_info().currsize == 0
        table = pmf_table(1.0, 1.0, self.IG, method="bessel")
        assert len(calls) == 2 and table.method == "bessel"


class TestRefusals:
    """A table that would mislead is refused with ConvergenceError, and a
    request that names no table with DomainError."""

    @pytest.mark.parametrize("t,lam", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                       (1.0, -1.0)])
    def test_non_finite_or_non_positive_t_or_lambda(self, t, lam):
        with pytest.raises(DomainError):
            pmf_table(t, lam, InverseGaussian(1.0, 1.0))
        with pytest.raises(DomainError):
            pmf_monte_carlo(t, lam, InverseGaussian(1.0, 1.0), 2000, seed=1)
        assert table_cache.cache_info().currsize == 0

    @pytest.mark.parametrize("t,lam,kmax", [(True, 1.0, None), (1.0, "1", None), (1.0, 1.0, 3.7),
                                            (1.0, 1.0, False), (1.0, 1.0, 2 ** 20 + 1)])
    def test_request_passes_the_shared_rule(self, t, lam, kmax):
        # a bool or a string is no number, kmax is an integer, and 2^20 counts
        # bound a table before any route runs
        for method in ("bessel", "pgf", "quadrature"):
            with pytest.raises(DomainError):
                pmf_table(t, lam, InverseGaussian(1.0, 1.0), kmax=kmax, method=method)
        with pytest.raises(DomainError):
            pmf_monte_carlo(t, lam, InverseGaussian(1.0, 1.0), 2000, seed=1, kmax=kmax)
        assert table_cache.cache_info().currsize == 0
        assert pmf_table(1, 1, InverseGaussian(1.0, 1.0), kmax=3.0).kmax == 3

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_bool_request_is_refused_warm_or_cold(self, warm):
        # True == 1 as a cache key: the request is checked before the lookup
        ig = InverseGaussian(1.0, 1.0)
        if warm:
            pmf_table(1, 1, ig)
            pmf_monte_carlo(1, 1, ig, 2000, seed=1)
        with pytest.raises(DomainError, match="t = True"):
            pmf_table(True, 1, ig)
        with pytest.raises(DomainError, match="t = True"):
            pmf_monte_carlo(True, 1, ig, 2000, seed=1)
        assert table_cache.cache_info().currsize == (2 if warm else 0)

    def test_monte_carlo_count_and_seed_are_checked_not_coerced(self):
        ig = InverseGaussian(1.0, 1.0)
        with pytest.raises(DomainError, match="count = 1000.5"):
            pmf_monte_carlo(1.0, 1.0, ig, 1000.5, seed=1)
        with pytest.raises(DomainError, match="seed = True"):
            pmf_monte_carlo(1.0, 1.0, ig, 1000, seed=True)
        assert table_cache.cache_info().currsize == 0
        table = pmf_monte_carlo(1.0, 1.0, ig, 1000.0, seed=1)
        assert table is pmf_monte_carlo(1.0, 1.0, ig, 1000, seed=1)
        assert table.seed == 1 and type(table.seed) is int
        drawn = table.values * 1000  # 1000 draws: each cell a whole number of them
        assert np.allclose(drawn, np.rint(drawn), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("call", [
        lambda: sample(InverseGaussian(1.0, 1.0), math.nan, 3, seed=1),
        lambda: sample(InverseGaussian(1.0, 1.0), math.inf, 3, seed=1),
        lambda: sample_path(InverseGaussian(1.0, 1.0), [0.5, math.nan], 2, seed=1),
        lambda: sample_path(InverseGaussian(1.0, 1.0), [0.5, math.inf], 2, seed=1),
        lambda: ig_density(1.0, math.nan, 1.0, 1.0),
        lambda: ig_density(1.0, 1.0, 1.0, math.nan),
        lambda: moments_ig(math.nan, 1.0, 1.0, 1.0),
        lambda: moments_ig(1.0, 1.0, 1.0, math.inf),
        lambda: pmf_quadrature(0, math.nan, 1.0, InverseGaussian(1.0, 1.0)),
        lambda: pmf_quadrature(0, 1.0, math.nan, InverseGaussian(1.0, 1.0)),
        lambda: pmf_bessel_ig(0, math.nan, 1.0, 1.0, 1.0),
        lambda: pmf_bessel_ig(0, 1.0, math.nan, 1.0, 1.0),
        lambda: pmf_bessel_ig(0, 1.0, 1.0, 1.0, math.nan),
        lambda: InverseGaussian(math.nan, 1.0),
        lambda: TemperedStable(0.5, math.nan),
    ], ids=["sample-t-nan", "sample-t-inf", "path-nan", "path-inf", "ig-density-t-nan",
            "ig-density-gamma-nan", "moments-t-nan", "moments-gamma-inf", "quadrature-t-nan",
            "quadrature-lambda-nan", "bessel-t-nan", "bessel-lambda-nan", "bessel-gamma-nan",
            "ig-spec-delta-nan", "tempered-spec-mu-nan"])
    def test_nan_is_refused_not_propagated(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: fractional_poisson_pmf(1.5, 1.0, 1.0, 0.97),
        lambda: fractional_poisson_pmf(1.5, 1.0, 1.0, 0.5),
        lambda: fractional_poisson_pmf(True, 1.0, 1.0, 0.97),
        lambda: fractional_poisson_pmf(-1, 1.0, 1.0, 0.97),
        lambda: fractional_poisson_pmf(0, math.nan, 1.0, 0.97),
        lambda: fractional_poisson_pmf(0, 1.0, math.inf, 0.97),
        lambda: pmf_bessel_ig(1.5, 1.0, 1.0, 1.0, 1.0),
        lambda: pmf_bessel_ig(True, 1.0, 1.0, 1.0, 1.0),
        lambda: pmf_bessel_ig(1, 1.0, 1.0, 1.0, math.inf),
        lambda: pmf_bessel_ig(1, math.inf, 1.0, 1.0, 1.0),
        lambda: pmf_bessel_ig(1, [1.0, math.inf], 1.0, 1.0, 1.0),
        lambda: pmf_bessel_ig(1, 1.0, 1.0, math.inf, 1.0),
        lambda: waiting_time_lt(math.nan, 1.0, 1.0, 1.0),
        lambda: waiting_time_lt(True, 1.0, 1.0, 1.0),
        lambda: waiting_time_lt(1.0, -1.0, 1.0, 1.0),
        lambda: waiting_time_lt(1.0, 1.0, 0.0, 1.0),
        lambda: waiting_time_lt(1.0, 1.0, 1.0, -1.0),
        lambda: moments_ig(True, 1.0, 1.0, 1.0),
    ], ids=["fractional-k-1.5-talbot", "fractional-k-1.5-quadrature", "fractional-k-bool",
            "fractional-k-negative", "fractional-t-nan", "fractional-lambda-inf",
            "bessel-k-1.5", "bessel-k-bool", "bessel-gamma-inf", "bessel-t-inf",
            "bessel-t-array-inf", "bessel-delta-inf", "lt-s-nan", "lt-s-bool",
            "lt-lambda-negative", "lt-delta-zero", "lt-gamma-negative", "moments-t-bool"])
    def test_bad_input_is_a_domain_error(self, call):
        # the shared rule (`errors.Domain`): k an integer >= 0, t, lambda,
        # delta, s and the Bessel gamma finite and > 0, no bool for any
        with pytest.raises(DomainError):
            call()

    def test_finite_mean_at_the_cap_is_refused(self):
        ig = InverseGaussian(1.0, 1.0)  # mean count lam t delta / gamma = 1e4
        for method in ("pgf", "bessel"):
            with pytest.raises(ConvergenceError, match=f"{method} route.*--kmax"):
                pmf_table(100.0, 100.0, ig, method=method)
        with pytest.raises(ConvergenceError, match="mc route.*--kmax"):
            pmf_monte_carlo(100.0, 100.0, ig, 2000, seed=1)
        table = pmf_table(100.0, 100.0, ig, kmax=2000)  # a given kmax keeps its tail
        assert table.kmax == 2000 and table.tail_bound > 0.99

    def test_infinite_mean_at_the_cap_keeps_its_tail(self):
        table = pmf_table(1.0, 3.0, Stable(0.5))
        assert table.kmax == 2000 and table.tail_bound > 1e-3

    @pytest.mark.parametrize("spec, method, served", [
        (InverseGaussian(1.0, 1.0), "mc", "bessel, pgf, quadrature, mc"),
        (InverseOf(Stable(0.97)), "mc", "mc"),
        (InverseOf(Stable(0.97)), "auto", "mc"),
    ], ids=["ig-mc", "inverse-stable0.97-mc", "inverse-stable0.97-auto"])
    def test_monte_carlo_is_refused_naming_pmf_monte_carlo(self, spec, method, served):
        # pmf_table takes no count or seed: Monte Carlo is pmf_monte_carlo's
        with pytest.raises(NoDensityError, match="pmf_table draws no Monte Carlo table") as err:
            pmf_table(1.0, 1.0, spec, method=method)
        assert str(err.value).endswith(f"methods that serve it: {served} (mc: pmf_monte_carlo)")
        assert table_cache.cache_info().currsize == 0

    @pytest.mark.parametrize("t", [1e12, 1e40])
    def test_inverse_tempered_past_the_tilt_panel_budget(self, t):
        # the relative spread of D_mu(x) at the far nodes asks for more than
        # 2^16 panels at one point: refused before any array is sized by them
        with pytest.raises(ConvergenceError, match="panels at a point"):
            pmf_table(t, 1.0, InverseOf(TemperedStable(0.3, 1.0)))

    def test_normalization_defect_is_a_convergence_error(self, monkeypatch):
        import tcpp.timechange as timechange

        real = timechange.ROUTES["bessel"].table

        def doubled(*args):
            fields = real(*args)
            return dict(fields, values=2.0 * fields["values"])

        monkeypatch.setitem(timechange.ROUTES, "bessel",
                            timechange.ROUTES["bessel"]._replace(table=doubled))
        with pytest.raises(ConvergenceError, match="bessel route.*normalization defect"):
            pmf_table(1.0, 1.0, InverseGaussian(1.0, 1.0), kmax=6, method="bessel")


class TestTinyTime:
    """At t far below the float range of t^2 every inverse clock is served:
    kmax 0, and P(N >= 1) = 1 - E e^(-lam E(t)) is lam E E(t) to first order."""

    T = 1e-200

    @pytest.mark.parametrize("spec, mean", [
        # the IG hitting time starts as the running maximum of delta B: sqrt(2t/pi)/delta
        (InverseOf(InverseGaussian(1.0, 1.0)), math.sqrt(2.0 * T / math.pi)),
        (InverseOf(TemperedStable(0.5, 1.0)), T ** 0.5 / math.gamma(1.5)),
        # E E(t) = t^beta / Gamma(1 + beta) to first order in t
        (InverseOf(TemperedStable(0.3, 1.0)), T ** 0.3 / math.gamma(1.3)),
        (InverseOf(Stable(0.3)), T ** 0.3 / math.gamma(1.3)),
        (InverseOf(Composition((Stable(0.5), Stable(0.5)))), T ** 0.25 / math.gamma(1.25)),
    ], ids=["ig", "tempered0.5", "tempered0.3", "stable0.3", "stable0.5-stable0.5"])
    @pytest.mark.parametrize("lam", [1.0, 3.0])
    def test_tail_is_lambda_times_the_mean(self, spec, mean, lam):
        # the middle settling probe once took sqrt(t_lo t_hi), 0 below 1.5e-154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = pmf_table(self.T, lam, spec)
        assert table.method == "quadrature" and table.kmax == 0
        assert table.tail_bound == pytest.approx(lam * mean, rel=1e-6)


@dataclasses.dataclass(frozen=True)
class _Drift(SubordinatorSpec):
    """A Levy clock that states only its exponent and increments, X(t) = c t,
    and so no hitting route of its own."""

    c: float
    kind = "drift"
    domains = {"c": POSITIVE}

    def phi(self, s):
        return self.c * np.asarray(s)

    def increment(self, rng, dt):
        return self.c * np.asarray(dt, dtype=float)


class TestClockWithoutHittingRoute:
    """The inverse of a clock with no `hitting()` is refused with
    NoDensityError, never an AttributeError; the clock itself is served."""

    INV = InverseOf(_Drift(2.0))

    def test_pmf_table_refuses_and_names_no_route(self):
        with pytest.raises(NoDensityError, match=r"no pmf route serves .*methods that serve "
                                                 r"it: none$"):
            pmf_table(1.0, 1.0, self.INV)
        with pytest.raises(NoDensityError, match="quadrature route does not serve"):
            pmf_table(1.0, 1.0, self.INV, method="quadrature")

    @pytest.mark.parametrize("call,refusal", [
        (lambda spec: pmf_monte_carlo(1.0, 1.0, spec, 1000, seed=1), "mc route does not serve"),
        (lambda spec: sample(spec, 1.0, 3, seed=1), "no hitting route"),
        (lambda spec: sample_path(spec, [0.5, 1.0], 2, seed=1), "no hitting route"),
    ], ids=["pmf_monte_carlo", "sample", "sample_path"])
    def test_draws_are_refused(self, call, refusal):
        with pytest.raises(NoDensityError, match=refusal):
            call(self.INV)

    def test_cli_pmf_exits_3(self, monkeypatch, tmp_path, capsys):
        from tcpp.cli import main
        from tcpp.subordinators import spec as spec_module

        monkeypatch.setitem(spec_module._KINDS, "drift", _Drift)
        out = tmp_path / "p.csv"
        rc = main(["pmf", "--spec", '{"type":"inverse","base":{"type":"drift","c":2}}',
                   "--lambda", "1", "--t", "1", "--count", "1000", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3 and err.startswith("error: ") and not out.exists()
        # no route serves, so the refusal names none, nor pmf_monte_carlo
        assert err.rstrip().endswith("methods that serve it: none")

    def test_unstated_mean_keeps_its_tail_at_the_cap(self):
        # mean count 4000, far past the cap: an unstated mean is not refused
        # there, as a finite one is
        assert _Drift(2.0).mean_rate() is None
        table = pmf_table(2000.0, 1.0, _Drift(2.0))
        assert table.kmax == 2000 and table.tail_bound > 0.5
        with pytest.raises(ConvergenceError, match="kmax cap"):
            pmf_table(4000.0, 1.0, InverseGaussian(1.0, 1.0))

    def test_the_clock_itself_is_served_by_pgf(self):
        # N(2t) is Poisson with mean 2 lam t
        table = pmf_table(1.5, 1.0, _Drift(2.0))
        assert table.method == "pgf"
        want = np.array([poisson_pmf(k, 3.0, 1.0) for k in range(table.kmax + 1)])
        assert np.max(np.abs(table.values - want)) <= 1e-12


class TestMixedPoissonIdentity:
    def test_two_sample_chi_square(self):
        # N(G(t)) with delta=1, gamma=0 equals N(lam t^2 Y), Y ~ 1/Z^2
        from scipy.stats import chi2

        from tcpp.subordinators.sampling import rng_stream, sample

        lam, t, n = 1.0, 2.0, 100_000
        g = sample(InverseGaussian(1.0, 0.0), t, n, seed=404).values
        rng = rng_stream(404, 1)
        n1 = rng.poisson(np.minimum(lam * g, 1e12))
        rng2 = rng_stream(405, 0)
        y = 1.0 / rng2.standard_normal(n) ** 2
        n2 = rng_stream(405, 1).poisson(np.minimum(lam * t * t * y, 1e12))
        bins = np.arange(0, 32)
        c1 = np.bincount(np.minimum(n1, 31), minlength=32).astype(float)
        c2 = np.bincount(np.minimum(n2, 31), minlength=32).astype(float)
        keep = (c1 + c2) > 0
        stat = float(np.sum((c1[keep] - c2[keep]) ** 2 / (c1[keep] + c2[keep])))
        p = float(chi2.sf(stat, np.count_nonzero(keep) - 1))
        assert p > 0.001
