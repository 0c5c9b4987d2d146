"""The stable engine (tcpp.subordinators.stable) against independent routes."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebpts1, chebvander

from tcpp.errors import ConvergenceError
from tcpp.specfun import log_gamma
from tcpp.subordinators.stable import StableUnit, stable_unit


def _zolotarev(beta, x):
    """(pdf, cdf, sf) of D(1) at x from the Zolotarev integral, by mp.quad at
    30 digits.  The integrand is scaled by e^(xi a0), a0 = A(0+), and split
    where A(theta) = 1/xi (the peak of A exp(-xi A)) and, in the left tail, at
    w 2^j, where w = (xi a0)^(-1/2) is about the width of the peak at theta = 0."""
    from mpmath import mp, mpf

    with mp.workdps(30):
        b = mpf(beta)
        r = b / (1 - b)
        x = mpf(x)
        xi = x ** (-r)
        a0 = (1 - b) * b ** r

        memo = {}  # both integrals visit the same nodes

        def log_a(th):
            if th not in memo:
                memo[th] = (mp.log(mp.sin((1 - b) * th)) + r * mp.log(mp.sin(b * th))
                            - mp.log(abs(mp.sin(th))) / (1 - b))
            return memo[th]

        pts = [0, mp.pi]
        if a0 * xi < 1:  # A(0+) < 1/xi: the peak is inside (0, pi)
            lo, hi = mpf("1e-20"), mp.pi - mpf("1e-20")
            for _ in range(100):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if log_a(mid) < -mp.log(xi) else (lo, mid)
            pts = [0, lo, mp.pi]
        else:
            w = (a0 * xi) ** mpf(-0.5)
            pts = [0] + [w * 2 ** j for j in range(12) if w * 2 ** j < mp.pi] + [mp.pi]

        def scaled(th):
            return mp.exp(-xi * (mp.exp(log_a(th)) - a0))

        pdf = mp.quad(lambda th: mp.exp(log_a(th)) * scaled(th), pts)
        cdf = mp.quad(scaled, pts) / mp.pi * mp.exp(-xi * a0)
        pdf *= b / (1 - b) * x ** (-1 / (1 - b)) / mp.pi * mp.exp(-xi * a0)
        return float(pdf), float(cdf), float(1 - cdf)


def _left_edge(su):
    """The x where the exponent a0 x^(-beta/(1-beta)) of D(1)'s left tail is 48."""
    return (su.a0 / 48.0) ** (1.0 / su.ratio)


class TestZolotarevOracle:
    @pytest.mark.parametrize("beta", [0.25, 0.3, 0.7, 0.9, 0.95])
    def test_pdf_cdf_sf(self, beta):
        # from _left_edge / 100, where the density is e^-223 at beta = 0.25,
        # to past the tail series' switch point
        su = stable_unit(beta)
        lo, hi = _left_edge(su), su.x_series
        for x in (lo / 100, lo / 3, 1.5 * lo, math.sqrt(lo * hi), 0.9 * hi, 1.1 * hi, 1e3 * hi):
            want = _zolotarev(beta, x)
            got = [float(f(np.array([x]))[0]) for f in (su.pdf, su.cdf, su.sf)]
            for g, w in zip(got, want):
                if w > 1e-280:
                    assert abs(g - w) <= 1e-10 * w, (x, got, want)

    @pytest.mark.parametrize("beta", [0.25, 0.3, 0.7, 0.9, 0.95])
    def test_deep_left_tail(self, beta):
        # down to x = 1e-300, where x^(-beta/(1-beta)) overflows for beta > 0.3:
        # finite values, no warning; the log density is finite or, where the
        # density is below e^-1e17, -inf
        su = stable_unit(beta)
        x = np.geomspace(1e-300, _left_edge(su), 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pdf, cdf, sf, log_pdf = su.pdf(x), su.cdf(x), su.sf(x), su.log_pdf(x)
        for values in (pdf, cdf, sf):
            assert np.all(np.isfinite(values) & (values >= 0.0))
        assert not np.any(np.isnan(log_pdf)) and np.all(log_pdf < 0.0)
        assert np.array_equal(np.exp(log_pdf), pdf)
        assert np.all(np.isfinite(log_pdf[x >= 1e-10 * _left_edge(su)]))

    def test_half_closed_forms_deep_left_tail(self):
        # the index-1/2 closed forms down to x = 1e-300, where x^-1.5 overflows:
        # finite values, no warning, and pdf = exp(log_pdf) up to rounding (the
        # two closed forms are rounded apart, so not bit for bit)
        su = stable_unit(0.5)
        x = np.concatenate([np.geomspace(1e-300, 1e-4, 600),
                            np.linspace(1e-4, _left_edge(su), 600)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pdf, cdf, sf, log_pdf = su.pdf(x), su.cdf(x), su.sf(x), su.log_pdf(x)
        for values in (pdf, cdf, sf):
            assert np.all(np.isfinite(values) & (values >= 0.0))
        assert np.all(np.isfinite(log_pdf))
        normal = pdf >= 1e-300
        assert np.count_nonzero(normal) > 100
        assert np.all(np.abs(pdf[normal] - np.exp(log_pdf[normal])) <= 1e-12 * pdf[normal])
        assert np.all(pdf[x < 1e-200] == 0.0)


TABLE_BETAS = np.linspace(0.05, 0.95, 20)


class TestChebyshevTable:
    """The per-beta tables against `_integral`, which builds them."""

    @pytest.mark.parametrize("beta", TABLE_BETAS, ids=lambda b: f"{b:.3f}")
    def test_table_reproduces_the_integral(self, beta):
        su = StableUnit(beta)
        x = np.exp(np.random.default_rng(7).uniform(su._z_lo, math.log(su.x_series), 20000))
        x = x[x < su.x_series]
        for want_pdf in (True, False):
            want = su._integral(x, want_pdf)
            got = su._left(x, want_pdf)
            big = want >= 1e-290
            assert np.count_nonzero(big) > 10000
            assert np.all(np.abs(got[big] - want[big]) <= 1e-11 * want[big]), (beta, want_pdf)
        assert np.array_equal(su.pdf(x), su._left(x, True))
        assert np.array_equal(su.cdf(x), np.clip(su._left(x, False), 0.0, 1.0))

    @pytest.mark.parametrize("beta", TABLE_BETAS, ids=lambda b: f"{b:.3f}")
    def test_zero_below_the_table_without_integrating(self, beta, monkeypatch):
        su = StableUnit(beta)
        x_lo = math.exp(su._z_lo)
        x = np.geomspace(max(x_lo * 1e-30, 1e-300), x_lo, 200)[:-1]
        x = x[np.log(x) < su._z_lo]
        assert x.size > 150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for want_pdf in (True, False):  # the exact values are 0.0 as well
                assert np.all(su._integral(x, want_pdf) == 0.0)
            monkeypatch.setattr(su, "_log_raw", None)  # no integral below x_lo
            assert np.all(su.pdf(x) == 0.0) and np.all(su.cdf(x) == 0.0)
            assert np.all(su.sf(x) == 1.0)


def _whole_table(su, want_pdf):
    """The table's coefficients built at once: every panel's 8 x 32 nodes in
    one `_log_raw` call and one coefficient product."""
    u = chebpts1(32)
    width = (math.log(su.x_series) - su._z_lo) / 8
    z = su._z_lo + width * (np.arange(8)[:, None] + 0.5 * (u + 1.0))
    h = su._log_raw(np.exp(z).ravel(), want_pdf).reshape(z.shape)
    coef = chebvander(u, 31).T @ h.T * (2.0 / 32)
    coef[0] *= 0.5
    return coef


class TestLazyTable:
    """Each panel of the table is built when a query first lands in it."""

    @pytest.mark.parametrize("beta", [0.0064, 0.05, 0.25, 1 / 3, 0.7, 0.95],
                             ids=lambda b: f"{b:.4f}")
    def test_panel_by_panel_is_the_whole_build(self, beta):
        # panels built one at a time in a random order; below beta = 0.0102
        # the first panels' x underflow to 0, so the panels are asked for
        # directly rather than by queries
        su = StableUnit(beta)
        for want_pdf in (True, False):
            whole = _whole_table(su, want_pdf)
            built = []
            for p in np.random.default_rng(11).permutation(8):
                su._coef(want_pdf, np.array([p, p]))
                built.append(p)
                coef = su._tables[want_pdf][2]
                assert np.array_equal(coef[:, built], whole[:, built])
                assert not coef[:, np.setdiff1d(np.arange(8), built)].any()
            assert np.array_equal(coef, whole)

    def test_a_query_in_one_panel_evaluates_its_nodes_only(self, monkeypatch):
        # x_series = 1, so the panels are [z_lo + p w, z_lo + (p + 1) w), w = -z_lo/8
        su = StableUnit(0.3)
        sizes = []
        real = su._log_raw

        def counted(x, want_pdf):
            sizes.append(x.size)
            return real(x, want_pdf)

        monkeypatch.setattr(su, "_log_raw", counted)
        width = -su._z_lo / 8
        x = np.exp(su._z_lo + width * np.linspace(5.1, 5.9, 50))
        su.pdf(x)
        assert sizes == [32]
        su.pdf(x[::-1])  # built panels are read, not evaluated again
        assert sizes == [32]
        su.pdf(np.exp(su._z_lo + width * np.array([3.5, 5.5, 6.5])))
        assert sizes == [32, 64]


    def test_threads_building_panels_at_once_read_the_whole_build(self):
        # a thread may drop another's new panels when both store at once; each
        # still reads the coefficients it built, and a dropped panel is built
        # again by the next query that lands in it
        su = StableUnit(0.3)
        whole = _whole_table(su, True)
        width = -su._z_lo / 8
        x = [np.exp(su._z_lo + width * np.array([p + 0.3, p + 0.6])) for p in range(8)]
        want = [StableUnit(0.3)._left(v, True) for v in x]
        got = [None] * 8

        def read(p):
            got[p] = su._left(x[p], True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(p,)) for p in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert np.array_equal(su._coef(True, np.arange(8)), whole)


class TestSeriesSwitch:
    """The series takes over at x = 1 for every index the engine serves."""

    def test_switch_is_one_from_0_0064_up(self):
        for beta in np.concatenate([np.linspace(0.0064, 0.02, 40), np.linspace(0.02, 0.95, 60)]):
            assert StableUnit(float(beta)).x_series == 1.0

    @pytest.mark.parametrize("beta", [0.0063, 0.005])
    def test_smaller_indices_are_refused(self, beta):
        with pytest.raises(ConvergenceError, match="could not stitch"):
            StableUnit(beta)

    @pytest.mark.parametrize("beta,x_hi", [(0.01, 60.0), (0.05, 60.0), (0.3, 60.0),
                                           (0.5, 60.0), (0.7, 2.0), (0.95, 2.0)])
    def test_series_and_integral_agree_past_the_switch(self, beta, x_hi):
        # the property the switch rests on: the series holds from x = 1 on,
        # where the integral holds too.  Past x = 2 at beta 0.7 and 0.95 the
        # integral, whose integrand crowds theta = pi, is what drifts
        # (3.7e-9 at x = 60 for 0.7, 1.8e-5 at x = 3.2 for 0.95)
        su = StableUnit(beta)
        x = np.geomspace(1.0, x_hi, 8)
        series = su._tail_series(x, 1)[0]
        integral = su._integral(x, True)
        assert np.all(np.abs(series - integral) <= 1e-9 * integral)


class TestPanelSplit:
    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, 0.95])
    def test_newton_inverts_log_a(self, beta):
        su = StableUnit(beta)
        lo, hi = su._log_a_probe[0], su._log_a_probe[-1]
        rng = np.random.default_rng(3)
        target = np.concatenate([[lo, hi], np.linspace(lo, hi, 2001), rng.uniform(lo, hi, 500),
                                 su._log_a_probe])
        theta = su._theta_for_log_a(target)
        assert np.all((theta > 0) & (theta < math.pi))
        ok = np.abs(su._log_a(theta) - target) <= 1e-12 * np.maximum(1.0, np.abs(target))
        assert np.all(ok[theta < math.pi - 1e-3])
        # nearer pi log A is so steep that one ulp of theta can move it by
        # more than that: there theta must be the root to a few ulps
        step = 8 * np.finfo(float).eps * theta
        at_root = (su._log_a(theta - step) <= target) & (target <= su._log_a(theta + step))
        assert np.all(ok | at_root)

    def test_out_of_range_targets_clamp(self):
        su = StableUnit(0.3)
        lo, hi = su._log_a_probe[0], su._log_a_probe[-1]
        theta = su._theta_for_log_a(np.array([lo - 1.0, hi + 1e-9, hi + 50.0]))
        assert theta[0] == su._theta_probe[0]
        assert np.all(theta[1:] == math.pi - 1e-12)


class TestTailSeries:
    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.7, 0.9, 0.95])
    @pytest.mark.parametrize("order_shift", [0, 1])
    def test_trimmed_matches_full_sum(self, beta, order_shift):
        su = StableUnit(beta)
        x = np.geomspace(su.x_series, 1e8, 400)
        n = np.arange(1, 501, dtype=float)
        # the package's log-gamma (tests/test_specfun.py holds it to mpmath):
        # what this checks is the trimming
        log_c = log_gamma(n * beta + order_shift) - log_gamma(n + 1.0)
        terms = np.exp(log_c[None, :] - (n * beta + order_shift)[None, :] * np.log(x)[:, None])
        sgn = np.where(n % 2 == 1, 1.0, -1.0) * np.sin(np.pi * n * beta)
        full = np.sum(terms * sgn, axis=1) / math.pi
        got, max_term = su._tail_series(x, order_shift)
        assert su._series[order_shift][0].size < 500
        assert np.all(np.abs(got - full) <= 1e-15 * np.abs(full))
        assert np.array_equal(max_term, np.max(terms, axis=1) / math.pi)
