"""Unit-time density machinery for the one-sided beta-stable law.

Everything here is for the standardized subordinator value D(1) with Laplace
transform E exp(-s D(1)) = exp(-s^beta), 0 < beta < 1.  Time enters elsewhere
through the scaling D(t) =d t^(1/beta) D(1).

Three evaluation regimes, in x:

* x < x_series: the Zolotarev/Ibragimov-Chernin single integral
      f(x) = beta/(1-beta) * x^(-1/(1-beta)) * (1/pi) *
             int_0^pi A(th) exp(-xi A(th)) dth,   xi = x^(-beta/(1-beta)),
      A(th) = sin((1-beta) th) sin(beta th)^(beta/(1-beta)) / sin(th)^(1/(1-beta)),
  in the scaled form of Nolan (1997): A rises from a0 = A(0+), so
  e^(-xi a0) comes out of the integral and the exponent left inside is
  -xi (A - a0) <= 0, which keeps the deep left tail, where xi a0 is large,
  exact and lets `log_pdf` return log f where f itself underflows.  Two
  96-node Gauss-Legendre panels split where the exponential has decayed by
  e^-5 and e^-48.  A is increasing, so the splits come from inverting log A:
  a safeguarded Newton iteration started between two points of a 512-point
  probe table, a few steps per point (`_integral`);
* x_lo <= x < x_series, where xi a0 <= 2000: a table of that integral.  The
  log h(z) of the scaled integral is smooth in z = log x; its piecewise
  Chebyshev series (8 equal panels of 32 first-kind nodes, Trefethen,
  Approximation Theory and Approximation Practice, 2013) is built per beta
  and per kind (pdf, cdf) from `_integral` at the nodes, panel by panel as a
  query first lands in each, and read by Clenshaw's recurrence.  It
  reproduces `_integral` to a few 1e-12 relative for beta in [0.05, 0.95].
  Below x_lo the pdf and cdf are below e^-1200, so 0.0, and only `log_pdf`
  integrates there;
* right tail (x >= x_series >= 1): the convergent inverse-power series whose
  leading term is the classical  beta/(Gamma(1-beta) x^(1+beta))  asymptotic,
  with its coefficients computed once per beta and trimmed to the terms
  above e^-120 (about 40 to 400 of them, by beta).

The series takes over from the integral at x_series = 1.  Each beta's engine
checks that the two routes agree there and at the next point, 60^(1/35), and
refuses the index (ConvergenceError) where they do not: every beta below
about 0.0064.  The engine is cached per beta (`stable_unit`).

`log_pdf_at_log` gives the log density at x = e^z from z itself: where x >=
x_series, the series summed relative to its largest term, finite where the
density underflows and where x overflows; `log_pdf`(x) below; -inf where x
is 0.  That relative sum is the one right-tail log density: `log_pdf` takes
it at z = log x, and keeps the bulk's table on its own x, so that
exp(log_pdf(x)) is pdf(x) bit for bit there.  The densities of D(t), of the
tempered law and of the inverse stable law take `log_pdf_at_log` wherever
their products leave the normal floats (`tcpp.subordinators.densities`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebpts1, chebval, chebvander

from ..errors import ConvergenceError, DomainError, NoDensityError
from ..quadrules import gauss_legendre
from ..specfun import erfc

_BETA_MAX = 0.95
_DECAY = 48.0  # exp(-48) ~ 1.4e-21 relative truncation of the theta integral
# the Chebyshev table of the integral starts where xi a0 = _TABLE_EFF
_TABLE_EFF = 2000.0
_TABLE_PANELS = 8
_TABLE_NODES = 32
# a panel's nodes in u on [-1, 1], and the map from its values to its
# Chebyshev coefficients (before the halving of the first)
_TABLE_U = chebpts1(_TABLE_NODES)
_TABLE_FIT = chebvander(_TABLE_U, _TABLE_NODES - 1).T
# points per Clenshaw sum of the table (`StableUnit._left`)
_CLENSHAW_BLOCK = 1024
# Every frozen rule's node window, and the tilt integrals of the tempered law,
# leave out at most e^-TAIL_LOG of their mass (tcpp.subordinators.spec).
TAIL_LOG = 45.0
_TINY = np.finfo(float).tiny
# log n! for the right-tail series' n = 1..500, the same for every index
_SERIES_LOG_N_FACTORIAL = [math.lgamma(n + 1.0) for n in range(1, 501)]


def _check_beta(beta: float) -> float:
    """beta as a float, refused outside (0, 1) and past the engine's index.
    The pmf routes that serve such a law are `tcpp.timechange.ROUTES`'s to
    name: a clock states it by having no mixing law."""
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise DomainError("stable index beta must be in (0, 1)")
    if beta > _BETA_MAX:  # a valid law this engine cannot evaluate
        raise NoDensityError(f"density engine supports beta <= {_BETA_MAX}; the law is "
                             f"nearly degenerate beyond that")
    return beta


def log_zolotarev_a(theta, beta: float):
    """log A(theta) of Zolotarev's kernel; increasing in theta on (0, pi).

    The one definition behind the density integral, the stable sampler and
    the tempered sampler's floor table, so all of them round alike.
    """
    b = beta
    return (
        np.log(np.sin((1.0 - b) * theta))
        + (b / (1.0 - b)) * np.log(np.sin(b * theta))
        - (1.0 / (1.0 - b)) * np.log(np.sin(theta))
    )


class StableUnit:
    """Density and distribution of D(1)."""

    def __init__(self, beta: float):
        self.beta = _check_beta(beta)
        b = self.beta
        self.ratio = b / (1.0 - b)  # exponent beta/(1-beta)
        self.a0 = (1.0 - b) * b ** self.ratio
        self._gl_x, self._gl_w = gauss_legendre(96)
        self._theta_probe = np.linspace(1e-9, math.pi - 1e-9, 512)
        self._log_a_probe = self._log_a(self._theta_probe)
        if np.any(np.diff(self._log_a_probe) <= 0):
            raise ConvergenceError("A(theta) not monotone; cannot bracket")
        self._series = {shift: self._series_terms(shift) for shift in (0, 1)}
        self.x_series = 1.0
        self._check_series_switch()
        # log x_lo, where xi a0 = _TABLE_EFF; formed in logs, as x_lo itself
        # underflows for beta below about 0.0102
        self._z_lo = (math.log(self.a0) - math.log(_TABLE_EFF)) / self.ratio
        self._width = (math.log(self.x_series) - self._z_lo) / _TABLE_PANELS
        # want_pdf -> (built panels, node values, coefficients); `_coef`
        # replaces a tuple whole and never writes into one
        empty = (np.zeros(_TABLE_PANELS, bool), np.zeros((_TABLE_PANELS, _TABLE_NODES)), None)
        self._tables = {True: empty, False: empty}

    # -- Zolotarev kernel ---------------------------------------------------

    def _log_a(self, theta):
        return log_zolotarev_a(np.asarray(theta, dtype=float), self.beta)

    def _log_a_slope(self, theta):
        """d log A / d theta; positive on (0, pi)."""
        b = self.beta
        return (
            (1.0 - b) / np.tan((1.0 - b) * theta)
            + b * self.ratio / np.tan(b * theta)
            - 1.0 / ((1.0 - b) * np.tan(theta))
        )

    def _theta_for_log_a(self, log_a_target):
        """Invert log A on (0, pi) by safeguarded Newton (A is increasing).

        Each target starts bracketed by two neighbouring probe points and
        interpolated between them.  A Newton step that lands outside the
        bracket (ends included) is replaced by a bisection step, and the
        bracket shrinks onto each new iterate.  Stops at |log A(theta) -
        target| <= 1e-13 max(1, |target|), three or four steps from the
        probes, or once the step is at roundoff (near pi, where log A is too
        steep for that tolerance); the result only places panel splits, so
        this is ample.  Targets at or below the first probe give its theta;
        targets beyond the last give pi - 1e-12.
        """
        target = np.asarray(log_a_target, dtype=float)
        th_p, la_p = self._theta_probe, self._log_a_probe
        idx = np.searchsorted(la_p, target)
        theta = np.where(idx == 0, th_p[0], math.pi - 1e-12)
        act = np.flatnonzero((idx > 0) & (idx < la_p.size))
        tgt, i = target[act], idx[act]
        lo, hi = th_p[i - 1], th_p[i]
        th = lo + (hi - lo) * (tgt - la_p[i - 1]) / (la_p[i] - la_p[i - 1])
        tol = 1e-13 * np.maximum(1.0, np.abs(tgt))
        for _ in range(64):
            f = self._log_a(th) - tgt
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero slope bisects
                step = f / self._log_a_slope(th)
            done = (np.abs(f) <= tol) | (np.abs(step) <= 4e-16 * th)
            theta[act[done]] = th[done]
            keep = ~done
            if not keep.any():
                break
            act, tgt, tol, th, f, step = (v[keep] for v in (act, tgt, tol, th, f, step))
            below = f < 0.0
            lo = np.where(below, th, lo[keep])
            hi = np.where(below, hi[keep], th)
            th_new = th - step
            th = np.where((th_new >= lo) & (th_new <= hi), th_new, 0.5 * (lo + hi))
        else:
            theta[act] = th
        return theta

    def _xi(self, x):
        # xi a0 >= 1e299, x = 0 included: e^(-xi a0) is 0 either way
        with np.errstate(over="ignore", divide="ignore"):
            return np.minimum(x ** (-self.ratio), 1e300)

    def _log_raw(self, x, want_pdf: bool):
        """log of the scaled theta integral (`_integral` before `_log_scale`)."""
        xi = self._xi(x)
        eff = xi * self.a0
        # panel split at the e^-5 and e^-_DECAY points of the exponential decay
        log_a5 = np.log(self.a0 + 5.0 / xi)
        log_aD = np.log(self.a0 + _DECAY / xi)
        th5, thD = np.split(self._theta_for_log_a(np.concatenate([log_a5, log_aD])), 2)
        gl, glw = self._gl_x, self._gl_w

        def panel(lo, hi):
            th = 0.5 * (hi - lo)[:, None] * gl[None, :] + 0.5 * (hi + lo)[:, None]
            w = 0.5 * (hi - lo)[:, None] * glw[None, :]
            log_a = self._log_a(th)
            # -xi (A - a0) <= 0; rounding at huge xi must not lift it above 0
            expo = np.minimum(eff[:, None] - np.exp(log_a + np.log(xi)[:, None]), 0.0)
            if want_pdf:
                vals = np.exp(log_a + expo)
            else:
                vals = np.exp(expo)
            return np.sum(vals * w, axis=1)

        zero = np.zeros_like(x)
        with np.errstate(divide="ignore"):
            return np.log(panel(zero, th5) + panel(th5, thD))

    def _log_scale(self, x, want_pdf: bool):
        """The log prefactors that undo the integral's e^(+xi a0) scaling."""
        eff = self._xi(x) * self.a0
        if want_pdf:
            return (
                math.log(self.beta / (1.0 - self.beta))
                - (1.0 / (1.0 - self.beta)) * np.log(x)
                - math.log(math.pi)
                - eff
            )
        return -math.log(math.pi) - eff

    def _integral(self, x, want_pdf: bool, log: bool = False):
        """Theta integral for the pdf or cdf left of x_series, or its log
        (vectorized)."""
        x = np.asarray(x, dtype=float)
        log_val = self._log_raw(x, want_pdf) + self._log_scale(x, want_pdf)
        return log_val if log else np.exp(log_val)

    # -- Chebyshev table of the integral --------------------------------------

    def _coef(self, want_pdf: bool, panels):
        """Coefficients of the piecewise Chebyshev series of h(z) =
        `_log_raw`(e^z) on [z_lo, log x_series), one column a panel, with
        every panel in `panels` built.

        _TABLE_PANELS equal panels in z of _TABLE_NODES first-kind Chebyshev
        nodes each, where `_integral`'s own sum is taken: h is smooth in z,
        and the series reproduces it to a few 1e-12 relative.  A panel's
        nodes are evaluated when a query first lands in it; the coefficients
        are one product over all panels, an unbuilt one a zero column, so a
        built column has the bits of a whole table's.
        """
        built, h, coef = self._tables[want_pdf]
        need = np.bincount(panels, minlength=_TABLE_PANELS).astype(bool) & ~built
        if need.any():
            z = self._z_lo + self._width * (np.flatnonzero(need)[:, None] + 0.5 * (_TABLE_U + 1.0))
            h = h.copy()
            h[need] = self._log_raw(np.exp(z).ravel(), want_pdf).reshape(z.shape)
            coef = _TABLE_FIT @ h.T * (2.0 / _TABLE_NODES)
            coef[0] *= 0.5
            # a thread racing another may drop the other's new panels, which
            # the next query that lands in them builds again
            self._tables[want_pdf] = built | need, h, coef
        return coef

    def _left(self, x, want_pdf: bool, log: bool = False):
        """pdf or cdf left of x_series, or the log pdf: the table from x_lo on.

        Below x_lo, xi a0 > 2000 puts both below e^-1200 wherever x_lo is a
        float, so they are 0.0; only the log pdf integrates there.
        """
        z = np.log(x)
        on = z >= self._z_lo
        out = np.full(x.shape, -math.inf)
        if log and not on.all():
            out[~on] = self._integral(x[~on], want_pdf, log=True)
        if on.any():
            s = (z[on] - self._z_lo) / self._width
            panel = np.minimum(s.astype(int), _TABLE_PANELS - 1)
            coef = self._coef(want_pdf, panel)
            u, n = 2.0 * (s - panel) - 1.0, _CLENSHAW_BLOCK
            # Clenshaw on each point's panel coefficients, gathered n points at
            # a time: one gather over every point costs more a point as it grows
            h = np.concatenate([chebval(u[i:i + n], coef[:, panel[i:i + n]], tensor=False)
                                for i in range(0, u.size, n)])
            out[on] = h + self._log_scale(x[on], want_pdf)
        return out if log else np.exp(out)

    # -- right-tail series ----------------------------------------------------

    def _series_terms(self, order_shift: int):
        """log c_n, powers and signs of the right-tail series, trimmed.

        Terms with log c_n <= -120 are dropped (the first two are always
        kept).  The powers x^(-n b - s0) only fall with n for x >= 1, so on
        the series' range x >= x_series >= 1 each dropped term is below
        e^-120 relative to the leading one.  log c_n = log Gamma(n b + s0) -
        log n! falls strictly with n (its slope b psi(n b + s0) - psi(n + 1)
        is negative for b < 1), so the kept terms are the n = 1..500 before
        the first dropped one, and only those are formed.
        """
        b = self.beta
        log_c = []
        for n, log_n_factorial in enumerate(_SERIES_LOG_N_FACTORIAL, start=1):
            c = math.lgamma(n * b + order_shift) - log_n_factorial
            if c <= -120.0 and n > 2:
                break
            log_c.append(c)
        n = np.arange(1.0, len(log_c) + 1)
        sgn = np.where(n % 2 == 1, 1.0, -1.0) * np.sin(np.pi * n * b)
        return np.array(log_c), -(n * b + order_shift), sgn

    def _tail_series(self, x, order_shift: int):
        """sum_n (-1)^(n+1) Gamma(n b + s0)/n! sin(pi n b) x^(-n b - s0) / pi.

        order_shift s0 = 1 gives the density, 0 the survival function.  The
        terms come precomputed and trimmed (`_series_terms`); x >= 1.
        Returns (value, max_term).
        """
        log_c, pow_, sgn = self._series[order_shift]
        x = np.asarray(x, dtype=float)
        t = np.exp(log_c[None, :] + pow_[None, :] * np.log(x)[:, None])
        total = np.sum(t * sgn[None, :], axis=1) / math.pi
        max_term = np.max(t, axis=1) / math.pi
        return total, max_term

    def _check_series_switch(self):
        """The right-tail series takes over at x_series = 1: refused unless
        series and integral agree to 1e-9 at x = 1 and at 60^(1/35), with no
        term past 1e10 times the sum.  The series only improves with x, and
        the integral holds there for every index from about 0.0064 up."""
        x = np.array([1.0, 60.0 ** (1.0 / 35.0)])
        series, max_term = self._tail_series(x, 1)
        integral = self._integral(x, True)
        if not np.all((np.abs(series - integral) <= 1e-9 * np.maximum(np.abs(integral), 1e-280))
                      & (max_term <= 1e10 * np.maximum(np.abs(series), 1e-300))):
            raise ConvergenceError(f"could not stitch tail series to integral for beta={self.beta}")

    # -- public surface -------------------------------------------------------

    @staticmethod
    def _valid(x, name: str):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(x > 0):  # refuses NaN as well; +inf passes
            raise DomainError(f"stable {name} requires x > 0")
        return x

    def _by_regime(self, x, name: str, bulk, tail):
        """bulk(x) left of x_series and tail(x) from it on."""
        x = self._valid(x, name)
        out = np.empty_like(x)
        right = x >= self.x_series
        for part, route in ((~right, bulk), (right, tail)):
            if np.any(part):
                out[part] = route(x[part])
        return out

    def pdf(self, x):
        """Density of D(1); vectorized, nonnegative."""
        if abs(self.beta - 0.5) < 1e-14:
            # x^-1.5 overflows below about 1e-205, where e^(-1/(4x)) is long 0:
            # the clamp keeps the pdf at 0 there
            x = np.maximum(self._valid(x, "density"), 1e-200)
            return 0.5 / math.sqrt(math.pi) * x ** -1.5 * np.exp(-0.25 / x)
        return self._by_regime(x, "density", lambda v: self._left(v, True),
                               lambda v: self._tail_series(v, 1)[0])

    def log_pdf(self, x):
        """log of the density, finite where the density itself underflows."""
        if abs(self.beta - 0.5) < 1e-14:
            x = self._valid(x, "density")
            return -0.5 * math.log(4.0 * math.pi) - 1.5 * np.log(x) - 0.25 / x
        return self._by_regime(x, "density", lambda v: self._left(v, True, log=True),
                               lambda v: self.log_pdf_at_log(np.log(v)))

    def log_pdf_at_log(self, z):
        """log pdf at x = e^z, for any real z: where x >= x_series, the
        right-tail series summed relative to its largest term, so finite
        where the density underflows and where x itself overflows;
        `log_pdf`(x) below; -inf where x is 0 or z is inf."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        with np.errstate(over="ignore"):  # x = inf past z = 709, still on the tail
            x = np.exp(z)
        tail = (x >= self.x_series) & (z < math.inf)
        bulk = (x > 0.0) & (x < self.x_series)
        out = np.full(z.shape, -math.inf)
        out[bulk] = self.log_pdf(x[bulk])
        log_c, pow_, sgn = self._series[1]
        terms = log_c[None, :] + pow_[None, :] * z[tail, None]
        top = np.max(terms, axis=1)
        out[tail] = top + np.log(np.sum(np.exp(terms - top[:, None]) * sgn, axis=1) / math.pi)
        return out

    def cdf(self, x):
        if abs(self.beta - 0.5) < 1e-14:
            return erfc(0.5 / np.sqrt(self._valid(x, "cdf")))
        return np.clip(self._by_regime(x, "cdf", lambda v: self._left(v, False),
                                       lambda v: 1.0 - self._tail_series(v, 0)[0]), 0.0, 1.0)

    def sf(self, x):
        """Survival function P(D(1) > x)."""
        return np.clip(self._by_regime(x, "cdf", lambda v: 1.0 - self.cdf(v),
                                       lambda v: self._tail_series(v, 0)[0]), 0.0, 1.0)

    def left_end(self, lift=0.0):
        """u with e^lift P(D(1) <= u) <= e^-TAIL_LOG; vectorized over lift.

        The Chernoff bound P(D(1) <= u) <= min_s e^(s u - s^beta)
        = exp(-a0 u^(-beta/(1-beta))) reaches e^-(TAIL_LOG + lift) at
        u = (a0 / (TAIL_LOG + lift))^((1-beta)/beta).
        """
        return (self.a0 / (TAIL_LOG + lift)) ** (1.0 / self.ratio)


@lru_cache(maxsize=32)
def stable_unit(beta: float) -> StableUnit:
    """Cached per-beta engine (construction checks the series switch)."""
    return StableUnit(float(beta))
