"""Density and distribution evaluators for every time-change process.

Every public evaluator f(x, t, *params) keeps one contract, stated once in
`_evaluator`:

- x and t broadcast against each other; a call with scalar x and t returns
  a float, any other the broadcast shape;
- t and each parameter pass the shared rule (`errors.Domain`: t and the IG
  delta > 0, gamma and mu >= 0, beta in (0, 1)), even where no x reaches
  the formula; a NaN x is refused;
- the value is 0 at x < 0, and at x = +inf 0 for a density and 1 for a cdf;
- at x = 0 every cdf is 0, and the IG, stable and tempered densities take
  their limit 0; the IG hitting density, and the tempered hitting density at
  beta = 1/2 (the same law), take h(0+, t); the inverse stable density takes
  t^(-beta)/Gamma(1-beta).  The tempered hitting density at beta != 1/2 is
  refused there: its value is the tempered Levy tail nu_mu(t, inf), which
  has no closed form here.

Laplace-transform conventions:

    IG(delta, gamma):            E e^{-s G(t)} = exp(-delta t (sqrt(gamma^2+2s) - gamma))
    stable(beta):                E e^{-s D(t)} = exp(-t s^beta)
    tempered(beta, mu):          E e^{-s D_mu(t)} = exp(-t ((s+mu)^beta - mu^beta))

The IG exponent is written once, in `ig_exponent`, as 2 delta s /
(sqrt(gamma^2+2s) + gamma): the clock's generating function, the Bessel-form
pmf and the renewal waiting time all take it from there.

The stable, tempered stable and inverse stable densities are products: a
scale, D(1)'s density at a scaled argument, and a tilt e^{mu^beta t - mu x}
or a power of x.  Each keeps its product wherever every factor and the
product are normal floats.  Everywhere else (tiny or huge t, far tails, a
tilt that overflows while the stable density underflows) it is one
exponential of the sum of the factors' logs (`_product_or_log_sum`), with
D(1)'s log density taken at the log of its argument
(`StableUnit.log_pdf_at_log`, whose one relative sum of the right-tail
series also serves `StableUnit.log_pdf`), so that argument may itself leave
the floats; where it has underflowed to 0, D(1)'s factor is 0 and the log
sum gives the density (`_unit_pdf`).

Inverse (hitting-time) processes are handled through first-passage duality
P(E(t) <= x) = P(D(x) >= t).  The IG hitting time has a closed density,
obtained by differentiating the closed IG CDF in its process-time argument;
the inverse stable law uses the scaling formula
m(x,t) = (t/beta) f(t x^(-1/beta), 1) x^(-1-1/beta).  Tempered(1/2, mu) is
exactly IG(1/sqrt(2), sqrt(2 mu)) (the Laplace exponents coincide), so its
hitting time takes the closed IG route.  Other indices use the exponential
(Esscher) tilt f_mu(y, x) = e^{mu^beta x - mu y} f(y, x): with the
self-similarity identity d/dx f(y,x) = -(beta x)^(-1) d/dy (y f(y,x)), one
integration by parts gives

    m_mu(x,t) = (t f_mu(t,x) + mu E[D_mu(x); D_mu(x) <= t]) / (beta x)
                - mu^beta P(D_mu(x) <= t),

and both partial moments are single integrals of the unit stable density
(`_tempered_partial_moments`).  Their weights f1(u) e^{mu^beta t - mu y} are
formed as exp(log f1(u) + mu^beta t - mu y), from `StableUnit.log_pdf`: at
large mu^beta t the integral lies where f1 itself is far below the smallest
float.  The lower limit is D(1)'s Chernoff left end at the lift mu^beta t
(`StableUnit.left_end`), so the weights left of it hold at most e^-45.  The
term t f_mu(t, x) is t times `tempered_stable_density`(t, x).  The tests hold
the pmf tables on this density to 50-digit mpmath values within 1e-12
(tests/oracles/inverse_tempered.json, written by make_inverse_tempered.py).
"""

from __future__ import annotations

import functools
import inspect
import math

import numpy as np

from ..errors import (NONNEGATIVE, POSITIVE, UNIT_INTERVAL, ConvergenceError, DivergenceError,
                      DomainError)
from ..quadrules import gauss_legendre, gauss_panels
from ..specfun import erfcx, ndtr
from .stable import _TINY, stable_unit

__all__ = [
    "ig_exponent",
    "ig_density",
    "ig_cdf",
    "stable_density",
    "stable_cdf",
    "tempered_stable_density",
    "tempered_stable_cdf",
    "inverse_stable_density",
    "inverse_stable_cdf",
    "inverse_tempered_density",
    "inverse_tempered_cdf",
    "hitting_time_density_ig",
    "hitting_time_cdf_ig",
    "stable_moment",
]


def _evaluator(at_inf: float, at_zero=lambda t, *params: 0.0, **domains):
    """The contract of the module docstring, around body(x, t, *params).

    `domains` holds each parameter's rule, by name.  at_inf is the value at
    x = +inf, and at_zero(t, *params) the value at x = 0; at_zero is None
    where the body takes x = 0 itself.  The body gets the checked
    parameters, and x and t as float arrays: as given where every x is
    inside (finite, and > 0, or >= 0 where the body takes x = 0), else the
    points inside, flattened, the others taking their values here.  The
    least and the greatest x tell the two cases apart in two passes (NaN
    reaches both), as the least and the greatest t check t."""

    def wrap(body):
        name, signature = body.__name__, inspect.signature(body)
        checks = [(f"{name} {p}", domains[p]) for p in list(signature.parameters)[2:]]

        @functools.wraps(body)
        def evaluate(*args, **kwargs):
            if kwargs or len(args) != len(checks) + 2:
                args = signature.bind(*args, **kwargs).args
            x, t = np.asarray(args[0], dtype=float), np.asarray(args[1], dtype=float)
            params = [domain.check(label, v) for (label, domain), v in zip(checks, args[2:])]
            for v in (t.min(), t.max()) if t.size else ():
                POSITIVE.check(f"{name} t", float(v))
            lo, hi = (x.min(), x.max()) if x.size else (1.0, 1.0)
            if (lo > 0.0 or lo == 0.0 and at_zero is None) and hi < math.inf:
                out = body(x, t, *params)
            elif lo != lo:
                raise DomainError(f"{name} is not defined at x = nan")
            else:
                x, t = np.broadcast_arrays(x, t)
                out = np.where(x == math.inf, at_inf, 0.0)
                if at_zero is not None and np.any(zero := x == 0.0):
                    out[zero] = at_zero(t[zero], *params)
                inside = (x < math.inf) & (x >= 0.0 if at_zero is None else x > 0.0)
                if np.any(inside):
                    out[inside] = body(x[inside], t[inside], *params)
            return out if x.ndim or t.ndim else float(np.reshape(out, ()))
        return evaluate
    return wrap


# -- inverse Gaussian ---------------------------------------------------------


def ig_exponent(s, delta: float, gamma: float):
    """Laplace exponent phi(s) = delta (sqrt(gamma^2 + 2s) - gamma) of IG(delta, gamma).

    Formed as 2 delta s / (c + gamma), c = sqrt(gamma^2 + 2s) taken as
    g sqrt((gamma/g)^2 + 2s/g^2) with g = max(gamma, 1), so no difference of
    large terms is taken and gamma^2 never overflows; at gamma = 0 it is
    delta sqrt(2s), which is 0 at s = 0.  Vectorized over real or complex s
    (principal branch).
    """
    if gamma == 0.0:
        return delta * np.sqrt(2.0 * s)
    g = max(gamma, 1.0)
    c = g * np.sqrt((gamma / g) ** 2 + 2.0 * s / g / g)
    return 2.0 * delta * s / (c + gamma)


@_evaluator(0.0, delta=POSITIVE, gamma=NONNEGATIVE)
def ig_density(x, t, delta: float, gamma: float):
    """Density g(x,t) of the IG subordinator G(t) ~ IG(delta t, gamma).

    The exponent -(delta t - gamma x)^2 / (2x) is one square, so it holds no
    difference of large terms at large gamma.
    """
    dt = delta * t
    return np.exp(-0.5 * math.log(2.0 * math.pi) + np.log(dt) - 1.5 * np.log(x)
                  - (dt - gamma * x) ** 2 / (2.0 * x))


@_evaluator(1.0, delta=POSITIVE, gamma=NONNEGATIVE)
def ig_cdf(u, t, delta: float, gamma: float):
    """P(G(t) <= u): the hitting-time parts (`_hitting_ig_parts`) with process
    time t and level u, Phi(z1) + e^{2 delta gamma t} Phi(z2)."""
    z1, _, _, tail = _hitting_ig_parts(t, u, delta, gamma)
    return np.clip(ndtr(z1) + tail, 0.0, 1.0)


# -- stable and tempered stable ----------------------------------------------


def _product_or_log_sum(factors, x, t, beta: float, log_factor=0.0):
    """The product of the nonnegative `factors`, e^log_factor f(x,t) with f
    the stable density, wherever each factor and the product are normal
    floats; elsewhere one exponential of log_factor + log f(x,t), with D(1)'s
    log density taken at log u = log x - log(t)/beta."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out = np.asarray(functools.reduce(np.multiply, factors))
    normal = [(v >= _TINY) & (v < math.inf) for v in (*factors, out)]
    lost = ~functools.reduce(np.logical_and, normal)
    if np.any(lost):
        su = stable_unit(beta)
        log_scale, log_x, log_factor = (np.broadcast_to(v, out.shape)[lost]
                                        for v in (-np.log(t) / beta, np.log(x), log_factor))
        log_u, lift = log_x + log_scale, log_scale + log_factor
        # left of x_lo, D(1)'s log density is below -1200 (`StableUnit._left`):
        # under a lift below 450 the density there is 0, so its integral is skipped
        log_u[(log_u < su._z_lo) & (lift < 450.0)] = -math.inf
        with np.errstate(over="ignore"):  # a density past the float range is inf
            out[lost] = np.exp(su.log_pdf_at_log(log_u) + lift)
    return out


@_evaluator(0.0, beta=UNIT_INTERVAL)
def stable_density(x, t, beta: float):
    """Density f(x,t) = t^(-1/beta) f1(x t^(-1/beta)) of the beta-stable
    subordinator, LT exp(-t s^beta)."""
    with np.errstate(over="ignore"):  # an overflowing scale or u takes the log sum
        scale = t ** (-1.0 / beta)
        factors = (scale, _unit_pdf(x * scale, beta))
    return _product_or_log_sum(factors, x, t, beta)


def _unit_pdf(u, beta: float):
    """D(1)'s density at u; 0.0 where u has underflowed to 0, so that the
    product takes its log sum there (`_product_or_log_sum`)."""
    return np.where(u > 0.0, stable_unit(beta).pdf(np.where(u > 0.0, u, 1.0)), 0.0)


@_evaluator(1.0, beta=UNIT_INTERVAL)
def stable_cdf(x, t, beta: float):
    """P(D(t) <= x) = P(D(1) <= x t^(-1/beta)) of the beta-stable subordinator."""
    with np.errstate(over="ignore"):  # at tiny t, x t^(-1/beta) is inf and the cdf 1
        return stable_unit(beta).cdf(x * t ** (-1.0 / beta))


@_evaluator(0.0, beta=UNIT_INTERVAL, mu=NONNEGATIVE)
def tempered_stable_density(x, t, beta: float, mu: float):
    """Density f_mu(x,t) = exp(-mu x + mu^beta t) f(x,t) of the tempered law."""
    if mu == 0.0:
        return stable_density(x, t, beta)
    log_tilt = -mu * x + mu ** beta * t
    with np.errstate(over="ignore"):  # an overflowing tilt takes the log sum
        factors = (np.exp(log_tilt), stable_density(x, t, beta))
    return _product_or_log_sum(factors, x, t, beta, log_tilt)


@_evaluator(1.0, beta=UNIT_INTERVAL, mu=NONNEGATIVE)
def tempered_stable_cdf(x, t, beta: float, mu: float):
    """P(D_mu(t) <= x), from the tilt integrals (`_tempered_partial_moments`)."""
    return np.clip(_tempered_partial_moments(x, t, beta, mu)[0], 0.0, 1.0)


# the most unit-density points evaluated in one pass (bounds the working
# arrays), and the most panels of 12 points one point may take
_TILT_CHUNK = 1 << 14
_TILT_PANELS = 1 << 16


def _tempered_partial_moments(x, t, beta: float, mu: float):
    """P(D_mu(t) <= x) and E[D_mu(t); D_mu(t) <= x], broadcast over x and t.

    In unit variables u = y t^(-1/beta) both are integrals of the unit stable
    density f1 against e^{mu^beta t - mu y}, in log space, over
    [u_lo, x t^(-1/beta)], where u_lo = `StableUnit.left_end(mu^beta t)` drops
    at most e^-45 of the probability and t^(1/beta) u_lo e^-45 of the moment
    (module docstring).  The upper limit is formed in logs, and refused with
    ConvergenceError past e^709, where t^(-1/beta) overflows: there D(1)'s
    survivor, about (x t^(-1/beta))^(-beta), need not be below rounding.
    The refusal names the time t and the level x: the hitting-time
    evaluators pass their own x as this t, and their t as this x.
    Each point gets its own 12-point Gauss panels, evenly spaced in log u and
    at most w wide, where w is the smallest of 1, the log-width scale
    (1-beta)/beta of f1's peak and twice the relative spread
    sqrt((1-beta)/(beta mu^beta t)) of D_mu(t); so a point's value depends on
    that point alone.  A pass takes the next _TILT_CHUNK unit-density points
    of the panels in order, whichever points they serve.  A point that needs
    more than _TILT_PANELS panels (mu^beta t past a few times 1e10, where the
    relative spread is below about 1e-5) is refused with ConvergenceError
    before any array is sized by the panel count.
    """
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    su = stable_unit(beta)
    tt = t.ravel()
    scale = tt ** (1.0 / beta)  # D(t) = scale D(1)
    lift = mu ** beta * tt
    v_lo, v_hi = np.log(su.left_end(lift)), np.log(x.ravel()) - np.log(tt) / beta
    if np.any(v_hi > 709.0):  # u = e^v_hi would be past the largest float
        k = np.argmax(v_hi)
        raise ConvergenceError(f"the tempered stable law at time {tt[k]:g} and level "
                               f"{x.flat[k]:g}: level time^(-1/beta) is past float range at "
                               f"index {beta:g}")
    span = np.maximum(v_hi - v_lo, 0.0)
    spread = np.sqrt((1.0 - beta) / np.maximum(beta * lift, 1e-300))
    width = np.minimum(min(1.0, (1.0 - beta) / beta), 2.0 * spread)
    n_pan = np.ceil(span / width)
    if not n_pan.max(initial=0) <= _TILT_PANELS:  # NaN too; before anything is sized by it
        raise ConvergenceError(f"the tilt integrals need {n_pan.max():.3g} panels at a point, "
                               f"past {_TILT_PANELS} (mu^beta t up to {lift.max():.3g})")
    n_pan = n_pan.astype(np.intp)
    ends, total = np.cumsum(n_pan), int(n_pan.sum())
    xi, wi = gauss_legendre(12)
    q, qw = 0.5 * (xi + 1.0), 0.5 * wi
    p0, p1 = np.zeros(tt.size), np.zeros(tt.size)
    step = _TILT_CHUNK // q.size
    for lo in range(0, total, step):
        k = np.arange(lo, min(lo + step, total))
        pt = np.searchsorted(ends, k, side="right")  # each panel's point
        j = k - (ends[pt] - n_pan[pt])  # and its place in that point
        h = (span[pt] / n_pan[pt])[:, None]
        u = np.exp(v_lo[pt, None] + h * (j[:, None] + q))
        y = scale[pt, None] * u
        w = np.exp(su.log_pdf(u) + lift[pt, None] - mu * y) * u * h * qw
        # a point begun in the last pass goes on from its running sum, so
        # every point is one sum over its panels in order, however they fall
        for p, s in ((p0, np.sum(w, axis=1)), (p1, np.sum(w * y, axis=1))):
            s[0] += p[pt[0]]
            p[pt[0]:pt[-1] + 1] = np.bincount(pt - pt[0], weights=s)
    return p0.reshape(x.shape), p1.reshape(x.shape)


# -- inverse stable ------------------------------------------------------------


@_evaluator(0.0, at_zero=lambda t, beta: t ** -beta / math.gamma(1.0 - beta),
            beta=UNIT_INTERVAL)
def inverse_stable_density(x, t, beta: float):
    """Density m(x,t) of the inverse stable subordinator E(t).

    m(x,t) = (t/beta) f(t x^(-1/beta), 1) x^(-1-1/beta); approaches
    t^(-beta)/Gamma(1-beta) as x -> 0+, its value at x = 0.
    """
    with np.errstate(over="ignore"):  # overflowing powers of x take the log sum
        factors = (t / beta, _unit_pdf(t * x ** (-1.0 / beta), beta), x ** (-1.0 - 1.0 / beta))
    # the product is t f(t, x) / (beta x): f taken at t, with time x
    return _product_or_log_sum(factors, t, x, beta, np.log(t / beta) - np.log(x))


# points a pass of `inverse_stable_cdf`: 32 rules of 576 nodes
_CDF_CHUNK = 32


@_evaluator(1.0, beta=UNIT_INTERVAL)
def inverse_stable_cdf(x, t, beta: float):
    """P(E(t) <= x) by quadrature of m(.,t) (independent of the duality route).

    Uses the substitution u = t^beta v, under which m(u,t) du = m(v,1) dv,
    integrated over [0, x t^(-beta)] on 48 panels of 12 Gauss points.  The
    rules of _CDF_CHUNK points are laid out as the rows of one node array
    and take one density call, so the working arrays do not grow with the
    points; each row is its point's own rule, summed as one.
    """
    v_hi = x * t ** (-beta)
    flat = v_hi.ravel()
    out = np.empty(flat.size)
    for lo in range(0, flat.size, _CDF_CHUNK):
        stop = flat[lo:lo + _CDF_CHUNK]
        # one row of 48 equal panels' edges per point
        nodes, w = gauss_panels(np.linspace(0.0, stop, 49, axis=-1))
        out[lo:lo + stop.size] = np.sum(w * inverse_stable_density(nodes, 1.0, beta), axis=-1)
    return out.reshape(v_hi.shape)


# -- tempered stable hitting time ----------------------------------------------


@_evaluator(0.0, at_zero=None, beta=UNIT_INTERVAL, mu=NONNEGATIVE)
def inverse_tempered_density(x, t, beta: float, mu: float):
    """Density m_mu(x,t) of the hitting time of the tempered subordinator.

    At beta = 1/2 the clock is IG(1/sqrt(2), sqrt(2 mu)) and m_mu is the closed
    hitting_time_density_ig; other indices take the tilt identity of the
    module docstring.
    """
    if beta == 0.5:
        return hitting_time_density_ig(x, t, *tempered_half_as_ig(mu))
    if np.any(x == 0.0):
        raise DomainError(f"inverse_tempered_density at x = 0 is the tempered Levy tail "
                          f"nu_mu(t, inf), which has no closed form at index {beta:g}")
    return _inverse_tempered_tilt(x, t, beta, mu)


def tempered_half_as_ig(mu: float):
    """(delta, gamma) of the IG law equal to tempered(1/2, mu):
    (1/sqrt 2)(sqrt(2 mu + 2 s) - sqrt(2 mu)) = sqrt(s + mu) - sqrt(mu)."""
    return 1.0 / math.sqrt(2.0), math.sqrt(2.0 * mu)


def _inverse_tempered_tilt(x, t, beta: float, mu: float):
    """m_mu(x,t) by the tilt identity of the module docstring, for any index."""
    p0, p1 = _tempered_partial_moments(t, x, beta, mu)
    at_t = t * tempered_stable_density(t, x, beta, mu)
    return np.maximum((at_t + mu * p1) / (beta * x) - mu ** beta * p0, 0.0)


@_evaluator(1.0, beta=UNIT_INTERVAL, mu=NONNEGATIVE)
def inverse_tempered_cdf(x, t, beta: float, mu: float):
    """P(E_mu(t) <= x) = P(D_mu(x) >= t); the closed IG form at beta = 1/2."""
    if beta == 0.5:
        return hitting_time_cdf_ig(x, t, *tempered_half_as_ig(mu))
    return 1.0 - tempered_stable_cdf(t, x, beta, mu)


# -- IG hitting time -----------------------------------------------------------


def _hitting_ig_parts(x, t, delta: float, gamma: float):
    """z1, phi(z1), sqrt(t) and e^{2 delta gamma x} Phi(z2), for x >= 0.

    P(G(x) <= t) = Phi(z1) + e^{2 delta gamma x} Phi(z2), with
    z1 = (gamma t - delta x)/sqrt(t) and z2 = -(gamma t + delta x)/sqrt(t).
    As e^{2 delta gamma x} phi(z2) = phi(z1), the second term is phi(z1) R(-z2)
    with the Mills ratio R(a) = Phi(-a)/phi(a) = sqrt(pi/2) erfcx(a/sqrt 2),
    so no large exponential is ever formed.
    """
    st = np.sqrt(t)
    z1 = (gamma * t - delta * x) / st
    phi = np.exp(-0.5 * z1 * z1) / math.sqrt(2.0 * math.pi)
    a = (gamma * t + delta * x) / st
    tail = phi * math.sqrt(0.5 * math.pi) * erfcx(a / math.sqrt(2.0))
    return z1, phi, st, tail


@_evaluator(0.0, at_zero=None, delta=POSITIVE, gamma=NONNEGATIVE)
def hitting_time_density_ig(x, t, delta: float, gamma: float):
    """Density h(x,t) of H(t) = inf{s : G(s) > t}, in closed form.

    h(x,t) = -d/dx P(G(x) <= t)
           = (2 delta/sqrt(t)) phi(z1) - 2 delta gamma e^{2 delta gamma x} Phi(z2),
    the second term taken through the Mills ratio (see _hitting_ig_parts).
    At x = 0 it is the boundary value h(0+, t), and d/dx h(0,t) =
    2 delta gamma h(0,t).  The hitting time of the tempered 1/2-stable clock
    is the case delta = 1/sqrt(2), gamma = sqrt(2 mu).
    """
    _, phi, st, tail = _hitting_ig_parts(x, t, delta, gamma)
    return np.maximum(2.0 * delta * (phi / st - gamma * tail), 0.0)


@_evaluator(1.0, delta=POSITIVE, gamma=NONNEGATIVE)
def hitting_time_cdf_ig(x, t, delta: float, gamma: float):
    """P(H(t) <= x) = P(G(x) >= t) = Phi(-z1) - e^{2 delta gamma x} Phi(z2)."""
    z1, _, _, tail = _hitting_ig_parts(x, t, delta, gamma)
    return np.clip(ndtr(-z1) - tail, 0.0, 1.0)


# -- fractional moments ---------------------------------------------------------


def stable_moment(beta: float, p: float) -> float:
    """E[D(1)^p] = Gamma(1 - p/beta) / Gamma(1 - p) for 0 < p < beta < 1.

    Raises DivergenceError at p >= beta, where the x^-(1+beta) tail is not
    integrable against x^p.
    """
    beta, p = UNIT_INTERVAL.check("stable_moment beta", beta), POSITIVE.check("stable_moment p", p)
    if p >= beta:
        raise DivergenceError(
            f"E[D(1)^p] diverges for p >= beta (p={p}, beta={beta}); "
            "the x^-(1+beta) tail is not integrable against x^p"
        )
    return math.gamma(1.0 - p / beta) / math.gamma(1.0 - p)
