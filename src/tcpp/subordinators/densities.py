"""Density and distribution evaluators for every time-change process.

All evaluators are pure, vectorized over their space argument, and return
plain nonnegative floats/arrays.  Laplace-transform conventions:

    IG(delta, gamma):            E e^{-s G(t)} = exp(-delta t (sqrt(gamma^2+2s) - gamma))
    stable(beta):                E e^{-s D(t)} = exp(-t s^beta)
    tempered(beta, mu):          E e^{-s D_mu(t)} = exp(-t ((s+mu)^beta - mu^beta))

Inverse (hitting-time) processes are handled through first-passage duality
P(E(t) <= x) = P(D(x) >= t).  The IG hitting time has a closed density,
obtained by differentiating the closed IG CDF in its process-time argument;
the inverse stable law uses the scaling formula
m(x,t) = (t/beta) f(t x^(-1/beta), 1) x^(-1-1/beta).  Tempered(1/2, mu) is
exactly IG(1/sqrt(2), sqrt(2 mu)) (the Laplace exponents coincide), so its
hitting time takes the closed IG route; other indices integrate the stable
density against the tempered Levy tail.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx, gammaincc, log_ndtr, ndtr

from ..errors import DomainError
from ..quadrules import gauss_panels, linear_panel_edges, log_panel_edges
from .stable import stable_unit

__all__ = [
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
    "tempered_levy_tail",
    "hitting_time_density_ig",
    "hitting_time_cdf_ig",
    "stable_moment",
]


def _positive(name, *vals):
    for v in vals:
        if np.any(np.asarray(v) <= 0):
            raise DomainError(f"{name} requires strictly positive arguments")


# -- inverse Gaussian ---------------------------------------------------------


def ig_density(x, t, delta: float, gamma: float):
    """Density g(x,t) of the IG subordinator G(t) ~ IG(delta t, gamma).

    Broadcasts over both x and t.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    _positive("ig_density", x, t, delta)
    if gamma < 0:
        raise DomainError("ig_density requires gamma >= 0")
    dt = delta * t
    log_g = (
        -0.5 * math.log(2.0 * math.pi)
        + np.log(dt)
        - 1.5 * np.log(x)
        + delta * gamma * t
        - 0.5 * (dt * dt / x + gamma * gamma * x)
    )
    return np.exp(log_g)


def ig_cdf(u, t: float, delta: float, gamma: float):
    """P(G(t) <= u) in closed form (Phi-based; erfc for the gamma = 0 case)."""
    u = np.asarray(u, dtype=float)
    _positive("ig_cdf", t, delta)
    out = np.zeros_like(u, dtype=float)
    pos = u > 0
    if not np.any(pos):
        return out
    up = u[pos]
    dt = delta * t
    if gamma == 0.0:
        # Levy law with c = (delta t)^2
        out[pos] = 2.0 * ndtr(-dt / np.sqrt(up))
        return out
    mean = dt / gamma
    shape = dt * dt
    z1 = np.sqrt(shape / up) * (up / mean - 1.0)
    z2 = -np.sqrt(shape / up) * (up / mean + 1.0)
    # second term computed in log space: exp(2 delta gamma t) overflows alone
    out[pos] = ndtr(z1) + np.exp(2.0 * shape / mean + log_ndtr(z2))
    return np.clip(out, 0.0, 1.0)


# -- stable and tempered stable ----------------------------------------------


def stable_density(x, t, beta: float):
    """Density f(x,t) of the beta-stable subordinator, LT exp(-t s^beta).

    Broadcasts over x and t.
    """
    x = np.asarray(x, dtype=float)
    _positive("stable_density", x, t)
    scale = t ** (-1.0 / beta)
    return scale * stable_unit(beta).pdf(x * scale)


def stable_cdf(x, t: float, beta: float):
    x = np.asarray(x, dtype=float)
    _positive("stable_cdf", x, t)
    return stable_unit(beta).cdf(x * t ** (-1.0 / beta))


def tempered_stable_density(x, t, beta: float, mu: float):
    """Density f_mu(x,t) = exp(-mu x + mu^beta t) f(x,t) of the tempered law.

    Broadcasts over x and t.
    """
    x = np.asarray(x, dtype=float)
    _positive("tempered_stable_density", x, t)
    if mu < 0:
        raise DomainError("tempered_stable_density requires mu >= 0")
    if mu == 0.0:
        return stable_density(x, t, beta)
    return np.exp(-mu * x + mu ** beta * t) * stable_density(x, t, beta)


def tempered_stable_cdf(x, t: float, beta: float, mu: float, n_panels: int = 64):
    """P(D_mu(t) <= x) by quadrature of the tempered density."""
    x = float(x)
    _positive("tempered_stable_cdf", x, t)
    lo = max(stable_unit(beta).x_tiny * t ** (1.0 / beta) * 0.25, x * 1e-14)
    if x <= lo:
        return 0.0
    nodes, w = gauss_panels(log_panel_edges(lo, x, n_panels), 12)
    return float(np.sum(w * tempered_stable_density(nodes, t, beta, mu)))


# -- inverse stable ------------------------------------------------------------


def inverse_stable_density(x, t, beta: float):
    """Density m(x,t) of the inverse stable subordinator E(t).

    m(x,t) = (t/beta) f(t x^(-1/beta), 1) x^(-1-1/beta); approaches
    t^(-beta)/Gamma(1-beta) as x -> 0+.  Broadcasts over x and t.
    """
    x = np.asarray(x, dtype=float)
    _positive("inverse_stable_density", x, t)
    su = stable_unit(beta)
    arg = t * x ** (-1.0 / beta)
    return (t / beta) * su.pdf(arg) * x ** (-1.0 - 1.0 / beta)


def inverse_stable_cdf(x, t: float, beta: float, n_panels: int = 48):
    """P(E(t) <= x) by quadrature of m(.,t) (independent of the duality route).

    Uses the substitution u = t^beta v, under which m(u,t) du = phi(v) dv with
    phi(v) = (1/beta) f(v^(-1/beta), 1) v^(-1-1/beta) free of t.
    """
    x = float(x)
    _positive("inverse_stable_cdf", x, t)
    v_hi = x * t ** (-beta)
    nodes, w = gauss_panels(linear_panel_edges(0.0, v_hi, n_panels), 12)
    su = stable_unit(beta)
    phi = (1.0 / beta) * su.pdf(nodes ** (-1.0 / beta)) * nodes ** (-1.0 - 1.0 / beta)
    return float(np.sum(w * phi))


# -- tempered stable hitting time ----------------------------------------------


def tempered_levy_tail(z, beta: float, mu: float):
    """Tail pi(z, inf) of the tempered Levy measure c e^{-mu u} u^{-beta-1}.

    c = beta/Gamma(1-beta), which makes the Laplace exponent exactly
    (s+mu)^beta - mu^beta.  Closed form via the upper incomplete gamma.
    """
    z = np.asarray(z, dtype=float)
    _positive("tempered_levy_tail", z)
    g1 = math.gamma(1.0 - beta)
    if mu == 0.0:
        return z ** (-beta) / g1
    w = mu * z
    small = w <= 30.0
    out = np.empty_like(z)
    if np.any(small):
        zs = z[small]
        out[small] = zs ** (-beta) * np.exp(-mu * zs) / g1 - mu ** beta * gammaincc(
            1.0 - beta, mu * zs
        )
    if np.any(~small):
        # Watson expansion of int_z^inf e^{-mu u} u^{-b-1} du; the closed form
        # above cancels catastrophically once mu z is large
        zl = z[~small]
        wl = mu * zl
        term = np.ones_like(zl)
        s = np.ones_like(zl)
        for j in range(1, 10):
            term = term * (-(beta + j) / wl)
            s += term
        out[~small] = (beta / g1) * np.exp(-wl) * zl ** (-beta - 1.0) / mu * s
    return out


def inverse_tempered_density(x, t, beta: float, mu: float, n_panels: int = 96):
    """Density m_mu(x,t) of the hitting time of the tempered subordinator.

    At beta = 1/2 the clock is IG(1/sqrt(2), sqrt(2 mu)) and m_mu is the closed
    hitting_time_density_ig, broadcast over x and t.  Other indices take the
    quadrature route below, at a scalar t.
    """
    _positive("inverse_tempered_density", x, t)
    if beta == 0.5:
        return hitting_time_density_ig(x, t, *tempered_half_as_ig(mu))
    return _inverse_tempered_quadrature(x, t, beta, mu, n_panels)


def tempered_half_as_ig(mu: float):
    """(delta, gamma) of the IG law equal to tempered(1/2, mu):
    (1/sqrt 2)(sqrt(2 mu + 2 s) - sqrt(2 mu)) = sqrt(s + mu) - sqrt(mu)."""
    return 1.0 / math.sqrt(2.0), math.sqrt(2.0 * mu)


def _inverse_tempered_quadrature(x, t: float, beta: float, mu: float, n_panels: int = 96):
    """m_mu(x,t) = int_0^t pi(t-y, inf) f_mu(y, x) dy, for any index.

    The integral is split at y = t/2: the upper piece absorbs the integrable
    (t-y)^(-beta) endpoint by the substitution w = (t-y)^(1-beta), while the
    lower piece is rescaled to the stable law's own scale (y = x^(1/beta) u)
    so the concentration of f(., x) for small x stays resolved.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    su = stable_unit(beta)
    b1 = 1.0 - beta
    xs = x ** (-1.0 / beta)         # D(x) scale^-1
    tilt = np.exp(mu ** beta * x)

    # upper piece: y in [t/2, t]
    w, ww = gauss_panels(linear_panel_edges(0.0, (0.5 * t) ** b1, n_panels), 12)
    z = w ** (1.0 / b1)             # z = t - y
    y = t - z
    tail = tempered_levy_tail(np.maximum(z, 1e-300), beta, mu) * w ** (beta / b1) / b1
    f1 = su.pdf(np.outer(xs, y).ravel()).reshape(len(x), len(y))
    upper = (np.exp(-mu * y)[None, :] * f1 * xs[:, None]) @ (tail * ww)

    # lower piece: y = x^(1/beta) u, u log-spaced up to (t/2) x^(-1/beta)
    u_lo = max(su.x_tiny * 0.25, 1e-290)
    q, qw = gauss_panels(linear_panel_edges(0.0, 1.0, max(24, n_panels // 2)), 8)
    u_hi = 0.5 * t * xs
    lower = np.zeros_like(x)
    act = u_hi > u_lo
    if np.any(act):
        span = np.log(u_hi[act] / u_lo)
        u = u_lo * np.exp(span[:, None] * q[None, :])
        du = u * span[:, None] * qw[None, :]
        yv = u / xs[act][:, None]
        integ = (
            su.pdf(u.ravel()).reshape(u.shape)
            * tempered_levy_tail(np.maximum(t - yv, 1e-300), beta, mu)
            * np.exp(-mu * yv)
        )
        lower[act] = np.sum(integ * du, axis=1)
    return tilt * (upper + lower)


def inverse_tempered_cdf(x, t: float, beta: float, mu: float, n_panels: int = 48):
    """P(E_mu(t) <= x) by quadrature of m_mu(.,t)."""
    x = float(x)
    _positive("inverse_tempered_cdf", x, t)
    nodes, w = gauss_panels(linear_panel_edges(0.0, x, n_panels), 12)
    return float(np.sum(w * inverse_tempered_density(nodes, t, beta, mu)))


# -- IG hitting time -----------------------------------------------------------


def _hitting_ig_parts(name, x, t, delta: float, gamma: float):
    """z1, phi(z1), sqrt(t) and e^{2 delta gamma x} Phi(z2), for x >= 0.

    P(G(x) <= t) = Phi(z1) + e^{2 delta gamma x} Phi(z2), with
    z1 = (gamma t - delta x)/sqrt(t) and z2 = -(gamma t + delta x)/sqrt(t).
    As e^{2 delta gamma x} phi(z2) = phi(z1), the second term is phi(z1) R(-z2)
    with the Mills ratio R(a) = Phi(-a)/phi(a) = sqrt(pi/2) erfcx(a/sqrt 2),
    so no large exponential is ever formed.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float)
    _positive(name, t, delta)
    if np.any(x < 0) or gamma < 0:
        raise DomainError(f"{name} requires x >= 0 and gamma >= 0")
    st = np.sqrt(t)
    z1 = (gamma * t - delta * x) / st
    phi = np.exp(-0.5 * z1 * z1) / math.sqrt(2.0 * math.pi)
    a = (gamma * t + delta * x) / st
    tail = phi * math.sqrt(0.5 * math.pi) * erfcx(a / math.sqrt(2.0))
    return z1, phi, st, tail


def hitting_time_density_ig(x, t, delta: float, gamma: float):
    """Density h(x,t) of H(t) = inf{s : G(s) > t}, in closed form.

    h(x,t) = -d/dx P(G(x) <= t)
           = (2 delta/sqrt(t)) phi(z1) - 2 delta gamma e^{2 delta gamma x} Phi(z2),
    the second term taken through the Mills ratio (see _hitting_ig_parts).
    Broadcasts over x and t; at x = 0 it returns the boundary value h(0+, t),
    and d/dx h(0,t) = 2 delta gamma h(0,t).  The hitting time of the tempered
    1/2-stable clock is the case delta = 1/sqrt(2), gamma = sqrt(2 mu).
    """
    _, phi, st, tail = _hitting_ig_parts("hitting_time_density_ig", x, t, delta, gamma)
    return np.maximum(2.0 * delta * (phi / st - gamma * tail), 0.0)


def hitting_time_cdf_ig(x, t, delta: float, gamma: float):
    """P(H(t) <= x) = P(G(x) >= t) = Phi(-z1) - e^{2 delta gamma x} Phi(z2)."""
    z1, _, _, tail = _hitting_ig_parts("hitting_time_cdf_ig", x, t, delta, gamma)
    return np.clip(ndtr(-z1) - tail, 0.0, 1.0)


# -- fractional moments ---------------------------------------------------------


def stable_moment(beta: float, p: float) -> float:
    """E[D(1)^p] for 0 < p < beta; quadrature of x^p f(x,1) with the power
    tail integrated analytically.  Diverges (raises) at p >= beta."""
    return stable_unit(beta).moment(p)
