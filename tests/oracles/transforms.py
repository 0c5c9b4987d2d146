"""Adaptive-quadrature oracles of the tests: the Mittag-Leffler function and
a numerical Laplace transform.

No pmf route, CLI command or equation check calls either; the tests hold the
package's closed forms, frozen rules and samplers to them.  They are the only
users of QUADPACK (`scipy.integrate.quad`), which is why they live here: the
package itself never imports `scipy.integrate`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx, gammaln

from tcpp.errors import ConvergenceError, DomainError


def _ml_series(beta: float, z: float, tol: float):
    """Taylor series of E_beta(z); returns (value, ok) with a cancellation guard."""
    total = 1.0
    term_max = 1.0
    term = 1.0
    n = 0
    while n < 800:
        n += 1
        log_t = n * math.log(abs(z)) - gammaln(beta * n + 1.0)
        t = math.exp(log_t)
        if z < 0 and n % 2 == 1:
            term = -t
        else:
            term = t
        total += term
        term_max = max(term_max, t)
        if t < tol * 1e-3 * max(abs(total), 1e-30) and n > 4:
            break
    # alternating-series cancellation destroys accuracy once the largest term
    # dwarfs the result by ~1e6
    ok = term_max <= 1e6 * max(abs(total), 1e-300)
    return total, ok


def _ml_cm_integral(beta: float, x: float, tol: float) -> float:
    """E_beta(-x) for x > 0 via the completely monotone spectral integral.

    E_beta(-x) = sin(pi beta)/(pi beta) *
                 int_0^inf exp(-(u x)^(1/beta)) / (u^2 + 2u cos(pi beta) + 1) du.
    """
    c = math.cos(math.pi * beta)
    pref = math.sin(math.pi * beta) / (math.pi * beta)
    ib = 1.0 / beta
    xi = x ** ib

    def integrand(u):
        e = (u ** ib) * xi
        if e > 700.0:
            return 0.0
        return math.exp(-e) / (u * u + 2.0 * c * u + 1.0)

    pts = [-c] if c < 0 else []  # denominator minimum for beta > 1/2
    val1, err1 = quad(integrand, 0.0, 1.0, epsabs=0.1 * tol, epsrel=1e-12,
                      limit=300, points=pts or None)
    val2, err2 = quad(integrand, 1.0, np.inf, epsabs=0.1 * tol, epsrel=1e-12,
                      limit=300)
    if err1 + err2 > 50 * tol:
        raise ConvergenceError("mittag_leffler spectral integral did not converge")
    return pref * (val1 + val2)


# absolute tolerance of E_beta by either route
_ML_TOL = 1e-10


def mittag_leffler(beta: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_beta(z) for 0 < beta <= 1.

    Series summation where it is well conditioned; for large negative z the
    completely monotone integral representation takes over (the plain series
    cancels catastrophically there).  beta = 1/2 uses the scaled-erfc identity
    E_{1/2}(z) = erfcx(-z) for z <= 0.
    """
    beta = float(beta)
    z = float(z)
    if not 0 < beta <= 1:
        raise DomainError("mittag_leffler requires 0 < beta <= 1")
    if beta == 1.0:
        return math.exp(z)
    if z == 0.0:
        return 1.0
    if z < 0 and abs(beta - 0.5) < 1e-14:
        return float(erfcx(-z))
    # series is safe while |z|^(1/beta) stays small enough that the largest
    # term does not exceed ~e^14 (keeps >10 significant digits)
    z_series = min(5.0, 14.0 ** beta)
    if z > 0 or abs(z) <= z_series:
        val, ok = _ml_series(beta, z, _ML_TOL)
        if ok:
            return val
        if z > 0:
            raise ConvergenceError("mittag_leffler series lost all precision")
    return _ml_cm_integral(beta, -z, _ML_TOL)


# absolute tolerance of the numerical Laplace transform
_LAPLACE_TOL = 1e-9


def laplace_numeric(f, s: float) -> float:
    """int_0^inf exp(-s x) f(x) dx by adaptive quadrature.

    The domain is split at an automatically detected mass center of f so that
    QUADPACK sees the peak, then the remainder runs to infinity.
    """
    s = float(s)
    if s <= 0:
        raise DomainError("laplace_numeric requires s > 0")

    def g(x):
        return float(f(x)) * math.exp(-s * x)

    # locate the mass center by scanning x*f(x) over a wide log grid
    probe = np.geomspace(1e-8, 1e6, 141)
    with np.errstate(all="ignore"):
        mass = np.array([abs(g(x)) * x for x in probe])
    mass[~np.isfinite(mass)] = 0.0
    x_c = float(probe[int(np.argmax(mass))]) if np.any(mass > 0) else 1.0

    val1, err1 = quad(g, 0.0, x_c, epsabs=0.25 * _LAPLACE_TOL, epsrel=1e-11, limit=400)
    val2, err2 = quad(g, x_c, np.inf, epsabs=0.25 * _LAPLACE_TOL, epsrel=1e-11, limit=400)
    if err1 + err2 > 20 * _LAPLACE_TOL:
        raise ConvergenceError("laplace_numeric did not reach tolerance")
    return val1 + val2
