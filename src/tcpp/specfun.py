"""Special functions in numpy and `math`: the log-gamma row, the scaled
complementary error function and the error functions built on it, the
Poisson tail, and the Caputo fractional derivative (L1 scheme) of samples on
a uniform grid anchored at the origin.

The package needs numpy alone.  Each function here stands in for the
`scipy.special` one named in its docstring, within the accuracy stated there,
and the tests hold it to scipy and to mpmath:

- `log_gamma` maps `math.lgamma` over an array (`gammaln` on x > 0);
- `erfcx` is a piecewise polynomial in y = 400/(4 + x), its 7 x 94
  coefficients fitted once at 40 digits (`_erfcx_coef`, written by
  tests/oracles/make_erfcx.py), and a continued fraction for x >= 50: the
  layout of S. G. Johnson's Faddeeva package.  It is Horner's rule with one
  `take` per coefficient row, about 2.5 times the CPU of scipy's compiled
  loop (about 3 ms more over one `tcpp verify`, 2 cores);
- `erfc` and `ndtr` are erfcx(a) e^{-a^2}, the square split exactly
  (Dekker), so no digits go to the exponential;
- `poisson_sf` is P(Poi(m) > k) = `gammainc`(k + 1, m) as a sum of positive
  Poisson terms.

The Mittag-Leffler function and the numerical Laplace transform, which need
adaptive quadrature (`scipy.integrate.quad`), are oracles of the tests
(`tests/oracles/transforms.py`): no route or check calls them.
"""

from __future__ import annotations

import math

import numpy as np

from ._erfcx_coef import COEF, FIRST
from .errors import DomainError, GridTooCoarseError

__all__ = ["log_gamma", "erfcx", "erfc", "ndtr", "poisson_sf", "caputo_derivative"]


def log_gamma(x):
    """log Gamma(x) for x > 0 (scipy's `gammaln`), elementwise by
    `math.lgamma`: within 2e-15 of max(1, |log Gamma(x)|), its worst on
    2 < x < 4.5, where scipy is within 5e-16."""
    if isinstance(x, float):
        return math.lgamma(x)
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size).reshape(x.shape)[()]


# erfcx's pieces as rows, highest power of s first; pieces below FIRST, which
# only x >= 50 would reach, are zero
_ERFCX_ROWS = np.zeros((len(COEF), FIRST + len(COEF[0])))
_ERFCX_ROWS[:, FIRST:] = COEF[::-1]
# points a Horner pass takes at a time, so that its four work arrays stay in
# cache: in `tcpp verify`, whose calls hold up to 12288 points, this costs
# 15-20% less than whole calls (2 cores)
_ERFCX_BLOCK = 4096


def erfcx(x):
    """e^{x^2} erfc(x) for x >= 0 (scipy's `erfcx`), within 8.1e-16 relative.

    On x < 50 the degree-6 piece floor(y) of the polynomial in
    y = 400/(4 + x); past that the continued fraction
    1/(sqrt(pi) (x + (1/2)/(x + 1/(x + (3/2)/(x + 2/x))))).
    """
    x = np.asarray(x, dtype=float)
    if x.size and x.max() < 50.0:  # false for NaN
        return _erfcx_pieces(x)[()]
    out = np.empty(x.shape)
    near = x < 50.0
    out[near] = _erfcx_pieces(x[near])
    v = x[~near]
    out[~near] = (1.0 / math.sqrt(math.pi)) / (v + 0.5 / (v + 1.0 / (v + 1.5 / (v + 2.0 / v))))
    return out[()]


def _erfcx_pieces(x):
    """Horner's rule on piece j = floor(y) in s = y - j, one `take` of each
    coefficient row, for 0 <= x < 50, _ERFCX_BLOCK points at a time."""
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    y = np.empty(min(flat.size, _ERFCX_BLOCK))
    j, row = np.empty(y.size, dtype=np.intp), np.empty(y.size)
    for start in range(0, flat.size, _ERFCX_BLOCK):
        xb, o = flat[start:start + _ERFCX_BLOCK], out[start:start + _ERFCX_BLOCK]
        s, jb, rb = y[:xb.size], j[:xb.size], row[:xb.size]
        np.add(xb, 4.0, out=s)
        np.divide(400.0, s, out=s)
        np.copyto(jb, s, casting="unsafe")  # floor, as y > 0
        s -= jb
        _ERFCX_ROWS[0].take(jb, out=o, mode="clip")
        for coef in _ERFCX_ROWS[1:]:
            o *= s
            o += coef.take(jb, out=rb, mode="clip")
    return out.reshape(x.shape)


def _exp_neg_sq(a, c: float):
    """e^{-c a^2} for a >= 0 and c = 1 or 1/2, the square split exactly
    (Dekker): a = hi + lo with hi of 24 bits, so hi^2 is exact and
    a^2 = hi^2 + lo (hi + a).  Past a = 40 it has underflowed anyway."""
    a = np.minimum(a, 40.0)
    hi = a.astype(np.float32).astype(float)
    return np.exp(-c * hi * hi) * np.exp(-c * (a - hi) * (a + hi))


def erfc(x):
    """1 - erf(x) (scipy's `erfc`) as erfcx(|x|) e^{-x^2}, reflected for
    x < 0; within 8.9e-16 relative on x >= 0."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    e = erfcx(a) * _exp_neg_sq(a, 1.0)
    return np.where(x < 0, 2.0 - e, e)[()]


def ndtr(z):
    """The standard normal CDF Phi(z) (scipy's `ndtr`) as
    erfcx(|z|/sqrt 2) e^{-z^2/2}/2, reflected for z > 0."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    h = 0.5 * erfcx(a * math.sqrt(0.5)) * _exp_neg_sq(a, 0.5)
    return np.where(z > 0, 1.0 - h, h)[()]


# below this count p_n(m), m < n, is m^n/n! e^{-m}, whose factors are each
# within an ulp, where exp(n log m - m - log n!) carries the rounding of its
# exponent, n |log m| eps: 1e-13 relative near 1e-300
_POW_HEAD = 140


def poisson_sf(k: int, m):
    """P(Poi(m) > k) for an integer k >= 0 and m >= 0: scipy's
    `gammainc`(k + 1, m), as a sum of positive Poisson terms.

    Below the mean's reach, m < k + 1, it is p_{k+1}(m) (1 + m/(k+2) +
    m^2/((k+2)(k+3)) + ...), and 0 where p_{k+1}(m) underflows; from there on
    it is 1 - p_k(m) (1 + k/m + k(k-1)/m^2 + ...), whose sum ends at j = k.
    Each sum is one Horner pass over its nodes (`_ratio_sum`).  Within 1e-13
    relative for k <= 64 wherever it exceeds 1e-300, and about k eps past
    _POW_HEAD counts, from the rounding of k log m in p_k.
    """
    m = np.asarray(m, dtype=float)
    out = np.zeros(m.shape)
    low = m < k + 1
    ml, mh = m[low], m[~low]
    if ml.size and ml.max() > 0:  # in v = m/m0 <= 1, m0 the largest m
        n = k + 1
        if n <= _POW_HEAD:  # m^n < n^n is finite
            head = ml ** n / math.factorial(n) * np.exp(-ml)
        else:
            with np.errstate(divide="ignore"):  # log 0: p_n(0) = 0
                head = np.exp(n * np.log(ml) - ml - math.lgamma(n + 1.0))
        m0 = ml.max()
        out[low] = head * _ratio_sum(ml / m0, head > 0, lambda j: m0 / (k + 1 + j))
    if mh.size:  # in v = m1/m <= 1, m1 the least m
        head = np.exp(k * np.log(mh) - mh - math.lgamma(k + 1.0))
        m1 = mh.min()
        out[~low] = 1.0 - head * _ratio_sum(m1 / mh, head > 0, lambda j: (k + 1 - j) / m1)
    return out[()]


def _ratio_sum(v, live, ratio):
    """sum_j c_j v^j over the entries where `live`, 0 elsewhere, where
    c_0 = 1 and c_j = c_{j-1} ratio(j) <= c_{j-1}: the sum (>= 1) is cut
    where the next coefficient, over the geometric rest it bounds, falls
    below half an ulp, 2^-54."""
    out = np.zeros(v.shape)
    if not live.any():
        return out
    coef = [1.0]
    r = ratio(1)
    while r > 0 and coef[-1] * r > 2.0 ** -54 * (1.0 - r):
        coef.append(coef[-1] * r)
        r = ratio(len(coef))
    vl = v[live]
    acc = np.full(vl.shape, coef[-1])
    for c in coef[-2::-1]:
        acc *= vl
        acc += c
    out[live] = acc
    return out


def caputo_derivative(values, h: float, beta: float, u0: float):
    """Caputo derivative of order beta in (0,1) by the uniform-grid L1 scheme.

    `values` are the samples at t = h, 2h, ... (a 1-d array), and u0 supplies
    the value at t = 0; the result is the derivative at the same times.
    Truncation error O(h^(2-beta)) for smooth inputs.
    """
    if not 0 < beta < 1:
        raise DomainError("caputo_derivative requires 0 < beta < 1")
    values = np.asarray(values, dtype=float)
    if values.size < 4:
        raise GridTooCoarseError("caputo_derivative needs at least 4 grid points")
    n = values.size
    du = np.diff(np.concatenate([[u0], values]))
    i = np.arange(n, dtype=float)
    w = (i + 1.0) ** (1.0 - beta) - i ** (1.0 - beta)
    conv = np.convolve(du, w)[:n]
    return conv * h ** (-beta) / math.gamma(2.0 - beta)
