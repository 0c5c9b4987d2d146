"""The Poisson pmf p_k(lam x) and its x-derivatives: the oracle the tests hold
the count tables and the shift operators to.

No pmf route or equation check calls it; the routes form their Poisson terms
in blocks (`tcpp.timechange._poisson_terms`), and this takes one term at a
time from the same kernel.
"""

from __future__ import annotations

import numpy as np

from tcpp.errors import DomainError
from tcpp.timechange import _poisson_terms


def poisson_pmf(k: int, x, lam: float, order: int = 0):
    """P(N(x) = k) = e^{-lam x}(lam x)^k / k!, with d/dx orders 1 and 2.

    The derivatives use the shift identities p_k' = -lam (p_k - p_{k-1}) and
    p_k'' = lam^2 (p_k - 2 p_{k-1} + p_{k-2});  p_j = 0 for j < 0.
    """
    if k < 0:
        raise DomainError("count index k must be >= 0")
    if order == 0:
        return _poisson_value(k, x, lam)
    if order == 1:
        return -lam * (_poisson_value(k, x, lam) - _poisson_value(k - 1, x, lam))
    if order == 2:
        return lam * lam * (
            _poisson_value(k, x, lam)
            - 2.0 * _poisson_value(k - 1, x, lam)
            + _poisson_value(k - 2, x, lam)
        )
    raise DomainError("order must be 0, 1 or 2")


def _poisson_value(k: int, x, lam: float):
    x = np.asarray(x, dtype=float)
    if k < 0:
        return np.zeros_like(x)
    if np.any(x < 0):
        raise DomainError("poisson_pmf requires x >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _poisson_terms(k, lam * x)
    out = np.where(x == 0, 1.0 if k == 0 else 0.0, out)
    return out if out.ndim else float(out)
