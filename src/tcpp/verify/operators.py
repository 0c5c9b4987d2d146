"""Discrete operators for the equation-certification engine.

Backward count shifts, central finite differences with optional Richardson
extrapolation, and convergence-order estimation from residual sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, GridTooCoarseError

__all__ = ["shift_power", "central_difference", "estimate_order"]


def shift_power(values, j: int):
    """(1 - shift)^j across the count index, axis 0: sum_i (-1)^i C(j,i) v_{k-i}.

    Entries with k < 0 are zero by convention.
    """
    if j < 0:
        raise DomainError("shift power j must be >= 0")
    v = np.asarray(values, dtype=float)
    out = np.zeros_like(v)
    for i in range(j + 1):
        coeff = (-1.0) ** i * math.comb(j, i)
        if i == 0:
            out += coeff * v
        else:
            out[i:] += coeff * v[:-i]
    return out


_STENCILS = {
    # order -> (offsets, coefficients, power of h) for the O(h^2) central rule
    1: (np.array([-1, 1]), np.array([-0.5, 0.5]), 1),
    2: (np.array([-1, 0, 1]), np.array([1.0, -2.0, 1.0]), 2),
    3: (np.array([-2, -1, 1, 2]), np.array([-0.5, 1.0, -1.0, 0.5]), 3),
    4: (np.array([-2, -1, 0, 1, 2]), np.array([1.0, -4.0, 6.0, -4.0, 1.0]), 4),
}


def _apply_stencil(y: np.ndarray, h: float, order: int, stride: int):
    offsets, coeffs, pw = _STENCILS[order]
    m = int(np.max(np.abs(offsets))) * stride
    n = y.shape[-1]
    if n - 2 * m < 1:
        raise GridTooCoarseError("grid too coarse for the requested stencil")
    out = np.zeros(y.shape[:-1] + (n - 2 * m,))
    for off, c in zip(offsets, coeffs):
        sl = slice(m + off * stride, n - m + off * stride or None)
        out += c * y[..., sl]
    return out / (h * stride) ** pw, m


def central_difference(y, h: float, order: int, richardson: bool = False):
    """d^order/dt^order along the last axis; returns (derivative, margin).

    Raw central stencils are O(h^2); with `richardson` the stride-doubled
    estimate is combined to O(h^4) at twice the interior margin.
    """
    if order not in _STENCILS:
        raise DomainError("derivative order must be in 1..4")
    y = np.asarray(y, dtype=float)
    d1, m1 = _apply_stencil(y, h, order, 1)
    if not richardson:
        return d1, m1
    d2, m2 = _apply_stencil(y, h, order, 2)
    trim = m2 - m1
    return (4.0 * d1[..., trim:-trim or None] - d2) / 3.0, m2


@dataclass(frozen=True)
class OrderEstimate:
    order: float | None
    floor_limited: bool
    monotone: bool
    used_levels: int


def estimate_order(hs, residuals, floor: float = 1e-9) -> OrderEstimate:
    """Least-squares slope of log residual vs log step.

    Levels whose residual sits below `floor` are treated as noise-dominated
    and excluded; if fewer than 3 informative levels remain, the sequence is
    floor-limited (a pass) when it has >= 3 levels and a finest residual <=
    `floor`, and has no order otherwise.  A non-finite residual means the
    equation was not checked: no order, not floor-limited, not monotone.
    """
    hs = np.asarray(hs, dtype=float)
    res = np.asarray(residuals, dtype=float)
    if not np.all(np.isfinite(res)):
        return OrderEstimate(None, False, False, 0)
    usable = res >= floor
    if np.count_nonzero(usable) < 3:
        limited = bool(res.size >= 3 and res[np.argmin(hs)] <= floor)
        return OrderEstimate(None, limited, limited, int(np.count_nonzero(usable)))
    hu, ru = hs[usable], res[usable]
    slope = np.polyfit(np.log(hu), np.log(ru), 1)[0]
    monotone = bool(np.all(np.diff(ru) < 0)) if hu[0] > hu[-1] else bool(
        np.all(np.diff(ru) > 0)
    )
    return OrderEstimate(float(slope), False, monotone, int(ru.size))

