"""Special functions backing the equation checks: the gamma function, the
Caputo fractional derivative (L1 scheme) and the sampled time series it acts
on.

The Mittag-Leffler function and the numerical Laplace transform, which need
adaptive quadrature (`scipy.integrate.quad`), are oracles of the tests
(`tests/oracles/transforms.py`): no route or check calls them, so the package
never imports `scipy.integrate` and its `scipy.optimize`, `scipy.sparse` and
`scipy.linalg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooCoarseError, PoleError

__all__ = ["TimeSeries", "gamma_fn", "caputo_derivative"]


@dataclass(frozen=True)
class TimeSeries:
    """A function sampled on a strictly increasing positive time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.size < 2:
            raise DomainError("TimeSeries needs at least 2 points")
        if values.shape != times.shape:
            raise DomainError("times and values must have equal length")
        if times[0] <= 0 or np.any(np.diff(times) <= 0):
            raise DomainError("times must be strictly increasing and positive")

    @property
    def step(self) -> float:
        """Grid spacing; raises if the grid is not uniform."""
        h = np.diff(self.times)
        if np.max(np.abs(h - h[0])) > 1e-9 * h[0]:
            raise DomainError("TimeSeries grid is not uniform")
        return float(h[0])


def gamma_fn(x: float) -> float:
    """Gamma function; relative accuracy better than 1e-12 away from poles."""
    x = float(x)
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"gamma has a pole at {x}")
    return math.gamma(x)


def caputo_derivative(series: TimeSeries, beta: float, u0: float) -> TimeSeries:
    """Caputo derivative of order beta in (0,1) by the uniform-grid L1 scheme.

    The grid must be uniform and anchored at the origin (times = h, 2h, ...);
    u0 supplies the value at t = 0.  Truncation error O(h^(2-beta)) for smooth
    inputs.
    """
    if not 0 < beta < 1:
        raise DomainError("caputo_derivative requires 0 < beta < 1")
    if series.times.size < 4:
        raise GridTooCoarseError("caputo_derivative needs at least 4 grid points")
    h = series.step
    if abs(series.times[0] - h) > 1e-8 * h:
        raise DomainError("grid must be anchored at t=0: times = h, 2h, ...")
    n = series.times.size
    du = np.diff(np.concatenate([[u0], series.values]))
    i = np.arange(n, dtype=float)
    w = (i + 1.0) ** (1.0 - beta) - i ** (1.0 - beta)
    conv = np.convolve(du, w)[:n]
    out = conv * h ** (-beta) / math.gamma(2.0 - beta)
    return TimeSeries(series.times, out)
