"""Fixed Gauss-Legendre panel rules.

Composite Gauss-Legendre rules with frozen nodes are used wherever a whole
family of integrals (one per grid time or per count index) must share a single
discretization, so that the quadrature error varies smoothly with the family
parameter instead of behaving like noise under finite differencing.

Each n-point rule is numpy's (`numpy.polynomial.legendre.leggauss`).  The
orders in use are 12, on every frozen mixture rule's panels, and 96, on the
stable engine's Zolotarev integral (`StableUnit`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n
    and returned read-only."""
    xi, wi = leggauss(n)
    xi.flags.writeable = False
    wi.flags.writeable = False
    return xi, wi


def gauss_panels(edges: np.ndarray, nodes_per_panel: int = 12):
    """Composite Gauss-Legendre rule on the panels defined by ``edges``.

    Returns (x, w) with x strictly inside each panel.  Raises
    ConvergenceError when x does not ascend in floating point: the panels
    are narrower than float spacing.  A 2-D ``edges`` holds one rule's edges
    a row, and x and w then hold one rule a row.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim not in (1, 2) or edges.shape[-1] < 2:
        raise ValueError("edges must be a 1-d or 2-d array of at least two points a row")
    xi, wi = gauss_legendre(nodes_per_panel)
    a = edges[..., :-1, None]
    b = edges[..., 1:, None]
    shape = edges.shape[:-1] + (-1,)
    x = (0.5 * (b - a) * xi + 0.5 * (b + a)).reshape(shape)
    if not np.all(np.diff(x) > 0):
        row = edges if edges.ndim == 1 else edges[~np.all(np.diff(x) > 0, axis=1)][0]
        raise ConvergenceError(f"{row.size - 1} panels on [{row[0]:.17g}, {row[-1]:.17g}] "
                               "are narrower than float spacing")
    w = 0.5 * (b - a) * wi
    return x, w.reshape(shape)


def linear_panel_edges(a: float, b: float, n_panels: int) -> np.ndarray:
    return np.linspace(a, b, n_panels + 1)


def log_panel_edges(a: float, b: float, n_panels: int) -> np.ndarray:
    """Geometrically spaced panel edges; ConvergenceError unless 0 < a < b < inf
    (an end that underflowed, overflowed or rounded onto the other)."""
    if not 0 < a < b < math.inf:
        raise ConvergenceError(f"the node window [{a:.17g}, {b:.17g}] cannot be split "
                               "into log panels in floating point")
    return np.geomspace(a, b, n_panels + 1)
