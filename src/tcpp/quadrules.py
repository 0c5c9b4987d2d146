"""Fixed Gauss-Legendre panel rules.

Composite Gauss-Legendre rules with frozen nodes are used wherever a whole
family of integrals (one per grid time or per count index) must share a single
discretization, so that the quadrature error varies smoothly with the family
parameter instead of behaving like noise under finite differencing.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n
    and returned read-only."""
    xi, wi = roots_legendre(n)
    xi.flags.writeable = False
    wi.flags.writeable = False
    return xi, wi


def gauss_panels(edges: np.ndarray, nodes_per_panel: int = 16):
    """Composite Gauss-Legendre rule on the panels defined by ``edges``.

    Returns (x, w) with x strictly inside each panel.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be a strictly increasing 1-d array")
    xi, wi = gauss_legendre(nodes_per_panel)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    x = 0.5 * (b - a) * xi[None, :] + 0.5 * (b + a)
    w = 0.5 * (b - a) * wi[None, :]
    return x.ravel(), w.ravel()


def linear_panel_edges(a: float, b: float, n_panels: int) -> np.ndarray:
    return np.linspace(a, b, n_panels + 1)


def log_panel_edges(a: float, b: float, n_panels: int) -> np.ndarray:
    """Geometrically spaced panel edges; requires 0 < a < b."""
    if not 0 < a < b:
        raise ValueError("log panels need 0 < a < b")
    return np.geomspace(a, b, n_panels + 1)
