"""Fixed Gauss-Legendre panel rules.

Composite Gauss-Legendre rules with frozen nodes are used wherever a whole
family of integrals (one per grid time or per count index) must share a single
discretization, so that the quadrature error varies smoothly with the family
parameter instead of behaving like noise under finite differencing.

Each n-point rule is built the way `scipy.special.roots_legendre` builds it:
the eigenvalues of the Golub-Welsch Jacobi matrix, one Newton step on P_n,
and log-normalized weights 1/(P_{n-1} P_n') made symmetric and summing to 2.
The eigenvalues come from `numpy.linalg.eigvalsh`, where scipy calls
`scipy.linalg.eigvals_banded`, and P_{n-1}, P_n from `_legendre`, scipy's own
recurrence for `eval_legendre` at integer order written in numpy, so the
package needs no scipy.  Every even n up to 198 (the rules in use have 12, 16
and 96 points) gives scipy's rule bit for bit.  An odd n's middle node is 0,
where scipy sums a power series in x instead (|x| < 1e-5); there the weight
is within 4e-15 relative of scipy's.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n
    and returned read-only."""
    k = np.arange(1.0, n)
    # eigvalsh reads the lower triangle: the Jacobi matrix's subdiagonal is enough
    xi = np.linalg.eigvalsh(np.diag(k * np.sqrt(1.0 / (4 * k * k - 1)), -1))
    p_prev, p_n = _legendre(n, xi)
    dp = (-n * xi * p_n + n * p_prev) / (1 - xi ** 2)
    xi -= p_n / dp
    p = _legendre(n, xi)[0]
    for v in (p, dp):  # scale both factors to keep their product in range
        log_v = np.log(np.abs(v))
        v /= np.exp((log_v.max() + log_v.min()) / 2.0)
    wi = 1.0 / (p * dp)
    xi = (xi - xi[::-1]) / 2
    wi = (wi + wi[::-1]) / 2
    wi *= 2.0 / wi.sum()
    xi.flags.writeable = False
    wi.flags.writeable = False
    return xi, wi


def _legendre(n: int, x):
    """P_{n-1}(x) and P_n(x) for n >= 1 by scipy's `eval_legendre` recurrence
    for integer order, operation for operation: d <- ((2k+1)/(k+1))(x-1)p +
    (k/(k+1))d, p <- p + d from d = x - 1, p = P_1 = x."""
    k = np.arange(1.0, n)
    # each row ((2k+1)/(k+1))(x-1) with the bits of scipy's scalar products
    scaled_xm1 = np.multiply.outer((2 * k + 1) / (k + 1), x - 1.0)
    prev, p, d = np.ones_like(x), x.copy(), x - 1.0  # fresh arrays: callers scale them
    term = np.empty_like(x)
    for row, c in zip(scaled_xm1, (k / (k + 1)).tolist()):
        d *= c
        d += np.multiply(row, p, out=term)
        prev, p = p, d + p
    return prev, p


def gauss_panels(edges: np.ndarray, nodes_per_panel: int = 16):
    """Composite Gauss-Legendre rule on the panels defined by ``edges``.

    Returns (x, w) with x strictly inside each panel.  Raises
    ConvergenceError when x does not ascend in floating point: the panels
    are narrower than float spacing.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must be a 1-d array of at least two points")
    xi, wi = gauss_legendre(nodes_per_panel)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    x = (0.5 * (b - a) * xi[None, :] + 0.5 * (b + a)).ravel()
    if not np.all(np.diff(x) > 0):
        raise ConvergenceError(f"{edges.size - 1} panels on [{edges[0]:.17g}, {edges[-1]:.17g}] "
                               "are narrower than float spacing")
    w = 0.5 * (b - a) * wi[None, :]
    return x, w.ravel()


def linear_panel_edges(a: float, b: float, n_panels: int) -> np.ndarray:
    return np.linspace(a, b, n_panels + 1)


def log_panel_edges(a: float, b: float, n_panels: int) -> np.ndarray:
    """Geometrically spaced panel edges; ConvergenceError unless 0 < a < b < inf
    (an end that underflowed, overflowed or rounded onto the other)."""
    if not 0 < a < b < math.inf:
        raise ConvergenceError(f"the node window [{a:.17g}, {b:.17g}] cannot be split "
                               "into log panels in floating point")
    return np.geomspace(a, b, n_panels + 1)
