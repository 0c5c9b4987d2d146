"""Registry of governing equations and the residual-certification driver.

Every entry is one equation of the form

    sum_j a_j d^j/dt^j T = sum_i c_i (1 - shift)^i T + S

on a table T of pmfs (one row per count k; the shift takes row k to k - 1)
or of densities (one row per space point x).  The time operator is either a
set of central differences or a Caputo derivative of order beta in (0, 1);
the source S is the x-side of a PDE (closed where the density's derivatives
are, else a five-point reference derivative), or the boundary and time-origin
sources of the equation.  Where the paper states one equation as a case of
another, the runner is the general one's: prop3.1(n) is rmk4.1 at mu = 0,
m = 2^n; frac-dde is prop3.2 at n = 0; deblassie is prop4.1 at mu = 0;
et-pde is inv-tempered-pde at mu = 0; prop4.2 is prop2.2 at its IG twin.
A runner builds T and S once on the finest grid from a frozen quadrature rule
or a closed form and returns the coefficients; one driver subsamples them to
every dyadic level, so each level sees the same smooth function and the
finite differences converge at their design order.  The outcome is graded
pass when the residual falls monotonically with an estimated convergence
order inside the entry's band, or when it is floor-limited below the noise
floor max(1e-9, 1e-12 scale); either needs at least 3 dyadic levels
(`estimate_order`).

The entries, each as T; its time operator sum_j a_j d^j/dt^j ("R": O(h^4)
by Richardson extrapolation); its shifts sum_i c_i (1 - B)^i, B the shift;
and S.  Below, p_k(0) = [k = 0], p'_k(0) = (-lam, lam, 0, ...), O_m is the
origin source sum_{j<m} (-lam)^j [(1 - B)^j p(0)]_k u_j t^(-beta (m-j)/m) /
Gamma(j/m) with beta = 1 and u_j = 1 unless stated (`_origin_sources`), and
"x-ref" the five-point x-derivative:

    prop2.1        IG-clock pmf; d_t^2 - 2 delta gamma d_t (R); 2 delta^2 lam (1 - B); 0
    prop2.2        IG hitting-time pmf; d_t; [lam^2 (1 - B)^2 - 2 delta gamma lam (1 - B)]
                   / (2 delta^2); p'_k(0) h(0, t) / (2 delta^2)
    ig-density-pde IG density g(x, t); d_t^2 - 2 delta gamma d_t; none; 2 delta^2 d_x g (exact)
    prop3.1(n)     pmf of the n-times iterated 1/2-stable clock, n = 1, 2, which is
                   rmk4.1(2^n) at mu = 0; d_t^(2^n); lam (1 - B); 0
    deblassie(1/m) 1/m-stable density, m = 2, 3, which is prop4.1(m) at mu = 0;
                   (-1)^m d_t^m; none; d_x f (x-ref)
    thm3.1(m)      inverse 1/m-stable pmf, m = 2, 3; d_t (R); (-lam)^m (1 - B)^m; O_m
    cor3.1(n)      thm3.1 at m = 2^n, n = 1, 2
    frac-dde(beta) fractional Poisson pmf, beta = 1/2, 1/4, which is prop3.2 at n = 0;
                   Caputo d_t^beta; -lam (1 - B); 0
    et-pde(2)      inverse 1/2-stable density m, which is inv-tempered-pde(2) at mu = 0;
                   d_t; none; d_x^2 m (exact).  The boundary system m(0+, t) =
                   t^(-1/2) / Gamma(1/2), d_x m(0, t) = 0, m(inf, t) = 0, read off
                   the closed density at x = 0, goes to the report's extras
    prop3.2        inverse stable pmf of overall index beta / 2^n; Caputo d_t^beta;
                   (-lam)^(2^n) (1 - B)^(2^n); O_(2^n) with this beta and u_j =
                   E[D(1)^(beta (2^n - j) / 2^n)].  The extras hold the residual
                   with shift exponent 2^n - 1
    prop4.1(m)     tempered 1/m-stable density, m = 2, 3;
                   sum_{j=1}^m (-1)^j C(m, j) mu^(1 - j/m) d_t^j; none; d_x f (x-ref)
    rmk4.1(2)      tempered 1/2-stable pmf (the runner takes any m, with the time
                   operator of prop4.1(m)); d_t^2 - 2 sqrt(mu) d_t; lam (1 - B); 0
    inv-tempered-pde(2)  inverse tempered 1/2-stable density, the hitting density
                   h of IG(delta, gamma) at delta = 1/sqrt 2, gamma = sqrt(2 mu);
                   2 delta^2 d_t (2 delta^2 = 1); none; d_x^2 h - 2 sqrt(mu) d_x h
                   (exact, `_ig_hitting_source`)
    prop4.2(2)     inverse tempered 1/2-stable pmf, which is prop2.2 at delta = 1/sqrt 2,
                   gamma = sqrt(2 mu), the IG law that tempered(1/2, mu) equals; d_t;
                   lam^2 (1 - B)^2 - 2 sqrt(mu) lam (1 - B); p'_k(0) m(0, t), which the
                   paper's (2 sqrt(mu) p_k(0) + p'_k(0)) m(0, t) - p_k(0) d_x m(0, t)
                   is, as d_x m(0, t) = 2 sqrt(mu) m(0, t).  The extras hold m(0, t_max)
                   and that slope

Each entry names the domain of each param (`errors.Domain`), and a request's
params, grid fields (`GridSpec`) and space points x > 0 pass that one rule
before any runner starts.  The five-point x-reference steps 8e-3 x, so it
serves every x > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral

import numpy as np

from ..errors import (
    NONNEGATIVE,
    POSITIVE,
    UNIT_INTERVAL,
    Domain,
    DomainError,
    UnknownEquationError,
    integers,
)
from ..specfun import caputo_derivative
from ..subordinators.densities import (
    hitting_time_density_ig,
    ig_density,
    stable_moment,
    tempered_half_as_ig,
    tempered_stable_density,
)
from ..subordinators.spec import InverseGaussian, InverseOf, Stable, TemperedStable
from ..timechange import mixture_rule, pmf_bessel_ig
from .operators import central_difference, estimate_order, shift_power
from .report import GridSpec, LevelResidual, ResidualReport

__all__ = ["check_equation", "equation_params", "registry_ids", "REGISTRY"]

_FLOOR = 1e-9


# -- small helpers ---------------------------------------------------------------


def _dx_ref(fn, x: np.ndarray):
    """High-accuracy d/dx of a smooth vectorized evaluator.

    Five-point O(h^4) stencil at the step h = 8e-3 x, so it reaches no further than
    0.984 x and takes every x > 0; this side of each PDE is treated as a reference
    while the time derivative carries the refinement.
    """
    h = 8e-3 * x
    vals = fn(x + np.multiply.outer([-2.0, -1.0, 1.0, 2.0], h))  # one call, stacked
    return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12.0 * h)


def _tempered_time(m: int, mu: float):
    """Time coefficients {j: (-1)^j C(m,j) mu^(1 - j/m)} of the index-1/m tempered equations.

    They come from (phi + mu^(1/m))^m = s + mu for phi = (s + mu)^(1/m) - mu^(1/m); at
    mu = 0 every coefficient but the m-th is 0.
    """
    return {j: (-1.0) ** j * math.comb(m, j) * mu ** (1.0 - j / m) for j in range(1, m + 1)}


def _ig_hitting_source(x, t, d: float, g: float):
    """d_x^2 h - 2 d g d_x h = 2 d^2 d_t h for the IG(d, g) hitting density h, in closed form.

    With z = (g t - d x)/sqrt(t) it is -(2 d^3 / t^(3/2)) phi(z) (1 + d x z / sqrt(t)).
    """
    st = np.sqrt(t)
    z = (g * t - d * x) / st
    return -math.sqrt(2 / math.pi) * d ** 3 * np.exp(-z * z / 2) * (1 + d * x * z / st) / t ** 1.5


def _shift_at_zero(j: int, ks: np.ndarray, lam: float):
    """(-lam)^j (1-shift)^j p_.(0) at each count: equals (-lam)^j (-1)^k C(j,k).

    j = 0 gives p_k(0) and j = 1 gives p'_k(0).
    """
    return (-lam) ** j * shift_power((ks == 0).astype(float), j)


def _origin_sources(ks, t, lam, n, beta=1.0, u=None):
    """sum_{j<n} (-lam)^j [(1-shift)^j p(0)]_k u_j t^(-beta f_j) / Gamma(1 - f_j), f_j = (n-j)/n.

    u_j is 1 unless the callable `u` gives it from j.
    """
    src = np.zeros((len(ks), t.size))
    for j in range(1, n):
        frac = (n - j) / n
        weight = 1.0 if u is None else u(j)
        src += (_shift_at_zero(j, ks, lam)[:, None] * t[None, :] ** (-beta * frac) * weight
                / math.gamma(1.0 - frac))
    return src


@lru_cache(maxsize=8)
def _pmf_tables(spec, lam, grid: GridSpec, ks: tuple, origin: bool = False, tol=1e-11):
    """P(N(X(t)) = k) for the counts ks on the finest times (`_fine_times`).

    Made once per process for equal arguments, as cor3.1(1) asks for
    thm3.1(2)'s table, so the table is read-only.
    """
    times = _fine_times(grid, origin)
    rule = mixture_rule(spec, lam, float(times[0]), float(times[-1]), int(max(ks)) + 1, tol)
    table = rule.pmf_matrix(times, ks)
    table.flags.writeable = False
    return table


def _fine_times(grid: GridSpec, origin: bool = False):
    """The finest level's times: the grid's own, or h, 2h, ..., t_max anchored at the origin."""
    if not origin:
        return grid.level_times(grid.refinement_levels - 1)
    n = grid.points * 2 ** (grid.refinement_levels - 1)
    return grid.t_max / n * np.arange(1, n + 1)


# -- the equation and its driver --------------------------------------------------


@dataclass(frozen=True)
class _Problem:
    """sum_j a_j d^j/dt^j T = sum_i c_i (1 - shift)^i T + S on the finest grid.

    `time` is {j: a_j} for central differences (O(h^4) by Richardson when
    `richardson`), or a Caputo order beta with u(0) = 1 at count 0, on a grid
    anchored at the origin.  `shifts` is {i: c_i}; `S` is a table shaped like
    T, or None.  `extras`, when given, maps the finest level's (lhs, T, S) on
    the measured points to the report's extras.
    """

    T: np.ndarray
    time: dict | float
    shifts: dict
    S: np.ndarray | None = None
    richardson: bool = False
    extras: object = None


def _levels(grid: GridSpec, ks, pb: _Problem):
    """Residual norms (h, max, l2) from coarse to fine, the finest scale and extras.

    Central differences are trimmed to the largest stencil margin and summed
    in ascending order; a Caputo residual is measured where t >= t_min.  The
    scale is max|rhs| over the finest level's measured points.
    """
    caputo = not isinstance(pb.time, dict)
    L = grid.refinement_levels
    t_fine = _fine_times(grid, caputo)
    out = []
    for lev in range(L):
        stride = 2 ** (L - 1 - lev)
        sl = slice(stride - 1 if caputo else 0, None, stride)
        tl, T = t_fine[sl], pb.T[:, sl]
        rhs = sum(c * shift_power(T, i) for i, c in pb.shifts.items())
        if pb.S is not None:
            rhs = rhs + pb.S[:, sl]
        if caputo:
            h = float(tl[0])
            lhs = np.stack([caputo_derivative(row, h, pb.time, float(k == 0))
                            for row, k in zip(T, ks)])
            keep = tl >= grid.t_min
            lhs = lhs[:, keep]
        else:
            h = float(tl[1] - tl[0])
            diffs = [(pb.time[j], *central_difference(T, h, j, pb.richardson))
                     for j in sorted(pb.time)]
            m = max(mj for _, _, mj in diffs)
            lhs = sum(a * d[:, m - mj:d.shape[1] - (m - mj)] for a, d, mj in diffs)
            keep = slice(m, -m)
        rhs = rhs[:, keep]
        res = lhs - rhs
        out.append((h, float(np.max(np.abs(res))), float(math.sqrt(np.mean(np.square(res))))))
    S = None if pb.S is None else pb.S[:, keep]
    extras = pb.extras(lhs, T[:, keep], S) if pb.extras else {}
    return out, float(np.max(np.abs(rhs))), extras


# -- equation runners: each builds its finest-grid tables once ----------------------


def _eq_prop21(params, grid, ks):
    lam, d, g = params["lam"], params["delta"], params["gamma"]
    P = np.stack([pmf_bessel_ig(int(k), _fine_times(grid), lam, d, g) for k in ks])
    return _Problem(P, {1: -2.0 * d * g, 2: 1.0}, {1: 2.0 * d * d * lam}, richardson=True)


def _eq_prop22(params, grid, ks):
    # (2 d^2) d/dt p~ = [lam^2 (1-shift)^2 - 2 d g lam (1-shift)] p~ + h(0,t) p'(0)
    lam, d, g = params["lam"], params["delta"], params["gamma"]
    t = _fine_times(grid)
    P = _pmf_tables(InverseOf(InverseGaussian(d, g)), lam, grid, tuple(ks))
    h0 = hitting_time_density_ig(0.0, t, d, g)
    S = _shift_at_zero(1, ks, lam)[:, None] * h0[None, :] / (2.0 * d * d)
    shifts = {1: -2.0 * d * g * lam / (2.0 * d * d), 2: lam * lam / (2.0 * d * d)}
    return _Problem(P, {1: 1.0}, shifts, S)


def _eq_ig_density_pde(params, grid, xs):
    d, g = params["delta"], params["gamma"]
    x, t = xs[:, None], _fine_times(grid)[None, :]
    G = ig_density(x, t, d, g)
    dGdx = G * (-1.5 / x + d * d * t ** 2 / (2.0 * x * x) - g * g / 2.0)  # exact d/dx
    return _Problem(G, {1: -2.0 * d * g, 2: 1.0}, {}, 2.0 * d * d * dGdx)


def _eq_prop31(params, grid, ks):
    # rmk4.1 at mu = 0, m = 2^n: the n-times iterated 1/2-stable clock is stable(1/2^n)
    return _eq_rmk41({"lam": params["lam"], "mu": 0.0, "m": 2 ** int(params["n"])}, grid, ks)


def _eq_deblassie(params, grid, xs):
    # prop4.1 at mu = 0: every time coefficient but the m-th vanishes, and the
    # tempered density is the stable one; beta = 1/m, m in {2, 3}
    return _eq_prop41({"mu": 0.0, "m": round(1.0 / params["beta"])}, grid, xs)


def _eq_thm31(params, grid, ks):
    lam, m_ord = params["lam"], int(params["m"])
    t = _fine_times(grid)
    Q = _pmf_tables(InverseOf(Stable(1.0 / m_ord)), lam, grid, tuple(ks))
    return _Problem(Q, {1: 1.0}, {m_ord: (-lam) ** m_ord}, _origin_sources(ks, t, lam, m_ord),
                    richardson=True)


def _eq_cor31(params, grid, ks):
    return _eq_thm31({**params, "m": 2 ** int(params["n"])}, grid, ks)


def _eq_frac_dde(params, grid, ks):
    # prop3.2 at n = 0: no iteration, so no origin sources
    return _eq_prop32({**params, "n": 0}, grid, ks)


def _eq_prop32(params, grid, ks):
    lam, n, beta = params["lam"], int(params["n"]), params["beta"]
    two_n = 2 ** n
    t = _fine_times(grid, origin=True)
    Q = _pmf_tables(InverseOf(Stable(beta / two_n)), lam, grid, tuple(ks), origin=True)
    # u_j = U((2^n - j) / 2^n), U(gamma) = E[D(1)^(gamma beta)] of the outer index-beta clock
    S = _origin_sources(ks, t, lam, two_n, beta,
                        u=lambda j: stable_moment(beta, beta * (two_n - j) / two_n))

    def alternative(lhs, T, S):
        alt = lam ** two_n * shift_power(T, two_n - 1) + S
        return {"alternative_shift_exponent_max_residual": float(np.max(np.abs(lhs - alt)))}

    return _Problem(Q, beta, {two_n: (-lam) ** two_n}, S, extras=alternative if n else None)


def _eq_et_pde(params, grid, xs):
    # inv-tempered-pde at mu = 0, the inverse 1/2-stable density, with its boundary
    # system m(0+, t) = t^(-1/2)/Gamma(1/2), d/dx m(0, t) = 2 d g m(0, t) = 0, m(inf, t) = 0
    t = _fine_times(grid)
    t = t[:: max(1, t.size // 4)]
    d, g = tempered_half_as_ig(0.0)
    m0 = hitting_time_density_ig(0.0, t, d, g)
    extras = {
        "boundary_value_max_error": float(np.max(np.abs(m0 - t ** -0.5 / math.gamma(0.5)))),
        "boundary_derivative_max_abs": float(np.max(np.abs(2.0 * d * g * m0))),
        "far_field_max": float(np.max(hitting_time_density_ig(40.0 * np.sqrt(t), t, d, g))),
    }
    return replace(_eq_inv_tempered_pde({"mu": 0.0}, grid, xs), extras=lambda *_: extras)


def _eq_prop41(params, grid, xs):
    mu, m_ord = params["mu"], int(params["m"])
    t = _fine_times(grid)[None, :]
    F = tempered_stable_density(xs[:, None], t, 1.0 / m_ord, mu)
    dFdx = _dx_ref(lambda xv: tempered_stable_density(xv, t, 1.0 / m_ord, mu), xs[:, None])
    return _Problem(F, _tempered_time(m_ord, mu), {}, dFdx)


def _eq_rmk41(params, grid, ks):
    lam, mu, m_ord = params["lam"], params["mu"], int(params["m"])
    clock = TemperedStable(1.0 / m_ord, mu) if mu else Stable(1.0 / m_ord)
    R = _pmf_tables(clock, lam, grid, tuple(ks), tol=1e-12)
    return _Problem(R, _tempered_time(m_ord, mu), {1: lam})


def _eq_inv_tempered_pde(params, grid, xs):
    # the clock is IG(d, g), d = 1/sqrt 2, g = sqrt(2 mu), whose hitting density h solves
    # 2 d^2 d/dt h = d_x^2 h - 2 d g d_x h; that x-side is closed (_ig_hitting_source)
    d, g = tempered_half_as_ig(params["mu"])
    x, t = xs[:, None], _fine_times(grid)[None, :]
    return _Problem(hitting_time_density_ig(x, t, d, g), {1: 2.0 * d * d}, {},
                    _ig_hitting_source(x, t, d, g))


def _eq_prop42(params, grid, ks):
    # tempered(1/2, mu) is IG(1/sqrt 2, sqrt(2 mu)), so this is prop2.2 at that
    # IG law: 2 delta^2 = 1, 2 delta gamma = 2 sqrt(mu), and the boundary
    # terms (2 sqrt(mu) p(0) + p'(0)) m(0,t) - p(0) d/dx m(0,t) reduce to
    # p'(0) m(0,t), as d/dx m(0,t) = 2 sqrt(mu) m(0,t)
    mu = params["mu"]
    d, g = tempered_half_as_ig(mu)
    pb = _eq_prop22({"lam": params["lam"], "delta": d, "gamma": g}, grid, ks)
    m0 = float(hitting_time_density_ig(0.0, _fine_times(grid), d, g)[-1])
    extras = {"boundary_value_at_tmax": m0, "boundary_slope_at_tmax": 2.0 * math.sqrt(mu) * m0}
    return replace(pb, extras=lambda *_: extras)


# -- registry -----------------------------------------------------------------------


@dataclass(frozen=True)
class EquationDef:
    equation_id: str
    runner: object
    params: dict  # name -> (default, errors.Domain)
    default_grid: GridSpec
    band: tuple
    default_range: tuple  # counts k or space points x
    on_x: bool = False  # space points x > 0, not counts k


def _std_ks(n=4):
    return tuple(range(n))


_DEBLASSIE = Domain("1/2 or 1/3", lambda v: min(abs(v - 0.5), abs(v - 1.0 / 3.0)) < 1e-12)

REGISTRY: dict[str, EquationDef] = {}


def _register(eq):
    REGISTRY[eq.equation_id] = eq


_register(EquationDef(
    "prop2.1", _eq_prop21,
    {"lam": (1.0, POSITIVE), "delta": (1.0, POSITIVE), "gamma": (1.0, POSITIVE)},
    GridSpec(0.5, 2.0, points=13, refinement_levels=4),
    band=(3.0, 5.0), default_range=_std_ks(5),
))
_register(EquationDef(
    "prop2.2", _eq_prop22,
    {"lam": (1.0, POSITIVE), "delta": (1.0, POSITIVE), "gamma": (1.0, NONNEGATIVE)},
    GridSpec(0.5, 2.0, points=17, refinement_levels=4),
    band=(0.8, 2.3), default_range=_std_ks(4),
))
_register(EquationDef(
    "ig-density-pde", _eq_ig_density_pde,
    {"delta": (1.0, POSITIVE), "gamma": (1.0, NONNEGATIVE)},
    GridSpec(0.5, 2.0, points=17, refinement_levels=4),
    band=(1.6, 2.4), default_range=(0.4, 0.8, 1.5, 2.5), on_x=True,
))
_register(EquationDef(
    "prop3.1(1)", _eq_prop31,
    {"lam": (1.0, POSITIVE), "n": (1, integers(1, 2))},
    GridSpec(0.5, 2.5, points=17, refinement_levels=4),
    band=(1.6, 2.4), default_range=_std_ks(4),
))
_register(EquationDef(
    "prop3.1(2)", _eq_prop31,
    {"lam": (1.0, POSITIVE), "n": (2, integers(1, 2))},
    GridSpec(0.5, 2.5, points=17, refinement_levels=4),
    band=(1.5, 2.5), default_range=_std_ks(4),
))
_register(EquationDef(
    "deblassie(1/2)", _eq_deblassie,
    {"beta": (0.5, _DEBLASSIE)},
    GridSpec(0.5, 2.5, points=17, refinement_levels=4),
    band=(1.6, 2.4), default_range=(0.5, 1.0, 2.0, 4.0), on_x=True,
))
_register(EquationDef(
    "deblassie(1/3)", _eq_deblassie,
    {"beta": (1.0 / 3.0, _DEBLASSIE)},
    GridSpec(0.5, 2.5, points=17, refinement_levels=4),
    band=(1.5, 2.5), default_range=(0.4, 0.8, 1.6, 3.2), on_x=True,
))
_register(EquationDef(
    "thm3.1(2)", _eq_thm31,
    {"lam": (1.0, POSITIVE), "m": (2, integers(2))},
    GridSpec(0.25, 4.0, points=31, refinement_levels=5),
    band=(2.5, 4.6), default_range=_std_ks(4),
))
_register(EquationDef(
    "thm3.1(3)", _eq_thm31,
    {"lam": (1.0, POSITIVE), "m": (3, integers(2))},
    GridSpec(0.25, 4.0, points=31, refinement_levels=5),
    band=(2.5, 4.6), default_range=_std_ks(4),
))
_register(EquationDef(
    "cor3.1(1)", _eq_cor31,
    {"lam": (1.0, POSITIVE), "n": (1, integers(1))},
    GridSpec(0.25, 4.0, points=31, refinement_levels=5),
    band=(2.5, 4.6), default_range=_std_ks(4),
))
_register(EquationDef(
    "cor3.1(2)", _eq_cor31,
    {"lam": (1.0, POSITIVE), "n": (2, integers(1))},
    GridSpec(0.5, 4.0, points=29, refinement_levels=4),
    band=(2.5, 4.6), default_range=_std_ks(4),
))
_register(EquationDef(
    "frac-dde(1/2)", _eq_frac_dde,
    {"lam": (1.0, POSITIVE), "beta": (0.5, UNIT_INTERVAL)},
    GridSpec(0.5, 2.0, points=64, refinement_levels=4),
    band=(1.35, 1.85), default_range=_std_ks(3),
))
_register(EquationDef(
    "frac-dde(1/4)", _eq_frac_dde,
    {"lam": (1.0, POSITIVE), "beta": (0.25, UNIT_INTERVAL)},
    GridSpec(0.5, 2.0, points=64, refinement_levels=4),
    band=(1.0, 1.8), default_range=_std_ks(3),
))
_register(EquationDef(
    "et-pde(2)", _eq_et_pde,
    {"m": (2, integers(2, 2))},
    GridSpec(0.5, 2.0, points=17, refinement_levels=4),
    band=(1.6, 2.4), default_range=(0.3, 0.6, 1.0, 1.8), on_x=True,
))
_register(EquationDef(
    "prop3.2", _eq_prop32,
    {"lam": (1.0, POSITIVE), "n": (1, integers(1)), "beta": (0.5, UNIT_INTERVAL)},
    GridSpec(0.5, 2.0, points=64, refinement_levels=4),
    band=(0.9, 1.8), default_range=_std_ks(3),
))
_register(EquationDef(
    "prop4.1(2)", _eq_prop41,
    {"mu": (1.0, POSITIVE), "m": (2, integers(2, 4))},
    GridSpec(0.5, 2.5, points=17, refinement_levels=4),
    band=(1.6, 2.4), default_range=(0.5, 1.0, 2.0, 4.0), on_x=True,
))
_register(EquationDef(
    "prop4.1(3)", _eq_prop41,
    {"mu": (1.0, POSITIVE), "m": (3, integers(2, 4))},
    GridSpec(0.5, 2.5, points=17, refinement_levels=4),
    band=(1.5, 2.5), default_range=(0.4, 0.8, 1.6, 3.2), on_x=True,
))
_register(EquationDef(
    "rmk4.1(2)", _eq_rmk41,
    {"lam": (1.0, POSITIVE), "mu": (1.0, POSITIVE), "m": (2, integers(2, 2))},
    GridSpec(0.5, 2.0, points=17, refinement_levels=4),
    band=(1.6, 2.4), default_range=_std_ks(4),
))
_register(EquationDef(
    "inv-tempered-pde(2)", _eq_inv_tempered_pde,
    {"mu": (1.0, POSITIVE), "m": (2, integers(2, 2))},
    GridSpec(0.5, 2.0, points=17, refinement_levels=4),
    band=(1.5, 2.5), default_range=(0.4, 0.8, 1.5), on_x=True,
))
_register(EquationDef(
    "prop4.2(2)", _eq_prop42,
    {"lam": (1.0, POSITIVE), "mu": (1.0, POSITIVE), "m": (2, integers(2, 2))},
    GridSpec(0.5, 2.0, points=17, refinement_levels=4),
    band=(0.8, 2.3), default_range=_std_ks(4),
))


def registry_ids():
    return list(REGISTRY.keys())


def equation_params(equation_id: str, params: dict | None = None) -> dict:
    """The entry's default params updated by `params`, every key known and each value
    passed through its domain (`errors.Domain`): a float, or an int for an integer."""
    if not isinstance(equation_id, str) or equation_id not in REGISTRY:
        raise UnknownEquationError(f"unknown equation '{equation_id}'; known: {sorted(REGISTRY)}")
    eq = REGISTRY[equation_id]
    params = {} if params is None else params
    if not isinstance(params, dict) or set(params) - set(eq.params):
        raise DomainError(f"{equation_id} takes params {sorted(eq.params)}, got {params!r}")
    return {key: domain.check(f"{equation_id}: param {key}", params.get(key, default))
            for key, (default, domain) in eq.params.items()}


def equation_points(equation_id: str, k_range=None) -> np.ndarray:
    """The entry's counts k, or its space points x for an entry on x.

    `k_range` (default `default_range`) must be the counts 0, 1, ..., K in
    order, because the shift operators read row i - 1 as count k - 1; or,
    for an entry on x, a nonempty list of points x that each pass the shared
    rule for x > 0 (`errors.POSITIVE`).
    """
    eq = REGISTRY[equation_id]
    pts = eq.default_range if k_range is None else k_range
    if not isinstance(pts, (list, tuple, np.ndarray)) or len(pts) == 0 or not eq.on_x and not all(
            isinstance(v, Integral) and not isinstance(v, bool) and v == i
            for i, v in enumerate(pts)):
        what = "a nonempty list of x > 0" if eq.on_x else "the counts [0, 1, ..., K]"
        raise DomainError(f"{equation_id}: k_range must be {what}, got {pts!r}")
    return (np.array([POSITIVE.check(f"{equation_id}: x", v) for v in pts]) if eq.on_x
            else np.asarray(pts, dtype=int))


def check_equation(equation_id: str, params: dict | None = None,
                   grid: GridSpec | None = None, k_range=None) -> ResidualReport:
    """Build tables, apply the equation's operators, grade the residuals."""
    p = equation_params(equation_id, params)
    ks = equation_points(equation_id, k_range)
    eq = REGISTRY[equation_id]
    g = grid or eq.default_grid
    levels_raw, scale, extras = _levels(g, ks, eq.runner(p, g, ks))
    hs = [lv[0] for lv in levels_raw]
    maxs = [lv[1] for lv in levels_raw]
    floor = max(_FLOOR, 1e-12 * scale)
    est = estimate_order(hs, maxs, floor=floor)
    in_band = (not est.floor_limited) and est.order is not None and (
        eq.band[0] <= est.order <= eq.band[1]
    )
    passed = bool(est.floor_limited or (in_band and est.monotone))
    levels = [LevelResidual(h, mx, l2) for (h, mx, l2) in levels_raw]
    return ResidualReport(
        equation_id=equation_id,
        params=p,
        levels=levels,
        estimated_order=est.order,
        floor_limited=est.floor_limited,
        passed=passed,
        band=eq.band,
        scale=scale,
        extras=extras,
    )
