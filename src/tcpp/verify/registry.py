"""Registry of governing equations and the residual-certification driver.

Every entry discretizes one difference-differential or partial differential
equation satisfied by a pmf or density produced elsewhere in the package,
evaluates the residual on a dyadically refined grid, and grades the outcome:
pass when the residual decreases with an estimated convergence order inside
the entry's expected band, or when it is floor-limited below the noise floor.

Tables are always built once on the finest grid from a frozen quadrature rule
and subsampled to the coarser levels, so every level sees the same smooth
function and the finite-difference operators converge at their design order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np
from scipy.special import comb

from ..errors import DomainError, UnknownEquationError
from ..specfun import caputo_derivative, TimeSeries, gamma_fn
from ..subordinators.densities import (
    hitting_time_density_ig,
    ig_density,
    inverse_stable_density,
    inverse_tempered_density,
    stable_density,
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


def _dx_ref(fn, x: np.ndarray, order: int):
    """High-accuracy x-derivative of a smooth vectorized evaluator.

    Five-point O(h^4) stencils at the step h = 8e-3 max(x, 1/2); this side of each PDE is
    treated as a reference while the time derivative carries the refinement.
    """
    h = 8e-3 * np.maximum(x, 0.5)
    if order == 1:
        vals = [fn(x + k * h) for k in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12.0 * h)
    if order == 2:
        vals = [fn(x + k * h) for k in (-2, -1, 0, 1, 2)]
        return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (
            12.0 * h * h
        )
    raise DomainError("x-reference derivative supports orders 1 and 2")


def _shift_at_zero(j: int, ks: np.ndarray, lam: float):
    """(-lam)^j (1-shift)^j p_.(0) at each count: equals (-lam)^j (-1)^k C(j,k)."""
    out = np.zeros(ks.size)
    for i, k in enumerate(ks):
        if k <= j:
            out[i] = (-lam) ** j * (-1.0) ** k * comb(j, k, exact=True)
    return out


def _pmf_tables(spec, lam, times, ks, tol=1e-11):
    rule = mixture_rule(spec, lam, float(times[0]), float(times[-1]), int(np.max(ks)) + 1, tol)
    return rule.pmf_matrix(times, ks)


def _norms(res: np.ndarray):
    return float(np.max(np.abs(res))), float(math.sqrt(np.mean(np.square(res))))


# -- equation implementations -----------------------------------------------------
#
# Each returns (levels, scale, extras): levels is a list of (h, max, l2) from
# coarse to fine.


def _run_leveled(grid: GridSpec, tables_fine, residual_at):
    """Subsample finest-grid tables to every level and collect residual norms."""
    L = grid.refinement_levels
    t_fine = grid.level_times(L - 1)
    out = []
    scale = 1.0
    extras = {}
    for lev in range(L):
        stride = 2 ** (L - 1 - lev)
        tl = t_fine[::stride]
        sub = [v[..., ::stride] for v in tables_fine]
        res, scale, extras = residual_at(tl, sub, float(tl[1] - tl[0]), lev == L - 1)
        mx, l2 = _norms(res)
        out.append((float(tl[1] - tl[0]), mx, l2))
    return out, scale, extras


def _eq_prop21(params, grid, ks):
    lam, d, g = params["lam"], params["delta"], params["gamma"]
    t_fine = grid.level_times(grid.refinement_levels - 1)
    P = np.stack([pmf_bessel_ig(int(k), t_fine, lam, d, g) for k in ks])

    def residual(tl, sub, h, finest):
        (p,) = sub
        d2, m = central_difference(p, h, 2, richardson=True)
        d1, _ = central_difference(p, h, 1, richardson=True)
        rhs = 2.0 * d * d * lam * shift_power(p, 1, axis=0)[:, m:-m]
        res = d2 - 2.0 * d * g * d1 - rhs
        return res, float(np.max(np.abs(rhs))), {}

    return _run_leveled(grid, [P], residual)


def _eq_prop22(params, grid, ks):
    lam, d, g = params["lam"], params["delta"], params["gamma"]
    t_fine = grid.level_times(grid.refinement_levels - 1)
    P = _pmf_tables(InverseOf(InverseGaussian(d, g)), lam, t_fine, ks)
    h0 = hitting_time_density_ig(0.0, t_fine, d, g)
    dpk0 = np.where(ks == 0, -lam, np.where(ks == 1, lam, 0.0))

    def residual(tl, sub, h, finest):
        p, h0t = sub
        d1, m = central_difference(p, h, 1, richardson=False)
        s1 = shift_power(p, 1, axis=0)
        s2 = shift_power(p, 2, axis=0)
        # (1/2 d^2)[lam^2 (1-shift)^2 - 2 d g lam (1-shift)] p + boundary source
        rhs = (lam * lam * s2 - 2.0 * d * g * lam * s1) / (2.0 * d * d)
        rhs = rhs + (dpk0[:, None] * h0t[None, :]) / (2.0 * d * d)
        res = d1 - rhs[:, m:-m]
        return res, float(np.max(np.abs(rhs))), {}

    return _run_leveled(grid, [P, h0], residual)


def _eq_ig_density_pde(params, grid, xs):
    d, g = params["delta"], params["gamma"]
    t_fine = grid.level_times(grid.refinement_levels - 1)
    xs = np.asarray(xs, dtype=float)
    x, t = xs[:, None], t_fine[None, :]
    G = ig_density(x, t, d, g)
    dGdx = G * (-1.5 / x + d * d * t ** 2 / (2.0 * x * x) - g * g / 2.0)  # exact d/dx

    def residual(tl, sub, h, finest):
        gtab, gx = sub
        d2, m = central_difference(gtab, h, 2, richardson=False)
        d1, _ = central_difference(gtab, h, 1, richardson=False)
        rhs = 2.0 * d * d * gx[:, m:-m]
        res = d2 - 2.0 * d * g * d1 - rhs
        return res, float(np.max(np.abs(rhs))), {}

    return _run_leveled(grid, [G, dGdx], residual)


def _eq_prop31(params, grid, ks):
    lam, n = params["lam"], int(params["n"])
    beta = 0.5 ** n
    order = 2 ** n
    t_fine = grid.level_times(grid.refinement_levels - 1)
    P = _pmf_tables(Stable(beta), lam, t_fine, ks, tol=1e-12)

    def residual(tl, sub, h, finest):
        (p,) = sub
        dN, m = central_difference(p, h, order, richardson=False)
        rhs = lam * shift_power(p, 1, axis=0)[:, m:-m]
        res = dN - rhs
        return res, float(np.max(np.abs(rhs))), {}

    return _run_leveled(grid, [P], residual)


def _eq_deblassie(params, grid, xs):
    beta = params["beta"]
    m_ord = round(1.0 / beta)  # beta = 1/m, m in {2, 3} (the entry's domain)
    xs = np.asarray(xs, dtype=float)
    t_fine = grid.level_times(grid.refinement_levels - 1)[None, :]
    F = stable_density(xs[:, None], t_fine, beta)
    dFdx = _dx_ref(lambda xv: stable_density(xv, t_fine, beta), xs[:, None], 1)

    def residual(tl, sub, h, finest):
        f, fx = sub
        dm, m = central_difference(f, h, m_ord, richardson=False)
        rhs = (-1.0) ** m_ord * fx[:, m:-m]
        res = dm - rhs
        return res, float(np.max(np.abs(rhs))), {}

    return _run_leveled(grid, [F, dFdx], residual)


def _eq_thm31(params, grid, ks):
    lam, m_ord = params["lam"], int(params["m"])
    beta = 1.0 / m_ord
    t_fine = grid.level_times(grid.refinement_levels - 1)
    Q = _pmf_tables(InverseOf(Stable(beta)), lam, t_fine, ks)
    src = _thm31_source(t_fine, ks, lam, m_ord)

    def residual(tl, sub, h, finest):
        q, s = sub
        d1, m = central_difference(q, h, 1, richardson=True)
        rhs = (-lam) ** m_ord * shift_power(q, m_ord, axis=0) + s
        res = d1 - rhs[:, m:-m]
        return res, float(np.max(np.abs(rhs))), {}

    return _run_leveled(grid, [Q, src], residual)


def _thm31_source(times, ks, lam, m_ord):
    """sum_j (-lam)^j [(1-shift)^j p(0)]_k t^(-(m-j)/m) / Gamma(1-(m-j)/m)."""
    src = np.zeros((len(ks), times.size))
    for j in range(1, m_ord):
        frac = (m_ord - j) / m_ord
        coeff = _shift_at_zero(j, np.asarray(ks), lam)
        src += coeff[:, None] * times[None, :] ** (-frac) / gamma_fn(1.0 - frac)
    return src


def _eq_cor31(params, grid, ks):
    p = dict(params)
    p["m"] = 2 ** int(params["n"])
    return _eq_thm31(p, grid, ks)


def _caputo_level_times(grid: GridSpec, level: int):
    n = grid.points * 2 ** level
    h = grid.t_max / n
    return h * np.arange(1, n + 1)


def _run_caputo_leveled(grid, tables_fine, residual_at):
    L = grid.refinement_levels
    t_fine = _caputo_level_times(grid, L - 1)
    out = []
    scale, extras = 1.0, {}
    for lev in range(L):
        stride = 2 ** (L - 1 - lev)
        tl = t_fine[stride - 1 :: stride]
        sub = [v[..., stride - 1 :: stride] for v in tables_fine]
        res, scale, extras = residual_at(tl, sub, float(tl[0]), lev == L - 1)
        mx, l2 = _norms(res)
        out.append((float(tl[0]), mx, l2))
    return out, scale, extras


def _eq_frac_dde(params, grid, ks):
    lam, beta = params["lam"], params["beta"]
    L = grid.refinement_levels
    t_fine = _caputo_level_times(grid, L - 1)
    Q = _pmf_tables(InverseOf(Stable(beta)), lam, t_fine, ks)

    def residual(tl, sub, h, finest):
        (q,) = sub
        mask = tl >= grid.t_min
        cap = np.stack([
            caputo_derivative(TimeSeries(tl, q[i]), beta, 1.0 if k == 0 else 0.0).values
            for i, k in enumerate(ks)
        ])
        rhs = -lam * shift_power(q, 1, axis=0)
        res = (cap - rhs)[:, mask]
        return res, float(np.max(np.abs(rhs))), {}

    return _run_caputo_leveled(grid, [Q], residual)


def _eq_prop32(params, grid, ks):
    lam, n, beta = params["lam"], int(params["n"]), params["beta"]
    two_n = 2 ** n
    beta_tot = beta / two_n
    L = grid.refinement_levels
    t_fine = _caputo_level_times(grid, L - 1)
    Q = _pmf_tables(InverseOf(Stable(beta_tot)), lam, t_fine, ks)
    # U(gamma) = E[D(1)^(gamma beta)] for the outer index-beta subordinator
    u_vals = {j: stable_moment(beta, beta * (two_n - j) / two_n) for j in range(1, two_n)}
    src = np.zeros((len(ks), t_fine.size))
    for j in range(1, two_n):
        fracj = (two_n - j) / two_n
        coeff = _shift_at_zero(j, np.asarray(ks), lam)
        src += (
            coeff[:, None]
            * t_fine[None, :] ** (-beta * fracj)
            * u_vals[j]
            / gamma_fn(1.0 - fracj)
        )

    def residual(tl, sub, h, finest):
        q, s = sub
        mask = tl >= grid.t_min
        cap = np.stack([
            caputo_derivative(TimeSeries(tl, q[i]), beta, 1.0 if k == 0 else 0.0).values
            for i, k in enumerate(ks)
        ])
        rhs = lam ** two_n * shift_power(q, two_n, axis=0) + s
        res = (cap - rhs)[:, mask]
        extras = {}
        if finest:
            alt = lam ** two_n * shift_power(q, two_n - 1, axis=0) + s
            extras["alternative_shift_exponent_max_residual"] = float(
                np.max(np.abs((cap - alt)[:, mask]))
            )
        return res, float(np.max(np.abs(rhs))), extras

    return _run_caputo_leveled(grid, [Q, src], residual)


def _eq_et_pde(params, grid, xs):
    beta = 0.5
    xs = np.asarray(xs, dtype=float)
    t_fine = grid.level_times(grid.refinement_levels - 1)[None, :]
    M = inverse_stable_density(xs[:, None], t_fine, beta)
    Mxx = _dx_ref(lambda xv: inverse_stable_density(xv, t_fine, beta), xs[:, None], 2)

    def residual(tl, sub, h, finest):
        m_tab, mxx = sub
        d1, m = central_difference(m_tab, h, 1, richardson=False)
        rhs = mxx[:, m:-m]
        res = d1 - rhs
        extras = {}
        if finest:
            extras.update(_et_pde_boundaries(tl, beta))
        return res, float(np.max(np.abs(rhs))), extras

    return _run_leveled(grid, [M, Mxx], residual)


def _et_pde_boundaries(times, beta):
    """Boundary system of the index-1/2 PDE at a few probe times."""
    t = times[:: max(1, times.size // 4)]
    eps = 1e-5
    m1, m2 = inverse_stable_density(np.array([[eps], [2 * eps]]), t, beta)
    m0 = 2.0 * m1 - m2  # linear extrapolation to x = 0
    target = t ** (-beta) / gamma_fn(1.0 - beta)
    return {
        "boundary_value_max_error": float(np.max(np.abs(m0 - target))),
        "boundary_derivative_max_abs": float(np.max(np.abs((m2 - m1) / eps))),
        "far_field_max": float(np.max(inverse_stable_density(40.0 * np.sqrt(t), t, beta))),
    }


def _eq_prop41(params, grid, xs):
    mu, m_ord = params["mu"], int(params["m"])
    beta = 1.0 / m_ord
    xs = np.asarray(xs, dtype=float)
    t_fine = grid.level_times(grid.refinement_levels - 1)[None, :]
    F = tempered_stable_density(xs[:, None], t_fine, beta, mu)
    dFdx = _dx_ref(lambda xv: tempered_stable_density(xv, t_fine, beta, mu), xs[:, None], 1)

    def residual(tl, sub, h, finest):
        f, fx = sub
        parts = []
        margin = 2 if m_ord >= 3 else 1
        lhs = None
        for j in range(1, m_ord + 1):
            dj, m = central_difference(f, h, j, richardson=False)
            trim = margin - m
            dj = dj[:, trim : dj.shape[1] - trim or None]
            term = (-1.0) ** j * comb(m_ord, j, exact=True) * mu ** (1.0 - j / m_ord) * dj
            lhs = term if lhs is None else lhs + term
        rhs = fx[:, margin:-margin]
        res = lhs - rhs
        return res, float(np.max(np.abs(rhs))), {}

    return _run_leveled(grid, [F, dFdx], residual)


def _eq_rmk41(params, grid, ks):
    lam, mu = params["lam"], params["mu"]
    beta = 0.5
    t_fine = grid.level_times(grid.refinement_levels - 1)
    R = _pmf_tables(TemperedStable(beta, mu), lam, t_fine, ks)

    def residual(tl, sub, h, finest):
        (r,) = sub
        d2, m = central_difference(r, h, 2, richardson=False)
        d1, _ = central_difference(r, h, 1, richardson=False)
        rhs = lam * shift_power(r, 1, axis=0)[:, m:-m]
        res = d2 - 2.0 * math.sqrt(mu) * d1 - rhs
        return res, float(np.max(np.abs(rhs))), {}

    return _run_leveled(grid, [R], residual)


def _eq_inv_tempered_pde(params, grid, xs):
    mu = params["mu"]
    beta = 0.5
    xs = np.asarray(xs, dtype=float)
    t_fine = grid.level_times(grid.refinement_levels - 1)

    def dens(xv):
        return inverse_tempered_density(xv, t_fine[None, :], beta, mu)

    M = dens(xs[:, None])
    Mx = _dx_ref(dens, xs[:, None], 1)
    Mxx = _dx_ref(dens, xs[:, None], 2)

    def residual(tl, sub, h, finest):
        m_tab, mx, mxx = sub
        d1, m = central_difference(m_tab, h, 1, richardson=False)
        lhs = mxx[:, m:-m] - 2.0 * math.sqrt(mu) * mx[:, m:-m]
        res = lhs - d1
        return res, float(np.max(np.abs(lhs))), {}

    return _run_leveled(grid, [M, Mx, Mxx], residual)


def _eq_prop42(params, grid, ks):
    lam, mu = params["lam"], params["mu"]
    beta = 0.5
    t_fine = grid.level_times(grid.refinement_levels - 1)
    R = _pmf_tables(InverseOf(TemperedStable(beta, mu)), lam, t_fine, ks)
    # exact boundary terms: m(0,t) = h(0,t) of the equal IG law, and
    # d/dx m(0,t) = 2 delta gamma m(0,t) = 2 sqrt(mu) m(0,t)
    m0 = hitting_time_density_ig(0.0, t_fine, *tempered_half_as_ig(mu))
    mx0 = 2.0 * math.sqrt(mu) * m0
    pk0 = np.where(np.asarray(ks) == 0, 1.0, 0.0)
    dpk0 = np.where(np.asarray(ks) == 0, -lam, np.where(np.asarray(ks) == 1, lam, 0.0))

    def residual(tl, sub, h, finest):
        r, b0, bx0 = sub
        d1, m = central_difference(r, h, 1, richardson=False)
        s1 = shift_power(r, 1, axis=0)
        s2 = shift_power(r, 2, axis=0)
        rhs = -2.0 * math.sqrt(mu) * lam * s1 + lam * lam * s2
        rhs = rhs + (2.0 * math.sqrt(mu) * pk0 + dpk0)[:, None] * b0[None, :]
        rhs = rhs - pk0[:, None] * bx0[None, :]
        res = d1 - rhs[:, m:-m]
        extras = {"boundary_value_at_tmax": float(b0[-1]),
                  "boundary_slope_at_tmax": float(bx0[-1])} if finest else {}
        return res, float(np.max(np.abs(rhs))), extras

    return _run_leveled(grid, [R, m0, mx0], residual)


# -- registry -----------------------------------------------------------------------


@dataclass(frozen=True)
class EquationDef:
    equation_id: str
    runner: object
    params: dict  # name -> (default, (domain description, predicate))
    default_grid: GridSpec
    band: tuple
    default_range: tuple  # counts k or space points x
    range_kind: str = "k"
    statement: str = ""


def _std_ks(n=4):
    return tuple(range(n))


_POS = ("> 0", lambda v: v > 0)
_NONNEG = (">= 0", lambda v: v >= 0)
_INDEX = ("in (0, 1)", lambda v: 0 < v < 1)
_DEBLASSIE = ("1/2 or 1/3", lambda v: min(abs(v - 0.5), abs(v - 1.0 / 3.0)) < 1e-12)


def _ints(lo, hi=math.inf):
    return (f"an integer in [{lo}, {hi}]", lambda v: v == int(v) and lo <= v <= hi)


REGISTRY: dict[str, EquationDef] = {}


def _register(eq):
    REGISTRY[eq.equation_id] = eq


_register(EquationDef(
    "prop2.1", _eq_prop21,
    {"lam": (1.0, _POS), "delta": (1.0, _POS), "gamma": (1.0, _POS)},
    GridSpec(0.5, 2.0, points=97, refinement_levels=4),
    band=(3.0, 5.0), default_range=_std_ks(5),
    statement="d2/dt2 p - 2 d g d/dt p = 2 d^2 lam (1-shift) p",
))
_register(EquationDef(
    "prop2.2", _eq_prop22,
    {"lam": (1.0, _POS), "delta": (1.0, _POS), "gamma": (1.0, _NONNEG)},
    GridSpec(0.5, 2.0, points=17, refinement_levels=4),
    band=(0.8, 2.3), default_range=_std_ks(4),
    statement="d/dt p~ = (2 d^2)^-1 [lam^2(1-shift)^2 - 2 d g lam (1-shift)] p~ + h(0,t) p'(0)/(2 d^2)",
))
_register(EquationDef(
    "ig-density-pde", _eq_ig_density_pde,
    {"delta": (1.0, _POS), "gamma": (1.0, _NONNEG)},
    GridSpec(0.5, 2.0, points=17, refinement_levels=4),
    band=(1.6, 2.4), default_range=(0.4, 0.8, 1.5, 2.5), range_kind="x",
    statement="d2/dt2 g - 2 d g_ d/dt g = 2 d^2 dg/dx",
))
_register(EquationDef(
    "prop3.1(1)", _eq_prop31,
    {"lam": (1.0, _POS), "n": (1, _ints(1, 2))},
    GridSpec(0.5, 2.5, points=17, refinement_levels=4),
    band=(1.6, 2.4), default_range=_std_ks(4),
    statement="d2/dt2 p~ = lam (1-shift) p~ for the once-iterated 1/2-stable clock",
))
_register(EquationDef(
    "prop3.1(2)", _eq_prop31,
    {"lam": (1.0, _POS), "n": (2, _ints(1, 2))},
    GridSpec(0.5, 2.5, points=17, refinement_levels=4),
    band=(1.5, 2.5), default_range=_std_ks(4),
    statement="d4/dt4 p~ = lam (1-shift) p~ for the twice-iterated 1/2-stable clock",
))
_register(EquationDef(
    "deblassie(1/2)", _eq_deblassie,
    {"beta": (0.5, _DEBLASSIE)},
    GridSpec(0.5, 2.5, points=17, refinement_levels=4),
    band=(1.6, 2.4), default_range=(0.5, 1.0, 2.0, 4.0), range_kind="x",
    statement="d2/dt2 f = df/dx for the 1/2-stable density",
))
_register(EquationDef(
    "deblassie(1/3)", _eq_deblassie,
    {"beta": (1.0 / 3.0, _DEBLASSIE)},
    GridSpec(0.5, 2.5, points=17, refinement_levels=4),
    band=(1.5, 2.5), default_range=(0.4, 0.8, 1.6, 3.2), range_kind="x",
    statement="d3/dt3 f = -df/dx for the 1/3-stable density",
))
_register(EquationDef(
    "thm3.1(2)", _eq_thm31,
    {"lam": (1.0, _POS), "m": (2, _ints(2))},
    GridSpec(0.25, 4.0, points=31, refinement_levels=5),
    band=(2.5, 4.6), default_range=_std_ks(4),
    statement="d/dt q = lam^2 (1-shift)^2 q + p'(0) t^-1/2/Gamma(1/2)",
))
_register(EquationDef(
    "thm3.1(3)", _eq_thm31,
    {"lam": (1.0, _POS), "m": (3, _ints(2))},
    GridSpec(0.25, 4.0, points=31, refinement_levels=5),
    band=(2.5, 4.6), default_range=_std_ks(4),
    statement="d/dt q = -lam^3 (1-shift)^3 q + sources, index 1/3",
))
_register(EquationDef(
    "cor3.1(1)", _eq_cor31,
    {"lam": (1.0, _POS), "n": (1, _ints(1))},
    GridSpec(0.25, 4.0, points=31, refinement_levels=5),
    band=(2.5, 4.6), default_range=_std_ks(4),
    statement="theorem DDE with m = 2^1 (subsumed by thm3.1(2))",
))
_register(EquationDef(
    "cor3.1(2)", _eq_cor31,
    {"lam": (1.0, _POS), "n": (2, _ints(1))},
    GridSpec(0.5, 4.0, points=29, refinement_levels=4),
    band=(2.5, 4.6), default_range=_std_ks(4),
    statement="d/dt q = lam^4 (1-shift)^4 q + sources, index 1/4",
))
_register(EquationDef(
    "frac-dde(1/2)", _eq_frac_dde,
    {"lam": (1.0, _POS), "beta": (0.5, _INDEX)},
    GridSpec(0.5, 2.0, points=64, refinement_levels=4),
    band=(1.35, 1.85), default_range=_std_ks(3),
    statement="Caputo^1/2 q = -lam (1-shift) q",
))
_register(EquationDef(
    "frac-dde(1/4)", _eq_frac_dde,
    {"lam": (1.0, _POS), "beta": (0.25, _INDEX)},
    GridSpec(0.5, 2.0, points=64, refinement_levels=4),
    band=(1.0, 1.8), default_range=_std_ks(3),
    statement="Caputo^1/4 q = -lam (1-shift) q",
))
_register(EquationDef(
    "et-pde(2)", _eq_et_pde,
    {"m": (2, _ints(2, 2))},
    GridSpec(0.5, 2.0, points=17, refinement_levels=4),
    band=(1.6, 2.4), default_range=(0.3, 0.6, 1.0, 1.8), range_kind="x",
    statement="dm/dt = d2m/dx2 with boundary system, inverse 1/2-stable density",
))
_register(EquationDef(
    "prop3.2", _eq_prop32,
    {"lam": (1.0, _POS), "n": (1, _ints(1)), "beta": (0.5, _INDEX)},
    GridSpec(0.5, 2.0, points=64, refinement_levels=4),
    band=(0.9, 1.8), default_range=_std_ks(3),
    statement="Caputo^beta q~ = lam^2 (1-shift)^2 q~ + U-weighted sources",
))
_register(EquationDef(
    "prop4.1(2)", _eq_prop41,
    {"mu": (1.0, _POS), "m": (2, _ints(2, 4))},
    GridSpec(0.5, 2.5, points=17, refinement_levels=4),
    band=(1.6, 2.4), default_range=(0.5, 1.0, 2.0, 4.0), range_kind="x",
    statement="d2/dt2 f - 2 sqrt(mu) d/dt f = df/dx, tempered 1/2-stable",
))
_register(EquationDef(
    "prop4.1(3)", _eq_prop41,
    {"mu": (1.0, _POS), "m": (3, _ints(2, 4))},
    GridSpec(0.5, 2.5, points=17, refinement_levels=4),
    band=(1.5, 2.5), default_range=(0.4, 0.8, 1.6, 3.2), range_kind="x",
    statement="third-order tempered operator = df/dx, tempered 1/3-stable",
))
_register(EquationDef(
    "rmk4.1(2)", _eq_rmk41,
    {"lam": (1.0, _POS), "mu": (1.0, _POS), "m": (2, _ints(2, 2))},
    GridSpec(0.5, 2.0, points=17, refinement_levels=4),
    band=(1.6, 2.4), default_range=_std_ks(4),
    statement="d2/dt2 r - 2 sqrt(mu) d/dt r = lam (1-shift) r",
))
_register(EquationDef(
    "inv-tempered-pde(2)", _eq_inv_tempered_pde,
    {"mu": (1.0, _POS), "m": (2, _ints(2, 2))},
    GridSpec(0.5, 2.0, points=17, refinement_levels=4),
    band=(1.5, 2.5), default_range=(0.4, 0.8, 1.5), range_kind="x",
    statement="d2m/dx2 - 2 sqrt(mu) dm/dx = dm/dt, inverse tempered density",
))
_register(EquationDef(
    "prop4.2(2)", _eq_prop42,
    {"lam": (1.0, _POS), "mu": (1.0, _POS), "m": (2, _ints(2, 2))},
    GridSpec(0.5, 2.0, points=17, refinement_levels=4),
    band=(0.8, 2.3), default_range=_std_ks(4),
    statement="d/dt r~ = tempered shift operator + x=0 boundary cross-terms",
))


def registry_ids():
    return list(REGISTRY.keys())


def equation_params(equation_id: str, params: dict | None = None) -> dict:
    """The entry's default params updated by `params`, every key known and in its domain."""
    if equation_id not in REGISTRY:
        raise UnknownEquationError(f"unknown equation '{equation_id}'; known: {sorted(REGISTRY)}")
    eq = REGISTRY[equation_id]
    params = {} if params is None else params
    if not isinstance(params, dict) or set(params) - set(eq.params):
        raise DomainError(f"{equation_id} takes params {sorted(eq.params)}, got {params!r}")
    p = {key: params.get(key, default) for key, (default, _) in eq.params.items()}
    for key, (_, (what, ok)) in eq.params.items():
        v = p[key]
        if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v) and ok(v)):
            raise DomainError(f"{equation_id}: param {key} = {v!r} must be {what}")
    return p


def equation_points(equation_id: str, k_range=None) -> np.ndarray:
    """The entry's counts k, or its space points x for an x-range entry.

    `k_range` (default `default_range`) must be the counts 0, 1, ..., K in
    order, because the shift operators read row i - 1 as count k - 1; or,
    for an x-range entry, a nonempty list of finite numbers > 0.
    """
    x_points = REGISTRY[equation_id].range_kind == "x"
    pts = REGISTRY[equation_id].default_range if k_range is None else k_range
    ok = isinstance(pts, (list, tuple, np.ndarray)) and len(pts) > 0 and all(
        not isinstance(v, bool) and (
            isinstance(v, Real) and math.isfinite(v) and v > 0 if x_points
            else isinstance(v, Integral) and v == i)
        for i, v in enumerate(pts))
    if not ok:
        what = "a nonempty list of finite numbers > 0" if x_points else "the counts [0, 1, ..., K]"
        raise DomainError(f"{equation_id}: k_range must be {what}, got {pts!r}")
    return np.asarray(pts, dtype=float if x_points else int)


def check_equation(equation_id: str, params: dict | None = None,
                   grid: GridSpec | None = None, k_range=None) -> ResidualReport:
    """Build tables, apply the equation's operators, grade the residuals."""
    p = equation_params(equation_id, params)
    ks = equation_points(equation_id, k_range)
    eq = REGISTRY[equation_id]
    g = grid or eq.default_grid
    levels_raw, scale, extras = eq.runner(p, g, ks)
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
