"""Pmf, moment, and waiting-time computations for time-changed Poisson counts.

A Levy clock X (every clock but an inverse one) has the closed generating
function E u^{N(X(t))} = exp(-t phi_X(lam (1 - u))); `pmf_table` inverts it
by one FFT on the circle |u| = r (Abate & Whitt 1992), except an IG clock
with gamma > 0, whose count law has a closed Bessel form (`_ig_count_logs`).
Inverse clocks take the quadrature route below, which also serves as the
independent oracle.  `auto_method` picks the route.

The mixture identity P(N(X(t)) = k) = int p_k(x) dens_X(x, t) dx is evaluated
against frozen composite Gauss-Legendre rules.  A rule's nodes are built once
per (spec, lambda, time-window, kmax) and shared by every t in the window and
every count index, so the quadrature error is a smooth function of t:
finite-difference operators applied to tables (see tcpp.verify) do not see it
as noise.  A pmf table is a banded sum: each block of counts k sums only the
nodes where p_k(lambda x) can exceed e^-50, dropping <= e^-50 sum_i |w_i f_i|.
Within a block, consecutive counts take the ratio p_k = p_{k-1} (lambda x/k)
from one direct row: a divide and a multiply a term, where the direct formula
exp(k log m - m - log k!) pays a multiply, two subtractions and an exp, and
loses relative accuracy as k log m grows (Loader 2000).

Every table, Monte Carlo included, is made by `table_cache`, so a process
answers an identical request with the immutable table it already made.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import ConvergenceError, DomainError, NoDensityError
from .subordinators.densities import ig_exponent
from .subordinators.sampling import _DRAW_BLOCK, rng_stream, sample
from .subordinators.spec import (
    TAIL_LOG,
    Clock,
    InverseGaussian,
    InverseOf,
    Stable,
    SubordinatorSpec,
    spec_from_dict,
)

__all__ = [
    "PmfTable",
    "poisson_pmf",
    "pmf_bessel_ig",
    "pmf_quadrature",
    "auto_method",
    "pmf_table",
    "pmf_monte_carlo",
    "fractional_poisson_pmf",
    "moments_ig",
    "waiting_time_survival",
    "waiting_time_lt",
]


# -- Poisson pmf and its x-derivatives -----------------------------------------


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


_LOG_CUT = 50.0
_K_BLOCK = 128
_T_BLOCK = 16
# Past this many terms a block's union band leaves the cache.  Only many-column
# tables with many counts get there: a `verify` request with a large k_range
# (registry `_pmf_tables`).  Stable(0.7) at lam 20, kmax 2000 on 37 columns:
# 0.09-0.13 s CPU per column band and 0.095-0.13 s on the union (2 cores;
# 0.20-0.22 s on the union with direct rows), so the union's wider buffer buys
# nothing past this size.
_UNION_CELLS = 1 << 16
# A row of the ratio recurrence costs one Python step, about 0.6 us, and saves
# about 1.5 ns a term over the direct formula: rows of fewer terms than this
# (one column on a narrow band) are cheaper direct.  Measured on 128-count
# blocks, where the two cross at 400-600 terms a row (2 cores).
_RATIO_TERMS = 512


def _poisson_mix(ks, x, lam: float, wd):
    """out[i, b] = sum_n p_{ks[i]}(lam x[b, n]) wd[b, n]; each row of x must ascend.

    x and wd are (nodes,) or (columns, nodes) arrays, at least one of them
    2-D; a 1-D one is shared by every column.  log p_k(m) <= -(k-m)^2/(2k)
    for m < k and <= -(m-k)^2/(2m) for m > k, so for the sorted counts
    k0..k1 of a block every node with m = lam x outside [k0 - sqrt(2 C k0),
    k1 + C + sqrt(C (C + 2 k1))] (`_poisson_cut`), C = _LOG_CUT, has
    p_k(m) < e^-C and may be left out of that column's sum.  The columns
    share the union of their bands while it spans at most _UNION_CELLS terms;
    past that each sums its own.  Every block's terms are written by
    `_poisson_rows` into one buffer made once per call.
    """
    # float counts: an int operand makes numpy cast it in a buffered loop
    ks = np.asarray(ks, dtype=int).astype(float)
    m = lam * np.asarray(x, dtype=float)
    rows, wd = np.atleast_2d(m), np.atleast_2d(wd)
    order = np.argsort(ks, kind="stable")
    out = np.empty((ks.size, max(len(rows), len(wd))))
    counts, nodes = min(ks.size, _K_BLOCK), rows.shape[1]
    buf = np.empty(min(counts * len(rows) * nodes, max(_UNION_CELLS, counts * nodes)))
    ends = rows[:, 0].min(), rows[:, -1].max()
    for start in range(0, ks.size, _K_BLOCK):
        idx = order[start:start + _K_BLOCK]
        kb = ks[idx]
        k0, k1 = kb[0], kb[-1]
        # each row's [lo, hi) band
        los, his = (_below(rows, ends, cut) for cut in
                    (k0 - math.sqrt(2.0 * _LOG_CUT * k0), _poisson_cut(k1, 1.0, _LOG_CUT)))
        a, b = los.min(), his.max()
        if m.ndim == 1:  # (counts, nodes) @ (nodes, columns)
            terms = _poisson_rows(kb, m[a:b], buf[:kb.size * (b - a)])
            out[idx] = terms @ wd[:, a:b].T
        elif len(rows) * kb.size * (b - a) <= _UNION_CELLS:
            # the union band: terms laid out (counts, columns, nodes), so each
            # count's row over every column is contiguous, and read as
            # (columns, counts, nodes) @ (columns, nodes, 1)
            terms = _poisson_rows(kb, m[:, a:b], buf[:len(rows) * kb.size * (b - a)])
            out[idx] = (terms.transpose(1, 0, 2) @ wd[:, a:b, None])[..., 0].T
        else:  # one column at a time, on its own band, keeps the terms in cache
            wd = np.broadcast_to(wd, m.shape)
            for j, (lo, hi) in enumerate(zip(los, his)):
                terms = _poisson_rows(kb, m[j, lo:hi], buf[:kb.size * (hi - lo)])
                out[idx, j] = terms @ wd[j, lo:hi]
    return out


def _below(rows, ends, cut: float):
    """How many nodes of each ascending row lie below cut: a count, skipped
    when every node lies on one side of it (ends: the least first node and
    the greatest last one)."""
    if ends[0] >= cut:
        return np.zeros(len(rows), dtype=int)
    if ends[1] < cut:
        return np.full(len(rows), rows.shape[1])
    return np.count_nonzero(rows < cut, axis=1)


def _poisson_rows(kb, mb, buf):
    """terms[i] = p_{kb[i]}(mb) for ascending counts kb, written into buf
    viewed as (counts, *mb.shape).

    A count one above the previous one takes the ratio p_k = p_{k-1} (m/k);
    every other count (the first, one after a gap, a repeat) takes
    `_poisson_terms` (p_0 = e^-m, its same bits, at k = 0).  The ratios of a
    run are formed by one division and multiplied row by row.  Each product
    adds about one rounding, where the direct formula carries the rounding
    of k log m (Loader 2000).  On its column's own band a head is above
    about e^-310 (m <= 311 there when k0 <= 1); where one underflows, off
    that band, every row of the block is below e^-_LOG_CUT anyway.  Rows of
    fewer than _RATIO_TERMS terms are all taken by `_poisson_terms`.
    """
    terms = buf.reshape(kb.size, *mb.shape)
    kcol = kb.reshape(-1, *[1] * mb.ndim)
    if mb.size < _RATIO_TERMS:
        return _poisson_terms(kcol, mb, terms)
    ks = kb.tolist()
    i0 = 0
    while i0 < len(ks):
        head = terms[i0]
        if ks[i0] == 0:
            np.exp(np.negative(mb, out=head), out=head)
        else:
            _poisson_terms(ks[i0], mb, head)
        i1 = i0 + 1
        while i1 < len(ks) and ks[i1] == ks[i1 - 1] + 1:
            i1 += 1
        run = terms[i0 + 1:i1]
        np.divide(mb, kcol[i0 + 1:i1], out=run)
        for row in run:
            row *= head
            head = row
        i0 = i1
    return terms


def _poisson_terms(kb, mb, out=None):
    """p_k(m) = exp(k log m - m - log k!), formed in one array, `out` when it
    is given (made, and 0-d for scalars, when not): separate temporaries are
    large enough that the allocator returns them to the system, and pays
    page faults to map them again."""
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(kb), np.shape(mb)))
    np.multiply(kb, np.log(mb), out=out)
    out -= mb
    out -= gammaln(kb + 1.0)
    return np.exp(out, out=out)


# -- closed-form Bessel pmf for the IG time change --------------------------------


def pmf_bessel_ig(k: int, t, lam: float, delta: float, gamma: float):
    """P(N(G(t)) = k) in closed Bessel form (requires gamma > 0): term k of
    `_ig_count_logs`."""
    if not gamma > 0:
        raise DomainError("Bessel-form pmf needs gamma > 0 (use pmf_quadrature for gamma = 0)")
    if k < 0:
        raise DomainError("count index k must be >= 0")
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not (np.all(t > 0) and lam > 0 and delta > 0):  # refuses NaN as well
        raise DomainError("pmf_bessel_ig requires t, lambda and delta > 0")
    out = np.exp(next(itertools.islice(_ig_count_logs(t, lam, delta, gamma), k, None)))
    return float(out[0]) if scalar else out


def _ig_count_logs(t, lam: float, delta: float, gamma: float):
    """log P(N(G(t)) = k) for k = 0, 1, 2, ... in turn; t is a float or an array.

    The closed form p_k = sqrt(2 omega/pi) (lam delta t/c)^k / k! e^{-t phi(lam)}
    e^omega K_{k-1/2}(omega), c = sqrt(gamma^2 + 2 lam), omega = delta t c,
    gives p_0 = e^{-t phi(lam)} (`ig_exponent`) and p_k = p_{k-1} s_{k-1} / k
    with s_j = (lam delta t/c) K_{j+1/2}(omega) / K_{j-1/2}(omega).  The
    Bessel recurrence K_{v+1} = K_{v-1} + (2v/omega) K_v (DLMF 10.29.1) makes
    that s_j = s_0 (s_0/s_{j-1}) + (2j-1) lam/c^2, so each term costs O(1).
    s_j >= max(s_0, (2j-1) lam/c^2) neither overflows nor cancels, and the
    terms are summed in log space, so neither large k, t nor gamma can
    overflow; s_0 is kept at or above the least positive float.
    """
    c = math.hypot(gamma, math.sqrt(2.0 * lam))
    log, at_least = (np.log, np.maximum) if isinstance(t, np.ndarray) else (math.log, max)
    s0, step = at_least(lam * delta * t / c, math.ulp(0.0)), lam / c / c
    logp, s = -t * ig_exponent(lam, delta, gamma), s0
    for k in itertools.count(1):
        yield logp
        logp = logp + log(s / k)
        s = s0 * (s0 / s) + (2 * k - 1) * step


# -- frozen mixture rules -----------------------------------------------------------


# the probe pmfs of a table's frozen rule settle to this (a registry check
# asks `mixture_rule` for its own)
_RULE_TOL = 1e-10


def _poisson_cut(kmax: float, lam: float, c: float = TAIL_LOG) -> float:
    """x beyond which every p_k(lam x), k <= kmax, is below e^-c: the root
    m = lam x > kmax of (m - kmax)^2 / (2m) = c, as log p_k(m) <= -(m-k)^2/(2m)."""
    return (kmax + c + math.sqrt(c * (c + 2.0 * kmax))) / lam


@dataclass
class MixtureRule:
    """Frozen quadrature discretization of the mixing density family.

    It keeps the Poisson rate `lam`, the clock `law` that built the nodes
    (spec.mixing_law()), the `nodes`, `weights`, t-free density factor
    `dens` and window right end `x_hi` that `law.rule_nodes` returned, and
    the memo `_last`.  The request it was built for is `mixture_rule`'s
    cache key.  `law` turns the nodes into (x, weight * density) at each t,
    and supplies the survivor mass beyond `x_hi`, in the nodes' variable.
    """

    lam: float
    law: Clock = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    dens: np.ndarray | None = field(repr=False)
    x_hi: float
    # (t, (x, wd)) of the last one-column weighted() call, kept as one tuple so
    # a reader on another thread never sees t paired with another t's result
    _last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # _poisson_mix slices by value the nodes that weighted() scales by t > 0
        assert np.all(np.diff(self.nodes) > 0), "rule nodes must ascend"

    def _blocks(self, ts):
        """(columns, x, wd) for each block of _T_BLOCK consecutive times.

        A one-column call at the t of the previous one reuses its (x, wd):
        a table's last settling probe, `pmf_matrix` and `tail_mass` make one
        density pass between them.
        """
        if ts.size == 1:
            last = self._last
            if last is None or last[0] != ts[0]:
                last = self._last = (float(ts[0]), self.law.weighted(self, ts[:, None]))
            yield (slice(0, 1), *last[1])
            return
        for start in range(0, ts.size, _T_BLOCK):
            cols = slice(start, start + _T_BLOCK)
            yield (cols, *self.law.weighted(self, ts[cols, None]))

    def pmf_matrix(self, ts, ks):
        """pmf[k_i, t_j] for all requested counts and times.

        The times are taken in blocks of _T_BLOCK consecutive columns, one
        `weighted` call and one banded sum (`_poisson_mix`) per block.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((np.size(ks), ts.size))
        for cols, x, wd in self._blocks(ts):
            out[:, cols] = _poisson_mix(ks, x, self.lam, wd)
        return out

    def tail_mass(self, ts, kmax: int):
        """P(N > kmax) including the analytic mass beyond the node window."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty(ts.size)
        for cols, x, wd in self._blocks(ts):
            q = gammainc(kmax + 1.0, self.lam * x)  # P(Poi(lam x) > kmax)
            out[cols] = np.sum(q * wd, axis=-1) + [self.law.survivor(self, float(t))
                                                  for t in ts[cols]]
        return out


@lru_cache(maxsize=64)
def mixture_rule(
    spec: SubordinatorSpec,
    lam: float,
    t_lo: float,
    t_hi: float,
    kmax: int,
    tol: float = _RULE_TOL,
) -> MixtureRule:
    """Adaptive construction: double panel count until probe pmfs settle."""
    if not 0 < t_lo <= t_hi:
        raise DomainError("need 0 < t_lo <= t_hi")
    probe_ts = np.unique([t_lo, math.sqrt(t_lo * t_hi), t_hi])  # one column when t_lo == t_hi
    probe_ks = np.unique(np.array([0, kmax // 2, kmax]))
    law = spec.mixing_law()
    if law is None:
        raise NoDensityError(f"spec {spec.label()} has no density evaluator; use pmf_monte_carlo")
    cut = _poisson_cut(kmax, lam)
    n_panels = 32
    prev = None
    while n_panels <= 2048:
        rule = MixtureRule(lam, law, *law.rule_nodes(t_lo, t_hi, cut, n_panels))
        vals = rule.pmf_matrix(probe_ts, probe_ks)
        if prev is not None and np.max(np.abs(vals - prev)) < tol:
            return rule
        prev = vals
        n_panels *= 2
    raise ConvergenceError(f"mixture rule did not converge for {spec.label()}")


# -- pmf tables -----------------------------------------------------------------


def _frozen_copy(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PmfTable:
    """pmf values for k = 0..kmax at one (spec, lambda, t), with tail mass.

    A table is immutable, so one can be shared: `values` and `stderr` are
    read-only copies of the arrays it was given, and `route` is a read-only
    view of a copy of its dict.
    """

    spec: SubordinatorSpec
    lam: float
    t: float
    kmax: int
    values: np.ndarray
    tail_bound: float
    stderr: np.ndarray | None = None
    seed: int | None = None
    method: str = "quadrature"
    # the route's own diagnostics: pgf radius, nodes and aliasing bound;
    # quadrature rule nodes and tol
    route: Mapping = field(default_factory=dict)

    def __post_init__(self):
        v = _frozen_copy(self.values)
        object.__setattr__(self, "values", v)
        if self.stderr is not None:
            object.__setattr__(self, "stderr", _frozen_copy(self.stderr))
        object.__setattr__(self, "route", MappingProxyType(dict(self.route)))
        if v.size != self.kmax + 1:
            raise DomainError("values must have length kmax + 1")
        # NaN passes the comparisons below, so non-finite numbers are refused first
        if not (np.all(np.isfinite(v)) and math.isfinite(self.tail_bound)):
            raise DomainError("pmf values and tail bound must be finite")
        if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-9):
            raise DomainError("pmf values must lie in [0, 1]")
        defect = abs(float(np.sum(v)) + self.tail_bound - 1.0)
        if defect > 1e-3:
            raise DomainError(f"pmf normalization defect {defect:.2e} is too large")

    @property
    def normalization_defect(self) -> float:
        return float(np.sum(self.values)) + self.tail_bound - 1.0

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "lambda": self.lam,
            "t": self.t,
            "kmax": self.kmax,
            "values": [float(v) for v in self.values],
            "tail_bound": self.tail_bound,
            "stderr": None if self.stderr is None else [float(s) for s in self.stderr],
            "seed": self.seed,
            "method": self.method,
            "route": dict(self.route),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PmfTable":
        method = d.get("method", "quadrature")
        route = d.get("route")
        if route is None:  # the older form kept only the quadrature tolerance
            old_tol = d.get("tolerances", {}).get("quadrature_abs")
            route = {"tol": float(old_tol)} if method == "quadrature" and old_tol else {}
        return cls(
            spec=spec_from_dict(d["spec"]),
            lam=float(d["lambda"]),
            t=float(d["t"]),
            kmax=int(d["kmax"]),
            values=np.asarray(d["values"], dtype=float),
            tail_bound=float(d["tail_bound"]),
            stderr=None if d.get("stderr") is None else np.asarray(d["stderr"], dtype=float),
            seed=d.get("seed"),
            method=method,
            route=route,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def csv_rows(self):
        """Rows (k, value[, stderr]) with 17 significant digits."""
        header = ["k", "value"] + (["stderr"] if self.stderr is not None else [])
        yield header
        for k in range(self.kmax + 1):
            row = [str(k), format(self.values[k], ".17g")]
            if self.stderr is not None:
                row.append(format(self.stderr[k], ".17g"))
            yield row


def pmf_quadrature(k: int, t: float, lam: float, spec: SubordinatorSpec) -> float:
    """P(N(X(t)) = k): entry k of the quadrature table with kmax = k."""
    if k < 0:
        raise DomainError("count index k must be >= 0")
    return float(pmf_table(t, lam, spec, kmax=k, method="quadrature").values[k])


_TAIL_TARGET = 1e-10
_KMAX_START = 64
_KMAX_CAP = 2000


def _first_below(tails):
    """The first k with P(N > k) = tails[k] below _TAIL_TARGET, or None."""
    below = np.flatnonzero(tails < _TAIL_TARGET)
    return int(below[0]) if below.size else None


def auto_method(spec: SubordinatorSpec) -> str:
    """The route "auto" takes, for `pmf_table` and `tcpp pmf` alike: "bessel"
    for an IG clock with gamma > 0, "pgf" for every other Levy clock,
    "quadrature" for an inverse clock with a density, and "mc" (Monte Carlo,
    `pmf_monte_carlo`) for one without."""
    if not isinstance(spec, InverseOf):
        return "pgf" if spec.bessel_params() is None else "bessel"
    return "quadrature" if spec.mixing_law() is not None else "mc"


def pmf_table(t: float, lam: float, spec: SubordinatorSpec, kmax: int | None = None,
              method: str = "auto") -> PmfTable:
    """PmfTable for k = 0..kmax with an honest tail bound.

    method "pgf" inverts the generating function of a Levy clock (see
    `_pgf_values`); "bessel" sums the closed form of an IG clock with
    gamma > 0 (`_ig_count_logs`); "quadrature" sums the Poisson mixture
    against a frozen rule settled to 1e-10; "auto" takes the route
    `auto_method` names, and refuses with NoDensityError an inverse clock
    with no density, which only `pmf_monte_carlo` serves.  Without kmax,
    all four routes, Monte Carlo too, return the smallest K <= 2000 whose
    tail bound P(N > K) is below 1e-10, read off the tail column of the
    table they compute, or K = 2000 when none is; for Monte Carlo that is
    the largest count drawn (`_mc_table`).  Quadrature doubles K from 64;
    the PGF route doubles its FFT from 256 points, except that a clock of
    infinite mean first runs the 8004-point cap pass and keeps it when every
    tail bound there is >= 2e-10 (`_pgf_search`).  The request is served by
    `table_cache`, with "auto" resolved first.
    """
    t, lam, kmax = _request("pmf_table", t, lam, kmax)
    if method == "auto":
        method = auto_method(spec)
        if method == "mc":
            raise NoDensityError(f"spec {spec.label()} has no density evaluator; "
                                 f"use pmf_monte_carlo")
    if method not in ("pgf", "bessel", "quadrature"):
        raise DomainError(f"unknown pmf method '{method}'")
    return table_cache(method, t, lam, spec, kmax)


def pmf_monte_carlo(t: float, lam: float, spec: SubordinatorSpec, count: int,
                    seed: int, kmax: int | None = None) -> PmfTable:
    """Empirical pmf from `count` sampled clock values and Poisson draws.

    The draws are a function of the request and its seed, so `table_cache`
    serves it like any other table.
    """
    t, lam, kmax = _request("pmf_monte_carlo", t, lam, kmax)
    if count < 1000:
        raise DomainError("pmf_monte_carlo needs count >= 1000")
    return table_cache("mc", t, lam, spec, kmax, int(count), int(seed))


def _request(name: str, t, lam, kmax):
    """(float t, float lambda, kmax as None or int) of a valid table request."""
    if not (0 < t < math.inf and 0 < lam < math.inf):  # refuses NaN as well
        raise DomainError(f"{name} requires finite t > 0 and lambda > 0")
    if kmax is not None and kmax < 0:
        raise DomainError("kmax must be >= 0")
    return float(t), float(lam), None if kmax is None else int(kmax)


@lru_cache(maxsize=64)
def table_cache(route: str, t: float, lam: float, spec: SubordinatorSpec,
                kmax: int | None, *args) -> PmfTable:
    """The table of one normalized request, made once per process.

    The key is the route ("pgf", "bessel", "quadrature" or "mc"), float t and
    lambda, the spec and kmax (None or int), then count and seed for Monte
    Carlo.  An entry holds the immutable table alone,
    never the clock draws behind it; a raised error is not kept.
    `table_cache.cache_clear()` empties the cache.

    A table is refused with ConvergenceError, naming its route, when its
    values and tail bound miss 1 by more than 1e-3, and when kmax was not
    given and K reached the 2000 cap with a tail bound above 1e-3 for a
    clock whose count has a finite mean (`_finite_mean`): such a table holds
    next to none of the law's mass.  A clock of infinite or unstated mean
    keeps its honest tail there.
    """
    fields = {"quadrature": _quadrature_table, "pgf": _pgf_table, "bessel": _bessel_table,
              "mc": _mc_table}[route](t, lam, spec, kmax, *args)
    tail = fields["tail_bound"]
    defect = abs(float(np.sum(fields["values"])) + tail - 1.0)
    if not defect <= 1e-3:  # NaN as well
        raise ConvergenceError(f"the {route} route for {spec.label()} at lambda={lam}, t={t} "
                               f"gave a table with normalization defect {defect:.2e}")
    if kmax is None and fields["kmax"] == _KMAX_CAP and tail > 1e-3 and _finite_mean(spec):
        raise ConvergenceError(f"the {route} route for {spec.label()} at lambda={lam}, t={t} "
                               f"reached the kmax cap of {_KMAX_CAP} with tail bound "
                               f"{tail:.3g}; give a larger --kmax")
    return PmfTable(spec=spec, lam=lam, t=t, **fields)


def _finite_mean(spec: SubordinatorSpec) -> bool:
    """True for an inverse clock and a clock whose mean rate is finite."""
    rate = spec.mean_rate()
    return isinstance(spec, InverseOf) or (rate is not None and rate < math.inf)


def _quadrature_table(t: float, lam: float, spec: SubordinatorSpec, kmax: int | None) -> dict:
    """Quadrature-route table fields: K doubles from 64 against frozen rules."""
    ts = np.array([t])
    k_rule = _KMAX_START if kmax is None else kmax
    while True:
        rule = mixture_rule(spec, lam, t, t, k_rule)
        values = np.clip(rule.pmf_matrix(ts, np.arange(k_rule + 1))[:, 0], 0.0, 1.0)
        tail = float(rule.tail_mass(ts, k_rule)[0])
        if kmax is not None:
            break
        # P(N > k) = P(N > K) + sum_{k < j <= K} p_j
        tails = tail + np.append(np.cumsum(values[:0:-1])[::-1], 0.0)
        kmax = _first_below(tails)
        if kmax is not None or k_rule == _KMAX_CAP:
            kmax = k_rule if kmax is None else kmax
            values, tail = values[:kmax + 1], float(tails[kmax])
            break
        k_rule = min(2 * k_rule, _KMAX_CAP)
    return {"kmax": kmax, "values": values, "tail_bound": tail, "method": "quadrature",
            "route": {"nodes": int(rule.nodes.size), "tol": _RULE_TOL}}


def _bessel_table(t: float, lam: float, spec: SubordinatorSpec, kmax: int | None) -> dict:
    """Closed-form IG table fields from one pass of `_ig_count_logs`; without
    kmax the terms stop at the first k whose tail 1 - sum_{j <= k} p_j is
    below _TAIL_TARGET, or at the 2000 cap."""
    params = spec.bessel_params()
    if params is None:
        raise NoDensityError(f"Bessel closed form needs an IG spec with gamma > 0, not "
                             f"{spec.label()}; use method 'pgf'")
    ps, mass = [], 0.0
    terms = _ig_count_logs(t, lam, *params)
    for logp in itertools.islice(terms, (_KMAX_CAP if kmax is None else kmax) + 1):
        ps.append(math.exp(logp))
        mass += ps[-1]
        if kmax is None and 1.0 - mass < _TAIL_TARGET:
            break
    values = np.array(ps)
    return {"kmax": values.size - 1, "values": values,
            "tail_bound": max(0.0, 1.0 - float(values.sum())), "method": "bessel"}


_PGF_DIGITS = 13
_PGF_ALIAS = 10.0 ** -_PGF_DIGITS / (1.0 - 10.0 ** -_PGF_DIGITS)  # r^N / (1 - r^N)


@lru_cache(maxsize=16)
def _pgf_contour(n: int):
    """(r, u, scale) of the n-point circle: r = 10^(-d/n), the half circle
    u_j = r e^{2 pi i j/n}, j <= n/2, and scale_k = n r^k for k < n/4."""
    r = 10.0 ** (-_PGF_DIGITS / n)
    u = r * np.exp(2j * math.pi * np.arange(n // 2 + 1) / n)
    scale = n * r ** np.arange(n // 4)
    u.flags.writeable = scale.flags.writeable = False
    return r, u, scale


def _pgf_values(t: float, lam: float, spec: SubordinatorSpec, n: int):
    """(raw p_k for k < n/4, radius r) from n points of G(u) = E u^{N(X(t))}.

    On u_j = r e^{2 pi i j/n}, r = 10^(-d/n), FFT(G)[k] / (n r^k) is p_k plus
    the aliased sum_{m >= 1} p_{k+mn} r^{mn} <= r^n / (1 - r^n) = 10^-d.  G is
    Hermitian in j, so half the circle gives the real transform.  Rounding
    is amplified by r^-k <= 10^(d/4): the far values carry absolute noise
    near 1e-14, enough for mass but not for k^2-weighted sums.
    """
    r, u, scale = _pgf_contour(n)
    g = np.exp(-t * spec.phi(lam * (1.0 - u)))
    return np.fft.hfft(g, n)[: n // 4] / scale, r


def _pgf_tails(raw):
    """Tail bounds P(N > k) <= 1 - sum_{j <= k} p_j + aliasing, k < raw.size."""
    return 1.0 - np.cumsum(np.clip(raw, 0.0, 1.0)) + _PGF_ALIAS


def _pgf_search(t: float, lam: float, spec: SubordinatorSpec):
    """(n, raw, r, kmax) with auto kmax: the smallest K whose tail bound is
    below 1e-10, read off passes of n = 256, 512, ... points up to the
    4 (2000 + 1) cap, and K = 2000 when none is.

    An infinite-mean clock (stable, IG(delta, 0), any composition with such
    a part) rarely has that tail before K = 2000, so it runs the cap pass
    first and keeps it when every tail bound there is >= 2e-10.  A smaller
    pass reads the same p_k up to its 1e-13 aliasing and ~1e-14 rounding
    per value, so it could not have found a tail below 1e-10 either: the
    table is the one the doubling would end on.  Otherwise the doubling runs
    as for any other clock, reusing the cap pass if it gets there.  When
    `_cap_tail_bound` already puts P(N > 2000) below 2e-10 (tiny t), the cap
    pass could not be kept, and the doubling runs without it.
    """
    n_cap = 4 * (_KMAX_CAP + 1)
    capped = None
    if spec.mean_rate() == math.inf and _cap_tail_bound(t, lam, spec) >= 2.0 * _TAIL_TARGET:
        capped = _pgf_values(t, lam, spec, n_cap)
        if np.all(_pgf_tails(capped[0]) >= 2.0 * _TAIL_TARGET):
            return (n_cap, *capped, _KMAX_CAP)
    n = 256
    while True:
        raw, r = capped if n == n_cap and capped is not None else _pgf_values(t, lam, spec, n)
        kmax = _first_below(_pgf_tails(raw))
        if kmax is not None or n == n_cap:
            return n, raw, r, _KMAX_CAP if kmax is None else kmax
        n = min(2 * n, n_cap)


def _cap_tail_bound(t: float, lam: float, spec: SubordinatorSpec) -> float:
    """P(N > 2000) <= (1 - G(u)) / (1 - u^2001) at u = 1 - 1/2001, G(u) =
    exp(-t phi(lam (1 - u))) the generating function: for any u in (0, 1),
    1 - u^N >= (1 - u^2001) 1{N > 2000}."""
    n = _KMAX_CAP + 1
    return -math.expm1(-t * float(spec.phi(lam / n).real)) / -math.expm1(n * math.log1p(-1.0 / n))


def _pgf_table(t: float, lam: float, spec: SubordinatorSpec, kmax: int | None) -> dict:
    """PGF-route table fields: one pass of 4 (kmax + 1) >= 256 points when kmax is
    given, else the pass `_pgf_search` settles on."""
    if kmax is None:
        n, raw, r, kmax = _pgf_search(t, lam, spec)
    else:
        n = max(256, 4 * (kmax + 1))
        raw, r = _pgf_values(t, lam, spec, n)
    raw = raw[: kmax + 1]
    if not np.all(np.isfinite(raw)) or np.min(raw) < -1e-12:
        raise ConvergenceError(f"PGF inversion for {spec.label()} gave a value "
                               f"{np.min(raw):.3g} below -1e-12")
    values = np.clip(raw, 0.0, 1.0)
    return {"kmax": kmax, "values": values,
            "tail_bound": max(0.0, 1.0 - float(np.sum(values))) + _PGF_ALIAS, "method": "pgf",
            "route": {"radius": r, "nodes": n, "aliasing_bound": _PGF_ALIAS}}


def _mc_table(t: float, lam: float, spec: SubordinatorSpec, kmax: int | None,
              count: int, seed: int) -> dict:
    """Monte Carlo table fields from `count` clock draws and Poisson draws.

    The clock values, drawn by `sample` on stream 0, become the Poisson means
    in place.  The counts are drawn from stream 1, _DRAW_BLOCK at a time,
    into one histogram of 0..top and a last bin for every count above top,
    top = kmax, or the 2000 cap without kmax.  Without kmax, kmax follows
    `pmf_table`'s rule for every route: the tail bound P(N > k) is the share
    of draws above k, which for any count below 1e10 first falls below 1e-10
    at the largest count drawn, so kmax is that count, or 2000 if larger.
    """
    means = sample(spec, t, count, seed, stream=0).values
    # heavy-tailed clocks produce astronomically large means in a few draws;
    # those land in the tail bin regardless, so cap the Poisson argument
    np.multiply(means, lam, out=means)
    np.minimum(means, 1e12, out=means)
    rng = rng_stream(seed, 1)
    top = _KMAX_CAP if kmax is None else kmax
    hist = np.zeros(top + 2, dtype=np.int64)
    for lo in range(0, count, _DRAW_BLOCK):
        counts = rng.poisson(means[lo:lo + _DRAW_BLOCK])
        hist += np.bincount(np.minimum(counts, top + 1, out=counts), minlength=top + 2)
    if kmax is None:
        kmax = min(int(np.flatnonzero(hist)[-1]), _KMAX_CAP)
    values = hist[: kmax + 1] / count
    return {"kmax": kmax, "values": values, "tail_bound": float(hist[kmax + 1:].sum() / count),
            "stderr": np.sqrt(values * (1.0 - values) / count), "seed": seed, "method": "mc"}


def fractional_poisson_pmf(k: int, t: float, lam: float, beta: float) -> float:
    """P(N(E(t)) = k) for the inverse-stable clock of index beta.

    For beta > 0.95, past the stable density engine, the transform in t,
    s^(beta-1) lam^k / (lam + s^beta)^(k+1), is inverted by fixed Talbot
    (`_talbot`) at 24 and 32 nodes; the 32-node value is returned when the
    two agree to 1e-9, and ConvergenceError is raised when they do not.
    """
    if not 0 < beta < 1:
        raise DomainError("fractional order must satisfy 0 < beta < 1")
    if beta <= 0.95:
        return pmf_quadrature(k, t, lam, InverseOf(Stable(beta)))
    if k < 0 or t <= 0 or lam <= 0:
        raise DomainError("fractional_poisson_pmf requires k >= 0, t > 0 and lambda > 0")

    def transform(s):
        sb = s ** beta
        return s ** (beta - 1.0) * (lam / (lam + sb)) ** k / (lam + sb)

    coarse, fine = (_talbot(transform, t, m) for m in (24, 32))
    if not abs(fine - coarse) <= 1e-9:
        raise ConvergenceError(f"Talbot inversion of the fractional Poisson pmf at k={k}, "
                               f"t={t}, lambda={lam}, beta={beta} did not settle: 24 nodes "
                               f"give {coarse:.3g}, 32 give {fine:.3g}")
    return fine


def _talbot(transform, t: float, m: int) -> float:
    """f(t) from its Laplace transform F by the fixed Talbot contour of Abate
    and Valko (2004): s(theta) = r theta (cot theta + i), r = 2m/(5t), on the
    m points theta_j = j pi/m (the j = 0 point taken at its limit s = r)."""
    theta = np.arange(1, m) * math.pi / m
    cot = 1.0 / np.tan(theta)
    r = 2.0 * m / (5.0 * t)
    s = r * theta * (cot + 1j)
    sigma = theta + (theta * cot - 1.0) * cot
    ends = 0.5 * math.exp(r * t) * transform(complex(r)).real
    return r / m * (ends + float(np.sum((np.exp(t * s) * transform(s) * (1.0 + 1j * sigma)).real)))


# -- moments and waiting times -----------------------------------------------------


# bound on the k^2-weighted tail of ig_moment_table
_MOMENT_TAIL = 1e-7


def ig_moment_table(t: float, lam: float, delta: float, gamma: float) -> PmfTable:
    """PmfTable deep enough that even the k^2-weighted tail is below 1e-7.

    Second-moment summation needs far more of the sub-exponential tail than
    pmf mass does: the table grows until tail_bound * kmax^2 < _MOMENT_TAIL.
    It stays on the quadrature route: the PGF route's tail bound carries the
    1e-13 aliasing floor, which times kmax^2 (kmax ~ 1000 at lambda = 2,
    gamma = 0.5, t = 5) never drops below 1e-7, and its far-tail values are
    rounding noise near 1e-14, absolute, which a k^2-weighted sum cannot
    absorb.
    """
    mean, var = moments_ig(t, lam, delta, gamma)
    reach = mean + 70.0 * math.sqrt(var)
    kmax = max(256, int(reach + 70.0)) if reach < 20000 else 20000  # refused below
    while kmax < 20000:
        table = pmf_table(t, lam, InverseGaussian(delta, gamma), kmax=kmax,
                          method="quadrature")
        if table.tail_bound * kmax * kmax < _MOMENT_TAIL:
            return table
        kmax = int(1.5 * kmax)
    raise ConvergenceError("could not bound the second-moment tail")


def moments_ig(t: float, lam: float, delta: float, gamma: float):
    """(mean, variance) of N(G(t)): lam delta t / gamma, and by total variance
    mean + lam^2 Var G(t) = mean (1 + lam / gamma^2), as Var G(t) = delta t /
    gamma^3.  No difference of large terms is formed, so neither overflows to
    inf - inf."""
    if not all(0 < v < math.inf for v in (t, lam, delta, gamma)):  # refuses NaN as well
        raise DomainError("moments_ig requires finite t, lambda, delta and gamma > 0")
    mean = lam * delta * t / gamma
    return mean, mean * (1.0 + lam / gamma / gamma)


def waiting_time_survival(x: float, lam: float, delta: float, gamma: float) -> float:
    """P(J > x) = E exp(-lam H(x)) = P(N(H(x)) = 0) for the renewal process
    N(H(t)): the k = 0 entry of the IG-hitting quadrature table."""
    spec = InverseOf(InverseGaussian(delta, gamma))
    return float(pmf_table(x, lam, spec, kmax=0, method="quadrature").values[0])


def waiting_time_lt(s: float, lam: float, delta: float, gamma: float) -> float:
    """E exp(-s J) = lam / (lam + phi(s)), phi the IG exponent (`ig_exponent`)."""
    if s <= 0:
        raise DomainError("waiting_time_lt requires s > 0")
    return float(lam / (lam + ig_exponent(s, delta, gamma)))
