"""Pmf, moment, and waiting-time computations for time-changed Poisson counts.

A Levy clock X (every clock but an inverse one) has the closed generating
function E u^{N(X(t))} = exp(-t phi_X(lam (1 - u))); `pmf_table` inverts it
by one FFT on the circle |u| = r (Abate & Whitt 1992), except an IG clock
with gamma > 0, whose count law has a closed Bessel form (`_ig_count_logs`).
Inverse clocks take the quadrature route below, which also serves as the
independent oracle.  The routes are one table, `ROUTES`: each states which
clocks it serves, "auto" takes the first that serves, and a route's refusal
names every one that does.  So "auto" takes bessel for IG with gamma > 0,
pgf for every other Levy clock, quadrature for an inverse clock with a
density, and mc for one without (an inverse stable or tempered clock of
index above 0.95, the inverse of a composition that is not stable).

Without a kmax every route returns the smallest K <= 2000 whose tail bound
P(N > K) is below 1e-10 (`pmf_table`), and a table records its route's
diagnostics under `route`.  An inverse clock with a density is served at any
t > 0: at t = 1e-200 its table has K = 0 and a tail of lambda E E(t) to first
order (lambda t^beta / Gamma(1 + beta) for an inverse stable or tempered
clock, lambda sqrt(2t/pi) / delta for the IG hitting time).

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
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import FINITE, POSITIVE, ConvergenceError, DomainError, NoDensityError, integers
from .specfun import log_gamma, poisson_sf
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
    "pmf_bessel_ig",
    "pmf_quadrature",
    "ROUTES",
    "pmf_table",
    "pmf_monte_carlo",
    "fractional_poisson_pmf",
    "moments_ig",
    "waiting_time_survival",
    "waiting_time_lt",
]


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
    out -= log_gamma(kb + 1.0)
    return np.exp(out, out=out)


# -- closed-form Bessel pmf for the IG time change --------------------------------


def pmf_bessel_ig(k: int, t, lam: float, delta: float, gamma: float):
    """P(N(G(t)) = k) in closed Bessel form: term k of `_ig_count_logs`.

    k is an integer >= 0, lambda, delta and gamma finite and > 0 (pmf_table
    serves gamma = 0), each refused with DomainError otherwise (a bool too),
    and so is t, a number or an array, unless every time is finite and > 0.
    """
    k, lam = _COUNT.check("k", k), POSITIVE.check("lambda", lam)
    delta, gamma = POSITIVE.check("delta", delta), POSITIVE.check("gamma", gamma)
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((t > 0) & (t < math.inf)):  # refuses NaN as well
        raise DomainError("pmf_bessel_ig requires every t to be a finite number > 0")
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


# a table's frozen rule settles to this: its pmf at every count agrees with
# the rule of half its panels to within it (a registry check asks
# `mixture_rule` for its own)
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
    `dens` and window right end `x_hi` that `law.rule_nodes` returned, the
    memo `_last`, and `probe`: the read-only pmf[k, t] at the probe counts
    and times on which `mixture_rule` settled it (None on a rule it did not
    return).  The request it was built for is `mixture_rule`'s cache key.
    `law` turns the nodes into (x, weight * density) at each t, and supplies
    the survivor mass beyond `x_hi`, in the nodes' variable.
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
    probe: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # _poisson_mix slices by value the nodes that weighted() scales by t > 0
        assert np.all(np.diff(self.nodes) > 0), "rule nodes must ascend"

    def _blocks(self, ts):
        """(columns, x, wd) for each block of _T_BLOCK consecutive times.

        A one-column call at the t of the previous one reuses its (x, wd):
        a table's last settling probe and `tail_mass` make one density pass
        between them.
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
            q = poisson_sf(kmax, self.lam * x)  # P(Poi(lam x) > kmax)
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
    """The frozen rule for counts 0..kmax at times in [t_lo, t_hi].

    The window's 12-point panels double from 8, up to 2048, and the first
    rule whose pmf at every count 0..kmax agrees with the previous rule's to
    `tol` at the probe times t_lo, sqrt(t_lo t_hi) and t_hi is returned, the
    finer of the pair, with that pmf as its `probe`.  Every count is probed,
    so a rule cannot settle on probes that all read about 0 while the mass
    sits between them.  When t_lo == t_hi the probe is the one-column table
    pmf_matrix([t], range(kmax + 1)), bit for bit.
    """
    if not 0 < t_lo <= t_hi:
        raise DomainError("need 0 < t_lo <= t_hi")
    # the geometric middle from the two roots, which neither underflow at tiny
    # t nor overflow at any span; clamped, it is t_lo when t_lo == t_hi, and
    # the probes are one column
    # the probes as sorted unique Python values: np.unique would import numpy.ma
    probe_ts = np.array(sorted({t_lo, min(t_hi, max(t_lo, math.sqrt(t_lo) * math.sqrt(t_hi))),
                                t_hi}))
    probe_ks = np.arange(kmax + 1)
    if (law := spec.mixing_law()) is None:
        raise _refusal(spec, "the quadrature route does not serve")
    cut = _poisson_cut(kmax, lam)
    n_panels = 8
    prev = None
    while n_panels <= 2048:
        rule = MixtureRule(lam, law, *law.rule_nodes(t_lo, t_hi, cut, n_panels))
        vals = rule.pmf_matrix(probe_ts, probe_ks)
        if prev is not None and np.max(np.abs(vals - prev)) < tol:
            vals.flags.writeable = False
            rule.probe = vals
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
            lam=POSITIVE.check("lambda", d["lambda"]),
            t=POSITIVE.check("t", d["t"]),
            kmax=_KMAX.check("kmax", d["kmax"]),
            values=np.asarray(d["values"], dtype=float),
            tail_bound=FINITE.check("tail_bound", d["tail_bound"]),
            stderr=None if d.get("stderr") is None else np.asarray(d["stderr"], dtype=float),
            seed=None if d.get("seed") is None else integers().check("seed", d["seed"]),
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
    return float(pmf_table(t, lam, spec, kmax=k, method="quadrature").values[k])


_TAIL_TARGET = 1e-10
_KMAX_START = 63  # the automatic search's first K: K + 1 doubles from 64
_KMAX_CAP = 2000
_KMAX = integers(0, 2 ** 20)  # a requested kmax: 2^20 counts bound a table's memory
_MC_COUNT = integers(1000)
_COUNT = integers(0)  # a count index k


def _request(t, lam, kmax):
    """t, lambda and kmax through the shared rule (`errors.Domain`: t, lambda
    > 0 and kmax None or an integer in [0, 2^20]), normalized to float, float
    and int.  Both table entry points run it before `table_cache` looks up
    the key: `lru_cache` keys compare by value, so a request it would refuse
    (t = True) must never reach a warm entry (t = 1)."""
    return (POSITIVE.check("t", t), POSITIVE.check("lambda", lam),
            None if kmax is None else _KMAX.check("kmax", kmax))


def _first_below(tails):
    """The first k with P(N > k) = tails[k] below _TAIL_TARGET, or None."""
    below = np.flatnonzero(tails < _TAIL_TARGET)
    return int(below[0]) if below.size else None


def pmf_table(t: float, lam: float, spec: SubordinatorSpec, kmax: int | None = None,
              method: str = "auto") -> PmfTable:
    """PmfTable for k = 0..kmax with an honest tail bound.

    method "pgf" inverts the generating function of a Levy clock (see
    `_pgf_values`); "bessel" sums the closed form of an IG clock with
    gamma > 0 (`_ig_count_logs`); "quadrature" sums the Poisson mixture
    against a frozen rule settled to 1e-10; "auto" takes the first route in
    `ROUTES` that serves the clock.  A route that does not serve it is
    refused with NoDensityError, and so is "mc", which `pmf_monte_carlo`
    runs, as it needs a count and a seed.  A given kmax is an integer in
    [0, 2^20], refused with DomainError before any route runs.  Without kmax,
    all four routes, Monte Carlo too, return the smallest K <= 2000 whose
    tail bound P(N > K) is below 1e-10, read off the tail column of the
    table they compute, or K = 2000 when none is; for Monte Carlo that is
    the largest count drawn (`_mc_table`).  Quadrature and PGF share one
    search (`_search`): their table for counts 0..K, with K + 1 doubling
    from 64 to the cap, except that a clock of infinite mean first makes the
    K = 2000 table and keeps it when every tail bound there is >= 2e-10.
    The request is served by `table_cache`, with "auto" resolved first.
    """
    t, lam, kmax = _request(t, lam, kmax)
    method = _auto(spec) if method == "auto" else method
    if method == "mc":
        raise _refusal(spec, "pmf_table draws no Monte Carlo table for")
    if method not in ROUTES:
        raise DomainError(f"unknown pmf method '{method}'")
    return table_cache(method, t, lam, spec, kmax)


def pmf_monte_carlo(t: float, lam: float, spec: SubordinatorSpec, count: int,
                    seed: int, kmax: int | None = None) -> PmfTable:
    """Empirical pmf from `count` sampled clock values and Poisson draws.

    count is an integer >= 1000 and seed an integer, both refused with
    DomainError otherwise (a bool too).  The draws are a function of the
    request and its seed, so `table_cache` serves it like any other table.
    """
    t, lam, kmax = _request(t, lam, kmax)
    count, seed = _MC_COUNT.check("count", count), integers().check("seed", seed)
    return table_cache("mc", t, lam, spec, kmax, count, seed)


@lru_cache(maxsize=64)
def table_cache(route: str, t: float, lam: float, spec: SubordinatorSpec,
                kmax: int | None, *args) -> PmfTable:
    """The table of one request, made once per process.

    The key is the route's name in `ROUTES`, t, lambda, the spec and kmax
    (None or a count), then count and seed for Monte Carlo, all checked and
    normalized by `pmf_table` or `pmf_monte_carlo` (`_request`) before the
    lookup.  Equal numbers make one key, so t = 1 and t = 1.0 share a
    table.  A raised error is not kept.  An entry holds the immutable table
    alone, never the clock draws behind it.
    `table_cache.cache_clear()` empties the cache.

    A route that does not serve the spec is refused with NoDensityError
    (`_refusal`).  A table is refused with ConvergenceError, naming its
    route, when its values and tail bound miss 1 by more than 1e-3, and when
    kmax was not given and K reached the 2000 cap with a tail bound above
    1e-3 for a clock whose count has a finite mean (`_finite_mean`): such a
    table holds next to none of the law's mass.  A clock of infinite or
    unstated mean keeps its honest tail there.
    """
    if not ROUTES[route].serves(spec):
        raise _refusal(spec, f"the {route} route does not serve")
    fields = ROUTES[route].table(t, lam, spec, kmax, *args)
    tail = fields["tail_bound"]
    where = f"the {route} route for {spec.label()} at lambda={lam}, t={t}"
    defect = abs(float(np.sum(fields["values"])) + tail - 1.0)
    if not defect <= 1e-3:  # NaN as well
        raise ConvergenceError(f"{where} gave a table with normalization defect {defect:.2e}")
    if kmax is None and fields["kmax"] == _KMAX_CAP and tail > 1e-3 and _finite_mean(spec):
        raise ConvergenceError(f"{where} reached the kmax cap of {_KMAX_CAP} with tail bound "
                               f"{tail:.3g}; give a larger --kmax")
    return PmfTable(spec=spec, lam=lam, t=t, **fields)


def _finite_mean(spec: SubordinatorSpec) -> bool:
    """True for an inverse clock and a clock whose mean rate is finite."""
    rate = spec.mean_rate()
    return isinstance(spec, InverseOf) or (rate is not None and rate < math.inf)


def _search(table_at, t: float, lam: float, spec: SubordinatorSpec, kmax: int | None):
    """(kmax, table_at(K)) for a route whose table_at(K) gives (values 0..K,
    the tail column P(N > k) for k <= K, route info).

    A given kmax makes one table, at K = kmax.  Otherwise K + 1 doubles from
    64 (K = 63, 127, ..., 1023, then the 2000 cap), and kmax is the first k
    whose tail is below 1e-10 (`_first_below`), or 2000 when none is by the
    cap.  An infinite-mean clock (stable, IG(delta, 0), any composition with
    such a part) rarely has that tail before K = 2000, so its cap table comes
    first.  A smaller table reads the same p_k up to its route's error (the
    PGF route's 1e-13 aliasing and ~1e-14 rounding a value, a frozen rule's
    1e-10 settle), so it cannot read a tail below 1e-10 at a count where the
    cap table reads >= 2e-10.  So the cap table is kept when every tail there
    is >= 2e-10, and is the table the doubling would end on; otherwise the
    doubling starts at the first K at or above the first count whose cap
    tail is below 2e-10, as no smaller K could qualify, and reuses the cap
    table if it gets there.  When `_cap_tail_bound` already puts P(N > 2000)
    below 2e-10 (tiny t), the cap table could not be kept, and the doubling
    runs from K = 63 without it.
    """
    if kmax is not None:
        return kmax, table_at(kmax)
    tables, K = {}, _KMAX_START
    if spec.mean_rate() == math.inf and _cap_tail_bound(t, lam, spec) >= 2.0 * _TAIL_TARGET:
        tables[_KMAX_CAP] = table_at(_KMAX_CAP)
        below = np.flatnonzero(tables[_KMAX_CAP][1] < 2.0 * _TAIL_TARGET)
        if not below.size:
            return _KMAX_CAP, tables[_KMAX_CAP]
        while K < below[0]:
            K = min(2 * K + 1, _KMAX_CAP)
    while True:
        table = tables[K] if K in tables else table_at(K)
        kmax = _first_below(table[1])
        if kmax is not None or K == _KMAX_CAP:
            return (_KMAX_CAP if kmax is None else kmax), table
        K = min(2 * K + 1, _KMAX_CAP)


def _quadrature_table(t: float, lam: float, spec: SubordinatorSpec, kmax: int | None) -> dict:
    """Quadrature-route table fields at the K `_search` settles on, from the
    frozen rule for counts 0..K at t: the rule's last settle probe is the
    table, and `tail_mass` adds the mass past K."""
    def table_at(K):
        rule = mixture_rule(spec, lam, t, t, K)
        values = np.clip(rule.probe[:, 0], 0.0, 1.0)
        # P(N > k) = P(N > K) + sum_{k < j <= K} p_j
        tails = rule.tail_mass(np.array([t]), K)[0] + np.append(np.cumsum(values[:0:-1])[::-1], 0.0)
        return values, tails, {"nodes": int(rule.nodes.size), "tol": _RULE_TOL}

    kmax, (values, tails, route) = _search(table_at, t, lam, spec, kmax)
    return {"kmax": kmax, "values": values[:kmax + 1], "tail_bound": float(tails[kmax]),
            "method": "quadrature", "route": route}


def _bessel_table(t: float, lam: float, spec: SubordinatorSpec, kmax: int | None) -> dict:
    """Closed-form IG table fields from one pass of `_ig_count_logs`; without
    kmax the terms stop at the first k whose tail 1 - sum_{j <= k} p_j is
    below _TAIL_TARGET, or at the 2000 cap."""
    ps, mass = [], 0.0
    terms = _ig_count_logs(t, lam, *spec.bessel_params())
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


def _cap_tail_bound(t: float, lam: float, spec: SubordinatorSpec) -> float:
    """P(N > 2000) <= (1 - G(u)) / (1 - u^2001) at u = 1 - 1/2001, G(u) =
    exp(-t phi(lam (1 - u))) the generating function: for any u in (0, 1),
    1 - u^N >= (1 - u^2001) 1{N > 2000}."""
    n = _KMAX_CAP + 1
    return -math.expm1(-t * float(spec.phi(lam / n).real)) / -math.expm1(n * math.log1p(-1.0 / n))


def _pgf_table(t: float, lam: float, spec: SubordinatorSpec, kmax: int | None) -> dict:
    """PGF-route table fields from one pass of n = 4 (K + 1) >= 256 points at
    the K `_search` settles on; the tail column is 1 - sum_{j <= k} p_j plus
    the aliasing bound."""
    def table_at(K):
        n = max(256, 4 * (K + 1))
        raw, r = _pgf_values(t, lam, spec, n)
        raw = raw[:K + 1]
        tails = 1.0 - np.cumsum(np.clip(raw, 0.0, 1.0)) + _PGF_ALIAS
        return raw, tails, {"radius": r, "nodes": n, "aliasing_bound": _PGF_ALIAS}

    kmax, (raw, _, route) = _search(table_at, t, lam, spec, kmax)
    raw = raw[: kmax + 1]
    if not np.all(np.isfinite(raw)) or np.min(raw) < -1e-12:
        raise ConvergenceError(f"PGF inversion for {spec.label()} gave a value "
                               f"{np.min(raw):.3g} below -1e-12")
    values = np.clip(raw, 0.0, 1.0)
    return {"kmax": kmax, "values": values,
            "tail_bound": max(0.0, 1.0 - float(np.sum(values))) + _PGF_ALIAS, "method": "pgf",
            "route": route}


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


# One pmf route: `serves(spec)`, whether it computes the law of N(X(t)) on
# that clock, and `table(t, lam, spec, kmax, *args)`, its table fields
Route = namedtuple("Route", "serves table")

# Every pmf route, in the order "auto" tries them; their names are
# `--method`'s.  Each predicate reads what the clock states: a closed Bessel
# form, a Laplace exponent (every clock but an inverse one), a mixing law or
# whether it draws.
ROUTES = {
    "bessel": Route(lambda spec: spec.bessel_params() is not None, _bessel_table),
    "pgf": Route(lambda spec: not isinstance(spec, InverseOf), _pgf_table),
    "quadrature": Route(lambda spec: spec.mixing_law() is not None, _quadrature_table),
    "mc": Route(lambda spec: spec.can_draw(), _mc_table),
}


def _serving(spec: SubordinatorSpec):
    """The names of the routes that serve spec, in `ROUTES` order, one at a
    time: "auto" takes the first, and only a refusal lists them all."""
    return (name for name, route in ROUTES.items() if route.serves(spec))


@lru_cache(maxsize=64)
def _auto(spec: SubordinatorSpec) -> str:
    """The route "auto" takes: the first that serves spec, NoDensityError
    when none does.  Cached, so that a table served from `table_cache` pays
    one lookup for its route."""
    if (name := next(_serving(spec), None)) is None:
        raise _refusal(spec, "no pmf route serves")
    return name


def _refusal(spec: SubordinatorSpec, why: str) -> NoDensityError:
    """The refusal of a whole route: why, then every route that serves spec,
    and where to run `mc` when it is one of them."""
    names = list(_serving(spec))
    hint = " (mc: pmf_monte_carlo)" if "mc" in names else ""
    return NoDensityError(f"{why} {spec.label()}; methods that serve it: "
                          f"{', '.join(names) or 'none'}{hint}")


def fractional_poisson_pmf(k: int, t: float, lam: float, beta: float) -> float:
    """P(N(E(t)) = k) for the inverse-stable clock of index beta.

    Stable(beta) refuses an index outside (0, 1).  Past the stable density
    engine's index, where the clock has no mixing law, the transform in t,
    s^(beta-1) lam^k / (lam + s^beta)^(k+1), is inverted by fixed Talbot
    (`_talbot`) at 24 and 32 nodes; the 32-node value is returned when the
    two agree to 1e-9, and ConvergenceError is raised when they do not.
    k is an integer >= 0, and t and lambda finite numbers > 0, on both
    routes: each is refused with DomainError otherwise (a bool too).
    """
    k, t, lam = _COUNT.check("k", k), POSITIVE.check("t", t), POSITIVE.check("lambda", lam)
    if (spec := InverseOf(Stable(beta))).mixing_law() is not None:
        return pmf_quadrature(k, t, lam, spec)

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
    t, lam = POSITIVE.check("t", t), POSITIVE.check("lambda", lam)
    delta, gamma = POSITIVE.check("delta", delta), POSITIVE.check("gamma", gamma)
    mean = lam * delta * t / gamma
    return mean, mean * (1.0 + lam / gamma / gamma)


def waiting_time_survival(x: float, lam: float, delta: float, gamma: float) -> float:
    """P(J > x) = E exp(-lam H(x)) = P(N(H(x)) = 0) for the renewal process
    N(H(t)): the k = 0 entry of the IG-hitting quadrature table."""
    spec = InverseOf(InverseGaussian(delta, gamma))
    return float(pmf_table(x, lam, spec, kmax=0, method="quadrature").values[0])


def waiting_time_lt(s: float, lam: float, delta: float, gamma: float) -> float:
    """E exp(-s J) = lam / (lam + phi(s)), phi the IG exponent (`ig_exponent`).

    s and lambda are finite numbers > 0, and delta and gamma the fields of
    an IG clock (`InverseGaussian`): each is refused with DomainError
    otherwise."""
    ig = InverseGaussian(delta, gamma)
    s, lam = POSITIVE.check("s", s), POSITIVE.check("lambda", lam)
    return float(lam / (lam + ig_exponent(s, ig.delta, ig.gamma)))
