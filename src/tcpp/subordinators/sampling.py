"""Exact samplers for every time-change process.

RNG discipline: every sampler draws from a Philox counter-based generator
keyed by (seed, stream).  Batches are reproducible for a given
(spec, t, seed, stream, count) regardless of what else ran before, and
parallel consumers get disjoint streams.

Single-t draws are made 2^14 values at a time (`_in_blocks`), so a sampler's
temporaries stay cache-sized and are reused rather than faulted in afresh.
A batch of at most 2^14 values is one block, drawn as before blocking; a
larger batch draws its blocks in order from the one stream, so its values
(and the Monte Carlo tables built on them) changed once, with the same law,
when blocking came in.  The first-passage walks (inverse tempered of index
other than 1/2, inverses of compositions) draw a whole batch in one walk:
their Python loop costs the same per call, so blocks would multiply it.

Sampler routes (each process class in tcpp.subordinators.spec picks its own):

* IG(delta, gamma):  two-root transformation method (gamma > 0); the
  gamma = 0 degenerate case is the Levy law (delta t)^2 / Z^2.
* stable(beta):      positive-stable transformation sampler from a uniform
  angle and a unit exponential; at beta = 1/2, which is IG(1/sqrt 2, 0), the
  IG sampler.
* tempered(beta,mu): exponential-tilting rejection against the stable
  sampler, acceptance exp(-mu X).  A tabulated floor of Zolotarev's A on
  256 angle bins rejects most proposals before their sines, with the draws
  of the plain loop bit for bit; a value with mu^beta t > 2 is the sum of
  ceil(mu^beta t / 2) iid pieces, each accepted with probability >= e^-2,
  so every draw costs O(mu^beta t) proposals and none is refused.  At
  beta = 1/2, which is IG(1/sqrt 2, sqrt(2 mu)), the IG sampler.
* composition:       feed sampled values as the time argument of the next
  part (outermost part listed first).
* inverse:           first-passage time of the base, exact on every route.
  An IG base, and the stable or tempered base of index 1/2 through its IG
  law, takes the running maximum H(t) = M(t)/delta of a drifted Brownian
  motion, drawn on a whole grid as one Brownian-bridge maximum per cell.  A
  stable base of any other index (and a composition of stables, a stable law
  of the product index) draws single-t values by the scaling identity
  E(t) =d (t/D(1))^beta and paths one first passage at a time, from the
  closed law of (passage time, undershoot, landing), at most one passage per
  grid level.  A tempered base of any other index draws the same passages
  stopped at mu^-beta and accepts each step with its Esscher weight; a draw
  is a path on the one-point grid.  The inverse of any other composition is
  the composition of its parts' inverses, outermost part first, because no
  part creeps over a level: each hitting route takes a matrix of per-path
  levels as readily as one grid.

Subordinator paths draw every increment of the time grid in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..errors import DomainError
from .stable import log_zolotarev_a

__all__ = ["SampleBatch", "rng_stream", "sample", "sample_path"]


@dataclass(frozen=True)
class SampleBatch:
    """Monte Carlo draws of a subordinator value at a fixed time."""

    spec: object
    t: float
    seed: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if np.any(values < 0):
            raise DomainError("subordinator samples must be nonnegative")


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream); disjoint across streams."""
    key = np.random.SeedSequence([int(seed) & (2**64 - 1), int(stream) & (2**64 - 1)])
    return np.random.Generator(np.random.Philox(key))


# a single-t draw, and the pieces of split tempered values, take at most this
# many values per numpy pass, so memory does not grow with the count
_DRAW_BLOCK = 2 ** 14


def _in_blocks(n: int, draw):
    """n values from draw(b) on consecutive blocks of b <= _DRAW_BLOCK values,
    in order; n <= _DRAW_BLOCK is a single call."""
    out = np.empty(n)
    for lo in range(0, n, _DRAW_BLOCK):
        out[lo:lo + _DRAW_BLOCK] = draw(min(_DRAW_BLOCK, n - lo))
    return out


# -- elementary samplers -----------------------------------------------------


def _sample_ig(rng, t, delta, gamma):
    """IG(delta t, gamma) by the two-root transformation method."""
    t = np.asarray(t, dtype=float)
    z = rng.standard_normal(t.shape)
    u = rng.random(t.shape)
    dt = delta * t
    if gamma == 0.0:
        return (dt / z) ** 2
    mean = dt / gamma
    shape = dt * dt
    nu = z * z
    w = mean * nu
    x1 = mean + mean / (2.0 * shape) * (w - np.sqrt(4.0 * shape * w + w * w))
    take_first = u <= mean / (mean + x1)
    return np.where(take_first, x1, mean * mean / x1)


def _sample_stable_unit(rng, beta, size):
    """D(1) for the stable law with LT exp(-s^beta)."""
    theta = math.pi * rng.random(size)
    theta = np.clip(theta, 1e-12, math.pi - 1e-12)
    w = rng.standard_exponential(size)
    return np.exp((1.0 - beta) / beta * (log_zolotarev_a(theta, beta) - np.log(w)))


def _sample_stable(rng, t, beta, n=None):
    t = np.asarray(t, dtype=float)
    size = t.shape if n is None else (n,)
    return t ** (1.0 / beta) * _sample_stable_unit(rng, beta, size)


# the squeeze splits the proposal angle theta = pi U into equal bins of U
_SQUEEZE_BINS = 256


@lru_cache(maxsize=32)
def _log_a_floor(beta):
    """log A at the left edge of each angle bin, lowered by 1e-9.

    A is increasing and pi k/B <= pi U in floating point for U in bin k, so
    the edge value bounds log A(theta) below for every angle of the bin; bin 0
    starts at the clip end 1e-12.  The margin covers the rounding of log A.
    """
    edges = math.pi * (np.arange(_SQUEEZE_BINS) / _SQUEEZE_BINS)
    edges[0] = 1e-12
    floor = log_zolotarev_a(edges, beta) - 1e-9
    floor.flags.writeable = False
    return floor


def _sample_tilted(rng, t, beta, mu):
    """Tilting rejection on a 1-D t: propose D(t) stable, accept w.p. exp(-mu D).

    Each round draws an angle, an exponential and an acceptance uniform for
    every pending element, in ascending index order.  A proposal whose
    uniform exceeds exp(-mu X_low), X_low built from the floor of log A on its
    angle bin, would fail the exact test too and is dropped before any sine;
    the survivors run the exact test on the exact stable value.  The additive
    1e-12 absorbs the rounding of the two exponentials.
    """
    c = (1.0 - beta) / beta
    t_pow = t ** (1.0 / beta)
    floor = _log_a_floor(beta)
    out = np.empty(t.size, dtype=float)
    idx = np.arange(t.size)
    while idx.size:
        u = rng.random(idx.size)
        log_w = np.log(rng.standard_exponential(idx.size))
        v = rng.random(idx.size)
        t_idx = t_pow[idx]
        # exp(-mu X_low); capping the exponent at -700 only raises the bound,
        # and spares exp its slow subnormal results
        bound = floor[(u * _SQUEEZE_BINS).astype(np.intp)]
        bound -= log_w
        bound *= c
        np.exp(bound, out=bound)
        bound *= t_idx
        bound *= -mu
        np.maximum(bound, -700.0, out=bound)
        np.exp(bound, out=bound)
        bound += 1e-12
        live = np.flatnonzero(v <= bound)
        theta = np.clip(math.pi * u[live], 1e-12, math.pi - 1e-12)
        x = t_idx[live] * np.exp(c * (log_zolotarev_a(theta, beta) - log_w[live]))
        ok = v[live] <= np.exp(-mu * x)
        out[idx[live[ok]]] = x[ok]
        pending = np.ones(idx.size, dtype=bool)
        pending[live[ok]] = False
        idx = idx[pending]
    return out


def _sample_tempered(rng, t, beta, mu, n=None):
    """Tempered stable D(t) by tilting, split into iid pieces where mu^beta t > 2.

    An element with mu^beta t > 2 is the sum of m = ceil(mu^beta t / 2) iid
    draws at t/m (infinite divisibility), each accepted with probability
    >= e^-2, so a draw costs O(mu^beta t) proposals.  The unsplit elements
    are drawn first, in one tilting call; then the pieces, in chunks of at
    most _DRAW_BLOCK.
    """
    t = np.asarray(t, dtype=float)
    size = t.shape if n is None else (n,)
    t_flat = np.broadcast_to(t, size).ravel()
    pieces = np.ceil(mu ** beta * t_flat / 2.0)
    split = pieces > 1.0
    if not split.any():
        return _sample_tilted(rng, t_flat, beta, mu).reshape(size)
    out = np.zeros(t_flat.size, dtype=float)
    out[~split] = _sample_tilted(rng, t_flat[~split], beta, mu)
    elems = np.flatnonzero(split)
    counts = pieces[split].astype(np.int64)
    ends = np.cumsum(counts)
    for lo in range(0, int(ends[-1]), _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, int(ends[-1]))
        owner = np.searchsorted(ends, np.arange(lo, hi), side="right")
        draws = _sample_tilted(rng, t_flat[elems[owner]] / counts[owner], beta, mu)
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        out[elems[owner[first]]] += np.add.reduceat(draws, first)
    return out.reshape(size)


def _sample_ig_hitting(rng, t_grid, delta, gamma, n):
    """H(t_i) = M(t_i)/delta on a grid, M the running max of B(s) + gamma s.

    Cell j (length h_j) draws its increment X_j = gamma h_j + sqrt(h_j) Z_j
    and, given X_j, its Brownian-bridge maximum (X_j + sqrt(X_j^2 - 2 h_j
    log U_j))/2 above the cell's start S_{j-1}; the running maximum of those
    is exact on the grid.  One normal and one uniform per cell, so a one-point
    grid is the single-t draw.  t_grid is one grid or an (n, L) matrix of
    nondecreasing rows, one grid per path.  Returns an (n, L) array.
    """
    h = np.diff(t_grid, prepend=0.0)
    z = rng.standard_normal((n, h.shape[-1]))
    u = rng.random((n, h.shape[-1]))
    x = gamma * h + np.sqrt(h) * z
    top = 0.5 * (x + np.sqrt(x * x - 2.0 * h * np.log(np.maximum(u, 1e-300))))
    return np.maximum.accumulate(np.cumsum(x, axis=1) - x + top, axis=1) / delta


def _passage_log_a(rng, beta, k):
    """log A(theta) for k angles of density proportional to A^-(1-beta) on (0, pi).

    Rejection from theta = pi U: A is increasing with infimum
    a0 = (1-beta) beta^(beta/(1-beta)) at 0+, so the acceptance
    (A / a0)^-(1-beta) is at most 1 (0.64-0.8 on average).  Each round
    proposes twice the shortfall and keeps the first accepted angles, so one
    round almost always suffices.
    """
    log_a0 = math.log1p(-beta) + beta / (1.0 - beta) * math.log(beta)
    out = np.empty(k)
    done = 0
    while done < k:
        theta = np.clip(math.pi * rng.random(2 * (k - done)), 1e-12, math.pi - 1e-12)
        log_a = log_zolotarev_a(theta, beta)
        ok = rng.random(theta.size) <= np.exp((beta - 1.0) * (log_a - log_a0))
        take = log_a[ok][:k - done]
        out[done:done + take.size] = take
        done += take.size
    return out


def _sample_stable_below(rng, t, beta, cap):
    """D(t) conditioned on D(t) <= cap, elementwise, by plain rejection."""
    out = np.empty(cap.size)
    idx = np.arange(cap.size)
    while idx.size:
        x = _sample_stable(rng, t, beta, idx.size)
        ok = x <= cap[idx]
        out[idx[ok]] = x[ok]
        idx = idx[~ok]
    return out


def _sample_stable_passages(rng, levels, beta, n, mu=0.0):
    """E(t_i) = inf{s : D(s) > t_i} at every level, D the beta-stable
    subordinator, or at mu > 0 the tempered one (the stable law tilted by
    e^(-mu x)).

    `levels` is one grid for all n paths or an (n, L) matrix with positive,
    nondecreasing rows, one grid per path.  Exact, one first passage at a
    time.  A passage of a fresh stable D over gap a has undershoot
    Y = a B, B ~ Beta(beta, 1-beta), landing Z = Y + (a - Y) V^(-1/beta),
    V ~ U(0, 1], and, given Y, time Y^beta (W / A(theta))^(1-beta) with
    W ~ Gamma(2-beta) and theta drawn by `_passage_log_a`: the potential
    density y^(beta-1)/Gamma(beta) times the Levy tail, and D(1) biased by
    D(1)^-beta in Kanter's form.  By the strong Markov property each path
    restarts at its landing and passes the first level it has not covered;
    every level below the landing reads the passage time.

    At mu > 0 a step stops at the passage or at h = mu^-beta, whichever comes
    first: a passage later than h becomes the step (h, X), X a stable(h) value
    conditioned on X <= a (no passage by h).  The Esscher martingale
    e^(-mu D(s) + mu^beta s) turns the stable law of that bounded step into
    the tempered one and is at most e^(mu^beta h), so the step is accepted
    with probability exp(-mu dpos + mu^beta (dtime - h)), and a rejected step
    is drawn again from the same state.  The mean acceptance is e^-1, so a
    path costs about e mu t_max / beta proposals.

    At mu = 0 each round covers at least one level of every live path, so a
    path costs at most L passages.  Returns an (n, L) array.
    """
    levels = np.asarray(levels, dtype=float)
    per_row = levels.ndim == 2
    width = levels.shape[-1]
    h = mu ** -beta if mu > 0 else math.inf
    out = np.zeros((n, width))
    time = np.zeros(n)
    pos = np.zeros(n)
    nxt = np.zeros(n, dtype=np.intp)
    live = np.arange(n)
    while live.size:
        k, j = live.size, nxt[live]
        gap = (levels[live, j] if per_row else levels[j]) - pos[live]
        # a tilted step stopped below its level can round onto or past it
        np.maximum(gap, 0.0, out=gap)
        under = gap * rng.beta(beta, 1.0 - beta, k)
        land = under + (gap - under) * (1.0 - rng.random(k)) ** (-1.0 / beta)
        log_wa = np.log(rng.gamma(2.0 - beta, size=k)) - _passage_log_a(rng, beta, k)
        tau = under ** beta * np.exp((1.0 - beta) * log_wa)
        step = passed = live
        if mu > 0:
            stop = tau > h
            tau[stop] = h
            land[stop] = _sample_stable_below(rng, h, beta, gap[stop])
            ok = rng.random(k) <= np.exp(mu ** beta * (tau - h) - mu * land)
            step, passed, tau, land = live[ok], live[ok & ~stop], tau[ok], land[ok]
        time[step] += tau
        pos[step] += land
        j = nxt[passed]
        out[passed, j] = time[passed]
        # a landing that rounds onto or below its level still covers it
        if per_row:
            above = np.count_nonzero(levels[passed] <= pos[passed, None], axis=1)
        else:
            above = np.searchsorted(levels, pos[passed], side="right")
        nxt[passed] = np.maximum(j + 1, above)
        live = live[nxt[live] < width]
    # levels a passage jumped over read its time, the last one written before them
    return np.maximum.accumulate(out, axis=1)


# -- public sampling surface ----------------------------------------------------


def _check_rtol(rtol):
    # accepted and unused: every route is exact; NaN fails the comparison too
    if not 0.0 < rtol < 1.0:
        raise DomainError(f"rtol must satisfy 0 < rtol < 1, got {rtol}")


def sample(
    spec,
    t: float,
    count: int,
    seed: int,
    stream: int = 0,
    rtol: float = 1e-4,
) -> SampleBatch:
    """Draw `count` values of the process at time t; reproducible per seed.

    rtol is accepted and unused: every route is exact.  It must still satisfy
    0 < rtol < 1.
    """
    if not 0 < t < math.inf:  # refuses NaN as well
        raise DomainError("sample requires finite t > 0")
    if count < 1:
        raise DomainError("sample requires count >= 1")
    _check_rtol(rtol)
    rng = rng_stream(seed, stream)
    values = spec.draw(rng, float(t), int(count))
    return SampleBatch(spec=spec, t=float(t), seed=int(seed), values=values)


def sample_path(
    spec,
    t_grid,
    paths: int,
    seed: int,
    stream: int = 0,
    rtol: float = 1e-4,
) -> np.ndarray:
    """Sample `paths` trajectories on the grid; rows are nondecreasing.

    Plain subordinators and compositions accumulate independent increments;
    inverse processes take their base's hitting route: a Brownian running
    maximum for IG and index-1/2 bases, exact first passages for stable and
    tempered bases (and stable compositions) of any other index, and the
    composition of the parts' inverses for any other composition (their
    paths are continuous and nondecreasing).  rtol is accepted and unused, as
    in `sample`.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or not (
            t_grid[0] > 0 and np.all(np.diff(t_grid) > 0) and t_grid[-1] < math.inf):
        raise DomainError("t_grid must be finite, positive and strictly increasing")
    if paths < 1:
        raise DomainError("paths must be >= 1")
    _check_rtol(rtol)
    return spec.path(rng_stream(seed, stream), t_grid, paths)
