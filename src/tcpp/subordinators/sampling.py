"""Exact samplers for every time-change process.

RNG discipline: every sampler draws from a PCG64 generator seeded by
SeedSequence([seed, stream]) (`rng_stream`).  `sample` and `sample_path`
draw the clock from stream 0; the Monte Carlo counts (`tcpp.timechange`,
`tcpp simulate --lambda`) come from stream 1, and SeedSequence's hashing
keeps the two independent.  Batches are reproducible for a given (spec, t,
seed, count) regardless of what else ran before.  Every
seeded value changed once, with the same law, when PCG64 replaced Philox.

Single-t draws are made 2^14 values at a time (`_in_blocks`), so a sampler's
temporaries stay cache-sized and are reused rather than faulted in afresh.
A batch of at most 2^14 values is one block, drawn as before blocking; a
larger batch draws its blocks in order from the one stream, so its values
(and the Monte Carlo tables built on them) changed once, with the same law,
when blocking came in.  First-passage paths (inverse stable and tempered
clocks of index other than 1/2, inverses of compositions) draw a whole batch
at once, one passage per live path a round: each round costs numpy's call
overhead whatever its size, so blocks would multiply it.  The variates of a
passage that do not depend on its gap come from pools drawn in bulk
(`_Pool`), so a round is a slice and a few products; their values changed
once, with the same law, when the pools came in.

Sampler routes (each process class in tcpp.subordinators.spec picks its own):

* IG(delta, gamma):  two-root transformation method (gamma > 0), its smaller
  root formed without a difference, so steps far below Z^2 / (gamma delta)
  stay positive; the gamma = 0 degenerate case is the Levy law
  (delta t)^2 / Z^2.
* stable(beta):      positive-stable transformation sampler from a uniform
  angle and a unit exponential; at beta = 1/2, which is IG(1/sqrt 2, 0), the
  IG sampler.
* tempered(beta,mu): exponential-tilting rejection against the stable
  sampler, acceptance exp(-mu X).  A tabulated floor of Zolotarev's A on
  256 angle bins rejects most proposals before their sines, with the draws
  of the plain loop bit for bit (`_tilted_round`); a value with
  mu^beta t > 2 is the sum of ceil(mu^beta t / 2) iid pieces, each accepted
  with probability >= e^-2, so every draw costs O(mu^beta t) proposals and
  none is refused.  Two drivers share the round: per-element steps
  (increments, paths, the outer parts of compositions) give each pending
  element one proposal a round (`_sample_tilted`), while the draws at one t
  propose iid rounds sized to the shortfall and keep the accepted values in
  order (`_sample_tilted_iid`), exact because all proposals share one law.
  Those are the two acceptance loops of every rejection sampler here:
  `_until_accepted` (also the stable steps conditioned below a gap) and
  `_first_accepted` (also the passage angles of `_passage_log_a`); a sampler
  states only its proposal.  At beta = 1/2, which is IG(1/sqrt 2,
  sqrt(2 mu)), the IG sampler.
* composition:       feed sampled values as the time argument of the next
  part (outermost part listed first); a single-t draw takes the innermost
  part's own single-t sampler.
* inverse:           first-passage time of the base, exact on every route.
  An IG base, and the stable or tempered base of index 1/2 through its IG
  law, takes the running maximum H(t) = M(t)/delta of a drifted Brownian
  motion, drawn on a whole grid as one Brownian-bridge maximum per cell.  A
  stable base of any other index (and a composition of stables, a stable law
  of the product index) draws single-t values by the scaling identity
  E(t) =d (t/D(1))^beta and paths one first passage at a time, from the
  closed law of (passage time, undershoot, landing), at most one passage per
  grid level; the gap scales a passage, and its unit-gap factors come from a
  pool.  A tempered base of any other index draws the same passages stopped
  at mu^-beta and accepts each step with its Esscher weight; a draw is a
  path on the one-point grid.  The inverse of any other composition is
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

from ..errors import POSITIVE, UNIT_INTERVAL, DomainError, integers
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
    """PCG64 generator for (seed, stream), seeded by SeedSequence hashing."""
    key = np.random.SeedSequence([int(seed) & (2**64 - 1), int(stream) & (2**64 - 1)])
    return np.random.Generator(np.random.PCG64(key))


# a single-t draw, and the pieces of split tempered values, take at most this
# many values per numpy pass, so memory does not grow with the count
_DRAW_BLOCK = 2 ** 14


def _in_blocks(n: int, draw, block: int = _DRAW_BLOCK):
    """n values from draw(b) on consecutive blocks of b <= block values, in
    order; n <= block is a single call."""
    out = np.empty(n)
    for lo in range(0, n, block):
        out[lo:lo + block] = draw(min(block, n - lo))
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
    w = mean * z * z
    # the smaller root mean (s - w) / (s + w), s = sqrt(w (w + 4 shape)) at
    # shape dt^2, is 4 mean shape w / (s + w)^2: no difference cancels when
    # w >> shape.  Divided through by w, with q = 4 shape / (w + 4 shape),
    # it keeps z = 0 at the mean
    four_shape = 4.0 * dt * dt
    q = four_shape / (w + four_shape)
    x1 = mean * q / (1.0 + np.sqrt(1.0 - q)) ** 2
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


def _tilted_round(rng, k, scale, beta, mu):
    """One round of k tilting proposals: D = scale D(1) stable, accepted
    w.p. exp(-mu D); scale is a length-k array, or one broadcast to k.

    Draws an angle uniform u, an exponential W and an acceptance uniform v
    for all k proposals, in that order.  A proposal whose v exceeds
    exp(-mu X_low), X_low built from the floor of log A on its angle bin,
    would fail the exact test too and is dropped before any sine; the
    survivors run the exact test on the exact stable value.  The additive
    1e-12 absorbs the rounding of the two exponentials.  Returns the
    accepted proposals' places in the round and their values.
    """
    c = (1.0 - beta) / beta
    u = rng.random(k)
    log_w = np.log(rng.standard_exponential(k))
    v = rng.random(k)
    # exp(-mu X_low); capping the exponent at -700 only raises the bound,
    # and spares exp its slow subnormal results
    bound = _log_a_floor(beta)[(u * _SQUEEZE_BINS).astype(np.intp)]
    bound -= log_w
    bound *= c
    np.exp(bound, out=bound)
    bound *= scale
    bound *= -mu
    np.maximum(bound, -700.0, out=bound)
    np.exp(bound, out=bound)
    bound += 1e-12
    live = np.flatnonzero(v <= bound)
    theta = np.clip(math.pi * u[live], 1e-12, math.pi - 1e-12)
    x = scale[live] * np.exp(c * (log_zolotarev_a(theta, beta) - log_w[live]))
    ok = v[live] <= np.exp(-mu * x)
    return live[ok], x[ok]


def _until_accepted(n, propose):
    """n values by rejection, one proposal per pending element a round, in
    ascending index order: propose(idx) returns the accepted places among idx
    and their values."""
    out = np.empty(n)
    idx = np.arange(n)
    while idx.size:
        hit, x = propose(idx)
        out[idx[hit]] = x
        pending = np.ones(idx.size, dtype=bool)
        pending[hit] = False
        idx = idx[pending]
    return out


def _first_accepted(n, p, propose, cap=math.inf):
    """The first n accepted values of a stream of iid proposals accepted at
    rate p, in order.  propose(k) makes k proposals and returns the accepted
    values; each round proposes 2% over the expected shortfall, plus 32, at
    most cap, so the first uncapped round almost always completes the batch.
    """
    out = np.empty(n)
    got = 0
    while got < n:
        x = propose(min(cap, math.ceil((n - got) / p * 1.02) + 32))[:n - got]
        out[got:got + x.size] = x
        got += x.size
    return out


def _sample_tilted(rng, t, beta, mu):
    """Tilting rejection on a 1-D t, element by element (`_until_accepted`)."""
    t_pow = t ** (1.0 / beta)
    return _until_accepted(t.size, lambda idx: _tilted_round(rng, idx.size, t_pow[idx], beta, mu))


def _sample_tilted_iid(rng, t, beta, mu, n):
    """n iid tilted draws at one t with mu^beta t <= 2 (acceptance >= e^-2).

    All proposals share one scale, so the accepted proposals of the stream
    are iid draws of the target law (`_first_accepted` at the exact
    acceptance p = exp(-mu^beta t)).  Rounds are capped at _DRAW_BLOCK, so no
    request outgrows a block.
    """
    # numpy's power, as `_sample_stable` takes it: Python's can differ by an ulp
    scale = np.asarray(t, dtype=float) ** (1.0 / beta)
    return _first_accepted(n, math.exp(-mu ** beta * t), lambda k: _tilted_round(
        rng, k, np.broadcast_to(scale, k), beta, mu)[1], _DRAW_BLOCK)


def _sample_tempered(rng, t, beta, mu):
    """Tempered stable D(t) by tilting, split into iid pieces where mu^beta t > 2.

    An element with mu^beta t > 2 is the sum of m = ceil(mu^beta t / 2) iid
    draws at t/m (infinite divisibility), each accepted with probability
    >= e^-2, so a draw costs O(mu^beta t) proposals.  The unsplit elements
    are drawn first, in one tilting call; then the pieces, in chunks of at
    most _DRAW_BLOCK.
    """
    t = np.asarray(t, dtype=float)
    t_flat = t.ravel()
    pieces = np.ceil(mu ** beta * t_flat / 2.0)
    split = pieces > 1.0
    if not split.any():
        return _sample_tilted(rng, t_flat, beta, mu).reshape(t.shape)
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
    return out.reshape(t.shape)


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
    x = rng.standard_normal((n, h.shape[-1]))
    u = rng.random((n, h.shape[-1]))
    # in place, with the operations and roundings of gamma h + sqrt(h) z and
    # 0.5 (x + sqrt(x^2 - 2 h log u)): four (n, L) arrays, not a dozen
    x *= np.sqrt(h)
    x += gamma * h
    np.maximum(u, 1e-300, out=u)
    np.log(u, out=u)
    u *= 2.0 * h
    top = x * x
    top -= u
    np.sqrt(top, out=top)
    top += x
    top *= 0.5
    run = np.cumsum(x, axis=1)
    run -= x
    run += top
    np.maximum.accumulate(run, axis=1, out=run)
    run /= delta
    return run


def _passage_log_a(rng, beta, k):
    """log A(theta) for k angles of density proportional to A^-(1-beta) on (0, pi).

    Rejection from theta = pi U: A is increasing with infimum
    a0 = (1-beta) beta^(beta/(1-beta)) at 0+, so the acceptance
    (A / a0)^-(1-beta) is at most 1.  Its mean is
    p = a0^(1-beta) / (Gamma(1+beta) Gamma(2-beta)) (0.64-0.86), since
    E D(1)^-beta = 1/Gamma(1+beta) in Kanter's form; the angles are the first
    k accepted (`_first_accepted`).
    """
    log_a0 = math.log1p(-beta) + beta / (1.0 - beta) * math.log(beta)
    p = math.exp((1.0 - beta) * log_a0) / (math.gamma(1.0 + beta) * math.gamma(2.0 - beta))

    def propose(m):
        theta = math.pi * rng.random(m)
        np.clip(theta, 1e-12, math.pi - 1e-12, out=theta)
        log_a = log_zolotarev_a(theta, beta)
        return log_a[rng.random(m) <= np.exp((beta - 1.0) * (log_a - log_a0))]
    return _first_accepted(k, p, propose)


class _Pool:
    """Variates drawn ahead in bulk by fill(m), an array whose last axis holds
    m draws, and handed out k at a time in order.

    A request the pool cannot meet keeps what is left and appends fill(m) with
    m = min(4 k + 64, k + _DRAW_BLOCK): a short request refills rarely, and a
    large one holds at most a block beyond itself.  The pooled values are iid
    and independent of everything the caller does with them, so handing them
    out later than they were drawn leaves every law as it was.
    """

    def __init__(self, fill):
        self.fill, self.draws, self.at = fill, None, 0

    def take(self, k):
        if self.draws is None or self.at + k > self.draws.shape[-1]:
            fresh = self.fill(min(4 * k + 64, k + _DRAW_BLOCK))
            self.draws = fresh if self.draws is None else np.concatenate(
                (self.draws[..., self.at:], fresh), axis=-1)
            self.at = 0
        lo, self.at = self.at, self.at + k
        return self.draws[..., lo:self.at]


def _passage_draws(rng, beta, mu, m):
    """m passages over a unit gap, as the rows land and time of one array.

    Row land is B + (1 - B) V^(-1/beta) and row time is
    B^beta (W / A(theta))^(1-beta), with B ~ Beta(beta, 1-beta), V ~ U(0, 1],
    W ~ Gamma(2-beta) and theta from `_passage_log_a`: over a gap a the
    passage lands a land and takes a^beta time (`_sample_stable_passages`).
    At mu > 0 a third row holds the unit exponentials -log U of the Esscher
    acceptance.
    """
    draws = np.empty((3 if mu > 0 else 2, m))
    b = rng.beta(beta, 1.0 - beta, m)
    land, time = draws[0], draws[1]
    np.power(1.0 - rng.random(m), -1.0 / beta, out=land)
    land *= 1.0 - b
    land += b
    log_wa = np.log(rng.gamma(2.0 - beta, size=m)) - _passage_log_a(rng, beta, m)
    np.exp((1.0 - beta) * log_wa, out=time)
    time *= b ** beta
    if mu > 0:
        draws[2] = rng.standard_exponential(m)
    return draws


def _sample_stable_below(pool, cap):
    """D(h) conditioned on D(h) <= cap, elementwise, by plain rejection from a
    pool of stable(h) proposals (`_until_accepted`)."""
    def propose(idx):
        x = pool.take(idx.size)
        ok = x <= cap[idx]
        return ok, x[ok]
    return _until_accepted(cap.size, propose)


def _sample_stable_passages(rng, levels, beta, n, mu=0.0):
    """E(t_i) = inf{s : D(s) > t_i} at every level, D the beta-stable
    subordinator, or at mu > 0 the tempered one (the stable law tilted by
    e^(-mu x)).

    `levels` is one grid for all n paths or an (n, L) matrix with positive,
    nondecreasing rows, one grid per path.  Exact, one first passage per live
    path a round.  A passage of a fresh stable D over gap a has undershoot
    Y = a B, B ~ Beta(beta, 1-beta), landing Z = Y + (a - Y) V^(-1/beta),
    V ~ U(0, 1], and, given Y, time Y^beta (W / A(theta))^(1-beta) with
    W ~ Gamma(2-beta) and theta drawn by `_passage_log_a`: the potential
    density y^(beta-1)/Gamma(beta) times the Levy tail, and D(1) biased by
    D(1)^-beta in Kanter's form.  By the strong Markov property each path
    restarts at its landing and passes the first level it has not covered;
    every level below the landing reads the passage time.  Only a scales
    the passage, so its gap-free factors come from a `_Pool` (`_passage_draws`)
    and a round is a slice of the pool and a few products on the live paths.

    At mu > 0 a step stops at the passage or at h = mu^-beta, whichever comes
    first: a passage later than h becomes the step (h, X), X a stable(h) value
    conditioned on X <= a (no passage by h), drawn from a pool of stable(h)
    proposals.  The Esscher martingale e^(-mu D(s) + mu^beta s) turns the
    stable law of that bounded step into the tempered one and is at most
    e^(mu^beta h), so the step is accepted with probability
    exp(-mu dpos + mu^beta (dtime - h)), and a rejected step is drawn again
    from the same state.  The mean acceptance is e^-1, so a path costs about
    e mu t_max / beta proposals.

    At mu = 0 each round covers at least one level of every live path, so a
    path costs at most L passages.  Returns an (n, L) array.
    """
    levels = np.asarray(levels, dtype=float)
    per_row = levels.ndim == 2
    width = levels.shape[-1]
    h = mu ** -beta if mu > 0 else math.inf
    passages = _Pool(lambda m: _passage_draws(rng, beta, mu, m))
    below = _Pool(lambda m: _sample_stable(rng, h, beta, m))
    out = np.zeros((n, width))
    # the live paths' rows of out, and their time, position and next level
    live = np.arange(n)
    time = np.zeros(n)
    pos = np.zeros(n)
    nxt = np.zeros(n, dtype=np.intp)
    while live.size:
        gap = (levels[live, nxt] if per_row else levels[nxt]) - pos
        if mu > 0:
            # a tilted step stopped below its level can round onto or past it
            np.maximum(gap, 0.0, out=gap)
        unit = passages.take(live.size)
        land = gap * unit[0]
        tau = gap ** beta
        tau *= unit[1]
        passed = slice(None)
        if mu > 0:
            stop = tau > h
            if stop.any():
                tau[stop] = h
                land[stop] = _sample_stable_below(below, gap[stop])
            ok = unit[2] >= mu * land - mu ** beta * (tau - h)
            # a rejected step leaves its path where it was
            rejected = ~ok
            tau[rejected] = 0.0
            land[rejected] = 0.0
            passed = np.flatnonzero(ok & ~stop)
        time += tau
        pos += land
        j = nxt[passed]
        out[live[passed], j] = time[passed]
        # a landing that rounds onto or below its level still covers it
        if per_row:
            above = np.count_nonzero(levels[live[passed]] <= pos[passed, None], axis=1)
        else:
            above = levels.searchsorted(pos[passed], side="right")
        nxt[passed] = np.maximum(j + 1, above, out=above)
        keep = nxt < width
        if np.count_nonzero(keep) < live.size:
            live, time, pos, nxt = live[keep], time[keep], pos[keep], nxt[keep]
    # levels a passage jumped over read its time, the last one written before them
    return np.maximum.accumulate(out, axis=1, out=out)


# -- public sampling surface ----------------------------------------------------


def sample(
    spec,
    t: float,
    count: int,
    seed: int,
    rtol: float = 1e-4,
) -> SampleBatch:
    """Draw `count` values of the process at time t from stream 0 of the
    seed (`rng_stream`).

    rtol is accepted and unused: every route is exact.  It must still lie
    in (0, 1).  t, count and rtol pass the shared rule (`errors.Domain`).
    """
    t, count = POSITIVE.check("t", t), integers(1).check("count", count)
    UNIT_INTERVAL.check("rtol", rtol)
    values = spec.draw(rng_stream(seed, 0), t, count)
    return SampleBatch(spec=spec, t=t, seed=int(seed), values=values)


def sample_path(
    spec,
    t_grid,
    paths: int,
    seed: int,
    rtol: float = 1e-4,
) -> np.ndarray:
    """Sample `paths` trajectories on the grid from stream 0 of the seed
    (`rng_stream`); rows are nondecreasing.

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
    paths = integers(1).check("paths", paths)
    UNIT_INTERVAL.check("rtol", rtol)
    return spec.path(rng_stream(seed, 0), t_grid, paths)
