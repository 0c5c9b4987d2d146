"""The time-change processes: one object per clock, and its JSON wire format.

Each process class owns everything tcpp does with its clock: its Laplace
exponent phi(s), with E e^{-s X(t)} = e^{-t phi(s)}, its mean rate phi'(0+),
the pieces of a frozen quadrature rule for the Poisson mixture (the node
window that `Clock.rule_nodes` lays nodes on, the per-t (x, weight *
density) and the survivor mass beyond the window) and its increment
sampler.  A rule's density comes from one of two statements (`Clock`): the
IG clock and the IG and inverse-tempered hitting routes state a density
m(x, t); the stable and tempered clocks and the inverse-stable route state
a t-free density factor on scaled nodes instead.  `Composition` and
`InverseOf` are combinators: a composition of stable laws answers as one
stable law with the product of the indices, any other composition chains its
parts' increments (and its inverse chains its parts' inverses), and an
inverse asks its base for a hitting route (`hitting()`; a clock that states
none has a route with no density, whose draws raise NoDensityError).

The JSON schema is the CLI's process-description contract:

    {"type": "ig",       "delta": 1.0, "gamma": 1.0}
    {"type": "stable",   "beta": 0.5}
    {"type": "tempered", "beta": 0.5, "mu": 1.0}
    {"type": "compose",  "parts": [spec, ...]}      # outermost part first
    {"type": "inverse",  "base": spec}

Each class declares its `kind` (the `type` above) and the domain of each
numeric field: delta > 0, gamma >= 0, beta in (0, 1), mu > 0.  A spec holds
exactly its type's fields, and each number is a finite JSON number, not a
bool or a string, inside its field's domain (`errors.Domain`).
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from ..errors import (
    NONNEGATIVE,
    POSITIVE,
    UNIT_INTERVAL,
    ConvergenceError,
    DomainError,
    NoDensityError,
)
from ..quadrules import gauss_panels, linear_panel_edges, log_panel_edges
from .densities import (
    hitting_time_density_ig,
    ig_cdf,
    ig_density,
    ig_exponent,
    inverse_stable_density,
    inverse_tempered_density,
    tempered_half_as_ig,
)
from .sampling import (
    _DRAW_BLOCK,
    _in_blocks,
    _sample_ig,
    _sample_ig_hitting,
    _sample_stable,
    _sample_stable_passages,
    _sample_stable_unit,
    _sample_tempered,
    _sample_tilted_iid,
)
from .stable import _BETA_MAX, _TINY, TAIL_LOG, stable_unit

# Every frozen rule's node window leaves out at most e^-TAIL_LOG of its clock's
# mass.  Each end is a Chernoff bound from the clock's Laplace exponent phi:
# P(X(t) > x) <= min_s exp(-s x - t phi(-s)) on the right of a Levy clock,
# P(X(t) < x) <= min_{s >= 0} exp(s x - t phi(s)) on its left (for a stable
# law, `StableUnit.left_end`), and for a hitting time, by the duality
# P(E(t) > x) = P(D(x) < t), P(E(t) > x) <= min_{s >= 0} exp(s t - x phi(s)).
# The IG and stable windows may instead end at the Poisson cut, with the mass
# beyond it counted by the clock's `survivor`.


def _chernoff_scale(a: float, target: float) -> float:
    """y >= 1 with B(y) = y^a - 1 - a (y - 1) = target > 0, for a > 1 or a < 0.

    In w = y^c, c = max(a, 1), B = w^p - 1 - a (w^q - 1) with p = a/c and
    q = 1/c is convex, increasing and asymptotically linear for w >= 1.  So
    its tangent at w = 2 reaches the target right of the root, and Newton
    falls from there onto the root in a few steps, without overshooting.
    """
    c = max(a, 1.0)
    p, q = a / c, 1.0 / c

    def newton_step(w):
        wp, wq = w ** p, w ** q
        return (wp - 1.0 - a * (wq - 1.0) - target) / (p * (wp - wq) / w)

    w = 2.0 - min(newton_step(2.0), 0.0)
    for _ in range(100):
        step = newton_step(w)
        w -= step
        if step <= 1e-15 * w:
            break
    return w ** q


def _power(s, b: float):
    """s^b for a complex array s (0-d too), on the principal branch.

    Formed as |s|^b (cos b theta + i sin b theta), theta = arctan2(Im s, Re s)
    in [-pi, pi] taken once, the branch numpy's `s ** b` takes.  That power
    goes through a complex log and exp: on the 4 003 points of the PGF cap
    contour it costs about four times as much, and it rounds a little more
    (up to 7.1e-16 from 40-digit mpmath, relative, against 4.3e-16 here, on
    the tests' contours).  At b = 1/2 it is np.sqrt(s), the bits `s ** 0.5`
    gives.
    """
    if b == 0.5:
        return np.sqrt(s)
    bt = b * np.arctan2(s.imag, s.real)
    return np.abs(s) ** b * (np.cos(bt) + 1j * np.sin(bt))


def _unit_scale(t: float, beta: float) -> float:
    """t^(1/beta), with D(t) = t^(1/beta) D(1); ConvergenceError where it
    underflows or overflows, as a rule's t-free window would not map back onto x."""
    with contextlib.suppress(OverflowError):
        if (scale := t ** (1.0 / beta)) >= np.finfo(float).tiny:
            return scale
    raise ConvergenceError(f"t^(1/beta) leaves the float range at t = {t:g}, beta = {beta:g}")


class Clock:
    """Defaults shared by the process classes and the hitting routes.

    A frozen rule (tcpp.timechange.MixtureRule) keeps the nodes, weights,
    optional t-free density factor `dens` and window end `x_hi` that
    `rule_nodes(t_lo, t_hi, cut, n_panels)` returned, and asks the clock that
    built it for `weighted(rule, t)` and `survivor(rule, t)`.  A clock states
    its node window, `window(t_lo, t_hi, cut)` -> (lo, hi) with lo None for a
    window from 0, and either its density, `density(x, t)`, which the default
    `weighted` reads (IG, the IG and inverse-tempered hitting routes), or a
    t-free density factor, `rule_density(nodes)`, with its own `weighted`
    that maps the nodes to x at each t (stable, tempered, inverse stable).
    """

    def mixing_law(self):
        """The object owning this clock's density and frozen rule, or None
        where no density serves the clock; the quadrature route serves
        exactly the clocks with one (`tcpp.timechange.ROUTES`)."""
        return self

    def can_draw(self):
        """Whether this clock's values can be drawn; the Monte Carlo route
        serves exactly the clocks that can (`tcpp.timechange.ROUTES`)."""
        return True

    def rule_nodes(self, t_lo, t_hi, cut, n_panels):
        """(nodes, weights, dens, x_hi): 12 Gauss points on each of n_panels
        panels over the window, log-spaced from its left end, or evenly
        spaced from 0 when it has none; x_hi is the window's right end."""
        lo, hi = self.window(t_lo, t_hi, cut)
        nodes, weights = gauss_panels(linear_panel_edges(0.0, hi, n_panels) if lo is None
                                      else log_panel_edges(lo, hi, n_panels))
        return nodes, weights, self.rule_density(nodes), hi

    def rule_density(self, nodes):
        """The t-free density factor on the rule's nodes, or None."""
        return None

    def weighted(self, rule, t):
        """(x, weight * density) on the rule's nodes at t; t may be a column."""
        return rule.nodes, rule.weights * self.density(rule.nodes, t)

    def survivor(self, rule, t: float) -> float:
        """Mixing mass beyond the node window; at most e^-TAIL_LOG by default."""
        return 0.0

    def draw(self, rng, t: float, n: int):
        """n values at time t, one increment call per block (`_in_blocks`)."""
        return _in_blocks(n, lambda b: self.increment(rng, np.full(b, t)))


@dataclass(frozen=True)
class SubordinatorSpec(Clock):
    """Base class of the process classes.  Each declares its wire `kind` and
    the `domains` of its numeric fields; `__post_init__` checks those fields
    by the shared rule (`errors.Domain`) and stores them as floats, and
    `to_dict` writes the kind and every field, a clock as its object and a
    tuple of clocks as a list."""

    kind = None
    domains = {}

    def __post_init__(self):
        for name, domain in self.domains.items():
            object.__setattr__(self, name, domain.check(f"{self.kind} {name}", getattr(self, name)))

    def to_dict(self) -> dict:
        def wire(v):  # a clock as its object, a tuple of clocks as a list
            return v.to_dict() if isinstance(v, SubordinatorSpec) else (
                [p.to_dict() for p in v] if isinstance(v, tuple) else v)
        return {"type": self.kind, **{f.name: wire(getattr(self, f.name)) for f in fields(self)}}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def label(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    def bessel_params(self):
        """(delta, gamma) when the count law has the closed Bessel form, else None."""
        return None

    def mean_rate(self):
        """E X(t) / t = phi'(0+), math.inf when the mean is infinite; None when
        the clock does not say.  `pmf_table` searches K for such a clock by
        doubling, as for a finite mean, but keeps a table that reaches the
        kmax cap with its tail, as for an infinite one (`_finite_mean`)."""
        return None

    def phi(self, s):
        """Laplace exponent at complex s, Re s > 0 (principal branches), vectorized."""
        raise NoDensityError(f"{self.label()} is not a Levy clock: it has no Laplace exponent")

    def path(self, rng, t_grid, paths: int):
        """`paths` trajectories on t_grid from independent increments."""
        dts = np.diff(t_grid, prepend=0.0)
        return np.cumsum(self.increment(rng, np.broadcast_to(dts, (paths, dts.size))), axis=1)

    def hitting(self):
        """The hitting route of this clock's inverse; a clock that states
        none gets one with no density, whose draws are refused."""
        return _NoHitting(self)


@dataclass(frozen=True)
class InverseGaussian(SubordinatorSpec):
    delta: float
    gamma: float
    kind = "ig"
    domains = {"delta": POSITIVE, "gamma": NONNEGATIVE}

    def bessel_params(self):
        return (self.delta, self.gamma) if self.gamma > 0 else None

    def mean_rate(self):
        return self.delta / self.gamma if self.gamma > 0 else math.inf

    def phi(self, s):
        return ig_exponent(np.asarray(s, dtype=complex), self.delta, self.gamma)

    def density(self, x, t):
        return ig_density(x, t, self.delta, self.gamma)

    def window(self, t_lo, t_hi, cut):
        # both tails of G(t) have the Chernoff exponent (delta t - gamma x)^2 / (2x);
        # the window ends are its roots at TAIL_LOG.  The upper one is capped
        # at cut, `survivor` counting the rest, but kept right of x_lo: a cut
        # left of the mass leaves the survivor all of it
        g, c = self.gamma, TAIL_LOG
        a, b = self.delta * t_lo, self.delta * t_hi
        x_lo = a * a / (a * g + c + math.sqrt(c * (c + 2.0 * a * g)))
        root = math.inf if g == 0.0 else (b + (c + math.sqrt(c * (c + 2.0 * b * g))) / g) / g
        return x_lo, max(min(cut, root), min(root, 2.0 * x_lo))

    def survivor(self, rule, t):
        return 1.0 - ig_cdf(rule.x_hi, t, self.delta, self.gamma)

    def increment(self, rng, dt):
        """One increment of the Levy subordinator over per-element steps dt."""
        return _sample_ig(rng, dt, self.delta, self.gamma)

    def hitting(self):
        return _HittingIG(self)


@dataclass(frozen=True)
class Stable(SubordinatorSpec):
    beta: float
    kind = "stable"
    domains = {"beta": UNIT_INTERVAL}

    def mean_rate(self):
        return math.inf

    def mixing_law(self):
        # past the stable engine's index (`stable._BETA_MAX`) no density serves
        return None if self.beta > _BETA_MAX else self

    def phi(self, s):
        """s^beta on the principal branch (`_power`), vectorized."""
        return _power(np.asarray(s, dtype=complex), self.beta)

    def window(self, t_lo, t_hi, cut):
        # nodes in y = x t^(-1/b): the window and the density factor are t-free.
        # D(t) has no exponential moment, so no Chernoff end on the right: the
        # window runs to the Poisson cut, kept right of its left end as IG's
        # is, and `survivor` counts the mass beyond it
        y_lo = stable_unit(self.beta).left_end()
        return y_lo, max(cut / _unit_scale(t_lo, self.beta), 2.0 * y_lo)

    def rule_density(self, y):
        return stable_unit(self.beta).pdf(y)

    def weighted(self, rule, t):
        # x = t^(1/b) y with f(x,t) dx = f1(y) dy
        return t ** (1.0 / self.beta) * rule.nodes, rule.weights * rule.dens

    def survivor(self, rule, t):
        # the node window scales with t, so the residual mass is t-free
        return float(stable_unit(self.beta).sf(np.array([rule.x_hi]))[0])

    def increment(self, rng, dt):
        ig = _half_ig(self.beta, 0.0)
        return _sample_stable(rng, dt, self.beta) if ig is None else ig.increment(rng, dt)

    def hitting(self):
        return _InverseStable(self)


@dataclass(frozen=True)
class TemperedStable(SubordinatorSpec):
    beta: float
    mu: float
    kind = "tempered"
    domains = {"beta": UNIT_INTERVAL, "mu": POSITIVE}

    def mean_rate(self):
        return self.beta * self.mu ** (self.beta - 1.0)

    def phi(self, s):
        """(s + mu)^beta - mu^beta, the power on the principal branch
        (`_power`), vectorized."""
        b, mu = self.beta, self.mu
        return _power(np.asarray(s, dtype=complex) + mu, b) - mu ** b

    mixing_law = Stable.mixing_law

    def window(self, t_lo, t_hi, cut):
        # nodes in y = x t^(-1/b), as for the stable clock.  The weights
        # f1(y) e^(mu^b t - mu x) are lifted by at most e^(mu^b t_hi), so the
        # left end is D(1)'s at that lift.  The right Chernoff end at
        # s = mu - mu z^(-1/(1-b)) is z times the mean t b mu^(b-1), where
        # z^q - 1 - q (z - 1) = TAIL_LOG / ((1-b) t mu^b), q = -b/(1-b).  The
        # rule keeps no survivor, so the window runs to the larger of that
        # end and the Poisson cut
        b, mu = self.beta, self.mu
        z = _chernoff_scale(-b / (1.0 - b), TAIL_LOG / ((1.0 - b) * t_hi * mu ** b))
        x_need = max(cut, t_hi * b * mu ** (b - 1.0) * z)
        return stable_unit(b).left_end(mu ** b * t_hi), x_need / _unit_scale(t_lo, b)

    rule_density = Stable.rule_density

    def weighted(self, rule, t):
        # w f1(y) e^(mu^b t - mu x): that product where f1(y) is a normal float
        # and the tilt is at most 709, else (at large mu^b t) one exponential
        # of the sum of the logs, log f1 from `StableUnit.log_pdf`
        b, mu = self.beta, self.mu
        x = t ** (1.0 / b) * rule.nodes
        tilt = mu ** b * t - mu * x
        with np.errstate(over="ignore", invalid="ignore"):  # far cells are retaken below
            wd = rule.weights * rule.dens * np.exp(tilt)
        far = (rule.dens < _TINY) | (tilt > 709.0)
        if np.any(far):
            log_w = np.log(rule.weights) + stable_unit(b).log_pdf(rule.nodes)
            wd[far] = np.exp(np.broadcast_to(log_w, far.shape)[far] + tilt[far])
        return x, wd

    def increment(self, rng, dt):
        ig = _half_ig(self.beta, self.mu)
        if ig is not None:
            return ig.increment(rng, dt)
        return _sample_tempered(rng, dt, self.beta, self.mu)

    def draw(self, rng, t, n):
        """n values at t.  Each is the sum of m = ceil(mu^b t / 2) iid pieces
        at t/m, as in `increment`; the pieces come from the iid driver
        `_sample_tilted_iid`, at most _DRAW_BLOCK a block (one value's m
        where m is larger)."""
        b, mu = self.beta, self.mu
        if _half_ig(b, mu) is not None:
            return super().draw(rng, t, n)
        m = max(1, math.ceil(mu ** b * t / 2.0))

        def block(k):
            return _sample_tilted_iid(rng, t / m, b, mu, k * m).reshape(k, m).sum(axis=1)
        return _in_blocks(n, block, max(1, _DRAW_BLOCK // m))

    def hitting(self):
        ig = _half_ig(self.beta, self.mu)
        return _InverseTempered(self) if ig is None else ig.hitting()


@dataclass(frozen=True)
class Composition(SubordinatorSpec):
    """parts[0](parts[1](... parts[-1](t))) -- function-composition order."""

    parts: tuple
    kind = "compose"

    def __post_init__(self):
        parts = self.parts
        if not (isinstance(parts, (tuple, list)) and parts and all(
                isinstance(p, SubordinatorSpec) and not isinstance(p, (Composition, InverseOf))
                for p in parts)):
            raise DomainError(f"compose takes a nonempty list of Levy clocks, got {parts!r}")
        object.__setattr__(self, "parts", tuple(parts))

    def mean_rate(self):
        # E A(B(t)) = E B(t) * rate_A: the chain rule on the composed exponents
        rates = [part.mean_rate() for part in self.parts]
        return None if None in rates else math.prod(rates)

    def phi(self, s):
        # E e^{-s A(B(t))} = E e^{-B(t) phi_A(s)}: the outermost part's exponent
        # is applied first, and Bernstein functions keep Re s > 0
        for part in self.parts:
            s = part.phi(s)
        return s

    def mixing_law(self):
        # stable laws compose to the stable law of the product index
        eff = flatten_stable_composition(self)
        return None if eff is None else Stable(eff).mixing_law()

    def increment(self, rng, dt):
        return self._outer(rng, self.parts[-1].increment(rng, np.asarray(dt, dtype=float)))

    def draw(self, rng, t, n):
        """The innermost part's own `draw`, then the outer increments, one
        block at a time."""
        return _in_blocks(n, lambda k: self._outer(rng, self.parts[-1].draw(rng, t, k)))

    def _outer(self, rng, v):
        """The outer parts' increments over the innermost part's values v."""
        for part in reversed(self.parts[:-1]):
            v = part.increment(rng, v)
        return v

    def hitting(self):
        # the product-index stable law's route, with or without a density
        eff = flatten_stable_composition(self)
        return _InverseComposition(self) if eff is None else Stable(eff).hitting()


@dataclass(frozen=True)
class InverseOf(SubordinatorSpec):
    base: SubordinatorSpec
    kind = "inverse"

    def __post_init__(self):
        if not isinstance(self.base, SubordinatorSpec) or isinstance(self.base, InverseOf):
            raise DomainError(f"inverse base must be a clock, not an inverse, got {self.base!r}")

    def mixing_law(self):
        return self.base.hitting().mixing_law()

    def can_draw(self):
        return self.base.hitting().can_draw()

    def draw(self, rng, t, n):
        return self.base.hitting().draw(rng, t, n)

    def path(self, rng, t_grid, paths):
        return self.base.hitting().path(rng, t_grid, paths)


def _half_ig(beta, mu):
    """The IG clock equal to tempered(1/2, mu), or to stable(1/2) at mu = 0;
    None for any other index.  Its sampler and running maximum are exact."""
    return InverseGaussian(*tempered_half_as_ig(mu)) if beta == 0.5 else None


# -- hitting routes: the first-passage time E(t) = inf{s : base(s) > t} ----------


@dataclass(frozen=True)
class _Hitting(Clock):
    """Hitting route of `base`.  Its `path` takes one grid or an (n, L)
    matrix of nondecreasing per-path levels; a draw is a path on the
    one-point grid unless the route has a cheaper single-t sampler.  That
    path draws the whole count at once, not in blocks: first passages take
    one round per passage of the slowest path, each costing numpy's call
    overhead whatever its size, and their pools hold at most a block beyond
    the live paths (`sampling._Pool`)."""

    base: SubordinatorSpec

    def mixing_law(self):
        # a density where the base has one: not past the stable engine's index,
        # nor for a composition that is not stable
        return None if self.base.mixing_law() is None else self

    def draw(self, rng, t, n):
        return self.path(rng, np.array([t]), n)[:, 0]


class _NoHitting(_Hitting):
    """The hitting route of a clock that states none (`hitting`): neither
    the quadrature nor the Monte Carlo route serves it, and its draws and
    paths raise NoDensityError."""

    def mixing_law(self):
        return None

    def can_draw(self):
        return False

    def path(self, rng, t_grid, paths):
        raise NoDensityError(f"no hitting route samples the inverse of {self.base.label()}")


class _InverseComposition(_Hitting):
    """Inverse of a composition that is not stable: no density, and paths as
    the composition of the parts' inverses.  D = P_0(P_1(...)) passes level t
    when P_1(...) passes E_0(t), because P_0 has no drift and so does not
    creep over t; hence E(t) = ...E_1(E_0(t)).  The outermost part's route
    runs on the grid, each next one on the previous matrix, row by row."""

    def path(self, rng, t_grid, paths):
        levels = t_grid
        for part in self.base.parts:
            levels = part.hitting().path(rng, levels, paths)
        return levels


class _InverseStable(_Hitting):
    """Inverse stable clock: density and single-t draws by scaling, exact
    paths (a Brownian running maximum at index 1/2, else first passages)."""

    def window(self, t_lo, t_hi, cut):
        # nodes in v = x t^(-b); P(E(1) > v) = P(D(v) < 1) <= exp(-a0 v^(1/(1-b)))
        # at the best s
        return None, (TAIL_LOG / stable_unit(self.base.beta).a0) ** (1.0 - self.base.beta)

    def rule_density(self, v):
        return inverse_stable_density(v, 1.0, self.base.beta)

    def weighted(self, rule, t):
        return t ** self.base.beta * rule.nodes, rule.weights * rule.dens

    def path(self, rng, t_grid, paths):
        # stable(1/2) is IG(1/sqrt 2, 0), whose running maximum is cheaper
        ig = _half_ig(self.base.beta, 0.0)
        if ig is not None:
            return ig.hitting().path(rng, t_grid, paths)
        return _sample_stable_passages(rng, t_grid, self.base.beta, paths)

    def draw(self, rng, t, n):
        ig = _half_ig(self.base.beta, 0.0)
        if ig is not None:
            return ig.hitting().draw(rng, t, n)
        b = self.base.beta
        # exact: E(t) =d (t / D(1))^beta by self-similar first passage
        return _in_blocks(n, lambda m: (t / _sample_stable_unit(rng, b, (m,))) ** b)


class _HittingIG(_Hitting):
    """IG hitting time: closed density, exact draws by the running maximum."""

    def density(self, x, t):
        return hitting_time_density_ig(x, t, self.base.delta, self.base.gamma)

    def window(self, t_lo, t_hi, cut):
        # P(H(t) > x) = P(G(x) < t) <= exp(-(delta x - gamma t)^2 / (2t))
        d, g = self.base.delta, self.base.gamma
        return None, (g * t_hi + math.sqrt(2.0 * TAIL_LOG * t_hi)) / d

    def path(self, rng, t_grid, paths):
        return _sample_ig_hitting(rng, t_grid, self.base.delta, self.base.gamma, paths)

    def draw(self, rng, t, n):
        """`path` on the one-point grid, one block at a time."""
        return _in_blocks(n, lambda m: self.path(rng, np.array([t]), m)[:, 0])


class _InverseTempered(_Hitting):
    """Inverse tempered clock of index != 1/2: tilted-stable density, and
    exact paths by stable passages accepted with their Esscher weight."""

    def density(self, x, t):
        return inverse_tempered_density(x, t, self.base.beta, self.base.mu)

    def window(self, t_lo, t_hi, cut):
        # P(E(t) > x) = P(D(x) < t): the best s has phi'(s) = t/x, and the end
        # is y times the mean t mu^(1-b)/b, where y^p - 1 - p (y - 1) =
        # p b TAIL_LOG / (mu t), p = 1/(1-b)
        b, mu = self.base.beta, self.base.mu
        y = _chernoff_scale(1.0 / (1.0 - b), b * TAIL_LOG / ((1.0 - b) * mu * t_hi))
        return None, t_hi * mu ** (1.0 - b) / b * y

    def path(self, rng, t_grid, paths):
        return _sample_stable_passages(rng, t_grid, self.base.beta, paths, self.base.mu)


_KINDS = {cls.kind: cls
          for cls in (InverseGaussian, Stable, TemperedStable, Composition, InverseOf)}


def spec_from_dict(d: dict) -> SubordinatorSpec:
    """The clock a JSON object describes.  Its `type` names the class in
    `_KINDS`, and it holds exactly that class's fields.  A field's object is
    read as a clock and its list as a list of clocks; every other value goes
    to the class's own check."""
    kind = d.get("type") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DomainError(f"a spec is an object whose type is one of {', '.join(_KINDS)}, "
                          f"got {d!r}")
    names = [f.name for f in fields(_KINDS[kind])]
    if set(d) != {"type", *names}:
        raise DomainError(f"spec type {kind!r} takes exactly the fields {names}, got {d!r}")

    def read(v):  # an object as a clock, a list as a tuple of clocks
        return spec_from_dict(v) if isinstance(v, dict) else (
            tuple(map(spec_from_dict, v)) if isinstance(v, list) else v)
    return _KINDS[kind](*(read(d[name]) for name in names))


def spec_from_json(text: str) -> SubordinatorSpec:
    try:
        return spec_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise DomainError(f"spec is not valid JSON: {exc}") from exc


def flatten_stable_composition(spec: SubordinatorSpec):
    """Effective stable index if the spec is a (composition of) stable law(s).

    Composing stable subordinators with unit Laplace-exponent coefficients
    multiplies the indices; returns None when the spec is not of that shape.
    """
    if isinstance(spec, Stable):
        return spec.beta
    if isinstance(spec, Composition) and all(isinstance(p, Stable) for p in spec.parts):
        out = 1.0
        for p in spec.parts:
            out *= p.beta
        return out
    return None
