"""The time-change processes: one object per clock, and its JSON wire format.

Each process class owns everything tcpp does with its clock: its Laplace
exponent phi(s), with E e^{-s X(t)} = e^{-t phi(s)}, its mean rate phi'(0+),
its density, the pieces of a frozen quadrature rule for the Poisson mixture
(the node window and t-free density factor that `Clock.rule_nodes` lays
nodes on, the per-t (x, weight * density) and the survivor mass beyond the
window) and its increment sampler.  `Composition` and
`InverseOf` are combinators: a composition of stable laws answers as one
stable law with the product of the indices, any other composition chains its
parts' increments (and its inverse chains its parts' inverses), and an
inverse asks its base for a hitting route (`hitting()`).

The JSON schema is the CLI's process-description contract:

    {"type": "ig",       "delta": 1.0, "gamma": 1.0}
    {"type": "stable",   "beta": 0.5}
    {"type": "tempered", "beta": 0.5, "mu": 1.0}
    {"type": "compose",  "parts": [spec, ...]}      # outermost part first
    {"type": "inverse",  "base": spec}
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, DomainError, NoDensityError
from ..quadrules import gauss_panels, linear_panel_edges, log_panel_edges
from .densities import (
    hitting_time_density_ig,
    ig_cdf,
    ig_density,
    ig_exponent,
    inverse_stable_density,
    inverse_tempered_density,
    stable_density,
    tempered_half_as_ig,
    tempered_stable_density,
)
from .sampling import (
    _in_blocks,
    _sample_ig,
    _sample_ig_hitting,
    _sample_stable,
    _sample_stable_passages,
    _sample_stable_unit,
    _sample_tempered,
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
    window from 0, and, where it has one, its t-free density factor,
    `rule_density(nodes)`.
    """

    def mixing_law(self):
        """The object owning this clock's density and frozen rule, or None."""
        return self

    def rule_nodes(self, t_lo, t_hi, cut, n_panels):
        """(nodes, weights, dens, x_hi): 12 Gauss points on each of n_panels
        panels over the window, log-spaced from its left end, or evenly
        spaced from 0 when it has none; x_hi is the window's right end."""
        lo, hi = self.window(t_lo, t_hi, cut)
        nodes, weights = gauss_panels(linear_panel_edges(0.0, hi, n_panels) if lo is None
                                      else log_panel_edges(lo, hi, n_panels), 12)
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
    """Base class; use the concrete variants below."""

    def to_dict(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def label(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    def bessel_params(self):
        """(delta, gamma) when the count law has the closed Bessel form, else None."""
        return None

    def mean_rate(self):
        """E X(t) / t = phi'(0+), math.inf when the mean is infinite; None when
        the clock does not say, which `pmf_table` treats as possibly finite."""
        return None

    def phi(self, s):
        """Laplace exponent at complex s, Re s > 0 (principal branches), vectorized."""
        route = "quadrature" if self.mixing_law() is not None else "mc"
        raise NoDensityError(f"{self.label()} is not a Levy clock: it has no Laplace "
                             f"exponent (use the {route} method)")

    def path(self, rng, t_grid, paths: int):
        """`paths` trajectories on t_grid from independent increments."""
        dts = np.diff(t_grid, prepend=0.0)
        return np.cumsum(self.increment(rng, np.broadcast_to(dts, (paths, dts.size))), axis=1)


@dataclass(frozen=True)
class InverseGaussian(SubordinatorSpec):
    delta: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.delta < math.inf:  # refuses NaN as well
            raise DomainError("IG requires finite delta > 0")
        if not 0 <= self.gamma < math.inf:
            raise DomainError("IG requires finite gamma >= 0")

    def to_dict(self):
        return {"type": "ig", "delta": self.delta, "gamma": self.gamma}

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
        return float(1.0 - ig_cdf(np.array([rule.x_hi]), t, self.delta, self.gamma)[0])

    def increment(self, rng, dt):
        """One increment of the Levy subordinator over per-element steps dt."""
        return _sample_ig(rng, dt, self.delta, self.gamma)

    def hitting(self):
        return _HittingIG(self)


@dataclass(frozen=True)
class Stable(SubordinatorSpec):
    beta: float

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise DomainError("stable index must satisfy 0 < beta < 1")

    def to_dict(self):
        return {"type": "stable", "beta": self.beta}

    def mean_rate(self):
        return math.inf

    def phi(self, s):
        return np.asarray(s, dtype=complex) ** self.beta

    def density(self, x, t):
        return stable_density(x, t, self.beta)

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

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise DomainError("tempered stable index must satisfy 0 < beta < 1")
        if not 0 < self.mu < math.inf:
            raise DomainError("tempered stable requires finite mu > 0")

    def to_dict(self):
        return {"type": "tempered", "beta": self.beta, "mu": self.mu}

    def mean_rate(self):
        return self.beta * self.mu ** (self.beta - 1.0)

    def phi(self, s):
        b, mu = self.beta, self.mu
        return (np.asarray(s, dtype=complex) + mu) ** b - mu ** b

    def density(self, x, t):
        return tempered_stable_density(x, t, self.beta, self.mu)

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

    def hitting(self):
        ig = _half_ig(self.beta, self.mu)
        return _InverseTempered(self) if ig is None else ig.hitting()


@dataclass(frozen=True)
class Composition(SubordinatorSpec):
    """parts[0](parts[1](... parts[-1](t))) -- function-composition order."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise DomainError("composition needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))
        for p in self.parts:
            if isinstance(p, (Composition, InverseOf)):
                raise DomainError("composition parts must be plain subordinators")
            if not isinstance(p, SubordinatorSpec):
                raise DomainError("composition parts must be SubordinatorSpec")

    def to_dict(self):
        return {"type": "compose", "parts": [p.to_dict() for p in self.parts]}

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
        return None if eff is None else Stable(eff)

    def increment(self, rng, dt):
        v = np.asarray(dt, dtype=float)
        for part in reversed(self.parts):
            v = part.increment(rng, v)
        return v

    def hitting(self):
        stable = self.mixing_law()
        return _InverseComposition(self) if stable is None else stable.hitting()


@dataclass(frozen=True)
class InverseOf(SubordinatorSpec):
    base: SubordinatorSpec

    def __post_init__(self):
        if isinstance(self.base, InverseOf):
            raise DomainError("inverse of an inverse is not supported")
        if not isinstance(self.base, SubordinatorSpec):
            raise DomainError("inverse needs a SubordinatorSpec base")

    def to_dict(self):
        return {"type": "inverse", "base": self.base.to_dict()}

    def mixing_law(self):
        return self.base.hitting().mixing_law()

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
    path is one first-passage walk for the whole count, not blocks: the
    walk's Python loop costs the same per call whatever its size."""

    base: SubordinatorSpec

    def draw(self, rng, t, n):
        return self.path(rng, np.array([t]), n)[:, 0]


class _InverseComposition(_Hitting):
    """Inverse of a composition that is not stable: no density, and paths as
    the composition of the parts' inverses.  D = P_0(P_1(...)) passes level t
    when P_1(...) passes E_0(t), because P_0 has no drift and so does not
    creep over t; hence E(t) = ...E_1(E_0(t)).  The outermost part's route
    runs on the grid, each next one on the previous matrix, row by row."""

    def mixing_law(self):
        return None

    def path(self, rng, t_grid, paths):
        levels = t_grid
        for part in self.base.parts:
            levels = part.hitting().path(rng, levels, paths)
        return levels


class _InverseStable(_Hitting):
    """Inverse stable clock: density and single-t draws by scaling, exact
    paths (a Brownian running maximum at index 1/2, else first passages)."""

    def mixing_law(self):
        # past the stable engine's index (`stable._BETA_MAX`) no density serves
        # the clock, and `auto_method` takes Monte Carlo
        return None if self.base.beta > _BETA_MAX else self

    def density(self, x, t):
        return inverse_stable_density(x, t, self.base.beta)

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

    mixing_law = _InverseStable.mixing_law

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


def spec_from_dict(d: dict) -> SubordinatorSpec:
    if not isinstance(d, dict) or "type" not in d:
        raise DomainError("spec object must be a dict with a 'type' field")
    kind = d["type"]
    try:
        if kind == "ig":
            return InverseGaussian(float(d["delta"]), float(d["gamma"]))
        if kind == "stable":
            return Stable(float(d["beta"]))
        if kind == "tempered":
            return TemperedStable(float(d["beta"]), float(d["mu"]))
        if kind == "compose":
            return Composition(tuple(spec_from_dict(p) for p in d["parts"]))
        if kind == "inverse":
            return InverseOf(spec_from_dict(d["base"]))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DomainError):  # a part's own error, already worded
            raise
        raise DomainError(f"spec of type '{kind}' has a missing or malformed field: "
                          f"{exc!r}") from exc
    raise DomainError(f"unknown spec type '{kind}'")


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
