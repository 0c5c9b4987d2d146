"""One conformance table for the law of every clock.

Each row is a clock, given as data (`Row`): the clock, its density and cdf
evaluators, its mass below x and its survivor P(X(t) > x), both read without
a complement so that a mass near e^-45 is not rounded away, and which ends of
its node window are Chernoff ends.  An inverse row also holds its base's row.
Each column is one identity, tested once on every row it applies to, with
every integral on Gauss-Legendre panels (`tcpp.quadrules`):

1. the Laplace transform: on a Levy clock int e^(-s x) f(x, t) dx =
   e^(-t phi(s)), and on an inverse clock, in time, int e^(-s t) m(x, t) dt =
   (phi(s)/s) e^(-x phi(s)), phi the exponent of the row's spec or its base's;
2. density against cdf: F(b) - F(a) = int_a^b f on adjacent intervals across
   the node window, and the mass below the window, in it and past it sums to 1;
3. duality, on inverse rows: F_E(x, t) = 1 - F_D(t, x);
4. Kolmogorov-Smirnov: `sample` draws at t = 1.3 against the cdf;
5. the mean rate, on Levy rows: `mean_rate()` is phi'(0), by a complex step;
6. the window ends: each Chernoff end leaves out a mass in (e^-57, e^-45].

A row leaves a cell out only by naming it in `omit`, with the reason; each
pinned cell keeps its pin in `pins`, at about ten times the error it reaches.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest

from tcpp.quadrules import gauss_panels, linear_panel_edges, log_panel_edges
from tcpp.subordinators.densities import (
    hitting_time_cdf_ig, hitting_time_density_ig, ig_cdf, ig_density, inverse_stable_cdf,
    inverse_stable_density, inverse_tempered_cdf, inverse_tempered_density, stable_cdf,
    stable_density, tempered_stable_cdf, tempered_stable_density)
from tcpp.subordinators.sampling import sample
from tcpp.subordinators.spec import TAIL_LOG, InverseGaussian, InverseOf, Stable, TemperedStable
from tcpp.subordinators.stable import stable_unit

# 0.1% two-sided KS critical value: sqrt(-ln(alpha/2)/2) / sqrt(n)
KS_CRIT_1E3 = math.sqrt(-math.log(0.0005) / 2.0)


def ks_stat_bound(values, cdf, points=1000):
    """An upper bound on the KS statistic from the cdf at `points` order
    statistics, for cdfs that cost about a millisecond a point: between two
    of them F and the empirical cdf are nondecreasing, so each gap can hide
    no more than its own rise in both."""
    v = np.sort(values)
    n = v.size
    j = np.unique(np.linspace(0, n - 1, points).astype(np.intp))
    f = cdf(v[j])
    return max(np.max((j[1:] + 1) / n - f[:-1]), np.max(f[1:] - j[:-1] / n))


@dataclass(frozen=True)
class Row:
    """One clock of the table.  The evaluators take (x, t); `below` and
    `survivor` are P(X(t) < x) and P(X(t) > x).  `chernoff` names the window
    ends (0 left, 1 right) that are Chernoff ends, read at the Poisson cut
    `cut`; `pins` holds each pinned column's tolerance, `omit` each left-out
    column's reason, and `base` the base's row of an inverse clock."""

    name: str
    spec: object
    density: Callable
    cdf: Callable
    below: Callable
    survivor: Callable
    chernoff: tuple
    pins: dict
    omit: dict
    cut: float = 1e9
    base: Row | None = None


def _at(evaluator, *params):
    return lambda x, t: evaluator(x, t, *params)


def _name(kind, *params):
    return f"{kind}({','.join(f'{p:g}' for p in params)})".replace("e+0", "e")


def _beyond(density, t, end, reach):
    """The integral of density(., t) from `end` over `reach` (to the left
    where negative), on panels whose widths grow geometrically away from the
    end, so a mass held within a hair of it is resolved at any scale."""
    offsets = np.concatenate([[0.0], np.geomspace(abs(reach) * 1e-10, abs(reach), 80)])
    x, w = gauss_panels(np.sort(end + math.copysign(1.0, reach) * offsets))
    return float(np.sum(w * density(x, t)))


def ig_row(delta, gamma, /, chernoff=(0, 1), omit={}, **pins):
    p = (delta, gamma)
    return Row(_name("ig", *p), InverseGaussian(*p), _at(ig_density, *p), _at(ig_cdf, *p),
               _at(ig_cdf, *p), lambda x, t: hitting_time_cdf_ig(t, x, *p), chernoff, pins=pins,
               omit=omit)


def stable_row(beta, /, omit={}, **pins):
    # the right end is the Poisson cut: D(t) has no exponential moment
    sf = stable_unit(beta).sf
    return Row(_name("stable", beta), Stable(beta), _at(stable_density, beta),
               _at(stable_cdf, beta), _at(stable_cdf, beta),
               lambda x, t: float(sf(x * t ** (-1.0 / beta))[0]), (0,), pins=pins, omit=omit)


def tempered_row(beta, mu, /, omit={}, **pins):
    # the cdf's own integral starts at the window's left end, so both masses
    # outside the window are integrals of the density; a cut would only widen
    # the window past its right Chernoff end
    p = (beta, mu)
    density = _at(tempered_stable_density, *p)
    return Row(_name("tempered", *p), TemperedStable(*p), density, _at(tempered_stable_cdf, *p),
               lambda x, t: _beyond(density, t, x, -x),
               lambda x, t: _beyond(density, t, x, 300.0 / mu), (0, 1), cut=0.0, pins=pins,
               omit=omit)


def inverse_row(base, density, cdf, /, omit={}, **pins):
    """The inverse of the Levy row named `base`, its evaluators taking the
    base's parameters: P(E(t) > x) = P(D(x) < t), and the window runs from 0."""
    base = LEVY[base]
    p = astuple(base.spec)
    return Row(f"inverse-{base.name}", InverseOf(base.spec), _at(density, *p), _at(cdf, *p),
               _at(cdf, *p), lambda x, t: base.cdf(t, x), (1,), base=base, pins=pins, omit=omit)


IG_HITTING = hitting_time_density_ig, hitting_time_cdf_ig
INVERSE_STABLE = inverse_stable_density, inverse_stable_cdf
INVERSE_TEMPERED = inverse_tempered_density, inverse_tempered_cdf

# each pin is about ten times the error its cell reaches; an error below
# 1e-16, a rounding of the last bit, is pinned at 1e-15, as is the window
# cell's cdf reading where a row names no `window` pin
LEVY = {row.name: row for row in [
    ig_row(1.0, 1.0, laplace=2.6e-15, cdf=1e-15),
    ig_row(0.5, 100.0, laplace=5.6e-15, cdf=4.5e-15),
    ig_row(1.0, 1e6, laplace=1.9e-14, cdf=3.6e-13),
    # gamma = 0: the right end is the Poisson cut, and the mean is infinite
    ig_row(2.0, 0.0, chernoff=(0,), laplace=2.1e-15, cdf=1.3e-14),
    stable_row(0.1, laplace=5e-14, cdf=5.4e-14),
    stable_row(0.25, laplace=7.5e-15, cdf=6.7e-15),
    stable_row(0.3, laplace=1.1e-14, cdf=5e-15),
    stable_row(0.5, laplace=3.2e-15, cdf=7.3e-15),
    stable_row(0.7, laplace=1.8e-14, cdf=1.4e-14),
    tempered_row(0.3, 1.0, laplace=1.1e-14, cdf=1.1e-14, window=7.6e-14),
    tempered_row(0.5, 1.0, laplace=4.9e-15, cdf=3.1e-15, window=4.5e-15),
    tempered_row(0.5, 2.0, laplace=1.8e-15, cdf=3.5e-15, window=1.2e-15),
    tempered_row(0.7, 0.5, laplace=1.4e-14, cdf=1.4e-14),
    tempered_row(0.3, 400.0, laplace=3.5e-14, cdf=3e-14, window=4.3e-13),
    tempered_row(0.1, 1.0, laplace=1.3e-14, cdf=1.4e-14, window=4.2e-14),
]}
INVERSE = [
    inverse_row("ig(1,1)", *IG_HITTING, laplace=2.7e-15, cdf=2.3e-15, duality=1.2e-15),
    inverse_row("ig(0.5,100)", *IG_HITTING, laplace=1.8e-15, cdf=1.8e-14, duality=1e-15),
    inverse_row("ig(2,0)", *IG_HITTING, laplace=1.9e-15, cdf=2.1e-15, duality=1.2e-15),
    inverse_row("stable(0.25)", *INVERSE_STABLE, laplace=8.1e-15, cdf=8.9e-15, duality=1.2e-14,
                window=6.7e-15),
    inverse_row("stable(0.3)", *INVERSE_STABLE, laplace=1.1e-14, cdf=6.7e-15, duality=8.9e-15,
                window=4.5e-15),
    inverse_row("stable(0.5)", *INVERSE_STABLE, laplace=3.4e-15, cdf=1.3e-15, duality=3.9e-15),
    inverse_row("stable(0.7)", *INVERSE_STABLE, laplace=1.9e-14, cdf=1.4e-14, duality=1.3e-14,
                window=1.2e-14),
    inverse_row("tempered(0.5,2)", *INVERSE_TEMPERED, laplace=1.9e-15, cdf=2.8e-15,
                duality=4.5e-15),
    inverse_row("tempered(0.5,1)", *INVERSE_TEMPERED, laplace=2.8e-15, cdf=1.2e-15,
                duality=4.5e-15),
    inverse_row("tempered(0.3,1)", *INVERSE_TEMPERED, laplace=5.2e-14, cdf=8.9e-15,
                duality=1e-15),
    inverse_row("tempered(0.7,0.5)", *INVERSE_TEMPERED, laplace=1.5e-14, cdf=1.2e-14,
                duality=1e-15),
    inverse_row("tempered(0.3,400)", *INVERSE_TEMPERED, laplace=1.8e-12, cdf=4.8e-11,
                duality=1e-15,
                omit={"ks": "a draw takes 1.3 ms: 10^5 of them over two minutes"}),
]
ROWS = [*LEVY.values(), *INVERSE]


def _cells(rows, column):
    return [pytest.param(row, id=row.name) for row in rows if column not in row.omit]


def window(row, t):
    """(x_lo, x_hi): the row's node window at the single time t, its ends
    mapped to x by the clock's own `weighted`; x_lo is 0 for a window from 0."""
    law = row.spec.mixing_law()
    lo, hi = law.window(t, t, row.cut)
    ends = np.array([hi] if lo is None else [lo, hi])
    x = law.weighted(SimpleNamespace(nodes=ends, weights=np.ones(ends.size),
                                     dens=law.rule_density(ends)), t)[0]
    return (0.0 if lo is None else float(x[0])), float(x[-1])


def _edges(lo, hi):
    """64 panel edges across [lo, hi]: log-spaced, or even from lo = 0."""
    return linear_panel_edges(0.0, hi, 64) if lo == 0.0 else log_panel_edges(lo, hi, 64)


def _transform_error(u, wf, want):
    """The largest relative error of sum(wf e^(-s u)) against want(s), s in {0.5, 2}."""
    return max(abs(np.sum(wf * np.exp(-s * u)) - want(s)) / want(s) for s in (0.5, 2.0))


@pytest.mark.parametrize("row", _cells(LEVY.values(), "laplace"))
def test_laplace_transform(row):
    # int e^(-s x) f(x, t) dx = e^(-t phi(s)) across the window at t: past
    # it lies at most e^-45 of the mass, or the cut x > 1e9
    for t in (0.5, 2.0):
        x, w = gauss_panels(_edges(*window(row, t)))
        err = _transform_error(x, w * row.density(x, t),
                               lambda s: math.exp(-t * row.spec.phi(s).real))
        assert err <= row.pins["laplace"], (t, err)


@pytest.mark.parametrize("row", _cells(INVERSE, "laplace"))
def test_laplace_transform_in_time(row):
    # int e^(-s t) m(x, t) dt = (phi(s)/s) e^(-x phi(s)), phi the base's
    # exponent, across the base's window at time x: left of it m(x, t) is
    # below e^-45, as P(D(x) < t) is, and right of it e^(-s t) or P(D(x) > t)
    phi = row.base.spec.phi
    for x in (0.5, 2.0):
        t, w = gauss_panels(_edges(*window(row.base, x)))
        err = _transform_error(t, w * row.density(x, t),
                               lambda s: phi(s).real / s * math.exp(-x * phi(s).real))
        assert err <= row.pins["laplace"], (x, err)


@pytest.mark.parametrize("row", _cells(ROWS, "cdf"))
def test_density_integrates_to_the_cdf(row):
    # F(b) - F(a) = int_a^b f on 8 adjacent intervals across the window, and
    # the masses below, in and past the window sum to 1
    for t in (0.5, 2.0):
        lo, hi = window(row, t)
        edges = _edges(lo, hi)
        x, w = gauss_panels(edges)
        mass = (w * row.density(x, t)).reshape(8, -1).sum(axis=1)
        err = max(np.max(np.abs(np.diff(row.cdf(edges[::8], t)) - mass)),
                  abs(row.below(lo, t) + mass.sum() + row.survivor(hi, t) - 1.0))
        assert err <= row.pins["cdf"], (t, err)


@pytest.mark.parametrize("row", _cells(INVERSE, "duality"))
def test_duality(row):
    # F_E(x, t) = 1 - F_D(t, x) on a lattice of x and t in [0.4, 2]
    x = np.linspace(0.4, 2.0, 5)
    err = np.max(np.abs(row.cdf(x[:, None], x) - (1.0 - row.base.cdf(x, x[:, None]))))
    assert err <= row.pins["duality"], err


@pytest.mark.parametrize("row", _cells(ROWS, "ks"))
def test_draws_follow_the_cdf(row):
    n = 100_000
    # at t = 1.3, so that a wrong power of t in a sampler's scaling shows
    values = sample(row.spec, 1.3, n, seed=2025).values
    assert ks_stat_bound(values, lambda v: row.cdf(v, 1.3)) < KS_CRIT_1E3 / math.sqrt(n)


@pytest.mark.parametrize("row", _cells(LEVY.values(), "rate"))
def test_mean_rate_is_the_slope_of_phi_at_zero(row):
    # phi'(0) by a complex step where the rate is finite; where it is not,
    # phi(h)/h grows as h falls, at least like h^(beta - 1) for beta <= 0.9
    rate, phi = row.spec.mean_rate(), row.spec.phi
    if rate < math.inf:
        assert phi(1e-20j).imag / 1e-20 == pytest.approx(rate, rel=1e-15, abs=0.0)
    else:
        assert phi(1e-7).real / 1e-7 > 1.5 * phi(1e-5).real / 1e-5


@pytest.mark.parametrize("row", _cells(ROWS, "window"))
def test_chernoff_ends_leave_out_at_most_the_tail_bound(row):
    for t in (0.1, 1.0, 20.0):
        lo, hi = window(row, t)
        outside = (row.below(lo, t), row.survivor(hi, t))
        # the row's own cdf, read with the complement, rounds that mass to 0
        # but for its last bits
        by_cdf = (row.cdf(lo, t), 1.0 - row.cdf(hi, t))
        for end in row.chernoff:
            assert math.exp(-TAIL_LOG - 12.0) < outside[end] <= math.exp(-TAIL_LOG), (t, end)
            assert abs(by_cdf[end]) <= row.pins.get("window", 1e-15), (t, end, by_cdf[end])
