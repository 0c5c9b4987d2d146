"""Samplers: reproducibility, transform oracles, KS conformance, duality."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import betainc, erf, ndtri
from scipy.stats import ks_2samp

from tcpp.errors import DomainError
from tcpp.quadrules import gauss_panels, log_panel_edges
from tcpp.subordinators.densities import (
    hitting_time_cdf_ig,
    ig_cdf,
    ig_density,
    inverse_stable_cdf,
    inverse_tempered_cdf,
    stable_cdf,
    stable_density,
    tempered_half_as_ig,
    tempered_stable_cdf,
    tempered_stable_density,
)
from tcpp.subordinators.sampling import (
    _DRAW_BLOCK,
    _SQUEEZE_BINS,
    _log_a_floor,
    _sample_ig,
    _sample_ig_hitting,
    _sample_stable,
    _sample_stable_passages,
    _sample_tempered,
    _sample_tilted_iid,
    rng_stream,
    sample,
    sample_path,
)
from tcpp.subordinators import sampling as sampling_module
from tcpp.subordinators import spec as spec_module
from tcpp.subordinators.spec import (
    Composition,
    InverseGaussian,
    InverseOf,
    Stable,
    TemperedStable,
    flatten_stable_composition,
)
from tcpp.subordinators.stable import log_zolotarev_a, stable_unit
from tcpp.timechange import _talbot, pmf_monte_carlo, pmf_table, table_cache

# 0.1% two-sided KS critical value: sqrt(-ln(alpha/2)/2) / sqrt(n)
KS_CRIT_1E3 = math.sqrt(-math.log(0.0005) / 2.0)


def _ks_stat(values, cdf):
    v = np.sort(values)
    n = v.size
    f = cdf(v)
    up = np.max(np.arange(1, n + 1) / n - f)
    dn = np.max(f - np.arange(0, n) / n)
    return max(up, dn)


def _ks_stat_bound(values, cdf, points=1000):
    """An upper bound on _ks_stat from the cdf at `points` order statistics,
    for cdfs that cost about a millisecond a point: between two of them F
    and the empirical cdf are nondecreasing, so each gap can hide no more
    than its own rise in both."""
    v = np.sort(values)
    n = v.size
    j = np.unique(np.linspace(0, n - 1, points).astype(np.intp))
    f = cdf(v[j])
    return max(np.max((j[1:] + 1) / n - f[:-1]), np.max(f[1:] - j[:-1] / n))


def _ks_2samp_ok(a, b):
    n, m = len(a), len(b)
    return ks_2samp(a, b).statistic < KS_CRIT_1E3 * math.sqrt((n + m) / (n * m))


def _emp_lt(values, s):
    e = np.exp(-s * values)
    return float(e.mean()), float(e.std(ddof=1) / math.sqrt(e.size))


def _assert_hitting_moments(values, base, t):
    # E E(t) and E E(t)^2 have the transforms 1/(s phi(s)) and 2/(s phi(s)^2)
    for p in (1, 2):
        want = _talbot(lambda s: p / (s * base.phi(s) ** p), t, 32)
        v = values ** p
        assert abs(v.mean() - want) <= 4.0 * v.std(ddof=1) / math.sqrt(v.size)


class TestReproducibility:
    def test_same_seed_identical(self):
        a = sample(Stable(0.5), 1.0, 256, seed=11)
        b = sample(Stable(0.5), 1.0, 256, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_streams_disjoint(self):
        # `sample` draws the clock from stream 0; the counts take stream 1
        a = Stable(0.5).draw(rng_stream(11, 0), 1.0, 256)
        b = Stable(0.5).draw(rng_stream(11, 1), 1.0, 256)
        assert not np.array_equal(a, b)
        assert np.array_equal(sample(Stable(0.5), 1.0, 256, seed=11).values, a)

    def test_batch_fields(self):
        batch = sample(InverseGaussian(1.0, 1.0), 2.0, 64, seed=5)
        assert batch.t == 2.0 and batch.seed == 5
        assert np.all(batch.values >= 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample(Stable(0.5), 0.0, 10, seed=1)
        with pytest.raises(DomainError):
            sample(Stable(0.5), 1.0, 0, seed=1)

    @pytest.mark.parametrize("rtol", [0.0, -1e-3, 1.0, float("nan"), float("inf")])
    def test_rtol_domain(self, rtol):
        with pytest.raises(DomainError):
            sample(InverseOf(TemperedStable(0.3, 1.0)), 1.0, 10, seed=1, rtol=rtol)
        with pytest.raises(DomainError):
            sample_path(InverseOf(Stable(0.5)), np.array([0.5, 1.0]), 4, seed=1, rtol=rtol)


class TestTransformOracles:
    def test_ig_laplace(self):
        vals = sample(InverseGaussian(1.0, 1.0), 1.0, 200_000, seed=42).values
        m, se = _emp_lt(vals, 1.0)
        assert abs(m - math.exp(1.0 - math.sqrt(3.0))) <= 4.0 * se

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.7])
    def test_stable_laplace(self, beta):
        vals = sample(Stable(beta), 1.0, 200_000, seed=7).values
        m, se = _emp_lt(vals, 1.0)
        assert abs(m - math.exp(-1.0)) <= 4.0 * se

    def test_tempered_laplace(self):
        vals = sample(TemperedStable(0.5, 1.0), 1.0, 200_000, seed=3).values
        m, se = _emp_lt(vals, 1.0)
        assert abs(m - math.exp(-(math.sqrt(2.0) - 1.0))) <= 4.0 * se

    @pytest.mark.parametrize("spec", [
        TemperedStable(0.3, 1.0),
        TemperedStable(0.7, 2.0),
        Composition((Stable(0.7), Stable(0.4))),
    ], ids=["tempered(0.3,1)", "tempered(0.7,2)", "stable(0.7)*stable(0.4)"])
    def test_general_index_laplace(self, spec):
        # index 1/2 takes the IG sampler: these keep the Kanter and tilting
        # samplers under test
        vals = sample(spec, 1.0, 200_000, seed=23).values
        for s in (0.5, 2.0):
            m, se = _emp_lt(vals, s)
            assert abs(m - math.exp(-spec.phi(s).real)) <= 4.0 * se

    def test_composition_closure(self):
        # two 1/2-stable clocks compose to index 1/4: LT exp(-t s^(1/4))
        spec = Composition((Stable(0.5), Stable(0.5)))
        vals = sample(spec, 1.0, 200_000, seed=9).values
        for s in (0.5, 1.0, 2.0):
            m, se = _emp_lt(vals, s)
            assert abs(m - math.exp(-(s ** 0.25))) <= 4.0 * se

    def test_asymmetric_composition_laplace(self):
        # IG(1,1) run on a tempered(0.4,1) clock: exponent phi_T(phi_IG(s)),
        # which the mirrored order phi_IG(phi_T(s)) misses by tens of SE
        spec = Composition((InverseGaussian(1.0, 1.0), TemperedStable(0.4, 1.0)))
        vals = sample(spec, 1.0, 200_000, seed=17).values
        for s in (0.5, 1.0, 2.0):
            m, se = _emp_lt(vals, s)
            assert abs(m - math.exp(-spec.phi(s).real)) <= 4.0 * se

    def test_inverse_stable_mittag_leffler(self):
        from oracles.transforms import mittag_leffler

        vals = sample(InverseOf(Stable(0.5)), 1.0, 200_000, seed=13).values
        m, se = _emp_lt(vals, 1.0)
        assert abs(m - mittag_leffler(0.5, -1.0)) <= 4.0 * se

    def test_iterated_count_laplace(self):
        # E exp(-s N(D^(n)(t))) = exp(-t (lam (1 - e^-s))^(1/2^n)), n = 1, 2
        lam, s, t = 1.0, 1.0, 1.0
        for n, spec in ((1, Stable(0.5)), (2, Composition((Stable(0.5), Stable(0.5))))):
            clock = sample(spec, t, 200_000, seed=31 + n).values
            rng = rng_stream(31 + n, 1)
            counts = rng.poisson(np.minimum(lam * clock, 1e12))
            e = np.exp(-s * counts)
            m, se = float(e.mean()), float(e.std(ddof=1) / math.sqrt(e.size))
            want = math.exp(-t * (lam * (1.0 - math.exp(-s))) ** (0.5 ** n))
            assert abs(m - want) <= 4.0 * se


class TestKolmogorovSmirnov:
    N = 10_000

    def test_ig(self):
        vals = sample(InverseGaussian(1.0, 1.0), 1.0, self.N, seed=101).values
        stat = _ks_stat(vals, lambda v: ig_cdf(v, 1.0, 1.0, 1.0))
        assert stat < KS_CRIT_1E3 / math.sqrt(self.N)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.7])
    def test_stable(self, beta):
        vals = sample(Stable(beta), 1.3, self.N, seed=103).values
        stat = _ks_stat(vals, lambda v: stable_cdf(v, 1.3, beta))
        assert stat < KS_CRIT_1E3 / math.sqrt(self.N)

    def test_tempered(self):
        vals = sample(TemperedStable(0.5, 1.0), 1.0, self.N, seed=105).values
        stat = _ks_stat(
            vals, lambda v: np.array([tempered_stable_cdf(x, 1.0, 0.5, 1.0) for x in v])
        )
        assert stat < KS_CRIT_1E3 / math.sqrt(self.N)

    def test_inverse_stable(self):
        # E(t) for beta = 1/2 is |N(0, 2t)|: CDF erf(x / (2 sqrt(t)))
        vals = sample(InverseOf(Stable(0.5)), 1.0, self.N, seed=107).values
        stat = _ks_stat(vals, lambda v: erf(v / 2.0))
        assert stat < KS_CRIT_1E3 / math.sqrt(self.N)

    def test_ig_hitting(self):
        vals = sample(InverseOf(InverseGaussian(1.0, 1.0)), 1.0, self.N, seed=109).values
        stat = _ks_stat(vals, lambda v: hitting_time_cdf_ig(v, 1.0, 1.0, 1.0))
        assert stat < KS_CRIT_1E3 / math.sqrt(self.N)

    def test_inverse_tempered_half(self):
        # tempered(1/2, 1) is IG(1/sqrt 2, sqrt 2): its hitting time is drawn exactly
        vals = sample(InverseOf(TemperedStable(0.5, 1.0)), 1.0, self.N, seed=111).values
        stat = _ks_stat(
            vals, lambda v: np.array([inverse_tempered_cdf(x, 1.0, 0.5, 1.0) for x in v])
        )
        assert stat < KS_CRIT_1E3 / math.sqrt(self.N)


class TestSmallIGSteps:
    """The IG two-root draw where gamma delta dt << Z^2: its smaller root is
    formed without a difference that cancels."""

    STEPS = np.geomspace(1e-12, 1.0, 13)

    def test_draws_are_nonnegative(self):
        for dt in self.STEPS:
            vals = _sample_ig(rng_stream(151, 0), np.full(200_000, dt), 1.0, 1.0)
            assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0), dt

    def test_path_rows_are_nondecreasing(self):
        grids = [np.linspace(a, 4.0 * a, 4) for a in self.STEPS[::3]]
        for grid in grids + [self.STEPS]:
            paths = sample_path(InverseGaussian(1.0, 1.0), grid, 5000, seed=1)
            assert np.all(paths >= 0.0) and np.all(np.diff(paths, axis=1) >= 0.0), grid

    @pytest.mark.parametrize("dt", [1e-6, 1.0])
    def test_draws_follow_the_ig_law(self, dt):
        n = 10_000
        vals = _sample_ig(rng_stream(153, 0), np.full(n, dt), 1.0, 1.0)
        stat = _ks_stat(vals, lambda v: ig_cdf(v, dt, 1.0, 1.0))
        assert stat < KS_CRIT_1E3 / math.sqrt(n)


class TestIndexHalfRoutes:
    def test_large_tilt_finishes_with_the_right_mean(self):
        # mu^beta t = 15: tilting rejection would accept one proposal in 3e6
        b, mu, t, n = 0.5, 100.0, 1.5, 1000
        vals = sample(TemperedStable(b, mu), t, n, seed=1).values
        se = math.sqrt(t * b * (1.0 - b) * mu ** (b - 2.0) / n)
        assert abs(vals.mean() - t * b * mu ** (b - 1.0)) <= 4.0 * se

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ig_hitting_draw_is_the_one_cell_path(self, seed):
        # the single-t running-maximum draw as first written, one normal and
        # one uniform per value: the grid sampler's one-cell case repeats it
        delta, gamma, t, n = 1.3, 0.7, 1.7, 500
        rng = rng_stream(seed, 0)
        z = rng.standard_normal(n)
        u = rng.random(n)
        t_b = np.full(n, t)
        x_end = gamma * t_b + np.sqrt(t_b) * z
        m = 0.5 * (x_end + np.sqrt(x_end * x_end - 2.0 * t_b * np.log(np.maximum(u, 1e-300))))
        got = sample(InverseOf(InverseGaussian(delta, gamma)), t, n, seed=seed).values
        assert np.array_equal(got, m / delta)


class TestExactPaths:
    N = 10_000
    GRID = np.array([0.1, 0.3, 0.7, 1.2, 2.0, 3.5])

    @pytest.mark.parametrize("base, cdf", [
        (InverseGaussian(1.0, 1.0), lambda v, t: hitting_time_cdf_ig(v, t, 1.0, 1.0)),
        (TemperedStable(0.5, 1.0),
         lambda v, t: hitting_time_cdf_ig(v, t, *tempered_half_as_ig(1.0))),
        (Stable(0.5), lambda v, t: erf(v / (2.0 * math.sqrt(t)))),
    ], ids=["ig(1,1)", "tempered(0.5,1)", "stable(0.5)"])
    def test_columns_follow_the_hitting_law(self, base, cdf):
        paths = sample_path(InverseOf(base), self.GRID, self.N, seed=61)
        assert np.all(np.diff(paths, axis=1) >= 0)
        for j, t in enumerate(self.GRID):
            stat = _ks_stat(paths[:, j], lambda v: cdf(v, t))
            assert stat < KS_CRIT_1E3 / math.sqrt(self.N)

    @pytest.mark.parametrize("base, density, cdf", [
        (InverseGaussian(1.0, 1.0), lambda y, x: ig_density(y, x, 1.0, 1.0),
         lambda y, x: ig_cdf(y, x, 1.0, 1.0)),
        (Stable(0.5), lambda y, x: stable_density(y, x, 0.5),
         lambda y, x: stable_cdf(y, x, 0.5)),
        (Stable(0.3), lambda y, x: stable_density(y, x, 0.3),
         lambda y, x: stable_cdf(y, x, 0.3)),
        (Stable(0.7), lambda y, x: stable_density(y, x, 0.7),
         lambda y, x: stable_cdf(y, x, 0.7)),
        (TemperedStable(0.3, 1.0), lambda y, x: tempered_stable_density(y, x, 0.3, 1.0),
         lambda y, x: tempered_stable_cdf(y, x, 0.3, 1.0)),
    ], ids=["ig(1,1)", "stable(0.5)", "stable(0.3)", "stable(0.7)", "tempered(0.3,1)"])
    def test_increments_match_the_walk(self, base, density, cdf):
        # the joint law over the grid, not just each column, against the
        # base's own walk D at two levels: E(t) > x iff D(x) <= t, and
        # D(x_j) - D(x_i) is an independent increment, so
        # P(E(t_i) > x_i, E(t_j) > x_j) = int_0^t_i f(y; x_i) F(t_j - y; x_j - x_i) dy
        grid = np.array([0.5, 1.0, 2.0])
        exact = sample_path(InverseOf(base), grid, self.N, seed=9)
        for i, j in ((0, 1), (1, 2), (0, 2)):
            for q in (0.25, 0.5, 0.75):
                x_i, x_j = np.quantile(exact[:, i], q), np.quantile(exact[:, j], q)
                assert x_i < x_j
                y, w = gauss_panels(log_panel_edges(1e-12 * grid[i], grid[i], 20), 12)
                want = float(np.sum(w * density(y, x_i) * cdf(grid[j] - y, x_j - x_i)))
                got = float(np.mean((exact[:, i] > x_i) & (exact[:, j] > x_j)))
                assert abs(got - want) <= 4.0 * math.sqrt(want * (1.0 - want) / self.N)

    @pytest.mark.parametrize("base", [
        Stable(0.5), Stable(0.3), Stable(0.7), TemperedStable(0.3, 1.0),
        Composition((InverseGaussian(1.0, 1.0), TemperedStable(0.4, 1.0))),
    ], ids=["stable(0.5)", "stable(0.3)", "stable(0.7)", "tempered(0.3,1)",
            "ig(1,1)*tempered(0.4,1)"])
    def test_widely_spread_levels(self, base):
        # a sampler with a start scale set by the last level would bias the
        # first column here; no route has one.  Exact CDFs:
        # P(E(t) <= x) = P(D(1) > t x^(-1/beta)) for stable bases, and
        # inverse_tempered_cdf up to t = 5; elsewhere the first two moments
        n, grid = 5000, np.array([0.01, 100.0])
        paths = sample_path(InverseOf(base), grid, n, seed=5)
        for j, t in enumerate(grid):
            if isinstance(base, Stable):
                sf = stable_unit(base.beta).sf
                stat = _ks_stat(paths[:, j], lambda v: sf(t * v ** (-1.0 / base.beta)))
            elif isinstance(base, TemperedStable) and t <= 5.0:
                stat = _ks_stat_bound(
                    paths[:, j], lambda v: inverse_tempered_cdf(v, t, base.beta, base.mu))
            else:
                _assert_hitting_moments(paths[:, j], base, t)
                continue
            assert stat < KS_CRIT_1E3 / math.sqrt(n)

    def test_stable_composition_takes_its_product_index(self):
        grid = np.array([0.5, 1.0, 2.0])
        spec = InverseOf(Composition((Stable(0.5), Stable(0.5))))
        paths = sample_path(spec, grid, 1000, seed=3, rtol=2e-3)
        exact = sample(InverseOf(Stable(0.25)), 2.0, self.N, seed=4).values
        assert _ks_2samp_ok(paths[:, -1], exact)


class _Pools(list):
    """The `_Pool`s the first-passage paths make, in order; a path's first
    pool holds its passages.  A pool counts the values it hands out (`taken`)
    and its refills (`fills`); a passage pool that hands out more than `limit`
    stops its path."""

    limit = math.inf


@pytest.fixture
def pools(monkeypatch):
    made = _Pools()

    class CountingPool(sampling_module._Pool):
        def __init__(self, fill):
            def counted(m):
                self.fills += 1
                return fill(m)
            super().__init__(counted)
            self.taken = self.fills = 0
            made.append(self)

        def take(self, k):
            self.taken += k
            assert self is not made[0] or self.taken <= made.limit, "the path stalled"
            return super().take(k)

    monkeypatch.setattr(sampling_module, "_Pool", CountingPool)
    return made


class _FlushLandings:
    """A generator with undershoot B = 1 and V = 1: every passage lands at
    pos + (level - pos) in floating point, which can round below the level.
    Every Esscher exponential is infinite, so every tilted step is accepted."""

    def beta(self, a, b, size):
        return np.ones(size)

    def random(self, size):
        return np.zeros(size)

    def gamma(self, shape, size):
        return np.ones(size)

    def standard_exponential(self, size):
        return np.full(size, np.inf)


class _StoppedSteps(_FlushLandings):
    """As _FlushLandings, but every passage takes far longer than the tilt's
    h, so every step over a positive gap stops at h."""

    def gamma(self, shape, size):
        return np.full(size, 1e300)


PASSAGE_LEVELS = np.array([0.01, 0.5, 1.0, 100.0])
PASSAGE_SPECS = [InverseOf(Stable(0.3)), InverseOf(Stable(0.7)),
                 InverseOf(Composition((Stable(0.5), Stable(0.5))))]
PASSAGE_IDS = ["stable(0.3)", "stable(0.7)", "stable(0.5)*stable(0.5)"]


class TestInverseStablePassages:
    """Inverse stable paths of index != 1/2, drawn one first passage at a time."""

    N = 20_000

    @pytest.fixture(scope="class", params=PASSAGE_SPECS, ids=PASSAGE_IDS)
    def drawn(self, request):
        spec = request.param
        return spec, sample_path(spec, PASSAGE_LEVELS, self.N, seed=71)

    def test_columns_match_the_single_t_draws(self, drawn):
        spec, paths = drawn
        for j, t in enumerate(PASSAGE_LEVELS):
            exact = sample(spec, t, self.N, seed=72 + j).values
            assert _ks_2samp_ok(paths[:, j], exact)

    def test_ties_follow_the_arcsine_law(self, drawn):
        # E(t_i) = E(t_j) iff no passage lands in (t_i, t_j], iff the
        # undershoot at t_j is below t_i: P = I_{t_i/t_j}(beta, 1 - beta)
        spec, paths = drawn
        b = flatten_stable_composition(spec.base)
        for i in range(PASSAGE_LEVELS.size - 1):
            want = betainc(b, 1.0 - b, PASSAGE_LEVELS[i] / PASSAGE_LEVELS[i + 1])
            got = float(np.mean(paths[:, i] == paths[:, i + 1]))
            assert abs(got - want) <= 4.0 * math.sqrt(want * (1.0 - want) / self.N)

    def test_moments(self, drawn):
        # E E(t) = t^b / Gamma(1+b), E E(t)^2 = 2 t^(2b) / Gamma(1+2b)
        spec, paths = drawn
        b = flatten_stable_composition(spec.base)
        for j, t in enumerate(PASSAGE_LEVELS):
            col = paths[:, j]
            for p, want in ((1, t ** b / math.gamma(1.0 + b)),
                            (2, 2.0 * t ** (2.0 * b) / math.gamma(1.0 + 2.0 * b))):
                v = col ** p
                assert abs(v.mean() - want) <= 4.0 * v.std(ddof=1) / math.sqrt(self.N)

    def test_rows_nondecreasing_and_seeded(self, drawn):
        spec, paths = drawn
        assert paths.shape == (self.N, PASSAGE_LEVELS.size)
        assert np.all(np.isfinite(paths)) and np.all(paths > 0)
        assert np.all(np.diff(paths, axis=1) >= 0)
        grid = np.geomspace(0.01, 100.0, 16)
        a = sample_path(spec, grid, 64, seed=5)
        assert np.array_equal(a, sample_path(spec, grid, 64, seed=5))
        assert not np.array_equal(a, sample_path(spec, grid, 64, seed=6))

    @pytest.mark.parametrize("spec", PASSAGE_SPECS, ids=PASSAGE_IDS)
    def test_never_walks_and_bounds_its_passages(self, spec, pools):
        # each round of passages covers at least one level of every path
        # still drawing, and takes one passage a path from the pool
        paths, grid = 256, np.geomspace(0.01, 100.0, 64)
        got = spec.path(rng_stream(3, 0), grid, paths)
        assert 0 < pools[0].taken <= paths * grid.size
        assert np.array_equal(got, sample_path(spec, grid, paths, seed=3))

    def test_a_landing_below_its_level_still_covers_it(self, pools):
        # the second passage lands one rounding short of its level: without
        # the guard the path would pass the same level again
        levels = np.array([0.7283449608802397, 6.365520464819748])
        assert levels[0] + (levels[1] - levels[0]) < levels[1]
        paths = _sample_stable_passages(_FlushLandings(), levels, 0.7, 3)
        assert pools[0].taken == 3 * levels.size
        assert np.all(paths[:, 1] > paths[:, 0])

    @pytest.mark.parametrize("beta", [0.3, 0.7])
    def test_paths_that_refill_their_pool_keep_the_law(self, beta, pools):
        # 2000 paths take a pool of 8064 passages, and far levels need more:
        # the passages after a refill must follow the law as the first ones
        n, levels = 2000, np.geomspace(0.01, 100.0, 9)
        paths = sample_path(InverseOf(Stable(beta)), levels, n, seed=131)
        assert pools[0].fills > 1
        for j, t in enumerate(levels):
            stat = _ks_stat_bound(paths[:, j], np.vectorize(
                lambda x: inverse_stable_cdf(x, t, beta) if x > 0 else 0.0), 200)
            assert stat < KS_CRIT_1E3 / math.sqrt(n), (t, stat)


class TestTiltedPassages:
    """Inverse tempered clocks of index != 1/2: stable passages stopped at
    mu^-beta and accepted with their Esscher weight."""

    @pytest.mark.parametrize("beta, mu, t", [
        (0.3, 1.0, 1.0), (0.7, 1.0, 1.0), (0.3, 20.0, 0.5), (0.7, 2.0, 5.0),
    ])
    def test_draws_follow_the_hitting_law(self, beta, mu, t):
        # inverse_tempered_cdf is exact up to t = 5
        n = 20_000
        vals = sample(InverseOf(TemperedStable(beta, mu)), t, n, seed=113).values
        stat = _ks_stat_bound(vals, lambda v: inverse_tempered_cdf(v, t, beta, mu), 2000)
        assert stat < KS_CRIT_1E3 / math.sqrt(n)

    def test_paths_that_refill_their_pools_keep_the_law(self, pools):
        # 2000 paths at about e mu t / beta steps each refill their passage
        # pool many times, and stopped steps refill their stable(h) pool
        beta, mu, n, levels = 0.7, 1.0, 2000, np.geomspace(0.01, 100.0, 9)
        paths = sample_path(InverseOf(TemperedStable(beta, mu)), levels, n, seed=137)
        assert pools[0].fills > 1 and pools[1].fills > 1
        for j, t in enumerate(levels):
            stat = _ks_stat_bound(paths[:, j],
                                  lambda v: inverse_tempered_cdf(v, t, beta, mu), 200)
            assert stat < KS_CRIT_1E3 / math.sqrt(n), (t, stat)

    def test_a_stopped_step_that_rounds_past_its_level_still_covers_it(self, monkeypatch,
                                                                       pools):
        # the second stopped step takes its whole gap, and 2.17 + 5.07 rounds
        # past the level: the next gap must read 0, not a negative number
        # whose passage is NaN and rejected forever
        level = 7.2478994077353365
        assert 0.3 * level + (level - 0.3 * level) > level
        fractions = [0.3, 1.0]
        monkeypatch.setattr(sampling_module, "_sample_stable_below",
                            lambda pool, cap: cap * fractions.pop(0))
        pools.limit = 3
        paths = _sample_stable_passages(_StoppedSteps(), np.array([level]), 0.3, 1, 1.0)
        assert pools[0].taken == 3
        assert paths[0, 0] == 2.0  # two stopped steps of h = mu^-beta = 1


IG_ON_TEMPERED = Composition((InverseGaussian(1.0, 1.0), TemperedStable(0.4, 1.0)))


class TestInverseCompositions:
    """The inverse of a composition that is not stable, as the composition of
    its parts' inverses on per-path levels."""

    N = 10_000

    @pytest.mark.parametrize("draw", [
        lambda rng, levels: _sample_stable_passages(rng, levels, 0.7, 64),
        lambda rng, levels: _sample_stable_passages(rng, levels, 0.3, 64, 1.0),
        lambda rng, levels: _sample_ig_hitting(rng, levels, 1.0, 1.0, 64),
    ], ids=["stable(0.7)", "tempered(0.3,1)", "ig(1,1)"])
    def test_equal_rows_draw_the_shared_grid(self, draw):
        # per-path levels spend the stream as one shared grid does
        grid = np.geomspace(0.01, 100.0, 16)
        want = draw(rng_stream(3, 0), grid)
        assert np.array_equal(draw(rng_stream(3, 0), np.tile(grid, (64, 1))), want)

    def test_mean_at_t_1(self):
        spec, n = InverseOf(IG_ON_TEMPERED), 20_000
        assert spec.mixing_law() is None
        vals = sample(spec, 1.0, n, seed=115).values
        want = _talbot(lambda s: 1.0 / (s * IG_ON_TEMPERED.phi(s)), 1.0, 32)
        assert abs(want - 4.2618) < 1e-4
        assert abs(vals.mean() - want) <= 4.0 * vals.std(ddof=1) / math.sqrt(n)

    def test_stable_parts_compose_to_the_product_index(self):
        # the route itself, on parts whose composition has a known inverse:
        # stable(0.5)*stable(0.6) is stable(0.3)
        grid = np.array([0.5, 2.0])
        route = spec_module._InverseComposition(Composition((Stable(0.5), Stable(0.6))))
        paths = route.path(rng_stream(11, 0), grid, 5000)
        assert np.all(np.diff(paths, axis=1) >= 0)
        for j, t in enumerate(grid):
            exact = sample(InverseOf(Stable(0.3)), t, self.N, seed=12 + j).values
            assert _ks_2samp_ok(paths[:, j], exact)


def _tilting_reference(rng, t, beta, mu):
    """The tilting rejection without its squeeze: every proposal pays its sines."""
    t = np.asarray(t, dtype=float)
    t_flat = t.ravel()
    out, pending = np.empty(t_flat.size), np.ones(t_flat.size, dtype=bool)
    while pending.any():
        idx = np.flatnonzero(pending)
        x = _sample_stable(rng, t_flat[idx], beta)
        ok = rng.random(idx.size) <= np.exp(-mu * x)
        out[idx[ok]] = x[ok]
        pending[idx[ok]] = False
    return out.reshape(t.shape)


class _SizeRecorder:
    """A generator that forwards every draw and records the largest request."""

    def __init__(self, rng):
        self.rng, self.largest = rng, 0

    def random(self, size):
        self.largest = max(self.largest, int(np.prod(size)))
        return self.rng.random(size)

    def standard_exponential(self, size):
        self.largest = max(self.largest, int(np.prod(size)))
        return self.rng.standard_exponential(size)


def _iid_reference(rng, t, beta, mu, n):
    """The iid driver without its squeeze, in the same round sizes: every
    proposal pays its sines."""
    p, out = math.exp(-mu ** beta * t), []
    while (got := sum(x.size for x in out)) < n:
        k = min(_DRAW_BLOCK, math.ceil((n - got) / p * 1.02) + 32)
        x = _sample_stable(rng, t, beta, k)
        out.append(x[rng.random(k) <= np.exp(-mu * x)][:n - got])
    return np.concatenate(out)


SQUEEZE_BETAS = [0.1, 0.3, 0.4, 0.7, 0.9]


class TestTemperedSampler:
    @pytest.mark.parametrize("beta", SQUEEZE_BETAS)
    @pytest.mark.parametrize("mu", [0.5, 2.0, 20.0])
    def test_squeeze_keeps_the_stream(self, beta, mu):
        # every element has mu^beta t <= 2, so no element is split and the
        # squeeze must return the plain rejection loop's draws bit for bit
        t_max = 2.0 / mu ** beta
        grid = np.random.default_rng(1).uniform(1e-6, 1.0, 3000) * t_max
        cases = [
            np.full(2000, 0.9 * t_max),
            grid,
            grid[:200].reshape(50, 4),
            np.broadcast_to([1e-4, 2e-4, 3e-4], (4, 3)),
        ]
        for t in cases:
            got = _sample_tempered(rng_stream(17, 0), t, beta, mu)
            want = _tilting_reference(rng_stream(17, 0), t, beta, mu)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("beta", SQUEEZE_BETAS)
    @pytest.mark.parametrize("mu", [0.5, 2.0, 20.0])
    def test_iid_squeeze_keeps_the_stream(self, beta, mu):
        # acceptance e^-2 fills rounds at the block cap; e^-0.3 takes the
        # sized shortfall rounds
        for scale in (2.0, 0.3):
            t = scale / mu ** beta
            got = _sample_tilted_iid(rng_stream(19, 0), t, beta, mu, 5000)
            want = _iid_reference(rng_stream(19, 0), t, beta, mu, 5000)
            assert np.array_equal(got, want)

    def test_iid_rounds_stay_within_a_block(self):
        rng = _SizeRecorder(rng_stream(41, 0))
        vals = _sample_tilted_iid(rng, 2.0, 0.4, 1.0, 100_000)
        assert 0 < rng.largest <= _DRAW_BLOCK and vals.shape == (100_000,)
        # and a split draw: 151 pieces a value, 108 values a block
        rng = _SizeRecorder(rng_stream(43, 0))
        vals = TemperedStable(0.3, 400.0).draw(rng, 50.0, 1000)
        assert 0 < rng.largest <= _DRAW_BLOCK
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)

    @pytest.mark.parametrize("beta, mu, t", [
        (0.4, 1.0, 0.5), (0.4, 1.0, 2.0), (0.7, 2.0, 1.0), (0.3, 400.0, 1.0),
    ], ids=["mu^b t=0.5", "mu^b t=2", "mu^b t=1.6", "pieces"])
    def test_single_t_draws_have_the_tempered_law(self, beta, mu, t):
        n = 20_000
        vals = sample(TemperedStable(beta, mu), t, n, seed=47).values
        se = math.sqrt(t * beta * (1.0 - beta) * mu ** (beta - 2.0) / n)
        assert abs(vals.mean() - t * beta * mu ** (beta - 1.0)) <= 4.0 * se
        stat = _ks_stat_bound(vals, lambda v: tempered_stable_cdf(v, t, beta, mu))
        assert stat < KS_CRIT_1E3 / math.sqrt(n)

    @pytest.mark.parametrize("t, lam", [(0.5, 0.5), (2.0, 1.0)])
    def test_ig_on_tempered_monte_carlo_matches_the_pgf_table(self, t, lam):
        # the cells holding at least 10 expected draws one by one, the rest
        # pooled with the tail, each within 4 SE widened by Bonferroni
        spec = Composition((InverseGaussian(1.0, 1.0), TemperedStable(0.4, 1.0)))
        n = 100_000
        exact = pmf_table(t, lam, spec, method="pgf")
        kmax = int(np.flatnonzero(n * exact.values >= 10.0)[-1])
        p = exact.values[:kmax + 1]
        p = np.append(p, 1.0 - p.sum())
        table_cache.cache_clear()
        mc = pmf_monte_carlo(t, lam, spec, n, seed=53, kmax=kmax)
        q = np.append(mc.values, mc.tail_bound)
        z = -ndtri(0.5 * math.erfc(4.0 / math.sqrt(2.0)) / p.size)
        assert np.all(np.abs(q - p) <= z * np.sqrt(p * (1.0 - p) / n)), np.abs(q - p)


    @pytest.mark.parametrize("beta", SQUEEZE_BETAS)
    def test_floor_is_a_floor(self, beta):
        # bin edges of U and one ulp either side, both clip ends, and a fill
        # of uniform angles: log A never falls below its bin's floor
        edges = np.arange(_SQUEEZE_BINS) / _SQUEEZE_BINS
        u = np.concatenate([
            edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0),
            [np.nextafter(0.0, 1.0), 1e-12 / math.pi, np.nextafter(1.0, 0.0)],
        ])
        u = np.concatenate([u, np.random.default_rng(2).random(100_000 - u.size)])
        theta = np.clip(math.pi * u, 1e-12, math.pi - 1e-12)
        floor = _log_a_floor(beta)[(u * _SQUEEZE_BINS).astype(np.intp)]
        assert np.all(log_zolotarev_a(theta, beta) >= floor)

    @pytest.mark.parametrize("beta, mu, t, n", [
        (0.3, 400.0, 1.0, 20_000),
        (0.7, 20.0, 3.0, 20_000),
        (0.3, 400.0, 50.0, 10_000),
    ], ids=["mu^b t=6", "mu^b t=24", "mu^b t=302"])
    def test_pieces_have_the_tempered_law(self, beta, mu, t, n):
        vals = _sample_tempered(rng_stream(29, 0), np.full(n, t), beta, mu)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)
        mean = t * beta * mu ** (beta - 1.0)
        se = math.sqrt(t * beta * (1.0 - beta) * mu ** (beta - 2.0) / n)
        assert abs(vals.mean() - mean) <= 4.0 * se
        # s chosen so that the transform reads 0.3 and 0.7
        for want in (0.3, 0.7):
            s = (mu ** beta - math.log(want) / t) ** (1.0 / beta) - mu
            m, se_lt = _emp_lt(vals, s)
            assert abs(m - math.exp(-t * ((s + mu) ** beta - mu ** beta))) <= 4.0 * se_lt

    def test_pieces_pass_ks(self):
        # mu^beta t = 6: four pieces of 1.5.  Larger splits sit in the stable
        # engine's deep left tail, where tempered_stable_cdf is not exact.
        # Each cdf point costs about a millisecond here, hence 2000 draws
        n, t = 2000, 1.0
        vals = _sample_tempered(rng_stream(31, 0), np.full(n, t), 0.3, 400.0)
        stat = _ks_stat(vals, lambda v: tempered_stable_cdf(v, t, 0.3, 400.0))
        assert stat < KS_CRIT_1E3 / math.sqrt(n)

    def test_pieces_are_drawn_in_capped_chunks(self):
        # 1000 draws of 151 pieces each: uncapped, one request of 151000
        rng = _SizeRecorder(rng_stream(37, 0))
        vals = _sample_tempered(rng, np.full(1000, 50.0), 0.3, 400.0)
        assert 0 < rng.largest <= _DRAW_BLOCK
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)

    def test_sample_at_mu_beta_t_302(self):
        # once refused for its e^-302 acceptance; now 151 pieces of mu^beta t 2
        b, mu, t, n = 0.3, 400.0, 50.0, 2000
        vals = sample(TemperedStable(b, mu), t, n, seed=1).values
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)
        se = math.sqrt(t * b * (1.0 - b) * mu ** (b - 2.0) / n)
        assert abs(vals.mean() - t * b * mu ** (b - 1.0)) <= 4.0 * se

    def test_small_steps_in_two_dimensions(self):
        # a 2-D t once refilled only the first rows and exhausted the budget
        t = np.broadcast_to([1e-4, 2e-4, 3e-4], (4, 3))
        vals = _sample_tempered(rng_stream(3, 0), t, 0.5, 1.0)
        assert vals.shape == (4, 3)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)

    def test_two_dimensional_column_means(self):
        b, mu, n = 0.5, 1.0, 20_000
        t = np.array([0.5, 1.0, 2.0])
        vals = _sample_tempered(rng_stream(5, 0), np.broadcast_to(t, (n, 3)), b, mu)
        assert vals.shape == (n, 3)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)
        mean = t * b * mu ** (b - 1.0)
        se = np.sqrt(t * b * (1.0 - b) * mu ** (b - 2.0) / n)
        assert np.all(np.abs(vals.mean(axis=0) - mean) <= 4.0 * se)


class TestPaths:
    def test_subordinator_paths_nondecreasing(self):
        grid = np.linspace(0.1, 2.0, 24)
        for spec in (
            InverseGaussian(1.0, 1.0),
            Stable(0.5),
            TemperedStable(0.5, 1.0),
            Composition((Stable(0.5), Stable(0.5))),
        ):
            paths = sample_path(spec, grid, 16, seed=5)
            assert paths.shape == (16, 24)
            assert np.all(np.diff(paths, axis=1) >= 0)

    def test_inverse_paths_nondecreasing(self):
        grid = np.linspace(0.2, 2.0, 12)
        paths = sample_path(InverseOf(Stable(0.5)), grid, 6, seed=5, rtol=2e-3)
        assert np.all(np.diff(paths, axis=1) >= 0)
        # continuous-looking: increments stay small relative to the values
        assert np.all(np.isfinite(paths))

    def test_path_reproducibility(self):
        grid = np.linspace(0.2, 2.0, 8)
        a = sample_path(Stable(0.5), grid, 4, seed=77)
        b = sample_path(Stable(0.5), grid, 4, seed=77)
        assert np.array_equal(a, b)


class TestBlocks:
    """Single-t draws fill their batch _DRAW_BLOCK values at a time."""

    @pytest.mark.parametrize("spec", [
        InverseGaussian(1.0, 1.0),
        InverseOf(InverseGaussian(1.3, 0.7)),
        InverseOf(Stable(0.3)),
        TemperedStable(0.4, 1.0),
        Composition((InverseGaussian(1.0, 1.0), TemperedStable(0.4, 1.0))),
    ])
    def test_a_larger_batch_starts_with_the_one_block_batch(self, spec):
        big = sample(spec, 1.7, 40_000, seed=21).values
        one = sample(spec, 1.7, _DRAW_BLOCK, seed=21).values
        assert big.shape == (40_000,) and np.array_equal(big[:_DRAW_BLOCK], one)
        assert not np.array_equal(big[_DRAW_BLOCK:2 * _DRAW_BLOCK], one)

    def test_ig_hitting_draw_is_the_one_point_path_per_block(self):
        # each block of the direct draw is the grid sampler's one-cell path
        delta, gamma, t, n = 1.3, 0.7, 1.7, _DRAW_BLOCK + 300
        got = sample(InverseOf(InverseGaussian(delta, gamma)), t, n, seed=4).values
        rng = rng_stream(4, 0)
        want = np.concatenate([_sample_ig_hitting(rng, np.array([t]), delta, gamma, m)[:, 0]
                               for m in (_DRAW_BLOCK, 300)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", [
        InverseGaussian(1.0, 1.0), Stable(0.3), InverseOf(Stable(0.5))])
    def test_large_batches_peak_near_their_values(self, spec):
        # 2e6 values are 16 MB; one array per sampler step would be several times that
        n, values_mb = 2_000_000, 16e6
        table_cache.cache_clear()
        tracemalloc.start()
        try:
            batch = sample(spec, 1.0, n, seed=3)
            del batch
            sample_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            table = pmf_monte_carlo(1.0, 1.0, spec, n, seed=3)
            mc_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            table_cache.cache_clear()
        assert abs(float(np.sum(table.values)) + table.tail_bound - 1.0) <= 1e-12
        assert sample_peak < 2.0 * values_mb, sample_peak
        assert mc_peak < 2.0 * values_mb, mc_peak
