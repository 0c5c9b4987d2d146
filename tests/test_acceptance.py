"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is the one stated in the repository contract; nothing is
deferred to runtime calibration.  Run with `pytest -v tests/test_acceptance.py`
(add -s to stream the per-criterion lines as they complete).
"""

import math

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import chi2

from oracles.transforms import laplace_numeric, mittag_leffler
from tcpp.subordinators.densities import (
    hitting_time_density_ig,
    ig_density,
    inverse_stable_cdf,
    inverse_stable_density,
    inverse_tempered_cdf,
    stable_cdf,
    stable_density,
    tempered_stable_cdf,
    tempered_stable_density,
)
from tcpp.subordinators.sampling import _sample_ig, rng_stream, sample
from tcpp.subordinators.spec import (
    Composition,
    InverseGaussian,
    InverseOf,
    Stable,
    TemperedStable,
)
from tcpp.timechange import (
    moments_ig,
    pmf_bessel_ig,
    pmf_monte_carlo,
    pmf_quadrature,
    pmf_table,
    waiting_time_lt,
    waiting_time_survival,
)
from tcpp.verify.operators import central_difference
from tcpp.verify.registry import check_equation, registry_ids
from tcpp.verify.report import GridSpec

CRIT_GRID = [
    (lam, 1.0, gamma, t)
    for lam in (0.5, 2.0)
    for gamma in (0.5, 1.0)
    for t in (0.5, 1.0, 5.0)
]


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_triple_agreement():
    """Bessel closed form, quadrature, PGF inversion and Monte Carlo agree for N(G(t))."""
    worst_pair = 0.0
    worst_pgf = 0.0
    worst_z = 0.0
    n = 100_000
    for i, (lam, delta, gamma, t) in enumerate(CRIT_GRID):
        spec = InverseGaussian(delta, gamma)
        bessel = np.array([pmf_bessel_ig(k, t, lam, delta, gamma) for k in range(31)])
        quadr = np.array([pmf_quadrature(k, t, lam, spec) for k in range(31)])
        worst_pair = max(worst_pair, float(np.max(np.abs(bessel - quadr))))
        pgf = pmf_table(t, lam, spec, kmax=30, method="pgf").values
        worst_pgf = max(worst_pgf, float(np.max(np.abs(bessel - pgf))))
        mc = pmf_monte_carlo(t, lam, spec, n, seed=1000 + i, kmax=30)
        se = np.sqrt(bessel * (1.0 - bessel) / n)
        z = np.abs(mc.values - bessel) / np.maximum(se, 1e-300)
        # far-tail bins with true mass below 1/n carry no draws; the binomial
        # deviation |0 - p| <= 4 sqrt(p/n) there holds automatically
        worst_z = max(worst_z, float(np.max(z[bessel > 1e-12])))
    ok = worst_pair <= 1e-8 and worst_pgf <= 1e-12 and worst_z <= 4.0
    _report(1, "triple agreement", ok,
            f"max|bessel-quad|={worst_pair:.2e}, max|bessel-pgf|={worst_pgf:.2e}, "
            f"max MC z={worst_z:.2f}")


def test_criterion_02_closed_form_anchor():
    """pmf_bessel_ig(k=0) equals the IG Laplace transform at lambda."""
    worst = 0.0
    for lam, delta, gamma, t in CRIT_GRID:
        got = pmf_bessel_ig(0, t, lam, delta, gamma)
        want = math.exp(delta * gamma * t - delta * t * math.sqrt(gamma ** 2 + 2 * lam))
        worst = max(worst, abs(got - want))
    _report(2, "closed-form anchor", worst <= 1e-10, f"max gap={worst:.2e}")


def test_criterion_03_normalization():
    """PmfTables sum to one with their tail bound; densities integrate to one."""
    from tcpp.quadrules import gauss_panels, linear_panel_edges, log_panel_edges

    worst_table = 0.0
    for spec in (
        InverseGaussian(1.0, 1.0),
        InverseGaussian(1.0, 0.0),
        Stable(0.5),
        TemperedStable(0.5, 1.0),
        InverseOf(Stable(0.5)),
        InverseOf(InverseGaussian(1.0, 1.0)),
        InverseOf(TemperedStable(0.5, 1.0)),
    ):
        table = pmf_table(1.0, 1.0, spec, kmax=40)
        worst_table = max(worst_table, abs(table.normalization_defect))

    worst_dens = 0.0

    def mass(fn, edges, nodes=14):
        x, w = gauss_panels(edges, nodes)
        return float(np.sum(w * fn(x)))

    worst_dens = max(worst_dens, abs(mass(
        lambda x: ig_density(x, 1.0, 1.0, 1.0), log_panel_edges(1e-6, 60.0, 64)) - 1))
    for beta in (0.25, 0.5, 0.7):
        # bulk plus the heavy x^(-1-beta) tail compactified by u = x^(-beta),
        # under which f(x) dx = (1/beta) f(u^(-1/beta)) u^(-1-1/beta) du with a
        # bounded integrand down to u = 0
        bulk = mass(lambda x: stable_density(x, 1.0, beta),
                    log_panel_edges(1e-8, 40.0, 96))
        u_hi = 40.0 ** -beta
        xu, wu = gauss_panels(linear_panel_edges(0.0, u_hi, 48), 12)
        tail = float(np.sum(
            wu * (1.0 / beta) * stable_density(xu ** (-1.0 / beta), 1.0, beta)
            * xu ** (-1.0 - 1.0 / beta)
        ))
        worst_dens = max(worst_dens, abs(bulk + tail - 1.0))
    worst_dens = max(worst_dens, abs(mass(
        lambda x: tempered_stable_density(x, 1.0, 0.5, 1.0),
        log_panel_edges(1e-8, 200.0, 96)) - 1))
    worst_dens = max(worst_dens, abs(mass(
        lambda x: inverse_stable_density(x, 1.0, 0.5),
        linear_panel_edges(1e-9, 16.0, 64)) - 1))
    worst_dens = max(worst_dens, abs(mass(
        lambda x: hitting_time_density_ig(x, 1.0, 1.0, 1.0),
        linear_panel_edges(1e-9, 16.0, 64)) - 1))
    from tcpp.subordinators.densities import inverse_tempered_density

    worst_dens = max(worst_dens, abs(mass(
        lambda x: inverse_tempered_density(x, 1.0, 0.5, 1.0),
        linear_panel_edges(1e-9, 40.0, 96)) - 1))
    ok = worst_table <= 1e-6 and worst_dens <= 1e-6
    _report(3, "normalization", ok,
            f"tables={worst_table:.2e}, densities={worst_dens:.2e}")


def test_criterion_04_full_campaign():
    """All registered governing equations certify on dyadic refinement."""
    failures = []
    details = []
    for eq in registry_ids():
        rep = check_equation(eq)
        if not rep.passed:
            failures.append(eq)
        tag = "floor" if rep.floor_limited else f"{rep.estimated_order:.2f}"
        details.append(f"{eq}:{tag}")
    _report(4, "full verification campaign", not failures,
            "; ".join(details) if failures else f"{len(details)} equations pass")


def test_criterion_05_analytic_exactness():
    """Closed-form solutions satisfy their discretized equations."""
    rep21 = check_equation("prop2.1", k_range=(0,),
                           grid=GridSpec(0.5, 2.0, points=97, refinement_levels=4))
    ok21 = all(lv.max_residual <= 1e-8 for lv in rep21.levels)
    # theorem residual of the analytic q_0 = e^{lam^2 t} erfc(lam sqrt(t))
    lam = 1.0
    grid = check_equation("thm3.1(2)", k_range=(0,)).params  # default params only
    t = np.linspace(0.25, 4.0, (31 - 1) * 16 + 1)
    q0 = np.exp(lam * lam * t) * erfc(lam * np.sqrt(t))
    d1, m = central_difference(q0, t[1] - t[0], 1, richardson=True)
    rhs = lam * lam * q0 - lam * t ** -0.5 / math.sqrt(math.pi)
    res31 = float(np.max(np.abs(d1 - rhs[m:-m])))
    ok31 = res31 <= 1e-6
    _report(5, "analytic exactness spot checks", ok21 and ok31,
            f"prop2.1 k=0 worst={max(lv.max_residual for lv in rep21.levels):.2e}, "
            f"thm3.1(2) k=0 residual={res31:.2e}")


def test_criterion_06_moments():
    """Closed-form mean/variance vs pmf summation and Monte Carlo."""
    from tcpp.timechange import ig_moment_table

    worst_sum = 0.0
    for lam, delta, gamma, t in CRIT_GRID:
        mean, var = moments_ig(t, lam, delta, gamma)
        table = ig_moment_table(t, lam, delta, gamma)
        ks = np.arange(table.kmax + 1, dtype=float)
        m1 = float(np.sum(ks * table.values))
        m2 = float(np.sum(ks * ks * table.values))
        worst_sum = max(worst_sum, abs(m1 - mean), abs(m2 - m1 * m1 - var))
    # Monte Carlo at one representative point
    lam, delta, gamma, t, n = 1.0, 1.0, 1.0, 1.0, 100_000
    mean, var = moments_ig(t, lam, delta, gamma)
    clock = sample(InverseGaussian(delta, gamma), t, n, seed=2025).values
    counts = rng_stream(2025, 1).poisson(lam * clock).astype(float)
    m_hat = counts.mean()
    v_hat = counts.var(ddof=1)
    se_mean = math.sqrt(var / n)
    se_var = math.sqrt((np.mean((counts - m_hat) ** 4) - v_hat ** 2) / n)
    ok = (
        worst_sum <= 1e-6
        and abs(m_hat - mean) <= 4 * se_mean
        and abs(v_hat - var) <= 4 * se_var
    )
    _report(6, "moments", ok,
            f"pmf-sum gap={worst_sum:.2e}, MC z_mean={(m_hat-mean)/se_mean:.2f}, "
            f"z_var={(v_hat-var)/se_var:.2f}")


def test_criterion_07_mixed_poisson_identity():
    """N(G(t)) with gamma=0 equals the mixed Poisson N(lam t^2 Y) in law."""
    lam, t, n = 1.0, 2.0, 100_000
    g = sample(InverseGaussian(1.0, 0.0), t, n, seed=314).values
    n1 = rng_stream(314, 1).poisson(np.minimum(lam * g, 1e12))
    y = 1.0 / rng_stream(315, 0).standard_normal(n) ** 2
    n2 = rng_stream(315, 1).poisson(np.minimum(lam * t * t * y, 1e12))
    c1 = np.bincount(np.minimum(n1, 31), minlength=32).astype(float)
    c2 = np.bincount(np.minimum(n2, 31), minlength=32).astype(float)
    keep = (c1 + c2) > 0
    stat = float(np.sum((c1[keep] - c2[keep]) ** 2 / (c1[keep] + c2[keep])))
    p = float(chi2.sf(stat, np.count_nonzero(keep) - 1))
    _report(7, "mixed-Poisson identity", p > 0.001, f"chi-square p={p:.4f}")


def test_criterion_08_laplace_exponents():
    """Numerical and sampled LTs reproduce every analytic Laplace exponent."""
    s_grid = (0.5, 1.0, 2.0)
    worst = 0.0
    # IG
    for s in s_grid:
        lt = laplace_numeric(lambda x: float(ig_density(np.array([x]), 1.0, 1.0, 1.0)[0]), s)
        worst = max(worst, abs(lt - math.exp(-(math.sqrt(1 + 2 * s) - 1))))
    # stable
    for beta in (0.25, 0.5, 0.7):
        for s in s_grid:
            lt = laplace_numeric(
                lambda x: float(stable_density(np.array([x]), 1.0, beta)[0]), s)
            worst = max(worst, abs(lt - math.exp(-(s ** beta))))
    # tempered stable
    for s in s_grid:
        lt = laplace_numeric(
            lambda x: float(tempered_stable_density(np.array([x]), 1.0, 0.5, 1.0)[0]), s)
        worst = max(worst, abs(lt - math.exp(-((s + 1.0) ** 0.5 - 1.0))))
    # inverse stable, transform over the time variable at fixed x = 1
    for beta in (0.25, 0.5):
        for s in s_grid:
            lt = laplace_numeric(
                lambda t: float(inverse_stable_density(np.array([1.0]), t, beta)[0]), s)
            worst = max(worst, abs(lt - s ** (beta - 1.0) * math.exp(-(s ** beta))))
    # sampled-path empirical LTs
    n = 100_000
    worst_z = 0.0
    cases = [
        (InverseGaussian(1.0, 1.0), lambda s: math.exp(-(math.sqrt(1 + 2 * s) - 1))),
        (Stable(0.25), lambda s: math.exp(-(s ** 0.25))),
        (Stable(0.5), lambda s: math.exp(-(s ** 0.5))),
        (Stable(0.7), lambda s: math.exp(-(s ** 0.7))),
        (TemperedStable(0.5, 1.0), lambda s: math.exp(-((s + 1) ** 0.5 - 1))),
        (InverseOf(Stable(0.5)), lambda s: mittag_leffler(0.5, -s)),
    ]
    for i, (spec, want) in enumerate(cases):
        vals = sample(spec, 1.0, n, seed=500 + i).values
        for s in s_grid:
            e = np.exp(-s * vals)
            se = float(e.std(ddof=1) / math.sqrt(n))
            worst_z = max(worst_z, abs(float(e.mean()) - want(s)) / se)
    ok = worst <= 1e-7 and worst_z <= 4.0
    _report(8, "Laplace exponents", ok,
            f"max numeric gap={worst:.2e}, max sampled z={worst_z:.2f}")


def test_criterion_09_composition_closure():
    """Two composed 1/2-stable clocks behave as one index-1/4 clock."""
    spec = Composition((Stable(0.5), Stable(0.5)))
    vals = sample(spec, 1.0, 100_000, seed=606).values
    worst_z = 0.0
    for s in (0.5, 1.0, 2.0):
        e = np.exp(-s * vals)
        se = float(e.std(ddof=1) / math.sqrt(e.size))
        worst_z = max(worst_z, abs(float(e.mean()) - math.exp(-(s ** 0.25))) / se)
    _report(9, "composition closure", worst_z <= 4.0, f"max z={worst_z:.2f}")


def test_criterion_10_duality():
    """P(E(t) <= x) = P(D(x) >= t) on a lattice, plus the tempered analogue."""
    worst = 0.0
    for beta in (0.25, 0.5):
        for x in np.linspace(0.4, 2.0, 5):
            for t in np.linspace(0.4, 2.0, 5):
                lhs = inverse_stable_cdf(float(x), float(t), beta)
                rhs = 1.0 - float(stable_cdf(np.array([t]), float(x), beta)[0])
                worst = max(worst, abs(lhs - rhs))
    worst_tem = 0.0
    for x in np.linspace(0.4, 2.0, 5):
        for t in np.linspace(0.4, 2.0, 5):
            lhs = inverse_tempered_cdf(float(x), float(t), 0.5, 1.0)
            rhs = 1.0 - tempered_stable_cdf(float(t), float(x), 0.5, 1.0)
            worst_tem = max(worst_tem, abs(lhs - rhs))
    ok = worst <= 1e-5 and worst_tem <= 1e-5
    _report(10, "first-passage duality", ok,
            f"stable={worst:.2e}, tempered={worst_tem:.2e}")


def test_criterion_11_growth_rate():
    """Sample-path average N(G(T))/T approaches lam delta / gamma."""
    lam, delta, gamma, T, paths = 1.0, 1.0, 1.0, 200.0, 100
    g = sample(InverseGaussian(delta, gamma), T, paths, seed=808).values
    counts = rng_stream(808, 1).poisson(lam * g)
    avg = float(np.mean(counts / T))
    target = lam * delta / gamma
    ok = abs(avg - target) <= 0.05 * target
    # distinguish the corrected constant from the alternative delta/(lam gamma)
    # at a rate where they differ
    lam2 = 2.0
    g2 = sample(InverseGaussian(delta, gamma), T, paths, seed=809).values
    avg2 = float(np.mean(rng_stream(809, 1).poisson(lam2 * g2) / T))
    corrected = lam2 * delta / gamma          # 2.0
    alternative = delta / (lam2 * gamma)      # 0.5: rejected by the data
    ok2 = abs(avg2 - corrected) <= 0.05 * corrected and abs(avg2 - alternative) > 1.0
    _report(11, "almost-sure growth rate", ok and ok2,
            f"mean={avg:.4f} vs {target}; at rate 2: {avg2:.3f} "
            f"(corrected {corrected}, alternative {alternative} rejected)")


def test_criterion_12_waiting_times():
    """Renewal inter-arrivals of N(H(t)) match quadrature and the closed LT."""
    delta, gamma, lam = 1.0 / math.sqrt(2.0), 1.0, 1.0
    n = 10_000
    # J =d G(E) for an independent Exp(lam) duration E: simulate renewals
    rng = rng_stream(909, 0)
    durations = rng.standard_exponential(n) / lam
    j = _sample_ig(rng, durations, delta, gamma)
    worst_z = 0.0
    for x in (0.5, 1.0, 2.0):
        emp = float(np.mean(j > x))
        want = waiting_time_survival(x, lam, delta, gamma)
        se = math.sqrt(want * (1.0 - want) / n)
        worst_z = max(worst_z, abs(emp - want) / se)
    worst_lt = 0.0
    for s in (0.5, 1.0, 2.0):
        got = waiting_time_lt(s, lam, 1.0 / math.sqrt(2.0), 0.0)
        worst_lt = max(worst_lt, abs(got - lam / (lam + math.sqrt(s))))
    ok = worst_z <= 4.0 and worst_lt <= 1e-14
    _report(12, "waiting times", ok,
            f"max renewal z={worst_z:.2f}, LT gap={worst_lt:.1e}")
