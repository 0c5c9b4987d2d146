"""Discrete operators and the equation-certification engine."""

import json
import math

import numpy as np
import pytest

from oracles.poisson import poisson_pmf
from tcpp.cli import main
from tcpp.errors import DomainError, GridTooCoarseError, UnknownEquationError
from tcpp.verify.operators import central_difference, estimate_order, shift_power
from tcpp.subordinators.densities import tempered_stable_density
from tcpp.verify.registry import _dx_ref, check_equation, registry_ids
from tcpp.verify.report import GridSpec, LevelResidual, ResidualReport


class TestShiftPower:
    def test_identity(self):
        v = np.array([0.2, 0.5, 0.3])
        assert np.array_equal(shift_power(v, 0), v)

    def test_first_difference(self):
        v = np.array([1.0, 4.0, 9.0])
        out = shift_power(v, 1)
        assert np.allclose(out, [1.0, 3.0, 5.0])

    def test_second_difference_matches_poisson_second_derivative(self):
        # lam^2 (1-shift)^2 p_k(x) = p_k''(x)
        lam, x = 1.4, 2.3
        p = np.array([poisson_pmf(k, x, lam) for k in range(8)])
        lhs = lam * lam * shift_power(p, 2)
        rhs = np.array([poisson_pmf(k, x, lam, order=2) for k in range(8)])
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_binomial_expansion(self):
        v = np.arange(6, dtype=float) ** 2
        out = shift_power(v, 3)
        # (1-shift)^3 v_k = v_k - 3 v_{k-1} + 3 v_{k-2} - v_{k-3}
        assert out[4] == pytest.approx(16.0 - 3 * 9.0 + 3 * 4.0 - 1.0)

    def test_2d_axis(self):
        v = np.arange(12, dtype=float).reshape(4, 3)
        out = shift_power(v, 1)
        assert np.allclose(out[1:], v[1:] - v[:-1])
        assert np.allclose(out[0], v[0])

    def test_negative_j(self):
        with pytest.raises(DomainError):
            shift_power(np.ones(3), -1)


class TestFdDerivative:
    def test_quadratic_first_derivative(self):
        t = np.linspace(1.0, 5.0, 33)
        d, m = central_difference(t ** 2, t[1] - t[0], 1)
        i = np.argmin(np.abs(t[m:-m] - 3.0))
        assert d[i] == pytest.approx(2.0 * t[m:-m][i], abs=1e-10)

    def test_exponential_second_derivative(self):
        a = 1.0 - math.sqrt(3.0)
        t = np.linspace(0.5, 2.0, 129)
        d, m = central_difference(np.exp(a * t), t[1] - t[0], 2, richardson=True)
        assert np.max(np.abs(d - a * a * np.exp(a * t[m:-m]))) < 1e-9

    def test_fourth_derivative_of_sin(self):
        # h near the truncation/roundoff optimum eps^(1/8) ~ 1e-2: smaller
        # steps lose to eps/h^4 roundoff amplification
        t = np.linspace(0.5, 1.5, 101)
        d, m = central_difference(np.sin(t), t[1] - t[0], 4, richardson=True)
        i = np.argmin(np.abs(t[m:-m] - 1.0))
        assert d[i] == pytest.approx(math.sin(t[m:-m][i]), abs=1e-6)

    def test_richardson_gains_two_orders(self):
        errs_raw, errs_rich = [], []
        for n in (33, 65, 129):
            t = np.linspace(1.0, 2.0, n)
            y = np.exp(t)
            h = t[1] - t[0]
            raw, m = central_difference(y, h, 1, richardson=False)
            rich, mr = central_difference(y, h, 1, richardson=True)
            errs_raw.append(np.max(np.abs(raw - np.exp(t[m:-m]))))
            errs_rich.append(np.max(np.abs(rich - np.exp(t[mr:-mr]))))
        order_raw = np.polyfit(np.log([1 / 32, 1 / 64, 1 / 128]), np.log(errs_raw), 1)[0]
        order_rich = np.polyfit(np.log([1 / 32, 1 / 64, 1 / 128]), np.log(errs_rich), 1)[0]
        assert order_raw == pytest.approx(2.0, abs=0.2)
        assert order_rich == pytest.approx(4.0, abs=0.3)

    def test_too_coarse(self):
        t = np.linspace(1.0, 2.0, 5)
        with pytest.raises(GridTooCoarseError):
            central_difference(t, t[1] - t[0], 4, richardson=True)

    @pytest.mark.parametrize("beta,mu", [(0.5, 1.0), (1 / 3, 1.0), (0.5, 0.0), (1 / 3, 0.0)])
    def test_x_reference_stencil_in_one_call(self, beta, mu):
        # the x-side reference of prop4.1 and deblassie: its four stencil
        # points go to the density stacked in one call, with the bits of one
        # call a point
        x = np.geomspace(0.01, 0.3, 17)[:, None]
        t = np.linspace(0.5, 1.5, 33)[None, :]

        def density(xv):
            return tempered_stable_density(xv, t, beta, mu)

        h = 8e-3 * x
        vals = [density(x + k * h) for k in (-2, -1, 1, 2)]
        want = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12.0 * h)
        assert np.array_equal(_dx_ref(density, x), want)


class TestConvergenceOrder:
    def _report(self, hs, res):
        est = estimate_order(hs, res)
        return ResidualReport(
            equation_id="x", params={}, levels=[LevelResidual(h, r, r) for h, r in zip(hs, res)],
            estimated_order=est.order, floor_limited=est.floor_limited,
            passed=True, band=(1, 3),
        )

    def test_exact_geometric_sequence(self):
        rep = self._report([0.1, 0.05, 0.025], [1e-2, 2.5e-3, 6.25e-4])
        assert rep.estimated_order == pytest.approx(2.0, abs=1e-10)

    def test_floor_limited_flagged(self):
        rep = self._report([0.1, 0.05, 0.025], [1e-11, 9e-12, 1.1e-11])
        assert rep.floor_limited
        assert rep.estimated_order is None

    @pytest.mark.parametrize("res", [[math.nan] * 4, [1e-3, math.nan, math.nan, math.inf]])
    def test_non_finite_residual_is_not_floor_limited(self, res):
        est = estimate_order([0.1, 0.05, 0.025, 0.0125], res)
        assert est.order is None
        assert not est.floor_limited and not est.monotone

    def test_two_informative_levels_give_no_order(self):
        # an order needs three levels: two clean ones give neither order nor pass
        est = estimate_order([0.1, 0.05], [1e-2, 2.5e-3])
        assert est.order is None
        assert not est.floor_limited and not est.monotone and est.used_levels == 2

    def test_two_levels_are_never_floor_limited(self):
        est = estimate_order([0.1, 0.05], [1e-11, 1e-12])
        assert est.order is None and not est.floor_limited

    @pytest.mark.parametrize("res,limited", [
        ([1e-6, 1e-8, 1e-10], True),
        ([1e-11, 1e-11, 1e-3], False),
        ([1e-3, 1e-10, 1e-10, 1e-6], False),
    ])
    def test_floor_limited_needs_finest_below_floor(self, res, limited):
        hs = [0.1 / 2 ** j for j in range(len(res))]
        est = estimate_order(hs, res)
        assert est.order is None and est.floor_limited is limited


class TestGridSpec:
    def test_level_times_dyadic(self):
        g = GridSpec(0.5, 2.0, points=9, refinement_levels=3)
        t0 = g.level_times(0)
        t2 = g.level_times(2)
        assert t0.size == 9 and t2.size == 33
        assert np.allclose(t2[::4], t0)

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0)
        with pytest.raises(DomainError):
            GridSpec(0.5, 2.0, points=4)
        with pytest.raises(DomainError):
            GridSpec(0.5, 2.0, refinement_levels=9)
        for bad in ({"points": 17.5}, {"refinement_levels": 2.5}, {"t_min": True},
                    {"t_max": math.inf}, {"t_min": "0.5"}):
            with pytest.raises(DomainError):
                GridSpec(**{"t_min": 0.5, "t_max": 2.0, **bad})

    def test_integral_float_is_the_integer(self):
        g = GridSpec(0.5, 2.0, points=17.0, refinement_levels=4.0)
        assert (g.points, g.refinement_levels) == (17, 4) and isinstance(g.points, int)
        assert g == GridSpec(0.5, 2.0) and hash(g) == hash(GridSpec(0.5, 2.0))


class TestCheckEquation:
    def test_unknown_equation(self):
        with pytest.raises(UnknownEquationError):
            check_equation("prop9.9")

    def test_registry_has_fourteen_families(self):
        families = {eq.split("(")[0] for eq in registry_ids()}
        assert families == {
            "prop2.1", "prop2.2", "ig-density-pde", "prop3.1", "deblassie",
            "thm3.1", "cor3.1", "frac-dde", "et-pde", "prop3.2", "prop4.1",
            "rmk4.1", "inv-tempered-pde", "prop4.2",
        }
        assert len(families) == 14

    def test_report_structure(self):
        rep = check_equation("prop2.1")
        d = rep.to_dict()
        assert d["equation_id"] == "prop2.1"
        assert {"h", "max_residual", "l2_residual"} <= set(d["levels"][0])
        assert len(d["levels"]) == 4
        assert {"estimated_order", "pass", "floor_limited"} <= set(d)

    def test_two_level_grid_cannot_pass(self):
        # residuals 0.19 and 0.059 used to pass as "floor-limited"
        grid = GridSpec(0.5, 2.0, points=8, refinement_levels=2)
        rep = check_equation("ig-density-pde", grid=grid)
        assert rep.finest_residual > 1e-2
        assert not rep.floor_limited and not rep.passed

    @pytest.mark.parametrize("eq,points,floor_limited", [
        ("ig-density-pde", 8, False), ("prop2.1", 97, True),
    ])
    def test_three_level_grid(self, eq, points, floor_limited):
        rep = check_equation(eq, grid=GridSpec(0.5, 2.0, points=points, refinement_levels=3))
        assert rep.passed and rep.floor_limited is floor_limited
        if floor_limited:
            assert rep.finest_residual <= 1e-9
        else:
            assert rep.estimated_order == pytest.approx(1.8, abs=0.1)

    @pytest.mark.parametrize("params", [{"lamda": 1.0}, {"lam": -1.0}, {"lam": math.nan},
                                        {"lam": "1"}, {"lam": True}])
    def test_bad_params_rejected(self, params):
        with pytest.raises(DomainError):
            check_equation("prop2.1", params=params)

    @pytest.mark.parametrize("eq_id, k_range", [
        ("prop2.1", "ab"), ("prop2.1", [-1, 0]), ("prop2.1", [1, 2, 3]), ("prop2.1", []),
        ("prop2.1", [True]), ("prop2.1", [0.0, 1.0]), ("ig-density-pde", [0.4, math.inf]),
        ("ig-density-pde", [0.0]), ("deblassie(1/2)", [0.0, 0.3]),
    ])
    def test_bad_k_range_rejected(self, eq_id, k_range):
        with pytest.raises(DomainError):
            check_equation(eq_id, k_range=k_range)

    def test_prop21_k0_exact_identity(self):
        # a(a - 2 d g) = 2 d^2 lam for a = d g - d sqrt(g^2 + 2 lam): the k=0
        # closed form satisfies the DDE exactly, so every level of a fine grid is tiny
        grid = GridSpec(0.5, 2.0, points=97, refinement_levels=4)
        rep = check_equation("prop2.1", k_range=(0,), grid=grid)
        assert all(lv.max_residual <= 1e-8 for lv in rep.levels)
        assert rep.passed

    def test_ig_density_pde_order_two(self):
        rep = check_equation("ig-density-pde")
        assert rep.passed
        assert 1.7 <= rep.estimated_order <= 2.3

    def test_frac_dde_half_order(self):
        rep = check_equation("frac-dde(1/2)")
        assert rep.passed
        assert rep.estimated_order >= 1.4

    def test_et_pde_boundary_system(self):
        rep = check_equation("et-pde(2)")
        assert rep.passed
        assert rep.extras["boundary_value_max_error"] <= 1e-12
        assert rep.extras["boundary_derivative_max_abs"] == 0.0
        assert rep.extras["far_field_max"] <= 1e-12

    @pytest.mark.parametrize("eq_id", ["et-pde(2)", "inv-tempered-pde(2)"])
    def test_closed_x_side_reaches_the_boundary(self, eq_id):
        # the closed x-side needs no stencil, so x near 0 is served
        rep = check_equation(eq_id, k_range=[0.005, 0.3])
        assert rep.passed and not rep.floor_limited

    @pytest.mark.parametrize("eq_id, k_range", [
        ("prop4.1(3)", [0.01, 0.05]), ("deblassie(1/3)", [0.02, 0.1]),
    ])
    def test_x_reference_near_the_boundary(self, eq_id, k_range):
        # the stencil step is 8e-3 x, so it stays inside x > 0 and scales with x
        rep = check_equation(eq_id, k_range=k_range)
        assert rep.passed and not rep.floor_limited
        assert rep.estimated_order == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("delta, gamma", [
        (1 / math.sqrt(2), 0.0), (1 / math.sqrt(2), math.sqrt(2)), (1.0, 1.0),
    ])
    def test_ig_hitting_source_against_mpmath(self, delta, gamma):
        # the closed source is d_x^2 h - 2 d g d_x h, and 2 d^2 d_t h, of the
        # IG(d, g) hitting density h, each differentiated at 30 digits
        from mpmath import mp, workdps

        from tcpp.verify.registry import _ig_hitting_source

        def h(x, t):
            d, g, st = mp.mpf(delta), mp.mpf(gamma), mp.sqrt(t)
            return (2 * d / st) * mp.npdf((g * t - d * x) / st) - 2 * d * g * mp.exp(
                2 * d * g * x) * mp.ncdf(-(g * t + d * x) / st)

        xs, ts = np.array([1e-6, 0.3, 1.5, 4.0]), np.array([0.5, 1.0, 2.0])
        got = _ig_hitting_source(xs[:, None], ts[None, :], delta, gamma)
        with workdps(30):
            for i, x in enumerate(xs):
                for j, t in enumerate(ts):
                    x_side = (mp.diff(lambda u: h(u, t), x, 2)
                              - 2 * delta * gamma * mp.diff(lambda u: h(u, t), x))
                    t_side = 2 * mp.mpf(delta) ** 2 * mp.diff(lambda s: h(x, s), t)
                    for want in (x_side, t_side):
                        assert abs(got[i, j] - float(want)) <= 1e-14 * max(1.0, abs(float(want)))

    def test_prop32_rejects_alternative_exponent(self):
        # the statement's (1-shift)^(2^n) fits; the proof's final-line
        # (1-shift)^(2^n - 1) variant leaves an O(1) residual
        rep = check_equation("prop3.2")
        assert rep.passed
        assert rep.extras["alternative_shift_exponent_max_residual"] > 100 * rep.finest_residual

    def test_param_override(self):
        rep = check_equation("prop2.1", params={"lam": 2.0})
        assert rep.params["lam"] == 2.0
        assert rep.passed

    def test_grid_override(self):
        g = GridSpec(0.6, 1.8, points=33, refinement_levels=3)
        rep = check_equation("ig-density-pde", grid=g)
        assert len(rep.levels) == 3
        assert rep.passed

    def test_relative_residual_within_scale(self):
        for eq in ("prop3.1(1)", "rmk4.1(2)"):
            rep = check_equation(eq)
            assert rep.finest_residual <= 1e-3 * rep.scale

    def test_thm31_source_bookkeeping(self):
        # the j = 1 source weights are exactly p'_k(0) = (-lam, lam, 0, ...)
        from tcpp.verify.registry import _shift_at_zero

        lam = 1.7
        got = _shift_at_zero(1, np.arange(5), lam)
        assert np.allclose(got, [-lam, lam, 0.0, 0.0, 0.0])
        # j = 2: lam^2 (1, -2, 1, 0, ...)
        got2 = _shift_at_zero(2, np.arange(5), lam)
        assert np.allclose(got2, [lam ** 2, -2 * lam ** 2, lam ** 2, 0.0, 0.0])

    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (2.0, 0.25)])
    def test_prop42_is_prop22_at_the_ig_twin(self, lam, mu):
        # tempered(1/2, mu) is IG(1/sqrt 2, sqrt(2 mu)): both Laplace exponents
        # are sqrt(s + mu) - sqrt(mu), so the inverse-tempered count equation
        # is the IG-hitting one at those parameters, on the same count table
        from tcpp.subordinators.densities import tempered_half_as_ig
        from tcpp.subordinators.spec import InverseGaussian, InverseOf, TemperedStable
        from tcpp.verify.registry import REGISTRY, _pmf_tables

        delta, gamma = tempered_half_as_ig(mu)
        grid = REGISTRY["prop4.2(2)"].default_grid
        a = check_equation("prop4.2(2)", params={"lam": lam, "mu": mu})
        b = check_equation("prop2.2", params={"lam": lam, "delta": delta, "gamma": gamma},
                           grid=grid)
        assert a.passed and len(a.levels) == len(b.levels) == 4
        for u, v in zip(a.levels, b.levels):
            assert u.max_residual == pytest.approx(v.max_residual, rel=1e-11, abs=0)
            assert u.l2_residual == pytest.approx(v.l2_residual, rel=1e-11, abs=0)
        ks = (0, 1, 2, 3)
        assert np.array_equal(_pmf_tables(InverseOf(TemperedStable(0.5, mu)), lam, grid, ks),
                              _pmf_tables(InverseOf(InverseGaussian(delta, gamma)), lam, grid, ks))

    def test_rmk41_mu_to_zero_matches_prop31_structure(self):
        # as mu -> 0 the tempered operator collapses onto the iterated-stable
        # DDE; the residual structure must line up within 1e-3
        grid = GridSpec(0.5, 2.5, points=17, refinement_levels=3)
        a = check_equation("rmk4.1(2)", params={"mu": 1e-6}, grid=grid)
        b = check_equation("prop3.1(1)", grid=grid)
        assert a.passed
        assert abs(a.finest_residual - b.finest_residual) <= 1e-3


# (equation_id, floor_limited, estimated order, finest max residual) of every
# default-campaign row; every row passes
DEFAULT_CAMPAIGN = [
    ("prop2.1", False, 3.8789312677641883, 3.017643912528456e-09),
    ("prop2.2", False, 1.835916283839684, 4.044259849361742e-05),
    ("ig-density-pde", False, 1.9820886306533299, 0.0007486504984965947),
    ("prop3.1(1)", False, 1.933419581551237, 2.116538437124671e-05),
    ("prop3.1(2)", False, 1.8777004689957726, 3.2704823485385504e-05),
    ("deblassie(1/2)", False, 1.9986539820740792, 9.383983871380508e-05),
    ("deblassie(1/3)", False, 1.8282697087299002, 1.9772509743876121e-04),
    ("thm3.1(2)", False, 3.0437113930476714, 1.6728075347138827e-07),
    ("thm3.1(3)", False, 2.995820989746994, 1.570497734637577e-07),
    ("cor3.1(1)", False, 3.0437113930476714, 1.6728075347138827e-07),
    ("cor3.1(2)", False, 3.235082337037835, 6.841646778277255e-08),
    ("frac-dde(1/2)", False, 1.5021786019736312, 7.543826727884895e-05),
    ("frac-dde(1/4)", False, 1.2296948408226382, 0.00014631061695802305),
    ("et-pde(2)", False, 1.7845502101734847, 0.0001798751816313171),
    ("prop3.2", False, 1.2433939835716963, 0.00025224899508047294),
    ("prop4.1(2)", False, 1.9965067667664327, 0.00024442579086336735),
    ("prop4.1(3)", False, 1.9991576569392617, 7.347760715559204e-05),
    ("rmk4.1(2)", False, 1.9783282671817115, 7.144320895324796e-06),
    ("inv-tempered-pde(2)", False, 1.7481866164768545, 0.00050461739377802295),
    ("prop4.2(2)", False, 1.8398009735943082, 6.297588886489125e-05),
]


def test_default_campaign_is_pinned(tmp_path, capsys):
    # a change to the operators, tables or grids that moves any order or
    # residual shows here, not only one that flips a verdict
    assert main(["verify", "--out-dir", str(tmp_path)]) == 0
    # the campaign is the registry, in its order, in summary.csv and on stdout
    rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == registry_ids()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == registry_ids()
    assert lines[-1].startswith(f"{len(registry_ids())}/{len(registry_ids())} equations pass")
    reports = [json.loads(path.read_text()) for path in tmp_path.glob("*.json")]
    reports = {rep["equation_id"]: rep for rep in reports}
    assert set(reports) == {row[0] for row in DEFAULT_CAMPAIGN}
    for eq, floor_limited, order, finest in DEFAULT_CAMPAIGN:
        rep = reports[eq]
        assert rep["pass"] is True, eq
        assert rep["floor_limited"] is floor_limited, eq
        assert rep["estimated_order"] == pytest.approx(order, rel=0, abs=1e-9), eq
        assert rep["levels"][-1]["max_residual"] == pytest.approx(finest, rel=1e-9, abs=0), eq


def _plain(value):
    """Whether value is JSON's own: a bool, int, float, str or None (by exact
    type, so a numpy scalar is not), or a list or str-keyed dict of these."""
    if isinstance(value, list):
        return all(map(_plain, value))
    if isinstance(value, dict):
        return all(isinstance(k, str) and _plain(v) for k, v in value.items())
    return value is None or type(value) in (bool, int, float, str)


@pytest.mark.parametrize("eq", registry_ids())
def test_report_is_plain_json(eq):
    # to_dict writes params, extras and levels as the checks made them
    report = check_equation(eq)
    assert json.loads(report.to_json()) == report.to_dict()
    assert _plain(report.to_dict()), report.to_dict()


class TestCountTableCache:
    """Equal count-table requests share one read-only table: cor3.1(1) asks
    for thm3.1(2)'s."""

    def test_equal_requests_share_one_read_only_table(self):
        from tcpp.subordinators.spec import InverseOf, Stable
        from tcpp.verify.registry import REGISTRY, _pmf_tables

        _pmf_tables.cache_clear()
        grid = REGISTRY["thm3.1(2)"].default_grid
        a = _pmf_tables(InverseOf(Stable(0.5)), 1.0, grid, (0, 1, 2, 3))
        b = _pmf_tables(InverseOf(Stable(1.0 / 2)), 1.0, GridSpec(0.25, 4.0, 31, 5), (0, 1, 2, 3))
        assert b is a and a.shape == (4, 481) and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.5
        assert _pmf_tables.cache_info().currsize == 1
        _pmf_tables.cache_clear()
        assert _pmf_tables.cache_info().currsize == 0
        c = _pmf_tables(InverseOf(Stable(0.5)), 1.0, grid, (0, 1, 2, 3))
        assert c is not a and np.array_equal(c, a)

    def test_served_check_reports_as_a_fresh_one(self):
        from tcpp.verify.registry import _pmf_tables

        _pmf_tables.cache_clear()
        fresh = check_equation("cor3.1(1)").to_dict()
        _pmf_tables.cache_clear()
        check_equation("thm3.1(2)")
        hits = _pmf_tables.cache_info().hits
        served = check_equation("cor3.1(1)").to_dict()
        assert _pmf_tables.cache_info().hits == hits + 1
        assert json.dumps(served) == json.dumps(fresh)
