"""CLI contract: exit codes, file formats, reproducibility."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tcpp.timechange
from tcpp.cli import main
from tcpp.errors import NoDensityError
from tcpp.subordinators.spec import InverseGaussian, TemperedStable
from tcpp.timechange import (ROUTES, PmfTable, fractional_poisson_pmf, pmf_monte_carlo,
                             pmf_table)


IG_SPEC = '{"type":"ig","delta":1,"gamma":1}'
INV_TEMPERED_SPEC = '{"type":"inverse","base":{"type":"tempered","beta":0.3,"mu":1}}'


class TestPmfCommand:
    def test_bessel_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["pmf", "--spec", IG_SPEC, "--lambda", "1", "--t", "1",
                   "--method", "bessel", "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["k", "value"]
        assert float(rows[1][1]) == pytest.approx(math.exp(1 - math.sqrt(3)), abs=1e-12)

    @pytest.mark.parametrize("lam,t", [(1.0, 1.0), (5.0, 3.0), (20.0, 20.0)])
    def test_bessel_auto_kmax_makes_each_term_once(self, monkeypatch, lam, t):
        passes, steps = [], []
        real = tcpp.timechange._ig_count_logs

        def counted(*args):
            passes.append(args)
            for logp in real(*args):
                steps.append(logp)
                yield logp

        monkeypatch.setattr(tcpp.timechange, "_ig_count_logs", counted)
        table = pmf_table(t, lam, InverseGaussian(1.0, 1.0), method="bessel")
        assert table.method == "bessel"
        # one pass of the recurrence, one step per term
        assert len(passes) == 1 and len(steps) == table.kmax + 1
        # the smallest K whose tail is below 1e-10
        assert table.tail_bound < 1e-10 <= table.tail_bound + table.values[-1]
        if lam == 20.0:  # the PGF table of the same law stops within one count
            pgf = pmf_table(t, lam, InverseGaussian(1.0, 1.0), method="pgf")
            assert abs(table.kmax - pgf.kmax) <= 1

    def test_bessel_gamma_zero_is_capability_error(self, tmp_path):
        rc = main(["pmf", "--spec", '{"type":"ig","delta":1,"gamma":0}',
                   "--lambda", "1", "--t", "1", "--method", "bessel",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 3

    @pytest.mark.parametrize("method", ["auto", "mc"])
    def test_nan_t_is_input_error(self, tmp_path, method):
        out = tmp_path / "t.csv"
        rc = main(["pmf", "--spec", IG_SPEC, "--lambda", "1", "--t", "nan",
                   "--method", method, "--out", str(out)])
        assert rc == 2 and not out.exists()

    def test_invalid_spec_is_input_error(self, tmp_path):
        rc = main(["pmf", "--spec", '{"type":"wat"}', "--lambda", "1", "--t", "1",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_mc_seed_reproducible_bytes(self, tmp_path):
        args = ["pmf", "--spec", '{"type":"stable","beta":0.5}', "--lambda", "1",
                "--t", "1", "--method", "mc", "--count", "5000", "--seed", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mc_on_steep_tempered_half_matches_pgf(self, tmp_path, monkeypatch):
        # acceptance e^(-mu^beta t) = 2e-9 once refused this by rejection;
        # tempered(1/2) now draws as an IG clock
        monkeypatch.delenv("TCPP_SEED", raising=False)
        out = tmp_path / "t.json"
        rc = main(["pmf", "--spec", '{"type":"tempered","beta":0.5,"mu":400}', "--lambda", "1",
                   "--t", "1", "--method", "mc", "--out", str(out)])
        assert rc == 0
        table = PmfTable.from_dict(json.loads(out.read_text()))
        want = pmf_table(1.0, 1.0, TemperedStable(0.5, 400.0), method="pgf").values
        n = 100_000
        for k in range(table.kmax + 1):
            p = want[k] if k < want.size else 0.0
            assert abs(table.values[k] - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)

    def test_json_round_trips_spec_schema(self, tmp_path):
        out = tmp_path / "t.json"
        rc = main(["pmf", "--spec", '{"type":"tempered","beta":0.5,"mu":1}',
                   "--lambda", "1", "--t", "1", "--out", str(out)])
        assert rc == 0
        table = PmfTable.from_dict(json.loads(out.read_text()))
        assert table.spec.to_dict() == {"type": "tempered", "beta": 0.5, "mu": 1.0}

    @pytest.mark.parametrize("spec,method", [
        ('{"type":"stable","beta":0.5}', "auto"),
        ('{"type":"stable","beta":0.5}', "pgf"),
        ('{"type":"stable","beta":0.5}', "quadrature"),
        (IG_SPEC, "bessel"),
        ('{"type":"stable","beta":0.5}', "mc"),
    ])
    def test_negative_kmax_is_input_error(self, tmp_path, capsys, spec, method):
        out = tmp_path / "t.csv"
        rc = main(["pmf", "--spec", spec, "--lambda", "1", "--t", "1", "--method", method,
                   "--kmax", "-1", "--out", str(out)])
        assert rc == 2
        assert "kmax" in capsys.readouterr().err
        assert not out.exists()

    def test_auto_takes_pgf_for_ig_tempered_composition(self, tmp_path):
        out = tmp_path / "c.json"
        spec = ('{"type":"compose","parts":[{"type":"ig","delta":1,"gamma":1},'
                '{"type":"tempered","beta":0.4,"mu":1}]}')
        rc = main(["pmf", "--spec", spec, "--lambda", "1", "--t", "1", "--out", str(out)])
        assert rc == 0
        d = json.loads(out.read_text())
        assert d["method"] == "pgf" and d["tail_bound"] < 1e-10

    def test_auto_keeps_bessel_then_quadrature_for_inverse(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["pmf", "--spec", IG_SPEC, "--lambda", "1", "--t", "1",
                     "--out", str(a)]) == 0
        assert json.loads(a.read_text())["method"] == "bessel"
        inv = '{"type":"inverse","base":{"type":"stable","beta":0.5}}'
        assert main(["pmf", "--spec", inv, "--lambda", "1", "--t", "1",
                     "--out", str(b)]) == 0
        assert json.loads(b.read_text())["method"] == "quadrature"

    @pytest.mark.parametrize("spec", [
        IG_SPEC,
        '{"type":"stable","beta":0.5}',
        '{"type":"inverse","base":{"type":"stable","beta":0.5}}',
        '{"type":"inverse","base":{"type":"compose","parts":[{"type":"ig","delta":1,"gamma":1},'
        '{"type":"tempered","beta":0.4,"mu":1}]}}',
    ], ids=["ig", "stable0.5", "inverse-stable0.5", "inverse-ig-tempered"])
    def test_auto_is_the_library_auto(self, tmp_path, spec):
        # `tcpp pmf` and `pmf_table` take their "auto" route from one resolver
        out = tmp_path / "t.json"
        assert main(["pmf", "--spec", spec, "--lambda", "1", "--t", "1", "--count", "2000",
                     "--seed", "3", "--out", str(out)]) == 0
        got = PmfTable.from_dict(json.loads(out.read_text()))
        want = (pmf_monte_carlo(1.0, 1.0, got.spec, 2000, 3) if got.method == "mc"
                else pmf_table(1.0, 1.0, got.spec, method="auto"))
        first = next(name for name, route in ROUTES.items() if route.serves(got.spec))
        assert got.method == want.method == first
        assert got.values.tobytes() == want.values.tobytes()
        if want.method == "mc":  # only pmf_monte_carlo serves a clock with no density
            with pytest.raises(NoDensityError):
                pmf_table(1.0, 1.0, got.spec)

    @pytest.mark.parametrize("spec,lam,t,message", [
        # a table summing to nothing like 1 is a route that failed, not bad
        # input; no valid request is known to give one, so the quadrature
        # route is patched below to return half of a table
        (INV_TEMPERED_SPEC, "1", "100", "quadrature route .* normalization defect"),
        # mean count 1e4: K = 2000 would hold none of the mass
        (IG_SPEC, "100", "100", "bessel route .* kmax cap of 2000 .* --kmax"),
    ], ids=["inverse-tempered-normalization", "ig-past-the-cap"])
    def test_refused_table_is_capability_error(self, tmp_path, capsys, monkeypatch,
                                               spec, lam, t, message):
        monkeypatch.setitem(ROUTES, "quadrature", ROUTES["quadrature"]._replace(
            table=lambda *args: {"kmax": 0, "values": np.array([0.5]), "tail_bound": 0.0,
                                 "method": "quadrature", "route": {}}))
        out = tmp_path / "t.csv"
        rc = main(["pmf", "--spec", spec, "--lambda", lam, "--t", t, "--out", str(out)])
        assert rc == 3 and not out.exists()
        assert re.search(message, capsys.readouterr().err)

    def test_inverse_tempered_at_large_t_is_served(self, tmp_path, inverse_tempered_oracle):
        # E(100) has mean 333: its tilt integrals lie far in the unit stable
        # law's left tail, where its density is near e^-230
        out = tmp_path / "t.json"
        rc = main(["pmf", "--spec", INV_TEMPERED_SPEC, "--lambda", "1", "--t", "100",
                   "--out", str(out)])
        assert rc == 0
        d = json.loads(out.read_text())
        assert abs(sum(d["values"]) + d["tail_bound"] - 1.0) <= 1e-10
        want = next(e for e in inverse_tempered_oracle["pmf"] if e["t"] == 100.0)
        assert d["kmax"] >= max(want["k"])
        for k, value in zip(want["k"], want["values"]):
            assert abs(d["values"][k] - value) <= 1e-12, k

    @pytest.mark.parametrize("spec", [
        '{"type":"inverse","base":{"type":"stable","beta":0.97}}',
        '{"type":"inverse","base":{"type":"tempered","beta":0.97,"mu":1}}',
    ], ids=["inverse-stable0.97", "inverse-tempered0.97"])
    def test_inverse_past_the_stable_engine_takes_mc(self, tmp_path, capsys, spec):
        # no density serves a base index above 0.95: auto takes Monte Carlo,
        # and the quadrature refusal names no route that refuses the clock too
        out = tmp_path / "t.json"
        assert main(["pmf", "--spec", spec, "--lambda", "1", "--t", "1", "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        assert d["method"] == "mc"
        if '"stable"' in spec:
            for k in range(5):
                want = fractional_poisson_pmf(k, 1.0, 1.0, 0.97)
                assert abs(d["values"][k] - want) <= 4.0 * d["stderr"][k], k
        capsys.readouterr()
        rc = main(["pmf", "--spec", spec, "--lambda", "1", "--t", "1", "--method", "quadrature",
                   "--out", str(tmp_path / "q.json")])
        err = capsys.readouterr().err
        assert rc == 3 and "pmf_monte_carlo" in err and "pgf" not in err

    def test_pgf_on_inverse_is_capability_error(self, tmp_path, capsys):
        rc = main(["pmf", "--spec", '{"type":"inverse","base":{"type":"stable","beta":0.5}}',
                   "--lambda", "1", "--t", "1", "--method", "pgf",
                   "--out", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert rc == 3 and "pgf route does not serve" in err
        assert "methods that serve it: quadrature, mc (mc: pmf_monte_carlo)" in err

    def test_quadrature_still_forced(self, tmp_path):
        out = tmp_path / "t.json"
        rc = main(["pmf", "--spec", '{"type":"tempered","beta":0.5,"mu":1}', "--lambda", "1",
                   "--t", "1", "--method", "quadrature", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["method"] == "quadrature"

    def test_stable_quadrature_at_small_index_is_served(self, tmp_path):
        # D(1) at index 0.05 holds 4.6 % of its mass below 1e-10: the window
        # starts at its Chernoff left end, near 1e-33
        out = tmp_path / "t.json"
        rc = main(["pmf", "--spec", '{"type":"stable","beta":0.05}', "--lambda", "1",
                   "--t", "1", "--method", "quadrature", "--out", str(out)])
        assert rc == 0
        d = json.loads(out.read_text())
        assert abs(sum(d["values"]) + d["tail_bound"] - 1.0) <= 1e-12

    def test_inverse_stable_at_the_smallest_index_writes_no_warning(self, tmp_path):
        # at beta below about 0.0102 the table's first nodes underflow to
        # x = 0, where x^(-beta/(1-beta)) divides by zero; the engine clamps
        # it, and the command prints nothing to stderr
        out = tmp_path / "t.csv"
        env = {**os.environ, "PYTHONPATH": str(Path(tcpp.timechange.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "tcpp.cli", "pmf", "--spec",
             '{"type":"inverse","base":{"type":"stable","beta":0.0064}}',
             "--lambda", "1", "--t", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == ""
        assert out.exists()

    def test_inverse_stable_below_the_smallest_index_is_refused(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(["pmf", "--spec", '{"type":"inverse","base":{"type":"stable","beta":0.0063}}',
                   "--lambda", "1", "--t", "1", "--out", str(out)])
        assert rc == 3 and not out.exists()
        assert capsys.readouterr().err.startswith("error: could not stitch")

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TCPP_SEED", "99")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["pmf", "--spec", '{"type":"stable","beta":0.5}', "--lambda", "1",
                "--t", "1", "--method", "mc", "--count", "2000"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        monkeypatch.setenv("TCPP_SEED", "100")
        c = tmp_path / "c.csv"
        main(args + ["--out", str(c)])
        assert a.read_bytes() != c.read_bytes()


class TestSimulateCommand:
    def test_subordinator_rows_nondecreasing(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--spec", '{"type":"stable","beta":0.5}',
                   "--t-grid", "0.2:2:12", "--paths", "6", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        vals = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert vals.shape == (6, 12)
        assert np.all(np.diff(vals, axis=1) >= 0)

    def test_inverse_paths_nondecreasing(self, tmp_path):
        out = tmp_path / "i.csv"
        rc = main(["simulate", "--spec",
                   '{"type":"inverse","base":{"type":"stable","beta":0.5}}',
                   "--t-grid", "0.5,1.0,1.5,2.0", "--paths", "4", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        vals = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert np.all(np.diff(vals, axis=1) >= 0)

    def test_count_paths(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["simulate", "--spec", IG_SPEC, "--t-grid", "0.5:3:6",
                   "--paths", "5", "--lambda", "2", "--seed", "1", "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        vals = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert np.all(vals == np.floor(vals))
        assert np.all(np.diff(vals, axis=1) >= 0)

    def test_seed_reproducibility(self, tmp_path):
        args = ["simulate", "--spec", IG_SPEC, "--t-grid", "0.5:2:5",
                "--paths", "3", "--seed", "8"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_tempered_far_past_unit_acceptance(self, tmp_path):
        # increments of mu^beta t = 6 and 296, drawn as sums of pieces
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--spec", '{"type":"tempered","beta":0.3,"mu":400}',
                   "--t-grid", "1:50:2", "--out", str(out)])
        assert rc == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:]
        assert rows.shape == (8, 2)
        assert np.all(np.isfinite(rows)) and np.all(rows > 0)
        assert np.all(np.diff(rows, axis=1) >= 0)


class TestVerifyCommand:
    def test_single_equation_campaign(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"equation_id": "prop2.1"}]))
        out_dir = tmp_path / "out"
        rc = main(["verify", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 0
        report = json.loads((out_dir / "prop2.1.json").read_text())
        assert report["pass"] is True
        assert len(report["levels"]) == 4
        summary = list(csv.reader((out_dir / "summary.csv").open()))
        assert summary[0] == ["equation_id", "finest_residual", "order", "pass"]
        assert summary[1][0] == "prop2.1" and summary[1][3] == "true"

    def test_unknown_equation_no_partial_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([
            {"equation_id": "prop2.1"}, {"equation_id": "prop9.9"},
        ]))
        out_dir = tmp_path / "out"
        rc = main(["verify", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("params", [
        {"lamda": 1},  # unknown key: not silently ignored
        {"lam": -1},  # out of domain: no traceback
        {"lam": "2"},
    ])
    def test_bad_params_no_partial_run(self, tmp_path, params):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([
            {"equation_id": "deblassie(1/2)"},
            {"equation_id": "prop2.1", "params": params},
        ]))
        out_dir = tmp_path / "out"
        rc = main(["verify", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("req", [
        {"equation_id": "et-pde(2)", "params": {"m": 3}},
        {"equation_id": "deblassie(1/3)", "params": {"beta": 0.25}},
        {"equation_id": "prop3.1(1)", "params": {"n": 1.5}},
        {"equation_id": "prop2.1", "grid": {"tmin": 0.5}},
    ])
    def test_invalid_request_is_input_error(self, tmp_path, req):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([req]))
        rc = main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("req", [
        1,  # not an object
        {"equation_id": "prop2.1", "k_range": "ab"},
        {"equation_id": "prop2.1", "k_range": [-1, 0]},
        {"equation_id": "prop2.1", "k_range": [0, 2]},  # a gap: the shifts need 0..K
        {"equation_id": "ig-density-pde", "k_range": [0.5, -1.0]},
        {"equation_id": "prop2.1", "extra": 1},  # unknown key: not silently ignored
        {"equation_id": "prop4.1(2)", "k_range": [0.0, 0.3]},  # x must be > 0
        {"equation_id": "prop2.1", "grid": {"t_min": 0.5, "t_max": 2.0, "points": 17.5}},
        {"equation_id": "prop2.1", "grid": {"t_min": 0.5, "t_max": 2.0, "refinement_levels": 2.5}},
        {"equation_id": "prop2.1", "grid": {"t_min": True, "t_max": 2.0}},
    ])
    def test_bad_request_no_partial_run(self, tmp_path, req):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"equation_id": "deblassie(1/2)"}, req]))
        out_dir = tmp_path / "out"
        rc = main(["verify", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 2
        assert not out_dir.exists()

    def test_raising_check_is_reported_not_fatal(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from tcpp.verify import registry

        def boom(params, grid, ks):
            raise RuntimeError("injected failure")

        monkeypatch.setitem(registry.REGISTRY, "deblassie(1/2)",
                            replace(registry.REGISTRY["deblassie(1/2)"], runner=boom))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"equation_id": "deblassie(1/2)"},
                                   {"equation_id": "prop2.1"}]))
        out_dir = tmp_path / "out"
        rc = main(["verify", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 4
        err = json.loads((out_dir / "deblassie_1_2_.json").read_text())
        assert err["status"] == "error" and err["pass"] is False
        assert "injected failure" in err["error"] and "RuntimeError" in err["traceback"]
        assert json.loads((out_dir / "prop2.1.json").read_text())["pass"] is True
        summary = list(csv.reader((out_dir / "summary.csv").open()))
        assert summary[1] == ["deblassie(1/2)", "", "", "error"]
        assert summary[2][0] == "prop2.1" and summary[2][3] == "true"

    def test_grid_override_levels(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{
            "equation_id": "ig-density-pde",
            "grid": {"t_min": 0.6, "t_max": 1.8, "points": 17, "refinement_levels": 3},
        }]))
        out_dir = tmp_path / "out"
        rc = main(["verify", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 0
        report = json.loads((out_dir / "ig-density-pde.json").read_text())
        assert len(report["levels"]) == 3


class TestMomentsCommand:
    def test_values_and_check(self, tmp_path, capsys):
        rc = main(["moments", "--lambda", "2", "--delta", "1", "--gamma", "1", "--t", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean"] == pytest.approx(6.0)
        assert payload["variance"] == pytest.approx(18.0)
        assert payload["pmf_check"] <= 1e-6

    def test_gamma_zero_is_input_error(self):
        rc = main(["moments", "--lambda", "1", "--delta", "1", "--gamma", "0", "--t", "1"])
        assert rc == 2

    def test_unbounded_tail_is_capability_error(self, capsys):
        # the second-moment tail search starts past its 20 000-count limit
        rc = main(["moments", "--lambda", "1000", "--delta", "1", "--gamma", "1", "--t", "100"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")


_SIM = ["simulate", "--spec", IG_SPEC, "--t-grid", "0.5:2:4"]
_PMF = ["pmf", "--lambda", "1", "--t", "1", "--spec"]
_MOMENTS = ["moments", "--delta", "1", "--gamma", "1", "--t", "1"]
_VERIFY = ["verify", "--out-dir", "{tmp}/out", "--config", "{tmp}/cfg.json"]


@pytest.mark.parametrize("argv,config,code", [
    pytest.param(_SIM + ["--lambda", "-1", "--out", "{tmp}/s.csv"], None, 2,
                 id="simulate-lambda-negative"),
    pytest.param(_SIM + ["--lambda", "nan", "--out", "{tmp}/s.csv"], None, 2,
                 id="simulate-lambda-nan"),
    pytest.param(_SIM + ["--lambda", "inf", "--out", "{tmp}/s.csv"], None, 2,
                 id="simulate-lambda-inf"),
    # finite, but lambda times the clock is past numpy's Poisson sampler
    pytest.param(_SIM + ["--lambda", "1e300", "--out", "{tmp}/s.csv"], None, 2,
                 id="simulate-lambda-huge"),
    pytest.param(["simulate", "--spec", IG_SPEC, "--t-grid", "0.1,nan", "--out", "{tmp}/s.csv"],
                 None, 2, id="simulate-t-grid-nan"),
    pytest.param(["simulate", "--spec", IG_SPEC, "--t-grid", "0.1:2", "--out", "{tmp}/s.csv"],
                 None, 2, id="simulate-t-grid-malformed"),
    pytest.param(_PMF + ['{"type":"ig","delta":"x","gamma":1}', "--out", "{tmp}/t.csv"], None, 2,
                 id="spec-field-not-a-number"),
    # a spec holds exactly its type's fields, each a JSON number in its domain
    pytest.param(_PMF + ['{"type":"stable","beta":0.5,"mu":1}', "--out", "{tmp}/t.csv"], None, 2,
                 id="spec-field-of-another-type"),
    pytest.param(_PMF + ['{"type":"ig","delta":true,"gamma":1}', "--out", "{tmp}/t.csv"], None, 2,
                 id="spec-field-a-bool"),
    pytest.param(_PMF + ['{"type":"ig","delta":"1","gamma":1}', "--out", "{tmp}/t.csv"], None, 2,
                 id="spec-field-a-string"),
    pytest.param(_PMF + ['{"type":["ig"]}', "--out", "{tmp}/t.csv"], None, 2,
                 id="spec-type-not-a-string"),
    pytest.param(_PMF + ['{"type":"compose","parts":5}', "--out", "{tmp}/t.csv"], None, 2,
                 id="spec-parts-not-a-list"),
    # refused as "spec is not valid JSON"
    pytest.param(_PMF + ['{"type": ig', "--out", "{tmp}/t.csv"], None, 2, id="spec-not-json"),
    # a kmax past 2^20 counts is refused before any table is built
    pytest.param(_PMF + [IG_SPEC, "--kmax", "1048577", "--out", "{tmp}/t.csv"], None, 2,
                 id="pmf-kmax-past-the-cap"),
    pytest.param(_PMF + ["{tmp}/missing.json", "--out", "{tmp}/t.csv"], None, 2,
                 id="spec-file-missing"),
    pytest.param(_MOMENTS + ["--lambda", "nan", "--out", "{tmp}/m.json"], None, 2,
                 id="moments-lambda-nan"),
    # a valid request whose variance overflows: the pmf cross-check is refused
    pytest.param(_MOMENTS + ["--lambda", "1e300", "--out", "{tmp}/m.json"], None, 3,
                 id="moments-lambda-huge"),
    # G(1) sits at delta t / gamma = 1e-200, where the node window is narrower
    # than float spacing: refused, not a traceback
    pytest.param(["moments", "--lambda", "1", "--delta", "1", "--gamma", "1e200", "--t", "1",
                  "--out", "{tmp}/m.json"], None, 3, id="moments-gamma-1e200"),
    # at gamma = 1e20 the rounding of delta t - gamma x at the nodes puts noise
    # of about 1e-6 in the density, and no rule settles: "mixture rule did not
    # converge", until the density is taken from the offset gamma x/(delta t) - 1
    pytest.param(["moments", "--lambda", "1", "--delta", "1", "--gamma", "1e20", "--t", "1",
                  "--out", "{tmp}/m.json"], None, 3, id="moments-gamma-1e20"),
    pytest.param(_PMF + [IG_SPEC, "--out", "{tmp}/file/t.csv"], None, 2, id="pmf-out-unwritable"),
    pytest.param(_SIM + ["--out", "{tmp}/file/s.csv"], None, 2, id="simulate-out-unwritable"),
    pytest.param(_MOMENTS + ["--lambda", "1", "--out", "{tmp}/file/m.json"], None, 2,
                 id="moments-out-unwritable"),
    pytest.param(["verify", "--out-dir", "{tmp}/file/out"], None, 2,
                 id="verify-out-dir-unwritable"),
    pytest.param(_VERIFY, "{", 2, id="verify-config-not-json"),
    pytest.param(_VERIFY, '{"request": [{"equation_id": "prop2.1"}]}', 2,
                 id="verify-config-without-requests"),
    pytest.param(_VERIFY, '[{"equation_id": "prop2.1", "grid": {"t_min": 0.5, "t_max": 2, '
                 '"pts": 9}}]', 2, id="verify-grid-unknown-key"),
    pytest.param(_VERIFY, '[{"equation_id": "prop2.1", "grid": 5}]', 2,
                 id="verify-grid-not-an-object"),
    pytest.param(_VERIFY, '[{"equation_id": ["prop2.1"]}]', 2, id="verify-id-not-a-string"),
    pytest.param(["verify", "--out-dir", "{tmp}/out", "--config", "{tmp}/missing.json"], None, 2,
                 id="verify-config-missing"),
    pytest.param(_VERIFY, b"\xff[]", 2, id="verify-config-not-utf8"),
    pytest.param(_PMF + ["{tmp}/cfg.json", "--out", "{tmp}/t.csv"], b"\xff{}", 2,
                 id="spec-file-not-utf8"),
    # a valid law past the stable density engine: a capability, not an input, error
    pytest.param(_PMF + ['{"type":"inverse","base":{"type":"stable","beta":0.99}}',
                         "--method", "quadrature", "--out", "{tmp}/t.csv"], None, 3,
                 id="pmf-inverse-stable-0.99"),
    pytest.param(_PMF + ['{"type":"stable","beta":0.99}', "--method", "quadrature",
                         "--out", "{tmp}/t.csv"], None, 3, id="pmf-stable-0.99-quadrature"),
    # t^(1/beta) underflows or overflows: the rule's unit window cannot be
    # mapped back onto x
    pytest.param(["pmf", "--spec", '{"type":"stable","beta":0.1}', "--lambda", "1", "--t",
                  "1e-40", "--method", "quadrature", "--out", "{tmp}/t.csv"], None, 3,
                 id="pmf-stable-quadrature-tiny-t"),
    pytest.param(["pmf", "--spec", '{"type":"stable","beta":0.1}', "--lambda", "1", "--t",
                  "1e31", "--method", "quadrature", "--out", "{tmp}/t.csv"], None, 3,
                 id="pmf-stable-quadrature-huge-t"),
    # mu^beta x near 1e40 at the window's nodes: the tilt integrals would need
    # 1e22 panels, refused before the count is cast, not an "array is too big"
    pytest.param(["pmf", "--spec", INV_TEMPERED_SPEC, "--lambda", "1", "--t", "1e40",
                  "--out", "{tmp}/t.csv"], None, 3, id="pmf-inverse-tempered-huge-t"),
])
def test_bad_input_exits_with_its_code(tmp_path, capsys, argv, config, code):
    (tmp_path / "file").write_text("")  # a regular file where a directory is needed
    if config is not None:  # str, or bytes that are not UTF-8
        (tmp_path / "cfg.json").write_bytes(config if isinstance(config, bytes) else config.encode())
    before = sorted(tmp_path.rglob("*"))
    rc = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("patched,argv", [
    ("pmf_monte_carlo", ["pmf", "--spec", '{"type":"stable","beta":0.5}', "--lambda", "1",
                         "--t", "1", "--method", "mc", "--count", "1000000000000",
                         "--out", "{tmp}/t.csv"]),
    ("sample_path", _SIM + ["--paths", "1000000000000", "--out", "{tmp}/s.csv"]),
], ids=["pmf-mc-count-huge", "simulate-paths-huge"])
def test_memory_exhaustion_is_capability_error(tmp_path, capsys, monkeypatch, patched, argv):
    # the patched route fails as numpy does when it cannot allocate, so the
    # test allocates nothing
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(f"tcpp.cli.{patched}", refuse)
    rc = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert rc == 3
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB for an array\n"
    assert list(tmp_path.iterdir()) == []


_IG11 = {"type": "ig", "delta": 1, "gamma": 1}
_CLOCKS = {
    "ig(1,1)": _IG11,
    "ig(1,0)": {"type": "ig", "delta": 1, "gamma": 0},
    "stable(0.5)": {"type": "stable", "beta": 0.5},
    "stable(0.97)": {"type": "stable", "beta": 0.97},
    "tempered(0.3,1)": {"type": "tempered", "beta": 0.3, "mu": 1},
    "tempered(0.97,1)": {"type": "tempered", "beta": 0.97, "mu": 1},
    "ig*tempered(0.4,1)": {"type": "compose",
                           "parts": [_IG11, {"type": "tempered", "beta": 0.4, "mu": 1}]},
    "stable(0.98)*stable(0.99)": {"type": "compose", "parts": [{"type": "stable", "beta": 0.98},
                                                                {"type": "stable", "beta": 0.99}]},
}
_CLOCKS.update({f"inverse-{name}": {"type": "inverse", "base": clock}
                for name, clock in list(_CLOCKS.items())})
_METHODS = ["auto", "bessel", "pgf", "quadrature", "mc"]


@pytest.mark.parametrize("argv", [
    ["pmf", "--spec", IG_SPEC, "--lam", "1", "--t", "1", "--out", "{tmp}/t.csv"],
    ["simulate", "--spec", IG_SPEC, "--t-grid", "0.5,1", "--pa", "2", "--out", "{tmp}/s.csv"],
    ["verify", "--out", "{tmp}/v", "--config", "{tmp}/cfg.json"],
    ["moments", "--lambda", "1", "--del", "1", "--gamma", "1", "--t", "1", "--out", "{tmp}/m"],
], ids=["pmf", "simulate", "verify", "moments"])
def test_flag_prefixes_are_refused(tmp_path, argv):
    # each subcommand takes a flag only as spelled in full: --lam is not --lambda
    (tmp_path / "cfg.json").write_text('[{"equation_id": "prop2.1"}]')
    with pytest.raises(SystemExit) as exit_:
        main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert exit_.value.code == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_method_choices_are_auto_and_the_route_names():
    assert list(ROUTES) == _METHODS[1:]
    with pytest.raises(SystemExit):
        main(["pmf", "--spec", IG_SPEC, "--lambda", "1", "--t", "1", "--method", "fft",
              "--out", "t.csv"])


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("clock", _CLOCKS.values(), ids=_CLOCKS.keys())
def test_every_method_serves_or_names_routes_that_do(tmp_path, capsys, clock, method):
    # a method either serves the clock, or is refused (exit 3, no traceback)
    # with advice whose every named method serves the same request
    def run(m):
        capsys.readouterr()
        rc = main(["pmf", "--spec", json.dumps(clock), "--lambda", "1", "--t", "1",
                   "--method", m, "--count", "1000", "--seed", "1",
                   "--out", str(tmp_path / f"{m}.json")])
        return rc, capsys.readouterr().err

    rc, err = run(method)
    if rc == 0:
        return
    assert rc == 3 and err.startswith("error: ") and "Traceback" not in err
    advice = re.search(r"methods that serve it: ([a-z, ]+) \(mc: pmf_monte_carlo\)\n$", err)
    assert advice, err
    named = advice.group(1).split(", ")
    assert method not in named and set(named) <= set(_METHODS)
    for m in named:
        assert run(m) == (0, ""), m


def test_long_inline_spec_is_not_taken_for_a_path(tmp_path):
    # longer than a file name may be: an inline spec must not be looked up as a path
    spec = json.dumps({"type": "compose", "parts": [json.loads(IG_SPEC)] * 12})
    assert len(spec) > 255
    out = tmp_path / "t.json"
    assert main(["pmf", "--spec", spec, "--lambda", "1", "--t", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["method"] == "pgf"


def test_spec_from_a_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(IG_SPEC)
    out = tmp_path / "t.csv"
    assert main(["pmf", "--spec", str(spec), "--lambda", "1", "--t", "1", "--out", str(out)]) == 0
    assert out.exists()


# every command in a fresh process, with the numpy and scipy modules it loaded
_IMPORT_CUT = """
import json, sys
import tcpp, tcpp.cli
from tcpp.quadrules import gauss_legendre

tmp = sys.argv[1]


def loaded():
    return {m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.")}


IG = '{"type":"ig","delta":1,"gamma":1}'
runs = {
    "verify": ["verify", "--config", tmp + "/cfg.json", "--out-dir", tmp + "/v"],
    "pmf-quadrature": ["pmf", "--spec", '{"type":"inverse","base":{"type":"stable","beta":0.7}}',
                       "--lambda", "1", "--t", "1", "--kmax", "8", "--method", "quadrature",
                       "--out", tmp + "/q.csv"],
    "moments": ["moments", "--lambda", "1", "--delta", "1", "--gamma", "1", "--t", "1"],
    "pmf-mc": ["pmf", "--spec", IG, "--lambda", "1", "--t", "1", "--method", "mc",
               "--count", "1000", "--seed", "1", "--out", tmp + "/m.csv"],
    "simulate": ["simulate", "--spec", IG, "--t-grid", "0.5:2:4", "--paths", "4",
                 "--out", tmp + "/s.csv"],
}
before = loaded()
out = {"import": sorted(m for m in before if m.split(".")[0] == "scipy")}
for name, argv in runs.items():
    code = tcpp.cli.main(argv)
    now = loaded()
    out[name] = [code, sorted(now - before)]
    before = now
out["rules"] = gauss_legendre.cache_info().currsize
print(json.dumps(out), file=sys.stderr)
"""


@pytest.fixture(scope="module")
def command_imports(tmp_path_factory):
    """{command: [exit code, numpy and scipy modules it added]} from one fresh
    process that imports tcpp and tcpp.cli and runs every command in turn
    (verify on the benchmark's reduced two-row campaign)."""
    tmp = tmp_path_factory.mktemp("imports")
    (tmp / "cfg.json").write_text('[{"equation_id": "prop2.1"}, {"equation_id": "deblassie(1/2)"}]')
    src = str(Path(tcpp.timechange.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _IMPORT_CUT, str(tmp)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.strip().splitlines()[-1])


def test_no_command_loads_scipy(command_imports):
    # numpy is the one runtime dependency: scipy and mpmath are oracles of
    # the tests, and no process of the package imports any scipy module
    got = dict(command_imports)
    assert got.pop("import") == []
    assert got.pop("rules") > 0  # Gauss-Legendre rules were built on the way
    assert set(got) == {"verify", "pmf-quadrature", "moments", "pmf-mc", "simulate"}
    for name, (code, added) in got.items():
        assert code == 0, name
        assert not [m for m in added if m.split(".")[0] == "scipy"], name


def test_requests_load_no_numpy_module_past_sampling(command_imports):
    # a lazy numpy import inside a request is paid by that request (np.unique
    # imports numpy.ma, 24 ms of CPU): verify, a quadrature pmf and moments
    # add none, and the samplers add numpy.random alone
    for name in ("verify", "pmf-quadrature", "moments"):
        assert command_imports[name] == [0, []], name
    for name in ("pmf-mc", "simulate"):
        code, added = command_imports[name]
        assert code == 0 and all(m.startswith("numpy.random") for m in added), name
