"""Smoke tests of the benchmark on reduced request lists.

Run with `python3 -m pytest -q perfbench/smoke.py` from the root of the
repository. The reduced lists take
the same code paths as the full ones: a worker process per run, tracing in
the traced run, and the same output checks. About 40 s on 2 cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 11


@lru_cache(maxsize=None)
def reduced_run(workload: str, trace: bool) -> dict:
    return run.run_workload(workload, SEED, trace, 1.0, reduced=True)


def _declared(kind: str) -> dict:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_printed_metrics_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = reduced_run(workload, trace)["result"]
            assert result["correct"], (workload, trace, reduced_run(workload, trace)["detail"])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == _declared(kind), (workload, kind)


def test_traced_run_finds_each_layer():
    expect = {
        "certify": ("verify.check_s.prop2.1", "densities.other_s", "stable.pdf_points",
                    "cli.verify_io_s", "cli.import.scipy_integrate_s"),
        "pmf-mix": ("timechange.pmf_matrix_cols", "timechange.tail_mass_calls",
                    "timechange.mc_s", "sampling.draws", "stable.pdf_s"),
        "simulate": ("sampling.path_cells", "sampling.draws", "timechange.mc_s"),
    }
    for workload, names in expect.items():
        metrics = reduced_run(workload, True)["result"]["metrics"]
        assert metrics["trace.spans"]["value"] > 0
        for name in names:
            assert metrics[name]["value"] > 0, (workload, name)


LOSE_TARGETS = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tcpp.cli, tcpp.subordinators.spec, tcpp.timechange
import tracing
del tcpp.subordinators.spec.InverseOf
rule = tcpp.timechange.mixture_rule
tcpp.timechange.mixture_rule = lambda *a, **k: rule(*a, **k)  # no cache_info
missing = tracing.install(tracing.Tracer()).missing
print(json.dumps(tracing.unmeasured(missing)))
"""


def test_lost_target_is_named_not_zero():
    proc = subprocess.run([sys.executable, "-c", LOSE_TARGETS, str(HERE), str(HERE.parent / "src")],
                          capture_output=True, text=True, check=True)
    unmeasured = json.loads(proc.stdout)
    assert "InverseOf" in unmeasured["sampling.walk_s"]
    for name in ("timechange.rule_builds", "timechange.rule_hit_ratio",
                 "timechange.rule_build_s", "timechange.rule_nodes"):
        assert "mixture_rule" in unmeasured[name]
    assert "sampling.path_s" not in unmeasured


def test_speed_scale_follows_the_kernel_runs_near_a_request():
    import speed

    samples = [speed.REF_KERNEL_S] * 4 + [2 * speed.REF_KERNEL_S] * 4
    times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    # runs inside the window, then the three nearest a short request
    assert speed.window_scales(samples, times, [(-0.5, 3.0), (4.5, 3.0)]) == [1.0, 0.5]
    assert speed.window_scales(samples, times, [(1.4, 0.2), (5.4, 0.2)]) == [1.0, 0.5]


def test_same_seed_same_requests():
    for workload in workloads.WORKLOADS:
        for reduced in (False, True):
            a = workloads.requests_for(workload, 5, reduced)
            b = workloads.requests_for(workload, 5, reduced)
            assert workloads.fingerprint(a) == workloads.fingerprint(b)
    for workload in ("pmf-mix", "simulate"):
        assert (workloads.fingerprint(workloads.requests_for(workload, 5))
                != workloads.fingerprint(workloads.requests_for(workload, 6)))


def test_pmf_mix_list_shape():
    reqs = workloads.requests_for("pmf-mix", 3)
    keys = {r["key"] for r in reqs}
    assert len(reqs) >= 100
    assert 1.0 - len(keys) / len(reqs) == 0.5
    clocks = {r["clock"] for r in reqs}
    assert clocks == set(workloads.PMF_TABLE_CLOCKS) | set(workloads.PMF_MC_CLOCKS)
    # two rule lookups per quadrature key must overflow mixture_rule's 64 entries
    assert 2 * len({r["key"] for r in reqs if r["route"] == "table"}) > 64
    assert all(0.25 <= r["t"] <= 4.0 and r["lam"] in workloads.PMF_LAMBDAS for r in reqs)


def _arrays(workload):
    out_dir = reduced_run(workload, False)["run_dir"] / "untraced"
    with np.load(out_dir / "outputs.npz") as npz:
        return {k: npz[k].copy() for k in npz.files}


def _failures(workload, arrays):
    reqs = workloads.requests_for(workload, SEED, reduced=True)
    check = checks.check_pmf_request if workload == "pmf-mix" else checks.check_simulate_request
    return [check(dict(r, index=i), arrays) for i, r in enumerate(reqs)]


def test_perturbed_pmf_table_fails():
    arrays = _arrays("pmf-mix")
    assert not any(_failures("pmf-mix", arrays))
    reqs = workloads.requests_for("pmf-mix", SEED, reduced=True)
    ig = next(i for i, r in enumerate(reqs) if r["clock"] == "ig(1,1)")
    arrays[f"r{ig}.values"][1] += 1e-7
    assert _failures("pmf-mix", arrays)[ig]
    mc = next(i for i, r in enumerate(reqs) if r["route"] == "mc")
    arrays[f"r{mc}.values"][0] -= 1e-3
    assert _failures("pmf-mix", arrays)[mc]


def test_perturbed_paths_fail():
    arrays = _arrays("simulate")
    assert not any(_failures("simulate", arrays))
    rows = arrays["r0.c1.draws"]                       # IG, 256 paths
    rows[0, 10] = rows[0, 9] - 1e-3                    # a decreasing row
    assert _failures("simulate", arrays)[0]
    arrays = _arrays("simulate")
    arrays["r0.c4.draws"][:, -1] *= 1.5                # tempered mean off by half
    assert _failures("simulate", arrays)[0]
    arrays = _arrays("simulate")
    arrays["r1.c0.draws"][3] = float("nan")
    assert _failures("simulate", arrays)[1]


def test_shifted_mc_table_fails():
    arrays = _arrays("simulate")
    values = arrays["r0.c2.values"]                    # IG(1,1) Monte Carlo pmf
    arrays["r0.c2.values"] = np.append(0.0, values[:-1])
    assert _failures("simulate", arrays)[0]


def test_perturbed_report_fails():
    out_dir = reduced_run("certify", False)["run_dir"] / "untraced"
    ids = [r["equation_id"] for r in workloads.certify_requests(SEED, reduced=True)[0]["campaign"]]
    result = {"exit_code": 0}
    assert not any(checks.check_certify(out_dir, result, ids).values())
    report = out_dir / "reports" / checks.report_file(ids[0])
    saved = report.read_text()
    try:
        report.write_text(json.dumps(dict(json.loads(saved), **{"pass": False})))
        assert checks.check_certify(out_dir, result, ids)[ids[0]]
    finally:
        report.write_text(saved)
    assert checks.check_certify(out_dir, result, ids + ["prop3.2"])["prop3.2"]

