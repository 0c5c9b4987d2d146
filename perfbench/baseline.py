"""Reproduce the ROADMAP baseline layer table from one traced run.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py

Runs, in this process and under the benchmark's tracer:

* StableUnit.pdf on 1e4 points (beta = 0.3 and 0.7, units built beforehand);
* pmf_table at t = lambda = 1, cold (rule and unit caches cleared) and warm,
  for every clock with a quadrature route;
* pmf_monte_carlo at 1e5 draws for every clock with an exact sampler, and at
  1000 draws (its minimum) for the inverse-tempered clock;
* `tcpp verify` on the default campaign, one time per equation check.

Every time printed is the duration of the traced span named in the table.
The table goes to standard output with ROADMAP's figure beside each row where
ROADMAP has one; the spans and the table go to .perfbench/baseline/.
About 90 s on 2 cores.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# ROADMAP "Baseline (measured at this re-anchor, 2026-10-17, 2 cores)", seconds
ROADMAP = {
    ("pmf_table cold", "ig(1,1)"): 0.005,
    ("pmf_table warm", "ig(1,1)"): 0.001,
    ("pmf_table cold", "stable(0.3)"): 0.285,
    ("pmf_table warm", "stable(0.3)"): 0.115,
    ("pmf_table cold", "ig-hitting(1,1)"): 0.79,
    ("pmf_table warm", "ig-hitting(1,1)"): 0.20,
    ("pmf_table cold", "inverse-tempered(0.5,1)"): 4.7,
    ("pmf_monte_carlo 1000", "inverse-tempered(0.5,1)"): 21.0,
    ("check_equation", "prop4.2(2)"): 14.4,
    ("check_equation", "prop2.2"): 7.9,
    ("check_equation", "inv-tempered-pde(2)"): 6.8,
    ("tcpp verify", "default campaign"): 32.0,
}
ROADMAP_MC_RANGE = (0.011, 0.047)  # "11-47 ms for every clock except one"
ROADMAP_CHECK_MAX_OTHER = 1.4      # "the other 17 equations take <= 1.4 s each"


def main() -> int:
    import tcpp.cli
    from tcpp import pmf_monte_carlo, pmf_table, spec_from_dict
    from tcpp.subordinators.stable import stable_unit
    from tcpp.timechange import mixture_rule

    tracer = tracing.install(tracing.Tracer())
    if tracer.missing:
        for where, why in tracer.missing.items():
            print(f"untraced {where}: {why}", file=sys.stderr)
        return 1
    cases = []  # (layer, case, clock) per request id

    def traced(layer, case, clock, fn):
        cases.append((layer, case, clock))
        with tracer.request_scope(len(cases) - 1):
            fn()

    x = np.geomspace(0.05, 50.0, 10_000)
    for beta in (0.3, 0.7):
        unit = stable_unit(beta)
        traced("subordinators.stable", "StableUnit.pdf 1e4 points", f"stable({beta})",
               lambda: unit.pdf(x))

    for name, (spec_dict, _) in workloads.PMF_TABLE_CLOCKS.items():
        spec = spec_from_dict(spec_dict)
        mixture_rule.cache_clear()
        stable_unit.cache_clear()
        traced("timechange", "pmf_table cold", name, lambda: pmf_table(1.0, 1.0, spec))
        traced("timechange", "pmf_table warm", name, lambda: pmf_table(1.0, 1.0, spec))

    exact_samplers = dict(workloads.SIM_SUBORDINATORS)
    for name in ("inverse-stable(0.5)", "ig-hitting(1,1)"):
        exact_samplers[name] = workloads.PMF_TABLE_CLOCKS[name][0]
    for name, spec_dict in exact_samplers.items():
        spec = spec_from_dict(spec_dict)
        traced("timechange", "pmf_monte_carlo 1e5", name,
               lambda: pmf_monte_carlo(1.0, 1.0, spec, 100_000, 1))
    name = "inverse-tempered(0.5,1)"
    spec = spec_from_dict(workloads.PMF_TABLE_CLOCKS[name][0])
    traced("timechange", "pmf_monte_carlo 1000", name,
           lambda: pmf_monte_carlo(1.0, 1.0, spec, 1000, 1))

    out_dir = ROOT / ".perfbench" / "baseline"
    out_dir.mkdir(parents=True, exist_ok=True)
    mixture_rule.cache_clear()
    stable_unit.cache_clear()
    with open(out_dir / "verify_stdout.txt", "w") as fh, redirect_stdout(fh):
        traced("cli", "tcpp verify", "default campaign",
               lambda: tcpp.cli.main(["verify", "--out-dir", str(out_dir / "reports")]))

    spans = tracer.spans
    rows = []
    for s in spans:
        if s[tracing.NAME] == "bench.request":
            layer, case, clock = cases[s[tracing.REQUEST]]
            rows.append((layer, case, clock, s[tracing.END] - s[tracing.START]))
        elif s[tracing.NAME] == "verify.check_equation":
            eq = (s[tracing.ATTRS] or {}).get("equation_id")
            rows.append(("verify", "check_equation", eq, s[tracing.END] - s[tracing.START]))

    print(f"{'layer':22s} {'case':26s} {'clock / equation':26s} {'seconds':>9s} {'ROADMAP':>9s}")
    table = []
    for layer, case, clock, sec in rows:
        ref = ROADMAP.get((case, clock))
        if ref is None and case == "pmf_monte_carlo 1e5":
            ref_text = f"{ROADMAP_MC_RANGE[0]}-{ROADMAP_MC_RANGE[1]}"
        elif ref is None and case == "check_equation":
            ref_text = f"<={ROADMAP_CHECK_MAX_OTHER}"
        else:
            ref_text = "" if ref is None else f"{ref:g}"
        print(f"{layer:22s} {case:26s} {clock:26s} {sec:9.4f} {ref_text:>9s}")
        table.append({"layer": layer, "case": case, "clock": clock, "seconds": sec,
                      "roadmap": ref_text or None})
    (out_dir / "table.json").write_text(json.dumps(
        {"when": time.strftime("%Y-%m-%dT%H:%M:%S"), "rows": table}, indent=1))
    tracer.dump(out_dir / "spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
