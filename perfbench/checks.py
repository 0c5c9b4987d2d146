"""Output checks at the repository's pinned tolerances.

Each check returns one message per failed request (an empty list means the
request passed). They run in the benchmark's parent process after the
workload process has exited, so none of their time is in any timing.

Monte Carlo mean checks use the closed-form standard deviation, not the
sample one: a mean strays 4 exact SE about once in sixteen thousand runs,
while the sample SD of a few dozen skewed draws would add false alarms.

A Monte Carlo pmf table is compared with an exact route (pmf_bessel_ig for
IG(gamma > 0), pmf_table for every other clock with a density) cell by cell:
k = 0..K and the mass beyond K. Each cell may stray 4 binomial SE of the
exact probability, with the 4 widened by a Bonferroni correction over the
table's cells so that a whole table strays as rarely as one 4-SE cell, plus
a floor of a few counts for cells whose expected count is near zero.
"""

from __future__ import annotations

import csv
import json
import math
import re
from functools import lru_cache
from pathlib import Path
from statistics import NormalDist

import numpy as np

NORMALIZATION_TOL = 1e-6   # |normalization_defect| of a quadrature table
BESSEL_TOL = 1e-8          # IG(gamma > 0) table against pmf_bessel_ig
MC_SE = 4.0                # Monte Carlo agreement, in standard errors
MC_SUM_TOL = 1e-12         # a Monte Carlo table's values plus tail sum to 1
MC_FLOOR_COUNTS = 5.0      # Monte Carlo cells may also stray this many draws


def _pmf_values_ok(values, kmax) -> list:
    v = np.asarray(values, dtype=float)
    bad = []
    if v.size != int(kmax) + 1:
        bad.append(f"{v.size} values for kmax={int(kmax)}")
    if not np.all(np.isfinite(v)) or np.any(v < 0.0) or np.any(v > 1.0):
        bad.append("values outside [0, 1]")
    return bad


def has_exact_route(spec: dict) -> bool:
    """Every clock of the workloads has a density, but compositions with a
    non-stable part (IG*tempered), which only Monte Carlo reaches."""
    return spec["type"] != "compose" or all(p["type"] == "stable" for p in spec["parts"])


@lru_cache(maxsize=None)
def _exact_pmf(spec_json: str, t: float, lam: float, kmax: int) -> np.ndarray:
    from tcpp import pmf_bessel_ig, pmf_table, spec_from_dict

    spec = json.loads(spec_json)
    if spec["type"] == "ig" and spec["gamma"] > 0:
        return np.array([pmf_bessel_ig(k, t, lam, spec["delta"], spec["gamma"])
                         for k in range(kmax + 1)])
    return pmf_table(t, lam, spec_from_dict(spec)).values


def check_mc_table(spec: dict, t: float, lam: float, count: int, values, tail) -> list:
    """Messages for a Monte Carlo table: against an exact route, or, for a
    clock with none, that its values and tail sum to 1."""
    if not has_exact_route(spec):
        if abs(float(np.sum(values)) + tail - 1.0) > MC_SUM_TOL:
            return ["Monte Carlo table does not sum to 1"]
        return []
    try:
        exact = _exact_pmf(json.dumps(spec, sort_keys=True), t, lam, len(values) - 1)
    except Exception as exc:  # the exact route failed: the check cannot pass
        return [f"exact route failed: {exc!r}"]
    cells = min(len(values), len(exact))
    p = np.append(exact[:cells], max(0.0, 1.0 - float(np.sum(exact[:cells]))))
    q = np.append(values[:cells], max(0.0, 1.0 - float(np.sum(values[:cells]))))
    z = NormalDist().inv_cdf(1.0 - NormalDist().cdf(-MC_SE) / p.size)
    allowed = z * np.sqrt(p * (1.0 - p) / count) + MC_FLOOR_COUNTS / count
    excess = np.abs(q - p) / allowed
    worst = int(np.argmax(excess))
    if excess[worst] > 1.0:
        where = f"k={worst}" if worst < cells else f"mass beyond k={cells - 1}"
        return [f"Monte Carlo {where} is {q[worst]:.5g}, exact {p[worst]:.5g} "
                f"(allowed {allowed[worst]:.2g})"]
    return []


# -- certify -----------------------------------------------------------------------


def report_file(equation_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", equation_id) + ".json"


def check_certify(out_dir: Path, result: dict, equation_ids: list) -> dict:
    """{equation_id: [messages]}: every report passes, summary.csv has a row each."""
    reports = Path(out_dir) / "reports"
    out = {}
    for eq in equation_ids:
        bad = []
        path = reports / report_file(eq)
        if not path.is_file():
            bad.append("no report")
        elif json.loads(path.read_text()).get("pass") is not True:
            bad.append("report does not pass")
        out[eq] = bad
    summary = reports / "summary.csv"
    rows = []
    if summary.is_file():
        with summary.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
    if len(rows) != len(equation_ids):
        for eq in equation_ids:
            out[eq].append(f"summary.csv has {len(rows)} rows, expected {len(equation_ids)}")
    for row in rows:
        if row.get("pass") != "true" and row.get("equation_id") in out:
            out[row["equation_id"]].append("summary.csv row does not pass")
    if result.get("exit_code") != 0:
        for eq in equation_ids:
            out[eq].append(f"tcpp verify exited {result.get('exit_code')}")
    return out


# -- pmf-mix -----------------------------------------------------------------------


def check_pmf_request(req: dict, arrays) -> list:
    from tcpp import pmf_bessel_ig

    i = req["index"]
    if f"r{i}.values" not in arrays:
        return ["no table"]
    values = arrays[f"r{i}.values"]
    kmax, tail, defect = arrays[f"r{i}.meta"]
    bad = _pmf_values_ok(values, kmax)
    if req["route"] == "mc":
        return bad + check_mc_table(req["spec"], req["t"], req["lam"], req["count"],
                                    values, tail)
    if not abs(defect) <= NORMALIZATION_TOL:
        bad.append(f"normalization defect {defect:.2e}")
    spec = req["spec"]
    if spec["type"] == "ig" and spec["gamma"] > 0:
        exact = np.array([pmf_bessel_ig(k, req["t"], req["lam"], spec["delta"], spec["gamma"])
                          for k in range(int(kmax) + 1)])
        err = float(np.max(np.abs(values - exact)))
        if not err <= BESSEL_TOL:
            bad.append(f"IG table is {err:.2e} from the Bessel form")
    return bad


# -- simulate ----------------------------------------------------------------------


def closed_form_moments(spec: dict, t: float):
    """(mean, sd) of the clock at time t, or None when the checks have none."""
    kind = spec["type"]
    if kind == "ig" and spec["gamma"] > 0:
        d, g = spec["delta"], spec["gamma"]
        return d * t / g, math.sqrt(d * t / g ** 3)
    if kind == "tempered":
        b, mu = spec["beta"], spec["mu"]
        return t * b * mu ** (b - 1.0), math.sqrt(t * b * (1.0 - b) * mu ** (b - 2.0))
    if kind == "inverse" and spec["base"]["type"] == "stable":
        b = spec["base"]["beta"]
        m1 = t ** b / math.gamma(1.0 + b)
        m2 = 2.0 * t ** (2.0 * b) / math.gamma(1.0 + 2.0 * b)
        return m1, math.sqrt(m2 - m1 * m1)
    return None


def check_simulate_request(req: dict, arrays) -> list:
    i = req["index"]
    bad = []
    path_calls = [c for c in req["calls"] if c["call"] == "sample_path"]
    widest = max((c["paths"] for c in path_calls), default=None)
    for j, call in enumerate(req["calls"]):
        if call["call"] == "sample":
            draws = arrays.get(f"r{i}.c{j}.draws")
            if draws is None or draws.shape != (call["count"],):
                bad.append(f"call {j}: missing or misshapen draws")
            elif not np.all(np.isfinite(draws)) or np.any(draws < 0.0):
                bad.append(f"call {j}: non-finite or negative draws")
        elif call["call"] == "sample_path":
            key = f"r{i}.c{j}.draws"
            if key not in arrays:
                bad.append(f"call {j}: no paths")
                continue
            rows = arrays[key]
            if rows.shape != (call["paths"], int(call["grid"][2])):
                bad.append(f"call {j}: shape {rows.shape}")
                continue
            if not np.all(np.isfinite(rows)) or np.any(rows < 0.0):
                bad.append(f"call {j}: non-finite or negative values")
            elif np.any(np.diff(rows, axis=1) < 0.0):
                bad.append(f"call {j}: a row decreases")
            moments = closed_form_moments(call["spec"], call["grid"][1])
            if moments is not None and call["paths"] == widest:
                mean, sd = moments
                z = (float(np.mean(rows[:, -1])) - mean) / (sd / math.sqrt(call["paths"]))
                if not abs(z) <= MC_SE:
                    bad.append(f"call {j}: last-column mean is {z:+.1f} SE from {mean:.4g}")
        else:
            key = f"r{i}.c{j}.values"
            if key not in arrays:
                bad.append(f"call {j}: no table")
                continue
            values = arrays[key]
            kmax, tail, _ = arrays[f"r{i}.c{j}.meta"]
            bad += [f"call {j}: {m}" for m in _pmf_values_ok(values, kmax)
                    + check_mc_table(call["spec"], call["t"], call["lam"], call["count"],
                                     values, tail)]
    return bad
