"""tcpp benchmark: three workloads driven through tcpp's public functions.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {certify,pmf-mix,simulate} \
        --seed N --seconds S --trace {0,1}

The request list comes from the seed (perfbench/workloads.py). One workload
process, one client, closed loop: each request is sent when the previous one
has returned. Outputs are checked after the workload process exits.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. pmf-mix and
simulate repeat their list in rounds (workloads.ROUNDS), each from cold
caches; a request's time is its median over the rounds and cpu_s is the
median round's. certify is the whole default campaign, run once. Every time
is CPU time scaled to a reference speed (speed.py). --seconds is recorded
but does not change a run: each is a fixed amount of work, 20-50 s on a
2-core machine.
--trace 1 runs one round untraced and one traced, in separate fresh
processes, and prints the per-layer metrics plus the tracing overhead. The
last line of standard output is the result object; the run's full record,
provenance included, goes to .perfbench/<workload>-seed<N>-trace<T>/detail.json.

Exit codes: 0 with a correct result, 1 when a request failed or an output
check did not hold, 2 when there is no tcpp source to benchmark.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
END_TO_END = ("setup_s", "cpu_s", "req_cpu_p50_ms", "req_cpu_p90_ms", "ok_ratio",
              "peak_rss_mb")
UNITS = {"setup_s": "s", "cpu_s": "s", "req_cpu_p50_ms": "ms", "req_cpu_p90_ms": "ms",
         "ok_ratio": "ratio", "peak_rss_mb": "MB"}
SETUP_PROBES = 2        # fresh interpreters timing `import tcpp, tcpp.cli`, plus the worker's own
BLAS_THREADS = "1"      # one client on a 2-core machine; must not exceed nproc
RUN_BUDGET_S = 170.0    # every run must end within 180 s
# CPU time of the import, then the host's speed on the same CPU (speed.py)
IMPORT_PROBE = ("import os, sys, time; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                "t = time.process_time(); import tcpp, tcpp.cli; t = time.process_time() - t; "
                "sys.path.insert(0, sys.argv[1]); import speed; print(t, speed.probe())")


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("TCPP_SEED", None)
    return env


def _run(cmd, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget exhausted")
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{cmd[1:3]} timed out") from exc


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tcpp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def provenance(seed: int) -> dict:
    import scipy
    import tcpp

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "tcpp": tcpp.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def _worker(workload, requests, trace, run_dir, env, deadline, rounds=1):
    """One workload process, running the list `rounds` times."""
    out_dir = run_dir / ("traced" if trace else "untraced")
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    job = out_dir / "job.json"
    job.write_text(json.dumps({"workload": workload, "requests": requests,
                               "trace": bool(trace), "out_dir": str(out_dir),
                               "rounds": rounds}))
    proc = _run([sys.executable, str(HERE / "worker.py"), str(job)], env, deadline)
    (out_dir / "worker.log").write_text(proc.stdout + proc.stderr)
    result_file = out_dir / "result.json"
    if proc.returncode != 0 or not result_file.is_file():
        return out_dir, None, proc.stderr[-2000:]
    result = json.loads(result_file.read_text())
    expected = str((ROOT / "src" / "tcpp").resolve())
    if not str(Path(result["tcpp_file"]).resolve()).startswith(expected):
        raise BenchError(f"worker imported tcpp from {result['tcpp_file']}, not {expected}")
    return out_dir, result, None


def check_outputs(workload, requests, out_dir, result) -> list:
    """One list of failure messages per request of the run."""
    if result is None:
        n = len(_equation_ids(requests)) if workload == "certify" else len(requests)
        return [["workload process failed"]] * n
    if workload == "certify":
        ids = _equation_ids(requests)
        by_id = checks.check_certify(out_dir, result, ids)
        return [by_id[eq] for eq in ids]
    with np.load(out_dir / "outputs.npz") as npz:
        arrays = {k: npz[k] for k in npz.files}
    check = checks.check_pmf_request if workload == "pmf-mix" else checks.check_simulate_request
    out = []
    for i, (req, rec) in enumerate(zip(requests, result["requests"])):
        bad = [rec["error"].strip().splitlines()[-1]] if rec["error"] else []
        out.append(bad + check(dict(req, index=i), arrays))
    return out


def _equation_ids(requests) -> list:
    campaign = requests[0]["campaign"]
    if campaign is None:
        return list(tracing.CAMPAIGN_IDS)
    return [r["equation_id"] for r in campaign]


def _scaled_times(result) -> list:
    """CPU time of each request in each round, at the reference speed: scaled
    by the kernel runs made during the request, or by the three made nearest
    to it."""
    return [[c * f for c, f in zip(r["cpu_s"], speed.window_scales(
                result["kernel_s"], result["kernel_t"], list(zip(r["start"], r["seconds"]))))]
            for r in result["requests"]]


def _cpu_median(result) -> float:
    """CPU time of the median round, at the reference speed."""
    return statistics.median(map(sum, zip(*_scaled_times(result))))


def _end_to_end(workload, requests, run_dir, env, deadline, phases, detail):
    t0 = time.monotonic()
    probes = []
    for _ in range(SETUP_PROBES):
        proc = _run([sys.executable, "-c", IMPORT_PROBE, str(HERE)], env, deadline)
        if proc.returncode != 0:
            raise BenchError("import tcpp failed: " + proc.stderr[-500:])
        import_s, kernel_s = map(float, proc.stdout.split()[-2:])
        probes.append(import_s * speed.scale([kernel_s]))
    phases["setup_probes_s"] = time.monotonic() - t0

    t0 = time.monotonic()
    out_dir, result, detail["worker_error"] = _worker(workload, requests, False, run_dir, env,
                                                      deadline, workloads.ROUNDS[workload])
    phases["workload_s"] = time.monotonic() - t0
    t0 = time.monotonic()
    failures = check_outputs(workload, requests, out_dir, result)
    phases["checks_s"] = time.monotonic() - t0
    if result is None:
        return {}, failures
    factor = speed.scale(result["kernel_s"])
    setup = probes + [result["import_s"] * factor]
    # a request's time is its median over the rounds. certify is one request,
    # the `tcpp verify` call; its 20 checks are what attempted and failed
    # count, and their times are per-layer metrics
    seconds = [statistics.median(times) for times in _scaled_times(result)]
    detail.update(setup_samples_s=setup, speed_scale=factor, kernel_runs=len(result["kernel_s"]),
                  rounds=result["rounds"], request_cpu_s=seconds,
                  rule_cache=result["rule_cache"], unit_cache=result["unit_cache"])
    return {
        "setup_s": statistics.median(setup),
        "cpu_s": _cpu_median(result),
        "req_cpu_p50_ms": 1e3 * float(np.percentile(seconds, 50)),
        "req_cpu_p90_ms": 1e3 * float(np.percentile(seconds, 90)),
        "ok_ratio": 1.0 - sum(1 for f in failures if f) / len(failures),
        "peak_rss_mb": result["peak_rss_mb"],
    }, failures


def _per_layer(workload, requests, run_dir, env, deadline, phases, detail):
    runs = {}
    for traced in (False, True):
        t0 = time.monotonic()
        runs[traced] = _worker(workload, requests, traced, run_dir, env, deadline)
        phases["traced_s" if traced else "untraced_s"] = time.monotonic() - t0
    t0 = time.monotonic()
    proc = _run([sys.executable, "-X", "importtime", "-c", "import tcpp, tcpp.cli"],
                env, deadline)
    phases["importtime_s"] = time.monotonic() - t0
    t0 = time.monotonic()
    (out_plain, plain, err_plain), (out_traced, traced, err_traced) = runs[False], runs[True]
    failures = [a + b for a, b in zip(check_outputs(workload, requests, out_plain, plain),
                                      check_outputs(workload, requests, out_traced, traced))]
    phases["checks_s"] = time.monotonic() - t0
    detail["worker_error"] = err_plain or err_traced
    if plain is None or traced is None:
        return {}, failures
    spans = tracing.load_spans(out_traced / "spans.jsonl")
    metrics = tracing.layer_metrics(spans)
    metrics.update(tracing.parse_importtime(proc.stderr))
    metrics.update({
        "cli.import_s": plain["import_s"] * speed.scale(plain["kernel_s"]),
        "trace.cpu_s": _cpu_median(traced),
        "trace.untraced_cpu_s": _cpu_median(plain),
    })
    metrics["trace.overhead_s"] = metrics["trace.cpu_s"] - metrics["trace.untraced_cpu_s"]
    rule, unit = traced["rule_cache"], traced["unit_cache"]
    if unit is not None:
        metrics["stable.unit_builds"] = unit["misses"]
    if rule is not None:
        lookups = rule["hits"] + rule["misses"]
        metrics["timechange.rule_builds"] = rule["misses"]
        metrics["timechange.rule_hit_ratio"] = rule["hits"] / lookups if lookups else 0.0
    # what the program no longer lets the tracer see is left out, not read as 0
    unmeasured = tracing.unmeasured(traced["missing"])
    for name in unmeasured:
        metrics.pop(name, None)
    detail.update(untraced_targets=traced["missing"], unmeasured=unmeasured,
                  self_times=tracing.self_times_by_name(spans), rule_cache=rule)
    return metrics, failures


def run_workload(workload: str, seed: int, trace: bool, seconds: float,
                 reduced: bool = False) -> dict:
    """Run one workload and return the result object plus its detail record."""
    if not (ROOT / "src" / "tcpp" / "__init__.py").is_file():
        raise BenchError(f"no tcpp source under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))  # the output checks call tcpp
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    env = _env()
    phases = {}
    t0 = time.monotonic()
    compileall.compile_dir(str(ROOT / "src"), quiet=1)  # imports below start warm
    phases["compile_s"] = time.monotonic() - t0
    t0 = time.monotonic()
    requests = workloads.requests_for(workload, seed, reduced)
    phases["generate_s"] = time.monotonic() - t0

    name = f"{workload}-seed{seed}-trace{int(trace)}" + ("-reduced" if reduced else "")
    run_dir = ROOT / ".perfbench" / name
    detail = {"workload": workload, "seed": seed, "trace": trace, "seconds_arg": seconds,
              "reduced": reduced}
    measure = _per_layer if trace else _end_to_end
    metrics, failures = measure(workload, requests, run_dir, env, deadline, phases, detail)
    phases["total_s"] = time.monotonic() - start

    names = tracing.PER_LAYER if trace else END_TO_END
    unit = tracing.unit_of if trace else UNITS.__getitem__
    failed = sum(1 for f in failures if f)
    reasons = detail.get("unmeasured", {})
    detail["unmeasured"] = {n: reasons.get(n, "not produced") for n in names if n not in metrics}
    out = {
        "correct": failed == 0 and not detail["unmeasured"] and not detail.get("untraced_targets"),
        "attempted": len(failures),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit(n)} for n in names if n in metrics},
    }
    if workload == "pmf-mix":
        detail["repeat_share"] = 1.0 - len({r["key"] for r in requests}) / len(requests)
    detail.update(provenance=provenance(seed), phases=phases, result=out,
                  failures={i: f for i, f in enumerate(failures) if f})
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "detail.json").write_text(json.dumps(detail, indent=1, default=str))
    return {"result": out, "detail": detail, "run_dir": run_dir}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run = run_workload(args.workload, args.seed, bool(args.trace), args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    detail, out = run["detail"], run["result"]
    print("provenance " + json.dumps(detail["provenance"], sort_keys=True))
    print("phases " + json.dumps({k: round(v, 3) for k, v in detail["phases"].items()}))
    for i, msgs in detail["failures"].items():
        print(f"failed request {i}: {'; '.join(msgs)}")
    for where, why in detail.get("untraced_targets", {}).items():
        print(f"untraced {where}: {why}")
    for name, why in detail["unmeasured"].items():
        print(f"unmeasured {name}: {why}")
    print(f"detail {run['run_dir'].relative_to(ROOT) / 'detail.json'}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
