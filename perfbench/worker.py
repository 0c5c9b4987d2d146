"""Workload process: runs one generated request list against tcpp and times it.

Usage: python3 perfbench/worker.py JOB_JSON

The job file holds the workload name, its request list, the output
directory, whether to trace, and how many rounds to run. The worker never
sees the seed. It writes result.json (timings, per-request status, cache
counters, peak RSS), outputs.npz (the arrays the output checks read) and,
when tracing, spans.jsonl. Output checks run later in the parent, outside
the timed region.

pmf-mix and simulate run their list in `rounds` rounds. Every round after
the first starts by emptying tcpp's caches, so each round pays what a fresh
process pays, and round r draws with each call's r-th sampler seed. The
outputs of the first round are the ones checked. certify runs its one
request once.

Times are CPU seconds of this process (user + sys) less those of the speed
sampler (speed.py), which runs beside the workload, on the same CPU, from
the end of the import: unlike wall time they leave out the time the host
deschedules the machine, and they count the pool thread on which `tcpp
verify` runs its checks. result.json carries the sampler's kernel times; the
parent scales every time by them.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path


def _pin_to_one_cpu():
    """Keep this process, and the threads it starts from now on, on one CPU,
    so that the speed sampler measures the CPU the workload runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _timed_import():
    start = time.process_time()
    import tcpp  # noqa: F401
    import tcpp.cli  # noqa: F401
    return time.process_time() - start


SAMPLER = None  # the speed sampler, started once tcpp is imported


def _now():
    return time.perf_counter(), SAMPLER.cpu_now()


def _since(t0):
    wall, cpu = _now()
    return {"start": t0[0], "seconds": wall - t0[0], "cpu_s": cpu - t0[1]}


def _clear_caches():
    """Empty every lru_cache of tcpp, so that a round starts as cold as a
    fresh process."""
    cleared = set()
    for name, module in list(sys.modules.items()):
        if name != "tcpp" and not name.startswith("tcpp."):
            continue
        for obj in vars(module).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear) and id(obj) not in cleared:
                cleared.add(id(obj))
                clear()


def _run_certify(job, tracer, out_dir):
    """`tcpp verify` on the campaign, one request; check times come from spans."""
    import tcpp.cli

    argv = list(job["requests"][0]["argv"]) + ["--out-dir", str(out_dir / "reports")]
    campaign = job["requests"][0]["campaign"]
    if campaign is not None:
        cfg = out_dir / "campaign.json"
        cfg.write_text(json.dumps({"requests": campaign}))
        argv += ["--config", str(cfg)]
    with open(out_dir / "verify_stdout.txt", "w") as fh, redirect_stdout(fh):
        start = _now()
        with _scope(tracer, 0):
            code = tcpp.cli.main(argv)
        took = _since(start)
    request = {"id": 0, "error": None, **{k: [v] for k, v in took.items()}}
    return [took], [request], {"exit_code": code}


def _run_rounds(job, tracer, arrays, send, keep):
    """Runs the list in rounds; send(request, round) makes one request and
    returns its output, keep(i, output) stores the first round's."""
    reqs = job["requests"]
    results = [{"id": i, "start": [], "cpu_s": [], "seconds": [], "error": None}
               for i in range(len(reqs))]
    rounds = []
    for r in range(job["rounds"]):
        if r:
            _clear_caches()
        round_start = _now()
        for i, req in enumerate(reqs):
            t0 = _now()
            out = None
            try:
                with _scope(tracer, i):
                    out = send(req, r)
            except Exception:  # a failed request is counted, and the run goes on
                if results[i]["error"] is None:
                    results[i]["error"] = traceback.format_exc(limit=3)
            for k, v in _since(t0).items():
                results[i][k].append(v)
            if r == 0 and out is not None:
                keep(i, out, arrays)
        rounds.append(_since(round_start))
    return rounds, results, {}


def _keep_table(prefix, table, arrays):
    arrays[f"{prefix}.values"] = table.values
    arrays[f"{prefix}.meta"] = [table.kmax, table.tail_bound, table.normalization_defect]


def _run_pmf_mix(job, tracer, arrays):
    from tcpp import pmf_monte_carlo, pmf_table, spec_from_dict

    specs = [spec_from_dict(r["spec"]) for r in job["requests"]]
    for r, spec in zip(job["requests"], specs):
        r["spec_obj"] = spec

    def send(r, round_):
        if r["route"] == "mc":
            return pmf_monte_carlo(r["t"], r["lam"], r["spec_obj"], r["count"],
                                   r["seeds"][round_])
        return pmf_table(r["t"], r["lam"], r["spec_obj"])

    return _run_rounds(job, tracer, arrays, send,
                       lambda i, table, arrays: _keep_table(f"r{i}", table, arrays))


def _run_simulate(job, tracer, arrays):
    import numpy as np
    from tcpp import pmf_monte_carlo, sample, sample_path, spec_from_dict

    for r in job["requests"]:
        for c in r["calls"]:
            c["spec_obj"] = spec_from_dict(c["spec"])

    def send(r, round_):
        outs = []
        for c in r["calls"]:
            seed = c["seeds"][round_]
            if c["call"] == "sample_path":
                grid = np.linspace(c["grid"][0], c["grid"][1], int(c["grid"][2]))
                outs.append(sample_path(c["spec_obj"], grid, c["paths"], seed, rtol=c["rtol"]))
            elif c["call"] == "sample":
                outs.append(sample(c["spec_obj"], c["t"], c["count"], seed,
                                   rtol=c["rtol"]).values)
            else:
                outs.append(pmf_monte_carlo(c["t"], c["lam"], c["spec_obj"], c["count"], seed))
        return outs

    def keep(i, outs, arrays):
        for j, out in enumerate(outs):
            if isinstance(out, np.ndarray):
                arrays[f"r{i}.c{j}.draws"] = out
            else:
                _keep_table(f"r{i}.c{j}", out, arrays)

    return _run_rounds(job, tracer, arrays, send, keep)


def _cache_counter(module: str, name: str):
    """The lru_cache'd function module.name, or None when the program has none."""
    try:
        fn = getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None
    return fn if hasattr(fn, "cache_info") else None


def _counts(fn):
    if fn is None:
        return None
    info = fn.cache_info()
    return {"hits": info.hits, "misses": info.misses}


def _scope(tracer, request_id):
    return nullcontext() if tracer is None else tracer.request_scope(request_id)


def main(argv) -> int:
    job = json.loads(Path(argv[0]).read_text())
    out_dir = Path(job["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    _pin_to_one_cpu()
    import_s = _timed_import()

    import numpy as np
    import tcpp

    import speed

    global SAMPLER

    # taken before tracing wraps them: the wrappers carry no cache_info
    rule_cache = _cache_counter("tcpp.timechange", "mixture_rule")
    unit_cache = _cache_counter("tcpp.subordinators.stable", "stable_unit")
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.install(tracing.Tracer())

    arrays = {}
    runner = {"certify": lambda: _run_certify(job, tracer, out_dir),
              "pmf-mix": lambda: _run_pmf_mix(job, tracer, arrays),
              "simulate": lambda: _run_simulate(job, tracer, arrays)}[job["workload"]]
    SAMPLER = speed.Sampler()
    SAMPLER.start()
    try:
        rounds, requests, extra = runner()
    finally:
        SAMPLER.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "import_s": import_s,
        "rounds": rounds,
        "kernel_s": SAMPLER.samples,
        "kernel_t": SAMPLER.times,
        "peak_rss_mb": peak_rss_mb,
        "requests": requests,
        "rule_cache": _counts(rule_cache),
        "unit_cache": _counts(unit_cache),
        "tcpp_file": tcpp.__file__,
        "missing": {} if tracer is None else tracer.missing,
        **extra,
    }
    np.savez(out_dir / "outputs.npz", **{k: np.asarray(v, dtype=float) for k, v in arrays.items()})
    if tracer is not None:
        tracer.dump(out_dir / "spans.jsonl")
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
