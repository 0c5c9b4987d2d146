"""Spans around tcpp's public functions, recorded from outside the package.

`install()` replaces each traced function on every loaded `tcpp.*` module
that holds it by name, and each traced method on its class, with a wrapper
that records a span: id, parent id, request id, name, start, end and a few
attributes. Spans stay in memory until `Tracer.dump()`.

One stack serves the whole process. The benchmark drives tcpp from one
client in a closed loop and `tcpp verify` runs at --jobs 1, so even the
checks that run on the verify thread pool nest in time inside the span that
submitted them.

`layer_metrics()` turns the spans into the per-layer metrics. A span's self
time is its duration minus the durations of its direct children.

A target that the program no longer has is never skipped in silence: it goes
to `Tracer.missing` with the reason, and `unmeasured()` names every metric it
feeds, so that the traced run leaves those metrics out and reports itself as
not correct instead of reading 0.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
import time
from contextlib import contextmanager

import numpy as np

# (id, parent id, request id, name, start, end, attrs)
ID, PARENT, REQUEST, NAME, START, END, ATTRS = range(7)

CAMPAIGN_IDS = (
    "prop2.1", "prop2.2", "ig-density-pde", "prop3.1(1)", "prop3.1(2)",
    "deblassie(1/2)", "deblassie(1/3)", "thm3.1(2)", "thm3.1(3)", "cor3.1(1)",
    "cor3.1(2)", "frac-dde(1/2)", "frac-dde(1/4)", "et-pde(2)", "prop3.2",
    "prop4.1(2)", "prop4.1(3)", "rmk4.1(2)", "inv-tempered-pde(2)", "prop4.2(2)",
)


def equation_metric(equation_id: str) -> str:
    """Metric name for one equation's check time, e.g. deblassie(1/3) -> deblassie_1-3."""
    return "verify.check_s." + re.sub(r"\)$", "", equation_id).replace("(", "_").replace("/", "-")


IMPORT_GROUPS = {
    "cli.import.numpy_s": "numpy",
    "cli.import.scipy_special_s": "scipy.special",
    "cli.import.scipy_integrate_s": "scipy.integrate",
}

PER_LAYER = (
    "stable.pdf_s", "stable.pdf_points", "stable.unit_builds",
    "densities.hitting_ig_s", "densities.hitting_ig_points",
    "densities.inv_tempered_s", "densities.inv_tempered_points", "densities.other_s",
    "sampling.sample_s", "sampling.draws", "sampling.path_s", "sampling.path_cells",
    "sampling.walk_s",
    "timechange.rule_builds", "timechange.rule_hit_ratio", "timechange.rule_build_s",
    "timechange.rule_nodes", "timechange.pmf_matrix_s", "timechange.pmf_matrix_cols",
    "timechange.tail_mass_s", "timechange.tail_mass_calls", "timechange.mc_s",
    "specfun.caputo_s", "specfun.caputo_calls",
    *(equation_metric(e) for e in CAMPAIGN_IDS), "verify.self_s",
    "cli.import_s", *IMPORT_GROUPS, "cli.import.tcpp_self_s", "cli.verify_io_s",
    "trace.cpu_s", "trace.untraced_cpu_s", "trace.overhead_s", "trace.spans",
)

UNITS = {"_s": "s", "_points": "count", "_builds": "count", "_cells": "count",
         "_cols": "count", "_calls": "count", "draws": "count", "_nodes": "count",
         "_ratio": "ratio", "spans": "count"}


def unit_of(metric: str) -> str:
    if metric.startswith("verify.check_s."):
        return "s"
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = None
        self.missing = {}  # "pkg.module:attr" -> why it could not be traced

    @contextmanager
    def request_scope(self, request_id):
        """A `bench.request` span; every span opened inside it carries request_id."""
        outer, self.request = self.request, request_id
        rec = self._open("bench.request")
        try:
            yield
        finally:
            self._close(rec)
            self.request = outer

    def _open(self, name):
        stack = self._stack
        parent = stack[-1][ID] if stack else None
        rec = [len(self.spans), parent, self.request, name, 0.0, 0.0, None]
        self.spans.append(rec)
        stack.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, attrs=None, minor_in=None):
        """Wrapper recording a span per call.

        attrs(args, kwargs, result) -> dict is evaluated after the span ends.
        A `minor_in` layer prefix skips the span when the caller is already
        inside a span of that layer: its time is then already in that layer.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if minor_in is not None and stack and stack[-1][NAME].startswith(minor_in):
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def load_spans(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _patch_everywhere(orig, replacement):
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "tcpp" or modname.startswith("tcpp.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)


def _resolve(path: str):
    """Object at 'pkg.module:Attr.attr', or None when the program no longer has it."""
    module, _, attrs = path.partition(":")
    try:
        obj = importlib.import_module(module)
        for attr in attrs.split(".") if attrs else ():
            obj = getattr(obj, attr)
    except (ImportError, AttributeError):
        return None
    return obj


def _points(pos, name):
    return lambda a, k, out: {"points": int(np.size(_arg(a, k, pos, name)))}


# Where each traced target or needed object lives, and the metrics it feeds.
# "pkg.module:function" is patched on every tcpp module holding that function,
# "pkg.module:Class.method" on its class; cache counters and spec classes are
# only read. pmf_table feeds the baseline table alone.
FEEDS = {
    "tcpp.subordinators.stable:StableUnit.pdf": ("stable.pdf_s", "stable.pdf_points"),
    "tcpp.subordinators.stable:stable_unit": ("stable.unit_builds",),
    "tcpp.subordinators.densities": ("densities.other_s",),
    "tcpp.subordinators.densities:hitting_time_density_ig": (
        "densities.hitting_ig_s", "densities.hitting_ig_points", "densities.other_s"),
    "tcpp.subordinators.densities:inverse_tempered_density": (
        "densities.inv_tempered_s", "densities.inv_tempered_points", "densities.other_s"),
    "tcpp.subordinators.sampling:sample": (
        "sampling.sample_s", "sampling.draws", "sampling.walk_s"),
    "tcpp.subordinators.sampling:sample_path": (
        "sampling.path_s", "sampling.path_cells", "sampling.walk_s"),
    "tcpp.subordinators.spec:InverseOf": ("sampling.walk_s",),
    "tcpp.subordinators.spec:InverseGaussian": ("sampling.walk_s",),
    "tcpp.subordinators.spec:flatten_stable_composition": ("sampling.walk_s",),
    "tcpp.timechange:mixture_rule": (
        "timechange.rule_builds", "timechange.rule_hit_ratio", "timechange.rule_build_s",
        "timechange.rule_nodes"),
    "tcpp.timechange:MixtureRule.nodes": ("timechange.rule_nodes",),
    "tcpp.timechange:MixtureRule.pmf_matrix": (
        "timechange.pmf_matrix_s", "timechange.pmf_matrix_cols"),
    "tcpp.timechange:MixtureRule.tail_mass": (
        "timechange.tail_mass_s", "timechange.tail_mass_calls"),
    "tcpp.timechange:pmf_table": (),
    "tcpp.timechange:pmf_monte_carlo": ("timechange.mc_s",),
    "tcpp.specfun:caputo_derivative": ("specfun.caputo_s", "specfun.caputo_calls"),
    "tcpp.verify.registry:check_equation": (
        *(equation_metric(e) for e in CAMPAIGN_IDS), "verify.self_s"),
    "tcpp.cli:cmd_verify": ("cli.verify_io_s",),
}


def unmeasured(missing: dict) -> dict:
    """{metric: reason} for the metrics that the missing targets feed."""
    out = {}
    for where, why in missing.items():
        for metric in FEEDS.get(where, ()):
            out.setdefault(metric, f"{where}: {why}")
    return out


def _walk_classifier(tracer: Tracer):
    """is_walk(spec, exact_only): inverse clocks walk the base path, unless
    `sample` has an exact sampler for them (IG base or a stable composition)."""
    needed = {}
    for where in ("tcpp.subordinators.spec:InverseOf",
                  "tcpp.subordinators.spec:InverseGaussian",
                  "tcpp.subordinators.spec:flatten_stable_composition"):
        needed[where.rpartition(":")[2]] = obj = _resolve(where)
        if obj is None:
            tracer.missing[where] = "not found; walks cannot be told from exact draws"
    if None in needed.values():
        return lambda spec, exact_only=True: False
    inverse, ig = needed["InverseOf"], needed["InverseGaussian"]
    flatten = needed["flatten_stable_composition"]

    def is_walk(spec, exact_only=True):
        if not isinstance(spec, inverse):
            return False
        return not exact_only or not (
            flatten(spec.base) is not None or isinstance(spec.base, ig))

    return is_walk


def _targets(tracer: Tracer) -> list:
    """(where, span name, attrs(args, kwargs, result) or None) for each traced target."""
    is_walk = _walk_classifier(tracer)
    targets = [
        ("tcpp.subordinators.stable:StableUnit.pdf", "stable.pdf", _points(1, "x")),
        ("tcpp.subordinators.densities:hitting_time_density_ig",
         "densities.hitting_time_density_ig", _points(0, "x")),
        ("tcpp.subordinators.densities:inverse_tempered_density",
         "densities.inverse_tempered_density", _points(0, "x")),
        ("tcpp.subordinators.sampling:sample", "sampling.sample", lambda a, k, out: {
            "draws": int(_arg(a, k, 2, "count")), "walk": is_walk(_arg(a, k, 0, "spec"))}),
        ("tcpp.subordinators.sampling:sample_path", "sampling.sample_path", lambda a, k, out: {
            "cells": int(np.size(out)),
            "walk": is_walk(_arg(a, k, 0, "spec"), exact_only=False)}),
        ("tcpp.timechange:MixtureRule.pmf_matrix", "timechange.pmf_matrix", lambda a, k, out: {
            "cols": int(np.size(_arg(a, k, 1, "ts")))}),
        ("tcpp.timechange:MixtureRule.tail_mass", "timechange.tail_mass", None),
        ("tcpp.timechange:pmf_table", "timechange.pmf_table", None),
        ("tcpp.timechange:pmf_monte_carlo", "timechange.pmf_monte_carlo", None),
        ("tcpp.specfun:caputo_derivative", "specfun.caputo_derivative", None),
        ("tcpp.verify.registry:check_equation", "verify.check_equation", lambda a, k, out: {
            "equation_id": _arg(a, k, 0, "equation_id")}),
        ("tcpp.cli:cmd_verify", "cli.cmd_verify", None),
    ]
    unit_fn = _resolve("tcpp.subordinators.stable:stable_unit")
    if not hasattr(unit_fn, "cache_info"):
        tracer.missing["tcpp.subordinators.stable:stable_unit"] = "no cache_info() to count builds"
    rule_fn = _resolve("tcpp.timechange:mixture_rule")
    if not hasattr(rule_fn, "cache_info"):
        tracer.missing["tcpp.timechange:mixture_rule"] = "no cache_info() to tell builds from hits"
    else:
        seen = {"misses": rule_fn.cache_info().misses}

        def rule_attrs(a, k, rule):
            # a call that adds a cache miss built its rule
            now = rule_fn.cache_info().misses
            built, seen["misses"] = now > seen["misses"], now
            if not built:
                return {"built": False}
            nodes = getattr(rule, "nodes", None)
            if nodes is None:
                tracer.missing["tcpp.timechange:MixtureRule.nodes"] = "a built rule has no nodes"
            return {"built": True, "nodes": int(np.size(nodes))}

        targets.append(("tcpp.timechange:mixture_rule", "timechange.mixture_rule", rule_attrs))
    densities = _resolve("tcpp.subordinators.densities")
    if densities is None:
        tracer.missing["tcpp.subordinators.densities"] = "module not found"
        return targets
    # every other density is a minor span: densities.other_s
    named = {where for where, _, _ in targets}
    for name in list(getattr(densities, "__all__", [])) + ["hitting_time_boundary_ig"]:
        where = f"tcpp.subordinators.densities:{name}"
        if where not in named and callable(getattr(densities, name, None)):
            targets.append((where, None, None))
    return targets


def install(tracer: Tracer) -> Tracer:
    """Patch tcpp (already imported, with tcpp.cli) to record spans into `tracer`.

    Targets the program lacks are named in `tracer.missing`, with the reason.
    """
    for where, span_name, attrs in _targets(tracer):
        orig = _resolve(where)
        if orig is None:
            tracer.missing[where] = "not found in the program"
            continue
        if span_name is None:
            span_name = "densities." + where.rpartition(":")[2]
            wrapped = tracer.wrap(span_name, orig, None, minor_in="densities.")
        else:
            wrapped = tracer.wrap(span_name, orig, attrs)
        module, _, attr_path = where.partition(":")
        if "." in attr_path:
            cls_name, method = attr_path.split(".")
            setattr(_resolve(f"{module}:{cls_name}"), method, wrapped)
        else:
            _patch_everywhere(orig, wrapped)
    return tracer


# -- aggregation ----------------------------------------------------------------


def layer_metrics(spans: list) -> dict:
    """Per-layer sums from one run's spans (counters from caches come separately)."""
    n = len(spans)
    dur = np.array([s[END] - s[START] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    in_dens = np.zeros(n, dtype=bool)  # some ancestor is a densities span
    for s in spans:  # parents precede their children
        p = s[PARENT]
        if p is None:
            continue
        child[p] += dur[s[ID]]
        in_dens[s[ID]] = in_dens[p] or spans[p][NAME].startswith("densities.")
    self_time = dur - child

    m = {name: 0.0 for name in PER_LAYER if not name.startswith(("cli.import", "trace."))}

    def attr(s, key, default=0):
        return (s[ATTRS] or {}).get(key, default)

    dens_time = 0.0
    rule_nodes = []
    for s in spans:
        i, name = s[ID], s[NAME]
        d = dur[i]
        if name.startswith("densities.") and not in_dens[i]:
            dens_time += d
        if name == "stable.pdf":
            m["stable.pdf_s"] += d
            m["stable.pdf_points"] += attr(s, "points")
        elif name == "densities.hitting_time_density_ig":
            m["densities.hitting_ig_s"] += d
            m["densities.hitting_ig_points"] += attr(s, "points")
        elif name == "densities.inverse_tempered_density":
            m["densities.inv_tempered_s"] += d
            m["densities.inv_tempered_points"] += attr(s, "points")
        elif name == "sampling.sample":
            m["sampling.sample_s"] += d
            m["sampling.draws"] += attr(s, "draws")
            if attr(s, "walk", False):
                m["sampling.walk_s"] += d
        elif name == "sampling.sample_path":
            m["sampling.path_s"] += d
            m["sampling.path_cells"] += attr(s, "cells")
            if attr(s, "walk", False):
                m["sampling.walk_s"] += d
        elif name == "timechange.mixture_rule" and attr(s, "built", False):
            m["timechange.rule_build_s"] += d
            rule_nodes.append(attr(s, "nodes"))
        elif name == "timechange.pmf_matrix":
            m["timechange.pmf_matrix_s"] += d
            m["timechange.pmf_matrix_cols"] += attr(s, "cols")
        elif name == "timechange.tail_mass":
            m["timechange.tail_mass_s"] += d
            m["timechange.tail_mass_calls"] += 1
        elif name == "timechange.pmf_monte_carlo":
            m["timechange.mc_s"] += d
        elif name == "specfun.caputo_derivative":
            m["specfun.caputo_s"] += d
            m["specfun.caputo_calls"] += 1
        elif name == "verify.check_equation":
            eq = attr(s, "equation_id", "")
            metric = equation_metric(eq)
            if metric in m:
                m[metric] += d
            m["verify.self_s"] += self_time[i]
        elif name == "cli.cmd_verify":
            m["cli.verify_io_s"] += self_time[i]
    # the two key densities never call each other, so their sums do not overlap
    key_time = m["densities.hitting_ig_s"] + m["densities.inv_tempered_s"]
    m["densities.other_s"] = max(0.0, dens_time - key_time)
    m["timechange.rule_nodes"] = float(np.mean(rule_nodes)) if rule_nodes else 0.0
    m["trace.spans"] = n
    return m


def self_times_by_name(spans: list) -> dict:
    """{span name: [calls, total s, self s]} for the detail file."""
    dur = {s[ID]: s[END] - s[START] for s in spans}
    child = {}
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] = child.get(s[PARENT], 0.0) + dur[s[ID]]
    out = {}
    for s in spans:
        row = out.setdefault(s[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[s[ID]]
        row[2] += dur[s[ID]] - child.get(s[ID], 0.0)
    return out


def parse_importtime(stderr: str) -> dict:
    """Breakdown of `python -X importtime` output (microseconds) in seconds."""
    self_us, cum_us = {}, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if not parts[0].isdigit():
            continue
        name = parts[2].strip()
        self_us[name] = int(parts[0])
        cum_us[name] = int(parts[1])
    out = {metric: cum_us.get(mod, 0) * 1e-6 for metric, mod in IMPORT_GROUPS.items()}
    out["cli.import.tcpp_self_s"] = sum(
        v for k, v in self_us.items() if k == "tcpp" or k.startswith("tcpp.")) * 1e-6
    return out
