"""Request lists for the three benchmark workloads, generated from a seed.

Nothing here imports tcpp: the worker process receives only these lists.

Seeds move the order of requests, the gap before a key's second send, the
sampler seeds and simulate's Monte Carlo (t, lambda), but not the cost of a
list: every seed gives each clock the same keys, one per band of log t at
the band's centre with a lambda fixed by the band, and every key is sent
exactly twice. The cost of a pmf request jumps with t for some clocks (the
inverse-tempered rule costs 0.3 s cold at t = 0.44, 4.5 s at t = 0.57, 6.0 s
at t = 1 and 3.6 s at t = 1.15), so keys drawn anywhere in their band, even
in its middle fifth, made the list's CPU time swing by half from seed to
seed: a property of the seed rather than of the program.

pmf-mix and simulate run their list in ROUNDS rounds (see worker.py), and
every call that samples carries one sampler seed per round, `seeds`. The
first-passage walks of simulate take the round number as their seed, in
every run: a walk's cost depends on its path (one call took 1.0-2.9 s over
six seeds), so walks on seeds drawn per run moved the median round by 25%
from run to run. The seed moves every other sampler seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("certify", "pmf-mix", "simulate")

IG11 = {"type": "ig", "delta": 1.0, "gamma": 1.0}


def _stable(beta):
    return {"type": "stable", "beta": beta}


def _tempered(beta, mu=1.0):
    return {"type": "tempered", "beta": beta, "mu": mu}


def _inverse(base):
    return {"type": "inverse", "base": base}


def _compose(*parts):
    return {"type": "compose", "parts": list(parts)}


# every clock with a quadrature route through pmf_table, with its number of
# keys. 48 quadrature keys (96 rules) overflow mixture_rule's 64 entries, and
# the list holds 100 requests, while a round stays near 13 s on 2 cores, so
# that three rounds fit a run. The hitting-time clocks cost the most: one
# IG-hitting key (t = 1) and two inverse-tempered keys, at t = 0.5 (3.2 s
# cold, on the rise from 0.3 s at t = 0.44 to 4.5 s at t = 0.57) and t = 2
# (0.7 s). The counts also place the percentiles inside blocks of requests of
# like cost, not at the edge of a block, where they would jump with the
# order of the list: 32 requests of the cheap clocks (IG(1,1), tempered(0.5),
# inverse-stable(0.5), and the warm sends of tempered(0.3) and
# inverse-stable(0.3)) take under 10 ms, and the median falls among the
# 65-100 ms requests of IG(1,0), stable(0.5) and stable(0.7); one key each of
# stable(0.3) and stable(0.5)*stable(0.5) keeps the requests over 300 ms to
# seven, so that the 90th percentile falls among the 150-230 ms cold
# stable(0.5) and stable(0.7) requests.
PMF_TABLE_CLOCKS = {
    "ig(1,1)": (IG11, 5),
    "ig(1,0)": ({"type": "ig", "delta": 1.0, "gamma": 0.0}, 8),
    "stable(0.3)": (_stable(0.3), 1),
    "stable(0.5)": (_stable(0.5), 8),
    "stable(0.7)": (_stable(0.7), 8),
    "tempered(0.5,1)": (_tempered(0.5), 4),
    "tempered(0.3,1)": (_tempered(0.3), 4),
    "stable(0.5)*stable(0.5)": (_compose(_stable(0.5), _stable(0.5)), 1),
    "inverse-stable(0.3)": (_inverse(_stable(0.3)), 2),
    "inverse-stable(0.5)": (_inverse(_stable(0.5)), 4),
    "ig-hitting(1,1)": (_inverse(IG11), 1),
    "inverse-tempered(0.5,1)": (_inverse(_tempered(0.5)), 2),
}
# no density evaluator: `tcpp pmf --method auto` sends it to Monte Carlo
PMF_MC_CLOCKS = {"ig(1,1)*tempered(0.4,1)": (_compose(IG11, _tempered(0.4)), 2)}

PMF_LAMBDAS = (0.5, 1.0, 2.0)
PMF_T_RANGE = (0.25, 4.0)
# A key's second send follows its first within this many first sends, so it
# finds its rules still cached: with two rules per key, at most 24 rules are
# built in between, against mixture_rule's 64 entries. Keys that are not
# sent again still overflow the cache and are evicted.
PMF_REPEAT_WITHIN = 12
PMF_MC_COUNT = 100_000

SIM_GRID = (0.1, 2.0, 64)  # the README's --t-grid 0.1:2:64
# Walks step geometrically, about log(range) / rtol steps whatever the path
# count: at the default rtol 1e-4 one walk costs 4-10 s, too long to repeat
# within a run, at 1e-3 about 0.3-0.5 s through the same code.
SIM_RTOL = 1e-3
SIM_SUBORDINATORS = {
    "ig(1,1)": IG11,
    "stable(0.5)": _stable(0.5),
    "stable(0.3)": _stable(0.3),
    "tempered(0.5,1)": _tempered(0.5),
    "stable(0.5)*stable(0.5)": _compose(_stable(0.5), _stable(0.5)),
    "ig(1,1)*tempered(0.4,1)": _compose(IG11, _tempered(0.4)),
}
SIM_SUBORDINATOR_PATHS = (16, 256)
SIM_WALK_PATHS = 64
SIM_MC_COUNT = 100_000
# The inverse-tempered clock has no exact sampler: every draw walks the base
# path. Its draws go through `sample`, the call under pmf_monte_carlo, which
# takes no rtol and would walk at 1e-4 (27 s for its minimum of 1000 draws).
SIM_WALK_DRAWS = 300
SIM_WALK_T = 1.0

# Rounds a run makes: certify runs its campaign once; pmf-mix's round is
# about 12 s and simulate's about 3 s on 2 cores.
ROUNDS = {"certify": 1, "pmf-mix": 3, "simulate": 6}


def _seed_int(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _round_seeds(rng, workload: str) -> list:
    return [_seed_int(rng) for _ in range(ROUNDS[workload])]


def _band_centres(n: int, lo: float, hi: float) -> list:
    """The centres of n equal bands of log t on [lo, hi]."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (j + 0.5) / n) for j in range(n)]


def certify_requests(seed: int, reduced: bool = False) -> list:
    """One request: `tcpp verify` on the packaged default campaign.

    The campaign is fixed by the package, so the seed changes nothing here.
    The reduced list runs two cheap equations through --config instead.
    """
    del seed
    if reduced:
        return [{"argv": ["verify"], "campaign": [{"equation_id": "prop2.1"},
                                                  {"equation_id": "deblassie(1/2)"}]}]
    return [{"argv": ["verify"], "campaign": None}]


def pmf_mix_requests(seed: int, reduced: bool = False) -> list:
    """Pmf requests keyed by (clock, lambda, t); each key is sent twice."""
    rng = np.random.default_rng([seed, 1])
    clocks = [(name, spec, n, "table") for name, (spec, n) in PMF_TABLE_CLOCKS.items()]
    clocks += [(name, spec, n, "mc") for name, (spec, n) in PMF_MC_CLOCKS.items()]
    if reduced:
        cheap = {"ig(1,1)", "tempered(0.5,1)", "inverse-stable(0.5)"} | set(PMF_MC_CLOCKS)
        clocks = [(name, spec, 2, route) for name, spec, _, route in clocks if name in cheap]
    keys = []
    for name, spec, n_keys, route in clocks:
        ts = _band_centres(n_keys, *PMF_T_RANGE)
        # lambda follows the band: which lambda meets a clock's costly t is
        # then the same for every seed (inverse-tempered at t = 1 costs 6 s
        # cold with lambda = 2 against 4 s with lambda = 1)
        for t, lam in zip(ts, np.resize(PMF_LAMBDAS, n_keys)):
            key = {"clock": name, "spec": spec, "route": route, "lam": float(lam), "t": t}
            if route == "mc":
                key.update(count=PMF_MC_COUNT, seeds=_round_seeds(rng, "pmf-mix"))
            keys.append(key)
    first = rng.permutation(len(keys))
    gap = rng.integers(1, PMF_REPEAT_WITHIN + 1, size=len(keys))
    sends = [(float(i), k) for i, k in enumerate(first)]
    sends += [(i + gap[i] + 0.5, k) for i, k in enumerate(first)]
    return [dict(keys[k], key=int(k)) for _, k in sorted(sends)]


def simulate_requests(seed: int, reduced: bool = False) -> list:
    """Three requests, one per sampling route.

    1. exact samplers: paths of every subordinator at 16 and 256 paths and a
       Monte Carlo pmf of every clock with an exact single-time sampler;
    2. path walks: inverse-stable(0.5), IG-hitting and inverse
       stable(0.5)*stable(0.5) paths, one first-passage walk each;
    3. a draw walk: inverse-tempered draws, each a first-passage walk.
    """
    rng = np.random.default_rng([seed, 2])
    grid = list(SIM_GRID)

    walk_seeds = list(range(ROUNDS["simulate"]))

    def path(spec, paths):
        seeds = walk_seeds if spec["type"] == "inverse" else _round_seeds(rng, "simulate")
        return {"call": "sample_path", "spec": spec, "grid": grid, "paths": paths,
                "seeds": seeds, "rtol": SIM_RTOL}

    def mc(spec):
        return {"call": "pmf_monte_carlo", "spec": spec,
                "t": float(np.exp(rng.uniform(math.log(0.5), math.log(2.0)))),
                "lam": float(rng.choice(PMF_LAMBDAS)), "count": SIM_MC_COUNT,
                "seeds": _round_seeds(rng, "simulate")}

    def draws(spec):
        # a walk's cost grows with t, so t is pinned, and so are its seeds
        return {"call": "sample", "spec": spec, "t": SIM_WALK_T, "count": SIM_WALK_DRAWS,
                "seeds": walk_seeds, "rtol": SIM_RTOL}

    inv_stable = _inverse(_stable(0.5))
    if reduced:
        subordinators = {k: SIM_SUBORDINATORS[k] for k in ("ig(1,1)", "tempered(0.5,1)")}
        exact = [c for spec in subordinators.values()
                 for c in [path(spec, p) for p in SIM_SUBORDINATOR_PATHS] + [mc(spec)]]
        return [{"name": "exact samplers", "calls": exact},
                {"name": "inverse-stable(0.5) draws", "calls": [draws(inv_stable)]}]
    exact = [c for spec in SIM_SUBORDINATORS.values()
             for c in [path(spec, p) for p in SIM_SUBORDINATOR_PATHS] + [mc(spec)]]
    exact += [mc(inv_stable), mc(_inverse(IG11))]
    walks = [inv_stable, _inverse(IG11), _inverse(_compose(_stable(0.5), _stable(0.5)))]
    return [
        {"name": "exact samplers", "calls": exact},
        {"name": "path walks", "calls": [path(spec, SIM_WALK_PATHS) for spec in walks]},
        {"name": "inverse-tempered(0.5,1) draws", "calls": [draws(_inverse(_tempered(0.5)))]},
    ]


GENERATORS = {
    "certify": certify_requests,
    "pmf-mix": pmf_mix_requests,
    "simulate": simulate_requests,
}


def requests_for(workload: str, seed: int, reduced: bool = False) -> list:
    return GENERATORS[workload](seed, reduced)


def fingerprint(requests: list) -> str:
    return json.dumps(requests, sort_keys=True)
