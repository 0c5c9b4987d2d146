"""Command-line front end.

Subcommands:
    pmf       pmf table for a time-changed Poisson process (CSV or JSON)
    simulate  sample paths of a subordinator or time-changed counts (CSV)
    verify    run a verification campaign, one residual report per request
    moments   closed-form IG time-change moments plus a pmf cross-check

Exit codes: 0 success, 2 input error, 3 capability error, 4 verification
failure.  The commands raise; `main` alone maps each error to its exit code,
through `_EXIT_CODES`.

- 2: a malformed or out-of-domain argument: a spec, `--t-grid` or campaign
  config that cannot be read or parsed, or whose fields have the wrong type;
  a `--t`, `--lambda` or `--t-grid` time that is NaN, infinite or not
  positive; a `--kmax` outside [0, 2^20], which bounds a table's memory; a
  `simulate --lambda` whose product with the largest clock value is past
  numpy's Poisson sampler (`_POISSON_MAX`); an `--out` or `--out-dir` that
  cannot be written.
- 3: the method does not serve the spec (the error lists the methods that
  do, `tcpp.timechange.ROUTES`); its route did not converge, as for a
  quadrature node window narrower than float spacing (IG(1, 1e200)), an
  inverse tempered clock whose tilt integrals would take more than 2^16
  panels at one point, a `moments` table whose second-moment tail cannot be
  bounded, or a table whose values and tail bound miss 1 by more than 1e-3;
  a table without `--kmax` refused at the kmax cap (`table_cache`); or a
  request that needs more memory than the machine gives (a Monte Carlo
  sample numpy cannot allocate).
- 4: a check failed, or raised: its report then has status "error", its
  summary.csv row reads `error`, and the campaign goes on.

A command that exits 2 or 3 writes nothing.  `verify` checks every request of
a campaign config before any check runs (`_load_campaign`): a request is an
object with keys among equation_id, params, grid and k_range, names a
registered equation, and passes that equation's param domains, its points
(`equation_points`) and `GridSpec`.  The checks run one after another.

Every command is deterministic given its full flag set; the TCPP_SEED
environment variable provides a seed when --seed is absent.  CSV output uses
`.` decimals and 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import traceback
from pathlib import Path

import numpy as np

from .errors import (
    POSITIVE,
    ConvergenceError,
    DomainError,
    NoDensityError,
    UnknownEquationError,
)
from .subordinators.sampling import rng_stream, sample_path
from .subordinators.spec import SubordinatorSpec, spec_from_json
from .timechange import (
    ROUTES,
    PmfTable,
    _auto,
    ig_moment_table,
    moments_ig,
    pmf_monte_carlo,
    pmf_table,
)
from .verify.registry import check_equation, equation_params, equation_points, registry_ids
from .verify.report import ErrorReport, GridSpec

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_VERIFY = 4

# every error a command ends in on bad input or a refused route; any other
# exception is a bug and keeps its traceback
_EXIT_CODES = {ConvergenceError: EXIT_CAPABILITY, NoDensityError: EXIT_CAPABILITY,
               MemoryError: EXIT_CAPABILITY, DomainError: EXIT_INPUT,
               UnknownEquationError: EXIT_INPUT, OSError: EXIT_INPUT, UnicodeDecodeError: EXIT_INPUT}


# numpy's Poisson sampler refuses a mean above about 9.22e18
_POISSON_MAX = 9.2e18


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _load_spec(text: str) -> SubordinatorSpec:
    """An inline JSON object, or the path of a file that holds one."""
    return spec_from_json(text if text.lstrip().startswith("{") else Path(text).read_text())


def _write_table(table: PmfTable, out: str):
    out_path = Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if out_path.suffix.lower() == ".json":
        out_path.write_text(table.to_json() + "\n")
    else:
        with out_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            for row in table.csv_rows():
                writer.writerow(row)


def cmd_pmf(args) -> int:
    spec = _load_spec(args.spec)
    method = _auto(spec) if args.method == "auto" else args.method
    if method == "mc":
        table = pmf_monte_carlo(args.t, args.lam, spec, args.count, args.seed, kmax=args.kmax)
    else:
        table = pmf_table(args.t, args.lam, spec, kmax=args.kmax, method=method)
    _write_table(table, args.out)
    print(f"wrote {args.out}: kmax={table.kmax} sum+tail={1.0 + table.normalization_defect:.12f}")
    return EXIT_OK


def _parse_t_grid(text: str) -> np.ndarray:
    try:
        if ":" in text:
            start, stop, num = text.split(":")
            return np.linspace(float(start), float(stop), int(num))
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise DomainError(f"--t-grid must be 'start:stop:num' or comma-separated times, "
                          f"got {text!r}") from exc


def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    t_grid = _parse_t_grid(args.t_grid)
    if args.lam is not None:
        POSITIVE.check("--lambda", args.lam)
    values = sample_path(spec, t_grid, args.paths, args.seed)
    if args.lam is not None:
        if not args.lam * np.max(values) <= _POISSON_MAX:
            raise DomainError(f"--lambda {args.lam:g} times the largest clock value "
                              f"{np.max(values):g} exceeds the Poisson sampler's range "
                              f"({_POISSON_MAX:g})")
        # time-changed Poisson counts: accumulate Poisson increments over the
        # nondecreasing clock increments so each row is a genuine count path
        rng = rng_stream(args.seed, 1)
        inc = np.diff(np.concatenate([np.zeros((args.paths, 1)), values], axis=1), axis=1)
        values = np.cumsum(rng.poisson(args.lam * inc), axis=1).astype(float)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path"] + [_fmt(t) for t in t_grid])
        for i in range(args.paths):
            writer.writerow([str(i)] + [_fmt(v) for v in values[i]])
    print(f"wrote {args.out}: {args.paths} paths x {t_grid.size} times")
    return EXIT_OK


_REQUEST_KEYS = {"equation_id", "params", "grid", "k_range"}


def _load_campaign(path: str | None) -> list:
    """The campaign's request list, each request checked before any runs.

    Without a config file it is every registered equation at its defaults,
    in registry order, which needs no check.
    """
    if path is None:
        return [{"equation_id": eq} for eq in registry_ids()]
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DomainError(f"campaign config is not valid JSON: {exc}") from exc
    requests = cfg.get("requests") if isinstance(cfg, dict) else cfg
    if not isinstance(requests, list) or not requests:
        raise DomainError("campaign config must hold a nonempty request list")
    for req in requests:
        if not isinstance(req, dict) or set(req) - _REQUEST_KEYS:
            raise DomainError(f"a request is an object with keys {sorted(_REQUEST_KEYS)}, "
                              f"got {req!r}")
        equation_params(req.get("equation_id"), req.get("params"))
        equation_points(req["equation_id"], req.get("k_range"))
        if "grid" in req:
            try:
                GridSpec(**req["grid"])  # validate early: no partial runs on bad input
            except TypeError as exc:
                raise DomainError(f"bad grid {req['grid']!r}: {exc}") from exc
    return requests


def _run_request(req: dict):
    """The request's ResidualReport, or an ErrorReport when its check raised."""
    grid = GridSpec(**req["grid"]) if "grid" in req else None
    try:
        return check_equation(
            req["equation_id"],
            params=req.get("params"),
            grid=grid,
            k_range=req.get("k_range"),
        )
    except Exception as exc:  # one broken check must not lose the rest of the campaign
        return ErrorReport(req["equation_id"], req.get("params"),
                           f"{type(exc).__name__}: {exc}", traceback.format_exc())


def cmd_verify(args) -> int:
    requests = _load_campaign(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = [_run_request(req) for req in requests]
    for report in reports:
        fname = re.sub(r"[^A-Za-z0-9._-]", "_", report.equation_id) + ".json"
        (out_dir / fname).write_text(report.to_json() + "\n")
    with (out_dir / "summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        # the pass column reads true, false, or error for a check that raised
        writer.writerow(["equation_id", "finest_residual", "order", "pass"])
        for report in reports:
            if isinstance(report, ErrorReport):
                writer.writerow([report.equation_id, "", "", "error"])
                continue
            order = "" if report.estimated_order is None else _fmt(report.estimated_order)
            writer.writerow([report.equation_id, _fmt(report.finest_residual),
                             order, str(bool(report.passed)).lower()])
    n_pass = sum(1 for r in reports if r.passed)
    for report in reports:
        if isinstance(report, ErrorReport):
            print(f"{report.equation_id:22s} ERROR {report.error}")
            continue
        status = "pass" if report.passed else "FAIL"
        extra = "floor-limited" if report.floor_limited else (
            f"order={report.estimated_order:.2f}" if report.estimated_order is not None else ""
        )
        print(f"{report.equation_id:22s} {status}  finest={report.finest_residual:.3e}  {extra}")
    print(f"{n_pass}/{len(reports)} equations pass; reports in {out_dir}")
    return EXIT_OK if n_pass == len(reports) else EXIT_VERIFY


def cmd_moments(args) -> int:
    mean, var = moments_ig(args.t, args.lam, args.delta, args.gamma)
    table = ig_moment_table(args.t, args.lam, args.delta, args.gamma)
    ks = np.arange(table.kmax + 1, dtype=float)
    m1 = float(np.sum(ks * table.values))
    m2 = float(np.sum(ks * ks * table.values))
    check = max(abs(m1 - mean), abs(m2 - m1 * m1 - var))
    payload = {"mean": mean, "variance": var, "pmf_check": check}
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcpp",
        description="Time-changed Poisson processes: pmf tables, path simulation, "
                    "and numerical certification of the governing equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = os.environ.get("TCPP_SEED", "0")  # a string default goes through type=int too

    p = sub.add_parser("pmf", help="pmf table of N(X(t))")
    p.add_argument("--spec", required=True, help="subordinator spec JSON (inline or file path)")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", choices=["auto", *ROUTES], default="auto",
                   help=f"auto: the first of {', '.join(ROUTES)} that serves the clock")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--count", type=int, default=100000, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", required=True, help="output file (.csv or .json)")
    p.set_defaults(fn=cmd_pmf)

    p = sub.add_parser("simulate", help="sample paths on a time grid")
    p.add_argument("--spec", required=True)
    p.add_argument("--t-grid", dest="t_grid", required=True,
                   help="'start:stop:num' or comma-separated times")
    p.add_argument("--paths", type=int, default=8)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="if given, emit time-changed Poisson count paths")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run a residual-verification campaign")
    p.add_argument("--config", default=None,
                   help="campaign JSON (default: every registered equation)")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("moments", help="closed-form IG time-change moments")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_moments)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
