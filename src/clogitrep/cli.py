"""Command-line front end: fit, simulate, asymptotics.

Exit codes: 0 success, 1 input error, 2 numerical/solver failure.  Every run
that writes an output file also writes `<out>.manifest.json` recording the
command line, configuration, seed, package version, wall-clock runtime, the
seconds of each phase (`read_s`, then `solve_s` or `diagnose_s`), the
Python, numpy and scipy versions and the CPU count.
Set CLOGIT_LOG to error|info|debug for verbosity.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import platform
import sys
import time
from importlib.metadata import PackageNotFoundError, version

import numpy as np
import scipy

from .data import DataError, read_csv
from .saddle import QuadratureError, rate_limit_block
from .simulate import SimConfig, run_study
from .solve import (SolverConfig, SolverError, solve_cmle,
                    solve_cmle_replicated, solve_mle)

log = logging.getLogger("clogitrep")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2


def _package_version() -> str:
    try:
        return version("clogitrep")
    except PackageNotFoundError:
        return "unknown"


def _write_manifest(out_path: str, args: argparse.Namespace,
                    t_start: float, **phases: float) -> None:
    manifest = {
        "argv": sys.argv,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": getattr(args, "seed", None),
        "version": _package_version(),
        "runtime_seconds": time.time() - t_start,
        **phases,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise DataError(f"{flag}: expected comma-separated integers") from None
    if not values:
        raise DataError(f"{flag}: empty list")
    return values


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise DataError(f"{flag}: expected comma-separated reals") from None
    if not values:
        raise DataError(f"{flag}: empty list")
    if not np.isfinite(values).all():
        raise DataError(f"{flag}: entries must be finite")
    return values


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def cmd_fit(args: argparse.Namespace) -> int:
    t0 = time.time()
    dataset = read_csv(args.input)
    read_s = time.time() - t0
    log.info("read %d discordant clusters (%d concordant dropped)",
             dataset.n_clusters, dataset.dropped_concordant)
    cfg = SolverConfig(grad_tol=args.tol, max_iter=args.max_iter)
    if args.method == "mle":
        fit = solve_mle(dataset, cfg)
    elif args.method == "cmle":
        fit = solve_cmle(dataset, cfg)
    else:
        if args.replications is None:
            raise DataError("--replications is required with method cmle-r")
        fit = solve_cmle_replicated(dataset, args.replications, cfg)
    solve_s = time.time() - t0 - read_s

    p = len(fit.beta_hat)
    if args.format == "json":
        text = json.dumps({
            "method": fit.method,
            "beta_hat": [float(b) for b in fit.beta_hat],
            "objective": fit.objective,
            "grad_inf_norm": fit.grad_inf_norm,
            "iterations": fit.iterations,
            "dropped_concordant": fit.dropped_concordant,
        }, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["method"] + [f"beta_{i + 1}" for i in range(p)]
                   + ["objective", "grad_inf_norm", "iterations",
                      "dropped_concordant"])
        w.writerow([fit.method] + [repr(float(b)) for b in fit.beta_hat]
                   + [repr(fit.objective), repr(fit.grad_inf_norm),
                      fit.iterations, fit.dropped_concordant])
        text = buf.getvalue()
    else:
        lines = [f"method:             {fit.method}"]
        for i, b in enumerate(fit.beta_hat):
            lines.append(f"beta_{i + 1}:             {b: .6f}")
        lines += [
            f"objective:          {fit.objective: .10f}",
            f"grad inf-norm:      {fit.grad_inf_norm:.3e}",
            f"iterations:         {fit.iterations}",
            f"dropped concordant: {fit.dropped_concordant}",
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    if args.out:
        _write_manifest(args.out, args, t0, read_s=read_s, solve_s=solve_s)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    t0 = time.time()
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise DataError(f"--out: no directory for {args.out}")
    cfg = SimConfig(J=args.clusters, K=args.cluster_size,
                    n_sims=args.n_sims,
                    r_values=tuple(_parse_int_list(args.replications,
                                                   "--replications")),
                    beta_true=tuple(_parse_float_list(args.beta_true,
                                                      "--beta-true")),
                    seed=args.seed, workers=args.workers)
    summary = run_study(cfg)
    summary.to_csv(args.out)
    _write_manifest(args.out, args, t0)
    log.info("wrote %s (%d rows)", args.out, len(summary.rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def cmd_asymptotics(args: argparse.Namespace) -> int:
    t0 = time.time()
    dataset = read_csv(args.input)
    read_s = time.time() - t0
    beta = np.array(_parse_float_list(args.beta, "--beta"))
    if beta.shape[0] != dataset.n_covariates:
        raise DataError(f"--beta has {beta.shape[0]} entries but the CSV "
                        f"has {dataset.n_covariates} covariates")
    r_grid = _parse_int_list(args.r_grid, "--r-grid")
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["cluster", "tau", "u0", "uprime0_abs", "R", "rate", "gap",
                "quad_rel_err"])
    # one pass per block, written out in dataset order
    diags = [None] * dataset.n_clusters
    for block in dataset.blocks:
        ids = block.index.tolist()
        for j, diag in zip(ids, rate_limit_block(
                block.X @ beta, block.T, r_grid,
                quadrature_max_r=args.quadrature_max_r, ids=ids)):
            diags[j] = diag
    for j, diag in enumerate(diags):
        quad = dict(diag.quadrature_vs_dp)
        for R, rate, gap in zip(diag.r_grid, diag.exact_rates, diag.gaps):
            w.writerow([j, repr(diag.tau), repr(diag.u0),
                        repr(diag.u_prime0_abs), R, repr(rate), repr(gap),
                        repr(quad[R]) if R in quad else ""])
    diagnose_s = time.time() - t0 - read_s
    _emit(buf.getvalue(), args.out)
    if args.out:
        _write_manifest(args.out, args, t0, read_s=read_s,
                        diagnose_s=diagnose_s)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clogitrep",
        description="Cluster-specific logistic regression: profile MLE, "
                    "conditional MLE, replicated-data CMLE, and "
                    "saddle-point diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one estimator to a CSV dataset")
    fit.add_argument("--input", required=True)
    fit.add_argument("--method", required=True,
                     choices=["mle", "cmle", "cmle-r"])
    fit.add_argument("--replications", type=int, default=None)
    fit.add_argument("--out", default=None)
    fit.add_argument("--format", default="table",
                     choices=["table", "json", "csv"])
    fit.add_argument("--tol", type=float, default=SolverConfig.grad_tol)
    fit.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="run the Monte Carlo study")
    sim.add_argument("--clusters", type=int, default=SimConfig.J)
    sim.add_argument("--cluster-size", type=int, default=SimConfig.K)
    sim.add_argument("--n-sims", type=int, default=SimConfig.n_sims)
    sim.add_argument("--replications",
                     default=",".join(map(str, SimConfig.r_values)))
    sim.add_argument("--beta-true",
                     default=",".join(map(str, SimConfig.beta_true)))
    sim.add_argument("--seed", type=int, default=SimConfig.seed)
    sim.add_argument("--workers", type=int, default=SimConfig.workers)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    asy = sub.add_parser("asymptotics",
                         help="per-cluster growth-rate diagnostics")
    asy.add_argument("--input", required=True)
    asy.add_argument("--beta", required=True)
    asy.add_argument("--r-grid", default="1,2,5,10,20,50")
    asy.add_argument("--quadrature-max-r", type=int, default=5)
    asy.add_argument("--out", default=None)
    asy.set_defaults(func=cmd_asymptotics)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("CLOGIT_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
