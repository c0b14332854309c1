"""Seeded data generation and the Monte Carlo bias/variance study.

Design: 1:(K-1) matched treatment-control clusters.  The first individual in
each cluster is treated (x1 = 1, others 0), x2 is i.i.d. standard normal,
and the cluster effect is b_j = delta_j - 5 * mean(x1) + 3 * mean(x2) with
delta_j ~ N(0, 1).

RNG contract (rng-contract-v1): each replicate uses an independent PCG64
stream seeded by SeedSequence([seed, replicate_index]) and draws, in order,
the J*K x2 normals (row-major), the J cluster-effect normals, and the J*K
outcome uniforms (row-major).  Results therefore never depend on worker
count or scheduling; tolerances for cross-implementation comparison are
statistical, not bitwise.

Each replicate fits the MLE, then CMLE(R) along the ascending r_values.
CMLE(R) - MLE shrinks as 1/R, so every CMLE(R) after the first starts where
that rate puts it, from the estimate at the R before it; the first starts
at zero.  Each start is a function of the replicate's own fits alone.
"""

from __future__ import annotations

import csv
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import conditional
from .data import DataError, Dataset
from .solve import SolverError, solve_cmle_replicated, solve_mle

__all__ = [
    "SimConfig",
    "MethodSummary",
    "SimulationSummary",
    "generate_dataset",
    "run_study",
]

DEFAULT_R_VALUES = (1, 2, 3, 4, 5, 10, 15, 20, 50, 80)


@dataclass(frozen=True)
class SimConfig:
    J: int = 100
    K: int = 3
    beta_true: tuple[float, float] = (0.5, 0.8)
    n_sims: int = 10000
    r_values: tuple[int, ...] = DEFAULT_R_VALUES
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        for name, least in (("J", 1), ("K", 2), ("n_sims", 1), ("workers", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        rv = tuple(conditional._integer(r) for r in self.r_values)
        if not rv or any(a >= b for a, b in zip(rv, rv[1:])):
            raise ValueError("r_values must be non-empty and strictly "
                             "ascending")
        bt = tuple(float(b) for b in self.beta_true)
        if len(bt) != 2 or not np.isfinite(bt).all():
            raise ValueError("beta_true must be two finite reals")
        object.__setattr__(self, "r_values", rv)
        object.__setattr__(self, "beta_true", bt)


@dataclass(frozen=True)
class MethodSummary:
    method: str
    R: int | None
    mean: np.ndarray
    variance: np.ndarray
    n_used: int
    n_failed: int


@dataclass(frozen=True)
class SimulationSummary:
    rows: tuple[MethodSummary, ...]
    seed: int
    n_sims: int
    mean_dropped_concordant: float

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "R", "mean_b1", "mean_b2",
                        "var_b1", "var_b2", "n_used", "n_failed"])
            for r in self.rows:
                var = (["NA", "NA"] if r.n_used < 2
                       else [repr(float(v)) for v in r.variance])
                w.writerow([r.method, "" if r.R is None else r.R,
                            repr(float(r.mean[0])), repr(float(r.mean[1])),
                            var[0], var[1], r.n_used, r.n_failed])


def generate_dataset(cfg: SimConfig, replicate_index: int) -> Dataset:
    """One screened dataset from the matched treatment-control design,
    packed from the flattened (J, K) draws by `Dataset.from_arrays`."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, replicate_index]))
    J, K = cfg.J, cfg.K
    x2 = rng.standard_normal((J, K))
    delta = rng.standard_normal(J)
    u = rng.random((J, K))
    x1 = np.zeros((J, K))
    x1[:, 0] = 1.0
    b = delta - 5.0 * x1.mean(axis=1) + 3.0 * x2.mean(axis=1)
    p = expit(b[:, None] + cfg.beta_true[0] * x1 + cfg.beta_true[1] * x2)
    y = (u < p).astype(int)
    X = np.stack([x1, x2], axis=2).reshape(J * K, 2)
    return Dataset.from_arrays(np.repeat(np.arange(J), K), y.ravel(), X)


def _fit_replicate(cfg: SimConfig, index: int):
    """One replicate's (1 + len(r_values), 2) estimates, the MLE's then each
    CMLE(R)'s, and its dropped concordant count; None if any fit fails.

    The MLE is fitted first.  The first CMLE(R) starts at zero; every later
    one at mle + (prev - mle) * R_prev / R, prev being the estimate at the
    R_prev before it, since CMLE(R) - MLE shrinks as 1/R."""
    try:
        dataset = generate_dataset(cfg, index)
        mle = solve_mle(dataset).beta_hat
        fits = [mle]
        for R_prev, R in zip((None,) + cfg.r_values, cfg.r_values):
            x0 = (None if R_prev is None
                  else mle + (fits[-1] - mle) * (R_prev / R))
            fits.append(solve_cmle_replicated(dataset, R, x0=x0).beta_hat)
        return np.stack(fits), dataset.dropped_concordant
    except (SolverError, DataError):
        return None


def run_study(cfg: SimConfig) -> SimulationSummary:
    """Monte Carlo means and sample variances of the MLE and each CMLE(R).

    Replicates on which any method fails (separation, non-convergence, or a
    degenerate draw) are excluded from every method's summary so the
    comparison stays paired across methods.
    """
    if cfg.workers > 1 and cfg.n_sims > 1:
        chunk = max(1, cfg.n_sims // (cfg.workers * 8))
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_fit_replicate, itertools.repeat(cfg),
                                    range(cfg.n_sims), chunksize=chunk))
    else:
        results = [_fit_replicate(cfg, i) for i in range(cfg.n_sims)]

    ok = [r for r in results if r is not None]
    n_failed = cfg.n_sims - len(ok)
    if not ok:
        raise SolverError("every replicate failed; nothing to summarize")
    # (replicates, methods, coefficients)
    estimates = np.stack([r[0] for r in ok])
    means = estimates.mean(axis=0)
    variances = (estimates.var(axis=0, ddof=1) if len(ok) > 1
                 else np.full(means.shape, np.nan))
    labels = [("MLE", None)] + [("CMLE", R) for R in cfg.r_values]
    rows = tuple(MethodSummary(method=method, R=R, mean=mean, variance=var,
                               n_used=len(ok), n_failed=n_failed)
                 for (method, R), mean, var in zip(labels, means, variances))
    mean_dropped = float(np.mean([r[1] for r in ok]))
    return SimulationSummary(rows=rows, seed=cfg.seed, n_sims=cfg.n_sims,
                             mean_dropped_concordant=mean_dropped)
