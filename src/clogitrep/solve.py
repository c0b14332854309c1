"""Concave maximization for the three estimators, plus closed-form relation checks.

All three objectives (profile, conditional, replicated conditional) are
concave with closed-form score and Hessian, so the solver is a damped Newton
method with an Armijo backtracking line search.  Each trial point is
evaluated once, for value, score, Hessian and profile roots together; the
accepted point's score and Hessian give the next Newton step, and the
maximizer's roots the fit's `tau`.  If the Newton direction fails to be an
ascent direction the step falls back to the gradient.

Roots carry from one evaluation to the next: each root solve starts from
the roots of the previous trial point, which lie close to the new ones
once the steps shrink, rather than from the centre of its bracket.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import conditional, profile
from .data import DataError, Dataset, FitResult

__all__ = [
    "SolverConfig",
    "SolverError",
    "RelationReport",
    "solve_mle",
    "solve_cmle",
    "solve_cmle_replicated",
    "verify_pair_identity",
    "verify_1K_identity",
]


class SolverError(RuntimeError):
    """Maximization failed (divergence, iteration cap, or rank deficiency)."""


# Armijo line search: backtracking factor and sufficient-increase constant
STEP_SHRINK = 0.5
ARMIJO_C = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-8
    max_iter: int = 200
    divergence_norm: float = 1e4

    def __post_init__(self):
        for name in ("grad_tol", "divergence_norm"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        n = self.max_iter
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {n}")


@dataclass(frozen=True)
class RelationReport:
    """Two sides of a closed-form MLE/CMLE relation and their gap."""

    lhs: float
    rhs: float
    abs_gap: float
    inputs: dict = field(default_factory=dict)


@functools.lru_cache(maxsize=1)
def _check_column_rank(dataset: Dataset) -> None:
    """Identifiability precheck: [X | cluster indicators] has full column rank.

    Equivalent to the within-cluster-centered covariate matrix having full
    column rank (X a + E b = 0 forces a into the centered null space), which
    avoids materializing the N x (P + J) matrix.  A dataset that passes is
    not checked again by the next fit of it (a Dataset hashes by identity);
    one that fails raises every time, as exceptions are not cached.
    """
    P = dataset.n_covariates
    centered = np.vstack([
        (b.X - b.X.mean(axis=1, keepdims=True)).reshape(-1, P)
        for b in dataset.blocks])
    if np.linalg.matrix_rank(centered) < P:
        raise SolverError("design matrix [X | cluster indicators] is rank "
                          "deficient; parameters not identified")


def _maximize(evaluate, p: int, cfg: SolverConfig,
              x0=None) -> tuple[np.ndarray, tuple, int]:
    """Damped Newton ascent on a concave objective.

    evaluate(x) returns (value, score, Hessian, ...) and is called once per
    trial point of the line search, the starting point included.  Returns
    (maximizer, its evaluation whole, iterations).
    """
    x = np.zeros(p) if x0 is None else np.array(x0, dtype=float)
    state = evaluate(x)
    for it in range(cfg.max_iter + 1):
        f, g, H = state[:3]
        gnorm = float(np.abs(g).max())
        if gnorm <= cfg.grad_tol:
            return x, state, it
        if it == cfg.max_iter:
            raise SolverError("max iterations exceeded")
        try:
            d = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            d = g.copy()
        if float(g @ d) <= 0.0:
            d = g.copy()
        slope = float(g @ d)
        t = 1.0
        while True:
            x_new = x + t * d
            state_new = evaluate(x_new)
            if state_new[0] >= f + ARMIJO_C * t * slope:
                break
            t *= STEP_SHRINK
            if t < 1e-14:
                # x, and so the next search, would be unchanged
                raise SolverError("line search stalled: no step along the "
                                  "search direction increased the objective "
                                  f"(|g|inf = {gnorm:.3g})")
        x, state = x_new, state_new
        if np.abs(x).max() > cfg.divergence_norm:
            raise SolverError("divergence: possible separation / "
                              "nonexistent MLE")


def _fit(dataset: Dataset, method: str, evaluate, cfg: SolverConfig | None,
         x0) -> FitResult:
    """Maximize evaluate(beta, start), which returns (value, score, Hessian,
    roots) with its roots solved from `start`: the previous evaluation's."""
    _check_column_rank(dataset)
    roots = None

    def evaluate_warm(beta):
        nonlocal roots
        state = evaluate(beta, roots)
        roots = state[-1]
        return state

    beta, (f, g, _, tau), its = _maximize(
        evaluate_warm, dataset.n_covariates, cfg or SolverConfig(), x0)
    return FitResult(beta_hat=beta, objective=f,
                     grad_inf_norm=float(np.abs(g).max()), iterations=its,
                     method=method, tau=tau,
                     dropped_concordant=dataset.dropped_concordant)


def solve_mle(dataset: Dataset, cfg: SolverConfig | None = None,
              x0=None) -> FitResult:
    """Maximize the profile log-likelihood (ordinary logistic MLE for beta)."""
    return _fit(dataset, "MLE",
                lambda b, start: profile._olr_eval(dataset, b, 2,
                                                   start=start), cfg, x0)


def solve_cmle(dataset: Dataset, cfg: SolverConfig | None = None,
               x0=None) -> FitResult:
    """Maximize the exact conditional log-likelihood."""
    return _fit(dataset, "CMLE",
                lambda b, start: conditional._clr_eval(dataset, 1, b, 2,
                                                       start=start), cfg, x0)


def solve_cmle_replicated(dataset: Dataset, R: int,
                          cfg: SolverConfig | None = None,
                          x0=None) -> FitResult:
    """Maximize the R-replication conditional log-likelihood.

    Along an ascending R grid, start each fit from the 1/R-extrapolated
    estimate x0 = mle + (prev - mle) * R_prev / R, where prev is the
    estimate at R_prev and mle the MLE's: CMLE-R tends to the MLE at rate
    1/R (the saddle-point limit of the normalizer), so this lands nearer
    the new estimate than prev itself does.
    """
    R = conditional._integer(R)
    return _fit(dataset, f"CMLE-R(R={R})",
                lambda b, start: conditional._clr_eval(dataset, R, b, 2,
                                                       start=start), cfg, x0)


def verify_pair_identity(dataset: Dataset,
                         cfg: SolverConfig | None = None) -> RelationReport:
    """Matched-pair relation: the MLE equals twice the CMLE when all K_j = 2."""
    if any(b.X.shape[1] != 2 for b in dataset.blocks):
        raise DataError("pair identity requires every cluster size to be 2")
    mle = solve_mle(dataset, cfg)
    cmle = solve_cmle(dataset, cfg)
    gaps = np.abs(mle.beta_hat - 2.0 * cmle.beta_hat)
    worst = int(np.argmax(gaps))
    return RelationReport(
        lhs=float(mle.beta_hat[worst]),
        rhs=float(2.0 * cmle.beta_hat[worst]),
        abs_gap=float(gaps.max()),
        inputs={"beta_mle": mle.beta_hat, "beta_cmle": cmle.beta_hat,
                "n_clusters": dataset.n_clusters},
    )


def _one_to_k_design_controls(dataset: Dataset) -> int:
    """Validate the 1:K treatment-control shape and return K (# controls)."""
    if dataset.n_covariates != 1:
        raise DataError("1:K identity requires a single treatment indicator")
    if len(dataset.blocks) != 1:
        raise DataError("1:K identity requires a common cluster size")
    x = dataset.blocks[0].X[:, :, 0]
    if x.shape[1] < 3:
        raise DataError("1:K identity requires K > 1 controls per cluster")
    if np.any(x[:, 0] != 1.0) or np.any(x[:, 1:] != 0.0):
        raise DataError("1:K identity requires the first individual "
                        "treated (x=1) and the rest controls (x=0)")
    return x.shape[1] - 1


def verify_1K_identity(dataset: Dataset,
                       cfg: SolverConfig | None = None) -> RelationReport:
    """1:K matched treatment-control relation between the CMLE and the MLE.

    With K controls per cluster and n_t clusters having outcome sum t, the
    conditional estimating equation evaluated at the CMLE equals a
    closed-form expression in the MLE obtained by solving each cluster's
    intercept equation as a quadratic in exp(b):

        sum_t n_t / (1 + t e^bc / (K-t+1))
          = sum_t n_t / (1 + [(t-1) e^bo - (K-t) + sqrt(D_{K,t})] / (2(K-t+1)))

    with D_{K,t}(b) = ((t-1) e^b - (K-t))^2 + 4 t (K+1-t) e^b.  The last
    factor is t times the cluster size minus t: the (K-t) variant printed in
    some statements of the relation fails the identity (checked against the
    intercept quadratic directly).
    """
    K = _one_to_k_design_controls(dataset)
    mle = solve_mle(dataset, cfg)
    cmle = solve_cmle(dataset, cfg)
    bo = float(mle.beta_hat[0])
    bc = float(cmle.beta_hat[0])
    n_t = np.bincount(dataset.blocks[0].T, minlength=K + 1)
    lhs = rhs = 0.0
    eo = np.exp(bo)
    ec = np.exp(bc)
    for t in range(1, K + 1):
        lhs += n_t[t] / (1.0 + t * ec / (K - t + 1))
        disc = ((t - 1) * eo - (K - t)) ** 2 + 4.0 * t * (K + 1 - t) * eo
        denom = (1.0 + ((t - 1) * eo - (K - t) + np.sqrt(disc))
                 / (2.0 * (K - t + 1)))
        rhs += n_t[t] / denom
    return RelationReport(
        lhs=lhs, rhs=rhs, abs_gap=abs(lhs - rhs),
        inputs={"n_t": n_t[1:].tolist(), "K": K,
                "beta_cmle": bc, "beta_mle": bo},
    )
