"""Ordinary logistic likelihood with per-cluster intercepts, profiled out.

For a fixed beta, each cluster's intercept is the unique root tau of

    sum_k expit(eta_k + tau) = T,        eta_k = X_k' beta,  T = sum_k Y_k,

which exists and is finite exactly when the cluster is discordant
(1 <= T <= K-1).  Plugging the roots back in gives the profile
log-likelihood; its gradient needs no d(tau)/d(beta) term because the root
equation holds identically in beta.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .data import Cluster, DataError, Dataset

__all__ = [
    "profile_tau",
    "olr_avg_loglik",
    "profile_loglik",
    "olr_profile_score",
]

_TAU_RESIDUAL_TOL = 1e-12
# a cap only, the residual ends the loop: 100 halvings alone take a bracket
# 1e14 wide below 1e-16
_TAU_MAX_STEPS = 100


def _tau_batch(eta: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Profile roots for a batch of same-size clusters.

    eta is (n, K), T is (n,) with 1 <= T <= K-1.  The root equation's left
    side is strictly increasing in tau, and the root lies in the analytic
    bracket logit(T/K) -/+ max_k|eta_k|.  Bracketed Newton from the centre:
    each residual's sign moves one end of the bracket to the current tau,
    and a Newton step that would leave the bracket bisects it instead.
    """
    eta = np.asarray(eta, dtype=float)
    T = np.asarray(T, dtype=float)
    K = eta.shape[1]
    amp = np.abs(eta).max(axis=1)
    tau = np.log(T / (K - T))
    lo = tau - amp
    hi = tau + amp
    # no float tau brings the residual much below slope * ulp(tau), which
    # passes the tolerance at large |tau|; bound it over the bracket, the
    # slope being at most K/4
    tol = np.maximum(_TAU_RESIDUAL_TOL, K / 4 * np.spacing(np.abs(tau) + amp))
    for _ in range(_TAU_MAX_STEPS):
        p = expit(eta + tau[:, None])
        f = p.sum(axis=1) - T
        if np.all(np.abs(f) <= tol):
            break
        high = f > 0.0
        hi = np.where(high, tau, hi)
        lo = np.where(high, lo, tau)
        newton = tau - f / np.maximum((p * (1.0 - p)).sum(axis=1), 1e-300)
        # inclusive: tau is the end just moved, so when the step rounds to 0
        # strict bounds would bisect away from the root
        tau = np.where((newton >= lo) & (newton <= hi), newton,
                       0.5 * (lo + hi))
    return tau


def profile_tau(cluster: Cluster, beta) -> float:
    """The unique intercept matching the cluster's expected outcome sum."""
    T = cluster.outcome_sum
    if not 1 <= T <= cluster.size - 1:
        raise DataError("profile root is infinite for a concordant cluster")
    eta = cluster.linear_predictors(beta)
    return float(_tau_batch(eta[None, :], np.array([T]))[0])


def _dataset_taus(dataset: Dataset, beta) -> np.ndarray:
    """Profile roots for every cluster, one batch per cluster size."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    taus = np.empty(dataset.n_clusters)
    for block in dataset.blocks:
        taus[block.index] = _tau_batch(block.X @ beta, block.T)
    return taus


def _olr_eval(dataset: Dataset, beta, order: int, cluster_effects=None):
    """Average ordinary log-likelihood and, up to `order`, its derivatives.

    The intercepts are `cluster_effects` if given, else the profile roots.
    Returns the first order + 1 of (value, score, Hessian); score and Hessian
    are those of the profile log-likelihood, so they need the profile roots.
    The Hessian is the Schur complement of the intercept block,

        -sum_j [X_j' W_j X_j - (X_j' w_j)(w_j' X_j) / sum_k w_jk],

    with w_jk = pi_jk (1 - pi_jk).
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    P = beta.shape[0]
    if cluster_effects is None:
        cluster_effects = _dataset_taus(dataset, beta)
    value, score, hess = 0.0, np.zeros(P), np.zeros((P, P))
    for block in dataset.blocks:
        s = block.X @ beta + cluster_effects[block.index][:, None]
        value += float((block.y * s).sum() - np.logaddexp(0.0, s).sum())
        if order >= 1:
            p = expit(s)
            score += np.einsum("nk,nkp->p", block.y - p, block.X)
        if order >= 2:
            w = p * (1.0 - p)
            wx = w[:, :, None] * block.X
            xw = wx.sum(axis=1)
            hess -= (np.einsum("nkp,nkq->pq", block.X, wx)
                     - (xw.T / np.maximum(w.sum(axis=1), 1e-300)) @ xw)
    N = dataset.n_individuals
    return (value / N, score / N, hess / N)[:order + 1]


def olr_avg_loglik(dataset: Dataset, beta, cluster_effects) -> float:
    """Average ordinary-logistic log-likelihood at beta and one intercept
    per cluster, in dataset order."""
    b = np.asarray(cluster_effects, dtype=float)
    if b.shape != (dataset.n_clusters,):
        raise DataError(f"expected {dataset.n_clusters} cluster effects, "
                        f"got {b.shape}")
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(b))):
        raise DataError("beta and cluster effects must be finite")
    return _olr_eval(dataset, beta, 0, b)[0]


def profile_loglik(dataset: Dataset, beta) -> float:
    """Ordinary log-likelihood maximized over intercepts at fixed beta."""
    return _olr_eval(dataset, beta, 0)[0]


def olr_profile_score(dataset: Dataset, beta) -> np.ndarray:
    """Gradient of profile_loglik.

    (1/N) sum_jk (Y_jk - pi_jk) X_jk with pi_jk = expit(eta_jk + tau_j).
    """
    return _olr_eval(dataset, beta, 1)[1]
