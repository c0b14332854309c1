"""Profile likelihood, and the one assembly of every likelihood.

For a fixed beta, each cluster's intercept is the unique root tau of

    sum_k expit(eta_k + tau) = T,        eta_k = X_k' beta,  T = sum_k Y_k,

finite exactly when the cluster is discordant (1 <= T <= K-1).  At the roots
the profile log-likelihood is sum_j [Y_j' eta_j - u_j(0)], where
u(0) = -tau T + sum_k log(1 + e^(eta_k + tau)) is the R -> oo limit of
(1/R) log g(eta, R, T) (Daniels 1954).  As the root equation holds
identically, u(0) has eta-gradient pi = expit(eta + tau) and Hessian
diag(w) - w w' / sum w, w = pi (1 - pi).  `_loglik_eval` assembles
sum_j [R Y_j' eta_j - A_j] / (R N) and its derivatives for a normalizer A.
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


def _limit_batch(eta: np.ndarray, T, tau: np.ndarray, order: int):
    """u(0) for rows eta (n, K), T (n,) and tau (n,), and up to `order` its
    eta-gradient and Hessian at the profile roots; u(0) holds for any tau."""
    s = eta + tau[:, None]
    pos = s > 0.0
    # the tau of each positive s_k cancels exactly against -tau T
    u0 = ((np.where(pos, eta, 0.0).sum(axis=1) + (pos.sum(axis=1) - T) * tau)
          + np.log1p(np.exp(-np.abs(s))).sum(axis=1))
    if order == 0:
        return (u0,)
    p = expit(s)
    if order == 1:
        return u0, p
    w = p * (1.0 - p)
    sw = np.maximum(w.sum(axis=1), 1e-300)[:, None, None]
    hess = w[:, :, None] * w[:, None, :] / -sw
    hess.reshape(len(w), -1)[:, ::eta.shape[1] + 1] += w  # the diagonals
    return u0, p, hess


def _loglik_eval(dataset: Dataset, beta, order: int, normalizer, R: int = 1,
                 taus=None):
    """(value, score, Hessian)[:order + 1] of the average log-likelihood, the
    block normalizer(eta, T, tau, order) returning as many of A, dA, d2A,
    then the intercepts used: `taus`, else one `_dataset_taus` root pass."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    taus = _dataset_taus(dataset, beta) if taus is None else taus
    value = score = hess = 0.0
    for block in dataset.blocks:
        eta = block.X @ beta
        out = normalizer(eta, block.T, taus[block.index], order)
        value += float(R * (block.y * eta).sum() - out[0].sum())
        if order >= 1:
            score += np.einsum("nk,nkp->p", R * block.y - out[1], block.X)
        if order >= 2:
            hess -= np.einsum("nkp,nkq->pq", block.X, out[2] @ block.X)
    scale = R * dataset.n_individuals
    return (value / scale, score / scale, hess / scale)[:order + 1] + (taus,)


def _olr_eval(dataset: Dataset, beta, order: int, cluster_effects=None):
    """`_loglik_eval` of the ordinary likelihood at `cluster_effects`, else
    at the profile roots, which the profile score and Hessian need."""
    return _loglik_eval(dataset, beta, order, _limit_batch, 1, cluster_effects)


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
