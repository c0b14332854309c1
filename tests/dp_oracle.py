"""Test-only oracle: the replicated normalizer by binomial convolution.

g(eta, R, T) is the coefficient of z^(R(K-T)) in prod_k (z + xi_k)^R.  This
module computes it by a log-space convolution over counts r_k in {0..R}
with binomial weights from log-gamma, O(R^2 K T) per cluster, independently
of the saddle-circle kernel in `clogitrep.conditional`, which the tests
compare against it.
"""

import numpy as np
from scipy.special import gammaln, logsumexp


def _log_binom_row(R: int) -> np.ndarray:
    r = np.arange(R + 1)
    return gammaln(R + 1) - gammaln(r + 1) - gammaln(R - r + 1)


def _dp_step(prev: np.ndarray, w: np.ndarray, S: int) -> np.ndarray:
    """One convolution step: out[s] = logsumexp_r prev[s - r] + w[:, r]."""
    R1 = w.shape[1]
    s = np.arange(S)[:, None]
    r = np.arange(R1)[None, :]
    idx = s - r
    valid = idx >= 0
    terms = prev[:, np.clip(idx, 0, S - 1)] + w[:, None, :]
    terms = np.where(valid[None, :, :], terms, -np.inf)
    with np.errstate(divide="ignore"):
        return logsumexp(terms, axis=2)


def log_g_dp(eta: np.ndarray, R: int, T: int):
    """Batched replicated normalizer over same-(K, T) clusters.

    eta is (n, K) with 1 <= T <= K-1.  Returns (value (n,), grad (n, K));
    grad[:, k] = E[r_k] under the binomially weighted tilted measure.
    """
    eta = np.asarray(eta, dtype=float)
    n, K = eta.shape
    S = R * T + 1
    lb = _log_binom_row(R)
    # w[:, k, r] = log C(R, r) + r * eta_k
    w = lb[None, None, :] + np.arange(R + 1)[None, None, :] * eta[:, :, None]
    start = np.full((n, S), -np.inf)
    start[:, 0] = 0.0
    forward = [start]
    for k in range(K):
        forward.append(_dp_step(forward[-1], w[:, k, :], S))
    value = forward[K][:, R * T]
    backward = [None] * (K + 2)
    end = np.full((n, S), -np.inf)
    end[:, 0] = 0.0
    backward[K + 1] = end
    for k in range(K, 0, -1):
        backward[k] = _dp_step(backward[k + 1], w[:, k - 1, :], S)
    grad = np.empty((n, K))
    s = np.arange(S)[:, None]
    r = np.arange(R + 1)[None, :]
    idx = R * T - s - r
    valid = (idx >= 0) & (idx <= S - 1)
    idx_c = np.clip(idx, 0, S - 1)
    for k in range(1, K + 1):
        terms = (forward[k - 1][:, :, None]
                 + backward[k + 1][:, idx_c])
        terms = np.where(valid[None, :, :], terms, -np.inf)
        with np.errstate(divide="ignore"):
            m = logsumexp(terms, axis=1) + w[:, k - 1, :]
        p = np.exp(m - value[:, None])
        grad[:, k - 1] = p @ np.arange(R + 1)
    return value, grad
