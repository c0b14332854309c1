"""Exact conditional-likelihood kernels, all carried in log space.

One normalizer serves every conditional likelihood: the R-replicated
g(eta, R, T), the coefficient of z^(R(K-T)) in prod_k (z + xi_k)^R with
xi_k = exp(eta_k).  At R = 1 it is the permutation-set sum over binary
outcome vectors with total T.

By Cauchy's formula on the saddle circle |z| = exp(-tau), with tau the
profile root of the cluster,

    g = exp(R u(0)) * (1/2pi) int exp(R (u(theta) - u(0))) dtheta,
    u(theta) = -tau T - i (K-T) theta + sum_k log(e^(i theta) + e^(eta_k + tau)).

The integrand's Fourier coefficients are the pmf of
S = sum_k Bin(R, 1 - p_k), p_k = expit(eta_k + tau), shifted by
mu = R(K-T), which is the mean of S because tau is the profile root; the
integrand's mean over the circle is P(S = mu).  The periodic trapezoid rule
on M nodes theta_n = 2 pi n / M returns sum_j P(S = mu + jM), so its
relative error is at most P(|S - mu| >= M) / P(S = mu).  The mode of S is
its integer mean (Darroch 1964), so P(S = mu) >= 1/(RK + 1); Bernstein's
inequality with Var S <= RK/4 gives
P(|S - mu| >= M) <= 2 exp(-M^2 / (RK/2 + 2M/3)).  The node count M(R, K)
of `_nodes` makes the ratio at most e^-40; it is O(sqrt(RK)), and never
more than RK + 1, on which the rule is exact up to rounding.

The modulus of the integrand peaks at theta = 0, where it is 1, so no term
overflows.  The same nodes give the gradient in eta, the tilted-measure
expectations
E[r_k] = R Re sum_n w_n xi~_k / (e^(i theta_n) + xi~_k) / Re sum_n w_n,
with w_n the integrand and xi~_k = exp(eta_k + tau), and the Hessian in eta,
Cov(r), from the second moments of the same terms.  Their numerators'
coefficients are the same pmf times conditional moments of r at most R and
R^2, so the same bound holds for them.

Each node takes one complex log, of the product of its K factors rather
than one log per factor: R is an integer, so exp(R log prod_k d_k) =
exp(R sum_k log d_k) on any branch of the log.  The product runs over
chunks of at most _PROD_CHUNK factors, each of modulus at most 2, so no
chunk overflows; a chunk that underflows marks a node of negligible weight,
which is taken as 0.  The conditional likelihoods are the assembly
`profile._loglik_eval` with log g, whose limit u(0) gives the profile one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import profile
from .data import DataError, Dataset

__all__ = [
    "LogNormalizer",
    "clr_avg_loglik",
    "clr_score",
    "log_g",
    "clr_rep_avg_loglik",
    "clr_rep_score",
    "DEFAULT_STATE_CAP",
]

# Largest R*K accepted: a cluster takes M(R, K) = O(sqrt(RK)) quadrature
# nodes (`_nodes`), of which the kernel evaluates M/2 + 1, holding about
# M*K/2 complex factors and taking one complex log per node for every
# _PROD_CHUNK of them.  At the cap, M = 5,239.
DEFAULT_STATE_CAP = 10**6
# Most factors multiplied before one complex log
_PROD_CHUNK = 512
# Complex elements in one (rows, M/2 + 1, K) temporary (32 MB); larger
# batches are split by rows.  A single row exceeds it only when
# (M/2 + 1) K > 2^21: K above 8,666 at R = 1, or above 800 at R K = 10^6.
_TEMP_BUDGET = 2**21


def _nodes(R: int, K: int) -> int:
    """Trapezoid nodes M(R, K) whose alias error is at most e^-40.

    The smallest M with 2 (RK + 1) exp(-M^2 / (RK/2 + 2M/3)) <= e^-40, the
    positive root of M^2 - (2L/3) M - L RK/2 with L = log(2(RK + 1)) + 40,
    and at most RK + 1 (see the module docstring).
    """
    L = math.log(2 * (R * K + 1)) + 40.0
    return min(R * K + 1, math.ceil(L / 3 + math.sqrt(L * L / 9
                                                      + L * R * K / 2)))


def _integer(value, name: str = "replication count R", least=1) -> int:
    """`value` as an int, if it is an integral value (2, np.int64(2) and 2.0
    all are) of at least `least`, None meaning no bound; DataError naming
    the value otherwise.  The kernel is exact only for an integer R."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or (least is not None and n < least):
        bound = "" if least is None else f" >= {least}"
        raise DataError(f"{name} must be an integer{bound}, got {value}")
    return n


@dataclass(frozen=True)
class LogNormalizer:
    """Log normalizer value and its gradient in the linear predictors."""

    value: float
    grad_eta: np.ndarray


@np.errstate(under="ignore", divide="ignore")
def _log_g_batch(eta: np.ndarray, R: int, T, order: int, tau=None):
    """Batched replicated normalizer over same-size discordant clusters.

    eta is (n, K); T is an int or (n,) array with 1 <= T <= K-1; tau, if
    given, is the (n,) profile roots, solved here otherwise.  Returns
    the first order + 1 of (value (n,), grad (n, K), hess (n, K, K)).
    grad[:, k] = E[r_k] under the binomially weighted tilted measure; entries
    lie in [0, R] and sum to R*T.  hess = Cov(r), with rows summing to 0.
    Underflow only strikes terms negligible next to the node at theta = 0:
    they are taken as 0, a product of factors by way of a log of -inf.
    """
    eta = np.asarray(eta, dtype=float)
    n, K = eta.shape
    T = np.broadcast_to(np.asarray(T), (n,))
    if R * K > DEFAULT_STATE_CAP:
        raise DataError(f"state space R*K = {R * K} exceeds cap "
                        f"{DEFAULT_STATE_CAP}")
    M = _nodes(R, K)
    rows = max(1, _TEMP_BUDGET // ((M // 2 + 1) * K))
    if n > rows:
        parts = [_log_g_batch(eta[i:i + rows], R, T[i:i + rows], order,
                              None if tau is None else tau[i:i + rows])
                 for i in range(0, n, rows)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    if tau is None:
        tau = profile._tau_batch(eta, T)
    u0 = profile._limit_batch(eta, T, tau, 0)[0]
    s = eta + tau[:, None]
    pos = s > 0.0
    a = np.exp(-np.abs(s))
    # the integrand at -theta is the conjugate of that at theta, so the
    # nodes past M/2 are folded onto their mirror images by a weight of 2
    nodes = np.arange(M // 2 + 1)
    fold = np.where((nodes == 0) | (2 * nodes == M), 1.0, 2.0)
    # d = A + B e^(i theta) is e^(i theta) + e^s, divided by e^s where s > 0
    # so that e^s is never formed
    A = np.where(pos, 1.0, a)[:, None, :]
    B = np.where(pos, a, 1.0)[:, None, :]
    d = B * np.exp(2j * np.pi / M * nodes)[None, :, None]
    d += A
    # R sum_k log d_k = R log prod_k d_k on any branch of the log, R being an
    # integer.  |d_k| <= 2, so a chunk of _PROD_CHUNK factors cannot
    # overflow; a chunk that underflows to 0 marks a node whose weight is
    # below e^(-708 R), and its log of -inf weighs it exactly 0
    chunks = np.multiply.reduceat(d, np.arange(0, K, _PROD_CHUNK), axis=2)
    log_d = np.log(chunks).sum(axis=2)
    # R (u(theta_n) - u(0)); the phase R (K-T) theta_n is reduced mod 2 pi
    # in integers.  Real and imaginary parts are scaled apart, since a
    # complex product would turn the -inf of an underflowed node into nan
    shift = (R * (K - T)[:, None] * nodes[None, :]) % M
    w = np.exp(R * (log_d.real - log_d[:, :1].real)
               + 1j * (R * log_d.imag - 2 * np.pi / M * shift))
    w *= fold
    total = w.real.sum(axis=1)
    value = R * u0 + np.log(total / M)
    if order == 0:
        return (value,)
    # a_k = xi~_k / (e^(i theta) + xi~_k) = A_k / d_k, with
    # d a_k / d eta_k = a_k (1 - a_k)
    ratio = np.divide(A, d, out=d)
    w /= total[:, None]
    wr = w[:, :, None] * ratio
    grad = R * wr.sum(axis=1).real
    if order == 1:
        return value, grad
    # R^2 E[a_j a_k] + delta_jk R E[a_k (1 - a_k)] - grad_j grad_k, with
    # R E[a_k (1 - a_k)] = grad_k - R E[a_k^2]
    second = np.matmul(wr.transpose(0, 2, 1), ratio).real
    hess = R * R * second - grad[:, :, None] * grad[:, None, :]
    diag = np.arange(K)
    hess[:, diag, diag] += grad - R * second[:, diag, diag]
    return value, grad, hess


def log_g(eta, R: int, T: int) -> LogNormalizer:
    """Log of the replicated normalizer g(eta, R, T) and its eta-gradient.

    At R = 1, g is the sum over outcome vectors with total T, and
    grad_eta[k] is the conditional probability that individual k's outcome
    is 1 given the total.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    R, T, K = _integer(R), _integer(T, "outcome sum T", None), eta.shape[0]
    if not 0 <= T <= K:
        raise DataError(f"outcome sum {T} outside [0, {K}]")
    if T == 0:
        return LogNormalizer(value=0.0, grad_eta=np.zeros(K))
    if T == K:
        return LogNormalizer(value=R * float(eta.sum()),
                             grad_eta=np.full(K, float(R)))
    value, grad = _log_g_batch(eta[None, :], R, T, 1)
    return LogNormalizer(value=float(value[0]), grad_eta=grad[0])


# ---------------------------------------------------------------------------
# dataset-level likelihood and score
# ---------------------------------------------------------------------------

def _clr_eval(dataset: Dataset, R: int, beta, order: int, start=None):
    """Average R-replicated conditional log-likelihood, its derivatives and
    the profile roots, solved from the roots `start`, assembled by
    `profile._loglik_eval` with A = log g."""
    R = _integer(R)
    return profile._loglik_eval(
        dataset, beta, order,
        lambda eta, T, tau, order: _log_g_batch(eta, R, T, order, tau), R,
        start=start)


def clr_avg_loglik(dataset: Dataset, beta) -> float:
    """Average conditional log-likelihood given each cluster's outcome sum."""
    return _clr_eval(dataset, 1, beta, 0)[0]


def clr_score(dataset: Dataset, beta) -> np.ndarray:
    """Gradient of clr_avg_loglik."""
    return _clr_eval(dataset, 1, beta, 1)[1]


def clr_rep_avg_loglik(dataset: Dataset, R: int, beta) -> float:
    """Average conditional log-likelihood with every data point replicated R times."""
    return _clr_eval(dataset, R, beta, 0)[0]


def clr_rep_score(dataset: Dataset, R: int, beta) -> np.ndarray:
    """Gradient of clr_rep_avg_loglik."""
    return _clr_eval(dataset, R, beta, 1)[1]
