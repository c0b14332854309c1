"""Test-only oracle: the saddle-circle integrand with numpy's complex log.

The package takes every principal log of the normalizer as log|z| plus
i arctan2(Im z, Re z) in real arithmetic.  This module takes the same logs
with `np.log` on complex values, one per factor, and sums the trapezoid rule
over every node of the full circle with no conjugate folding, so the tests
can compare the two.
"""

import numpy as np


def u_rows(eta, T, tau, theta):
    """u(theta) = -tau T - i (K-T) theta + sum_k log(e^(i theta) + e^(eta_k + tau))
    for each row, (n, len(theta))."""
    eta = np.asarray(eta, dtype=float)
    n, K = eta.shape
    T = np.broadcast_to(np.asarray(T), (n,))
    tau = np.asarray(tau, dtype=float)
    theta = np.asarray(theta, dtype=float)
    z = (np.exp(1j * theta)[None, :, None]
         + np.exp(eta + tau[:, None])[:, None, :])
    return ((-tau * T)[:, None] - 1j * (K - T)[:, None] * theta[None, :]
            + np.log(z).sum(axis=2))


def log_g_trapezoid(eta, R, T, tau, M):
    """log g = R u(0) + log of the M-node trapezoid mean of
    exp(R (u(theta) - u(0))) on theta_n = 2 pi n / M, n = 0..M-1."""
    theta = 2.0 * np.pi * np.arange(M) / M
    u = u_rows(eta, T, tau, theta)
    u0 = u[:, 0].real
    mean = np.exp(R * (u - u0[:, None])).mean(axis=1)
    return R * u0 + np.log(mean.real)
