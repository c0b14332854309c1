"""Steepest-descent diagnostics for the replicated normalizer.

g(eta, R, T) is the coefficient of z^(R(K-T)) in prod_k (z + xi_k)^R, so by
Cauchy's differentiation formula on the circle |z| = rho it equals
(1/2pi) int exp(R u(theta)) dtheta once rho is fixed at exp(-tau), the
saddle choice that kills the phase derivative at theta = 0.  The growth
rate (1/R) log g then converges to the real constant u(0).

`conditional.log_g` evaluates this integral exactly with the trapezoid rule
on N = RK + 1 nodes.  `contour_integral_g` is an independent reference for
it: an oversampled trapezoid rule that checks itself by doubling its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import profile
from .conditional import log_g
from .data import DataError

__all__ = [
    "SaddleDiagnostics",
    "u_of_theta",
    "rate_limit_check",
    "contour_integral_g",
    "QuadratureError",
]


class QuadratureError(RuntimeError):
    """Trapezoid rule did not stabilize under node doubling."""


@dataclass
class SaddleDiagnostics:
    tau: float
    u0: float
    u_prime0_abs: float
    r_grid: list[int]
    exact_rates: list[float]
    gaps: list[float]
    quadrature_vs_dp: list[tuple[int, float]] = field(default_factory=list)


def _tau_of(eta: np.ndarray, T: int) -> float:
    if not 1 <= T <= eta.shape[0] - 1:
        raise DataError("saddle requires a discordant cluster (finite root)")
    return float(profile._tau_batch(eta[None, :], np.array([T]))[0])


def u_of_theta(eta, T: int, theta: float) -> complex:
    """Complex rate function on the saddle contour rho = exp(-tau)."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    return complex(_u_batch(eta, T, _tau_of(eta, T), np.array([theta]))[0])


def _u_batch(eta: np.ndarray, T: int, tau: float,
             theta: np.ndarray) -> np.ndarray:
    K = eta.shape[0]
    z = np.exp(1j * theta)[:, None] + np.exp(eta + tau)[None, :]
    return (-tau * T - 1j * (K - T) * theta + np.log(z).sum(axis=1))


def contour_integral_g(eta, T: int, R: int, nodes: int = 512) -> float:
    """log g via the saddle-normalized contour integral.

    Returns R*u(0) + log of the periodic-trapezoid integral of
    exp(R (u(theta) - u(0))) over [-pi, pi); raises QuadratureError when
    doubling the node count moves the answer by more than 1e-10.
    """
    if nodes < 256:
        raise ValueError("nodes must be >= 256")
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    tau = _tau_of(eta, int(T))
    u0 = float(_u_batch(eta, T, tau, np.zeros(1))[0].real)

    def quad(n):
        theta = -np.pi + 2.0 * np.pi * np.arange(n) / n
        u = _u_batch(eta, T, tau, theta)
        vals = np.exp(R * (u - u0))
        mean = vals.mean()
        if abs(mean.imag) > 1e-10 * max(1.0, abs(mean.real)):
            raise QuadratureError("integrand lost conjugate symmetry")
        return float(mean.real)

    a, b = quad(nodes), quad(2 * nodes)
    if abs(b - a) > 1e-10 * max(1.0, abs(b)):
        raise QuadratureError("quadrature not converged")
    if b <= 0.0:
        raise QuadratureError("non-positive quadrature value")
    return R * u0 + float(np.log(b))


def rate_limit_check(eta, T: int, r_grid,
                     quadrature_max_r: int = 0) -> SaddleDiagnostics:
    """Exact growth rates (1/R) log g over an R grid against the limit u(0).

    The exact log g comes from the saddle-circle kernel, `conditional.log_g`.
    Optionally cross-checks it against the oversampled contour integral for
    R <= quadrature_max_r, reporting relative errors.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    T = int(T)
    r_grid = [int(r) for r in r_grid]
    if any(r < 1 for r in r_grid) or sorted(r_grid) != r_grid:
        raise ValueError("r_grid must be ascending with entries >= 1")
    tau = _tau_of(eta, T)
    s = eta + tau
    u0 = float(-tau * T + np.logaddexp(0.0, s).sum())
    # u'(0) = i (T - sum_k expit(eta_k + tau)): the profile root's residual
    up0 = float(T - expit(s).sum())
    values = [log_g(eta, R, T).value for R in r_grid]
    rates = [v / R for v, R in zip(values, r_grid)]
    gaps = [abs(rate - u0) for rate in rates]
    quad = [(R, abs(contour_integral_g(eta, T, R) - v) / max(1.0, abs(v)))
            for R, v in zip(r_grid, values) if R <= quadrature_max_r]
    return SaddleDiagnostics(tau=tau, u0=u0, u_prime0_abs=abs(up0),
                             r_grid=r_grid, exact_rates=rates, gaps=gaps,
                             quadrature_vs_dp=quad)
