"""Steepest-descent diagnostics for the replicated normalizer.

g(eta, R, T) is the coefficient of z^(R(K-T)) in prod_k (z + xi_k)^R, so by
Cauchy's differentiation formula on the circle |z| = rho it equals
(1/2pi) int exp(R u(theta)) dtheta once rho is fixed at exp(-tau), the
saddle choice that kills the phase derivative at theta = 0.  The growth
rate (1/R) log g then converges to the real constant u(0).

`conditional.log_g` evaluates this integral with the trapezoid rule on
M(R, K) = O(sqrt(RK)) nodes, whose alias error is at most e^-40 relative
(see `conditional`).  The contour quadrature here is an independent
reference for it: an oversampled trapezoid rule, one principal log per
factor, modulus and argument apart, that checks itself by doubling its
nodes.

The diagnostics run over a whole block of same-size clusters at once
(`rate_limit_block`): one tau solve for the block, one kernel call per R
over all its rows on those roots, and one evaluation of u(theta) per row
on the 2*nodes grid theta_m = -pi + pi m / nodes.  The even nodes of that
grid are the nodes-point grid and m = nodes is theta = 0, so the one array
gives both trapezoid sums of the node-doubling check for every R.  The
gaps are taken from the kernel's own u(0), `profile._limit_batch`.
`rate_limit_check` and `contour_integral_g` are one-row calls into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import conditional, profile
from .data import DataError

__all__ = [
    "SaddleDiagnostics",
    "u_of_theta",
    "rate_limit_check",
    "rate_limit_block",
    "contour_integral_g",
    "QuadratureError",
]

# Contour nodes before doubling
_NODES = 512
# Complex elements in one (rows, K, 2 * nodes) contour temporary; the
# contour pass is split by rows to stay within it
_CONTOUR_BUDGET = 2**14


class QuadratureError(RuntimeError):
    """Trapezoid rule did not stabilize under node doubling."""


@dataclass
class SaddleDiagnostics:
    """Growth-rate diagnostics of one cluster.  `quadrature_vs_dp` holds
    (R, relative error) of the contour quadrature against the kernel; the
    name is kept for API stability."""

    tau: float
    u0: float
    u_prime0_abs: float
    r_grid: list[int]
    exact_rates: list[float]
    gaps: list[float]
    quadrature_vs_dp: list[tuple[int, float]] = field(default_factory=list)


def _where(ids, row: int, R: int | None = None) -> str:
    """Error-message prefix naming the row's cluster id, if ids are given,
    and R, if given."""
    parts = [] if ids is None else [f"cluster {ids[row]}"]
    if R is not None:
        parts.append(f"R = {R}")
    return ", ".join(parts) + ": " if parts else ""


def _taus(eta: np.ndarray, T: np.ndarray, ids=None) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(eta).all(axis=1))
    if bad.size:
        raise DataError(f"{_where(ids, bad[0])}linear predictor is not "
                        "finite")
    bad = np.flatnonzero((T < 1) | (T > eta.shape[1] - 1))
    if bad.size:
        raise DataError(f"{_where(ids, bad[0])}saddle requires a discordant "
                        "cluster (finite root)")
    return profile._tau_batch(eta, T)


def _u_rows(eta: np.ndarray, T: np.ndarray, tau: np.ndarray,
            theta: np.ndarray) -> np.ndarray:
    """u(theta) on each row's saddle circle, (n, len(theta)).

    One principal log per factor z = e^(i theta) + e^(eta_k + tau), taken
    as log|z| + i arg z in real arithmetic; factors are laid out
    (n, K, len(theta)), so the sums over k add contiguous theta vectors.
    """
    K = eta.shape[1]
    z = np.exp(1j * theta) + np.exp(eta + tau[:, None])[:, :, None]
    u = np.empty((len(eta), len(theta)), dtype=complex)
    u.real = np.log(np.abs(z)).sum(axis=1) - (tau * T)[:, None]
    u.imag = (np.arctan2(z.imag, z.real).sum(axis=1)
              - (K - T)[:, None] * theta)
    return u


def u_of_theta(eta, T: int, theta: float) -> complex:
    """Complex rate function on the saddle contour rho = exp(-tau)."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))[None, :]
    T = np.array([conditional._integer(T, "outcome sum T", None)])
    return complex(_u_rows(eta, T, _taus(eta, T), np.array([theta]))[0, 0])


def _contour_block(eta: np.ndarray, T: np.ndarray, tau: np.ndarray,
                   r_values: list[int], nodes: int, ids=None) -> np.ndarray:
    """log g by contour quadrature for each row and each R in r_values.

    Returns (n, len(r_values)): R u(0) + log of the trapezoid mean of
    exp(R (u(theta) - u(0))) on 2*nodes nodes.  Raises QuadratureError,
    naming the cluster and R, when the mean on nodes or on 2*nodes nodes
    loses conjugate symmetry, the two differ by more than 1e-10, or the
    integral is not positive.
    """
    n, K = eta.shape
    if not r_values:
        return np.empty((n, 0))
    m = 2 * nodes
    theta = -np.pi + 2.0 * np.pi * np.arange(m) / m
    u0 = np.empty(n)
    coarse = np.empty((n, len(r_values)), dtype=complex)
    fine = np.empty_like(coarse)
    rows = max(1, _CONTOUR_BUDGET // (m * K))
    for lo in range(0, n, rows):
        part = slice(lo, lo + rows)
        u = _u_rows(eta[part], T[part], tau[part], theta)
        u0[part] = u[:, nodes].real
        u -= u0[part, None]
        for c, R in enumerate(r_values):
            vals = np.exp(R * u)
            coarse[part, c] = vals[:, ::2].mean(axis=1)
            fine[part, c] = vals.mean(axis=1)
    def tol(x):
        return 1e-10 * np.maximum(1.0, np.abs(x))

    checks = [
        ((np.abs(coarse.imag) > tol(coarse.real))
         | (np.abs(fine.imag) > tol(fine.real)),
         "integrand lost conjugate symmetry"),
        (np.abs(fine.real - coarse.real) > tol(fine.real),
         "quadrature not converged"),
        (fine.real <= 0.0, "non-positive quadrature value"),
    ]
    failed = np.logical_or.reduce([bad for bad, _ in checks])
    if failed.any():
        i, c = np.argwhere(failed)[0]
        reason = next(msg for bad, msg in checks if bad[i, c])
        raise QuadratureError(f"{_where(ids, i, r_values[c])}{reason}")
    return np.array(r_values) * u0[:, None] + np.log(fine.real)


def contour_integral_g(eta, T: int, R: int) -> float:
    """log g via the saddle-normalized contour integral.

    Returns R*u(0) + log of the periodic-trapezoid integral of
    exp(R (u(theta) - u(0))) over [-pi, pi) on 2 * _NODES nodes; raises
    QuadratureError when that differs from the _NODES-node value by more
    than 1e-10, and DataError unless R is an integer >= 1 and T an integer.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))[None, :]
    T = np.array([conditional._integer(T, "outcome sum T", None)])
    return float(_contour_block(eta, T, _taus(eta, T),
                                [conditional._integer(R)], _NODES)[0, 0])


def rate_limit_block(eta, T, r_grid, quadrature_max_r: int = 0,
                     ids=None) -> list[SaddleDiagnostics]:
    """`rate_limit_check` for every row of a block of same-size clusters.

    eta is (n, K) and T (n,); ids, if given, name the rows' clusters in
    error messages.  Returns one SaddleDiagnostics per row.
    """
    eta = np.asarray(eta, dtype=float)
    T = np.asarray(T).astype(int)
    r_grid = list(r_grid)
    if (any(r < 1 for r in r_grid)
            or any(a >= b for a, b in zip(r_grid, r_grid[1:]))):
        raise ValueError("r_grid must be strictly ascending with entries >= 1")
    r_grid = [conditional._integer(r) for r in r_grid]
    tau = _taus(eta, T, ids)
    u0, p = profile._limit_batch(eta, T, tau, 1)
    up0 = np.abs(T - p.sum(axis=1))  # |u'(0)|, the root's residual
    values = np.empty((eta.shape[0], len(r_grid)))
    for c, R in enumerate(r_grid):
        try:
            values[:, c] = conditional._log_g_batch(eta, R, T, 0, tau)[0]
        except DataError as exc:
            raise DataError(f"{_where(ids, 0, R)}{exc}") from None
    rates = values / np.array(r_grid)
    gaps = np.abs(rates - u0[:, None])
    q_grid = [R for R in r_grid if R <= quadrature_max_r]
    exact = values[:, :len(q_grid)]
    quad = (np.abs(_contour_block(eta, T, tau, q_grid, _NODES, ids) - exact)
            / np.maximum(1.0, np.abs(exact)))
    return [SaddleDiagnostics(tau=t, u0=u, u_prime0_abs=up,
                              r_grid=list(r_grid),
                              exact_rates=rate, gaps=gap,
                              quadrature_vs_dp=list(zip(q_grid, q)))
            for t, u, up, rate, gap, q in zip(
                tau.tolist(), u0.tolist(), up0.tolist(), rates.tolist(),
                gaps.tolist(), quad.tolist())]


def rate_limit_check(eta, T: int, r_grid,
                     quadrature_max_r: int = 0) -> SaddleDiagnostics:
    """Exact growth rates (1/R) log g over an R grid against the limit u(0).

    The exact log g comes from the saddle-circle kernel of `conditional`.
    Optionally cross-checks it against the oversampled contour integral for
    R <= quadrature_max_r, reporting relative errors.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    T = conditional._integer(T, "outcome sum T", None)
    return rate_limit_block(eta[None, :], [T], r_grid,
                            quadrature_max_r)[0]
