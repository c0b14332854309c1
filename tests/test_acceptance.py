"""End-to-end acceptance suite.

Each test covers one headline claim of the package, prints a single
machine-greppable CRITERION line, and then asserts.  Run with `-s` (or read
captured output on failure) to see the lines.
"""

import math
import time
from itertools import product

import numpy as np
import pytest
from scipy.special import gammaln

from clogitrep.conditional import (clr_rep_score, clr_score, log_g)
from clogitrep.profile import olr_profile_score, profile_loglik
from clogitrep.conditional import clr_avg_loglik, clr_rep_avg_loglik
from clogitrep.saddle import contour_integral_g, rate_limit_check
from clogitrep.simulate import SimConfig, generate_dataset, run_study
from clogitrep.solve import (solve_cmle_replicated, solve_mle,
                             verify_1K_identity, verify_pair_identity)
from conftest import random_matched_pairs, random_one_to_k

TABLE_MLE = np.array([0.801, 1.283])
TABLE_CMLE1 = np.array([0.504, 0.812])


def log_comb(n, k):
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num} [{status}] {label}{' — ' + detail if detail else ''}")
    assert ok, f"criterion {num}: {label} — {detail}"


def test_criterion_1_matched_pair_identity(matched_pair_dataset):
    t0 = time.time()
    gaps = [verify_pair_identity(random_matched_pairs(seed, n_pairs=50,
                                                      p=2)).abs_gap
            for seed in range(50)]
    gaps.append(verify_pair_identity(matched_pair_dataset).abs_gap)
    worst = max(gaps)
    elapsed = time.time() - t0
    report(1, "matched pairs: unconditional estimate = 2x conditional",
           worst <= 1e-6 and elapsed < 10.0,
           f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_one_to_k_identity():
    t0 = time.time()
    gaps = []
    for controls in (2, 3):
        for seed in range(20):
            ds = random_one_to_k(10 * controls + seed, n_clusters=40,
                                 controls=controls)
            gaps.append(verify_1K_identity(ds).abs_gap)
    worst = max(gaps)
    elapsed = time.time() - t0
    report(2, "1:K closed-form identity linking the two estimators",
           worst <= 1e-6 and elapsed < 10.0,
           f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_replication_convergence(matched_pair_dataset):
    t0 = time.time()
    grid = (1, 2, 5, 10, 20, 50)
    monotone = True
    for seed in range(20):
        ds = generate_dataset(SimConfig(seed=99), seed)
        mle = solve_mle(ds).beta_hat
        warm = None
        gaps = []
        for R in grid:
            fit = solve_cmle_replicated(ds, R, x0=warm)
            warm = fit.beta_hat
            gaps.append(np.abs(fit.beta_hat - mle).max())
        monotone &= all(g1 >= g2 - 1e-6 for g1, g2 in zip(gaps, gaps[1:]))
    mle = solve_mle(matched_pair_dataset).beta_hat
    fixture_gap = np.abs(
        solve_cmle_replicated(matched_pair_dataset, 200).beta_hat - mle).max()
    elapsed = time.time() - t0
    report(3, "replicated conditional estimate approaches the MLE in R",
           monotone and fixture_gap <= 0.02 and elapsed < 120.0,
           f"gaps monotone on 20 datasets, fixture gap at R=200 "
           f"{fixture_gap:.4f}, {elapsed:.1f}s")


def test_criterion_4_monte_carlo_means():
    t0 = time.time()
    cfg = SimConfig(J=100, K=3, n_sims=1000, r_values=(1, 2, 5, 10, 20, 50),
                    seed=0, workers=4)
    s = run_study(cfg)
    means = {r.R: r.mean for r in s.rows if r.method == "CMLE"}
    mle_mean = next(r.mean for r in s.rows if r.method == "MLE")
    mle_ok = np.abs(mle_mean - TABLE_MLE).max() <= 0.06
    cmle1_ok = np.abs(means[1] - TABLE_CMLE1).max() <= 0.06
    diffs = np.stack([np.abs(means[R] - mle_mean) for R in cfg.r_values])
    mono_ok = bool(np.all(np.diff(diffs, axis=0) < 0.0))
    elapsed = time.time() - t0
    detail = (f"MLE mean ({mle_mean[0]:.3f},{mle_mean[1]:.3f}) "
              f"{'within' if mle_ok else 'OUTSIDE'} +/-0.06 of (0.801,1.283); "
              f"CMLE(1) mean ({means[1][0]:.3f},{means[1][1]:.3f}) "
              f"{'within' if cmle1_ok else 'OUTSIDE'} +/-0.06 of "
              f"(0.504,0.812); mean gaps "
              f"{'strictly decreasing' if mono_ok else 'NOT decreasing'}; "
              f"{elapsed:.0f}s")
    report(4, "Monte Carlo bias study at 1000 replicates",
           mle_ok and cmle1_ok and mono_ok and elapsed < 900.0, detail)


def test_criterion_5_growth_rate():
    t0 = time.time()
    d = rate_limit_check(np.zeros(2), 1, [10, 20, 40, 50, 80])
    u0_ok = abs(d.u0 - math.log(4)) <= 1e-12
    rate50 = d.exact_rates[d.r_grid.index(50)]
    rate_ok = abs(rate50 - log_comb(100, 50) / 50) <= 1e-9
    sub = [d.gaps[d.r_grid.index(R)] for R in (10, 20, 40, 80)]
    gaps_ok = all(g1 > g2 for g1, g2 in zip(sub, sub[1:]))
    elapsed = time.time() - t0
    report(5, "analytic growth-rate limit for the symmetric pair",
           u0_ok and rate_ok and gaps_ok and elapsed < 5.0,
           f"u0 err {abs(d.u0 - math.log(4)):.1e}, rate50 err "
           f"{abs(rate50 - log_comb(100, 50) / 50):.1e}, {elapsed:.1f}s")


def test_criterion_6_contour_vs_dp():
    t0 = time.time()
    rng = np.random.default_rng(6)
    worst = 0.0
    for K in (2, 3, 4):
        for T, R in product(range(1, K), range(1, 6)):
            for _ in range(10):
                eta = rng.normal(scale=1.5, size=K)
                dp = log_g(eta, R, T).value
                q = contour_integral_g(eta, T, R)
                worst = max(worst, abs(q - dp) / max(1.0, abs(dp)))
    elapsed = time.time() - t0
    report(6, "contour quadrature reproduces the saddle-circle kernel",
           worst <= 1e-8 and elapsed < 30.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_7_dp_vs_enumeration():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(2, 4))
        R = int(rng.integers(1, 5))
        T = int(rng.integers(1, K))
        eta = rng.normal(scale=1.5, size=K)
        total = 0.0
        for rs in product(range(R + 1), repeat=K):
            if sum(rs) == R * T:
                total += math.exp(sum(log_comb(R, r) for r in rs)
                                  + float(np.dot(rs, eta)))
        exact = math.log(total)
        worst = max(worst, abs(log_g(eta, R, T).value - exact)
                    / max(1.0, abs(exact)))
    elapsed = time.time() - t0
    report(7, "saddle-circle kernel matches brute-force enumeration",
           worst <= 1e-10 and elapsed < 10.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_gradient_suites():
    t0 = time.time()
    rng = np.random.default_rng(8)
    h = 1e-5

    def fd(fun, beta):
        g = np.empty(len(beta))
        for i in range(len(beta)):
            e = np.zeros(len(beta))
            e[i] = h
            g[i] = (fun(beta + e) - fun(beta - e)) / (2 * h)
        return g

    worst = 0.0
    for seed in range(20):
        ds = random_matched_pairs(8000 + seed, n_pairs=10)
        beta = rng.normal(size=2)
        R = int(rng.integers(1, 6))
        cases = [
            (clr_score(ds, beta), fd(lambda b: clr_avg_loglik(ds, b), beta)),
            (clr_rep_score(ds, R, beta),
             fd(lambda b: clr_rep_avg_loglik(ds, R, b), beta)),
            (olr_profile_score(ds, beta),
             fd(lambda b: profile_loglik(ds, b), beta)),
        ]
        for analytic, numeric in cases:
            rel = (np.abs(analytic - numeric).max()
                   / max(1.0, np.abs(analytic).max()))
            worst = max(worst, rel)
    elapsed = time.time() - t0
    report(8, "analytic score vectors match finite differences",
           worst <= 1e-6 and elapsed < 30.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")
