import math
import tracemalloc
import warnings
from itertools import combinations, product

import numpy as np
import pytest
from scipy.special import gammaln

from clogitrep import conditional, profile
from clogitrep.conditional import (clr_avg_loglik, clr_rep_avg_loglik,
                                   clr_rep_score, clr_score, log_g)
from clogitrep.data import Cluster, DataError, screen_dataset
from clogitrep.profile import profile_loglik
from clogitrep.saddle import contour_integral_g, rate_limit_check, u_of_theta
from clogitrep.simulate import SimConfig
from clogitrep.solve import solve_cmle_replicated
from conftest import random_cluster_eta, random_matched_pairs
from dp_oracle import log_g_dp
from packing_oracle import unpack


def log_comb(n, k):
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def enumerate_perm_normalizer(eta, T):
    """Direct sum over all outcome vectors with the given total."""
    eta = np.asarray(eta)
    K = len(eta)
    total = 0.0
    grad = np.zeros(K)
    for ones in combinations(range(K), T):
        w = math.exp(eta[list(ones)].sum())
        total += w
        for k in ones:
            grad[k] += w
    return math.log(total), grad / total


def enumerate_log_g(eta, R, T):
    """Brute force over all replicated count vectors in {0..R}^K."""
    eta = np.asarray(eta)
    K = len(eta)
    total = 0.0
    grad = np.zeros(K)
    for rs in product(range(R + 1), repeat=K):
        if sum(rs) != R * T:
            continue
        w = math.exp(sum(log_comb(R, r) for r in rs) + np.dot(rs, eta))
        total += w
        grad += np.array(rs) * w
    return math.log(total), grad / total


class TestLogPermNormalizer:
    def test_uniform_k3_t2(self):
        r = log_g(np.zeros(3), 1, 2)
        assert r.value == pytest.approx(math.log(3), abs=1e-12)
        np.testing.assert_allclose(r.grad_eta, 2 / 3, atol=1e-12)

    def test_k2_t1_weighted(self):
        r = log_g([math.log(2), 0.0], 1, 1)
        assert r.value == pytest.approx(math.log(3), abs=1e-12)
        np.testing.assert_allclose(r.grad_eta, [2 / 3, 1 / 3], atol=1e-12)

    def test_t_zero(self):
        r = log_g(np.array([0.4, -1.2]), 1, 0)
        assert r.value == 0.0
        np.testing.assert_array_equal(r.grad_eta, 0.0)

    def test_t_out_of_range(self):
        with pytest.raises(DataError):
            log_g(np.zeros(2), 1, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        eta, T = random_cluster_eta(rng)
        r = log_g(eta, 1, T)
        val, grad = enumerate_perm_normalizer(eta, T)
        assert r.value == pytest.approx(val, rel=1e-12)
        np.testing.assert_allclose(r.grad_eta, grad, atol=1e-12)
        assert r.grad_eta.min() >= 0.0 and r.grad_eta.max() <= 1.0
        assert r.grad_eta.sum() == pytest.approx(T, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_conditional_probs_sum_to_one(self, seed):
        rng = np.random.default_rng(40 + seed)
        K = int(rng.integers(2, 6))
        T = int(rng.integers(1, K))
        eta = rng.normal(size=K)
        norm = log_g(eta, 1, T).value
        total = sum(math.exp(eta[list(ones)].sum() - norm)
                    for ones in combinations(range(K), T))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestLogG:
    def test_reduces_to_perm_normalizer_at_r1(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            eta, T = random_cluster_eta(rng)
            g = log_g(eta, 1, T)
            value, grad = enumerate_perm_normalizer(eta, T)
            assert g.value == pytest.approx(value, rel=1e-12)
            np.testing.assert_allclose(g.grad_eta, grad, atol=1e-10)

    def test_k2_t1_r2(self):
        g = log_g(np.zeros(2), 2, 1)
        assert g.value == pytest.approx(math.log(6), abs=1e-12)

    @pytest.mark.parametrize("K,R", [(2, 3), (3, 4), (2, 4)])
    def test_binomial_identity_at_zero_eta(self, K, R):
        for T in range(1, K):
            g = log_g(np.zeros(K), R, T)
            assert g.value == pytest.approx(log_comb(K * R, R * (K - T)),
                                            rel=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 4))
        R = int(rng.integers(1, 5))
        T = int(rng.integers(1, K))
        eta = rng.normal(scale=1.5, size=K)
        g = log_g(eta, R, T)
        val, grad = enumerate_log_g(eta, R, T)
        assert g.value == pytest.approx(val, rel=1e-10)
        np.testing.assert_allclose(g.grad_eta, grad, atol=1e-9)
        assert g.grad_eta.sum() == pytest.approx(R * T, abs=1e-9)
        assert g.grad_eta.min() >= 0.0 and g.grad_eta.max() <= R

    @pytest.mark.parametrize("seed", range(10))
    def test_tilting_identity(self, seed):
        rng = np.random.default_rng(60 + seed)
        eta, T = random_cluster_eta(rng)
        R = int(rng.integers(1, 8))
        c = rng.normal()
        shifted = log_g(eta + c, R, T).value
        assert shifted == pytest.approx(log_g(eta, R, T).value + R * T * c,
                                        abs=1e-10 * max(1.0, abs(shifted)))

    def test_state_cap(self):
        with pytest.raises(DataError, match="cap"):
            log_g(np.zeros(3), 10**6, 1)


def _wide_eta(K):
    eta = np.zeros(K)
    eta[:2] = (800.0, -800.0)
    return eta


class TestKernelVsDP:
    """The saddle-circle kernel against the binomial-convolution DP."""

    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("R", [1, 10, 50, 200])
    def test_matches_dp(self, R, K):
        rng = np.random.default_rng(100 * R + K)
        for T in range(1, K):
            eta = np.vstack([rng.normal(scale=1.5, size=(4, K)),
                             _wide_eta(K)])
            want_value, want_grad = log_g_dp(eta, R, T)
            for row, w_value, w_grad in zip(eta, want_value, want_grad):
                got = log_g(row, R, T)
                assert abs(got.value - w_value) <= 1e-10 * max(1.0,
                                                               abs(w_value))
                np.testing.assert_allclose(got.grad_eta, w_grad, rtol=0,
                                           atol=1e-8 * R)

    @pytest.mark.parametrize("K, R, T, scale", [
        (1200, 1, 600, 0.0), (1200, 1, 600, 0.3), (300, 4, 150, 0.3)])
    def test_long_products(self, K, R, T, scale):
        # more factors than one product chunk holds: unchunked, the product
        # overflows at theta = 0 and the value is nan; near theta = pi
        # whole chunks underflow, which must weigh 0 without any warning
        eta = np.random.default_rng(K + R).normal(scale=scale, size=(1, K))
        want_value, want_grad = log_g_dp(eta, R, T)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = log_g(eta[0], R, T)
        assert abs(got.value - want_value[0]) <= 1e-10 * max(
            1.0, abs(want_value[0]))
        np.testing.assert_allclose(got.grad_eta, want_grad[0], rtol=0,
                                   atol=1e-8 * R)

    @pytest.mark.parametrize("beta", [1e4, -1e4])
    @pytest.mark.parametrize("R", [1, 50])
    def test_finite_on_separated_pairs(self, R, beta):
        # the separated data of test_solve.py's test_separation_reported, at
        # the default divergence_norm
        X = np.array([[1.0], [0.0]])
        ds = screen_dataset([Cluster(X, np.array([1, 0])) for _ in range(5)])
        assert np.isfinite(clr_rep_avg_loglik(ds, R, [beta]))
        assert np.all(np.isfinite(clr_rep_score(ds, R, [beta])))


class TestReducedGrid:
    """The kernel on M(R, K) nodes against the full RK + 1 point rule, on
    which the trapezoid rule is exact up to rounding."""

    @pytest.mark.parametrize("K", [2, 3, 5, 8])
    @pytest.mark.parametrize("R", [50, 200, 1000])
    def test_matches_full_grid(self, R, K, monkeypatch):
        rng = np.random.default_rng(K)
        wide = np.zeros(K)
        wide[:2] = (800.0, -800.0)
        # eta = 0 with T = K/2 has all p = 1/2 for even K, the largest
        # variance RK/4 of the sum S that the node count is sized for
        eta = np.vstack([np.zeros(K), rng.normal(scale=1.5, size=(3, K)),
                         wide])
        T = np.array([K // 2, 1, K // 2, K - 1, 1])
        assert conditional._nodes(R, K) < R * K + 1
        value, grad, hess = conditional._log_g_batch(eta, R, T, 2)
        monkeypatch.setattr(conditional, "_nodes", lambda R, K: R * K + 1)
        full = conditional._log_g_batch(eta, R, T, 2)
        assert np.all(np.abs(value - full[0])
                      <= 1e-13 * np.maximum(1.0, np.abs(full[0])))
        np.testing.assert_allclose(grad, full[1], rtol=0, atol=1e-11 * R)
        np.testing.assert_allclose(hess, full[2], rtol=0, atol=1e-10 * R * R)

    @pytest.mark.parametrize("K", [2, 5, 52, 53, 400])
    @pytest.mark.parametrize("R", [1, 10, 100, 1000])
    def test_node_count_is_least_meeting_alias_bound(self, R, K):
        # log of 2 (RK + 1) exp(-m^2 / (RK/2 + 2m/3)), the bound on the
        # relative alias error of the m-node rule
        def log_bound(m):
            return math.log(2 * (R * K + 1)) - m * m / (R * K / 2 + 2 * m / 3)

        M = conditional._nodes(R, K)
        assert M == R * K + 1 or log_bound(M) <= -40 + 1e-9
        assert log_bound(M - 1) > -40


LIMIT_ROWS = {
    2: ([[0.3, -0.8]], [1]),
    3: ([[1.2, -0.4, 0.1], [0.0, 2.0, -1.5]], [1, 2]),
    5: ([[0.5, -1.0, 0.2, 1.5, -0.3], [2.0, -2.0, 0.7, 0.0, -0.6]], [2, 4]),
    6: ([[-0.9, 0.4, 1.1, -0.2, 0.8, -1.6]], [3]),
}


@pytest.mark.parametrize("K", sorted(LIMIT_ROWS))
def test_limit_normalizer_is_large_r_limit(K):
    # log g = R u(0) - log(2 pi R sum w) / 2 + O(1/R) (Daniels 1954), and
    # (1/R) of its eta-derivatives tend to pi and diag(w) - w w' / sum w
    # at the same rate, so each error shrinks about 5x from R = 200 to 1000
    eta, T = np.array(LIMIT_ROWS[K][0]), np.array(LIMIT_ROWS[K][1])
    tau = profile._tau_batch(eta, T)
    u0, pi, hess = profile._limit_batch(eta, T, tau, 2)
    sum_w = (pi * (1.0 - pi)).sum(axis=1)
    errors = []
    for R in (200, 1000):
        value, g, h = conditional._log_g_batch(eta, R, T, 2, tau)
        errors.append(np.stack([
            np.abs(value - R * u0 + 0.5 * np.log(2 * np.pi * R * sum_w)),
            np.linalg.norm(g / R - pi, axis=1),
            np.linalg.norm(h / R - hess, axis=(1, 2))]))
    assert np.all(errors[1] * 3 <= errors[0])


def test_kernel_memory_bounded(monkeypatch):
    # the full (n, M/2 + 1, K) temporaries of this batch take 85 MB each;
    # split by rows, each stays under the kernel's 32 MB budget
    rng = np.random.default_rng(3)
    eta = rng.normal(size=(3000, 8))
    T = rng.integers(1, 8, size=3000)
    batches = []
    tau_batch = profile._tau_batch

    def counting(eta, T):
        batches.append(len(eta))
        return tau_batch(eta, T)

    monkeypatch.setattr(profile, "_tau_batch", counting)
    tracemalloc.start()
    try:
        value, grad, hess = conditional._log_g_batch(eta, 1000, T, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batches) > 1 and sum(batches) == 3000
    assert peak <= 4 * 32 * 2**20
    # the last rows, split off, agree with a call on them alone up to the
    # rounding of their profile roots
    tail = conditional._log_g_batch(eta[-5:], 1000, T[-5:], 2)
    for whole, part, scale in zip((value, grad, hess), tail,
                                  (1.0, 1000, 1000**2)):
        np.testing.assert_allclose(whole[-5:], part, rtol=1e-12,
                                   atol=1e-10 * scale)


def test_single_row_memory_bounded():
    # one row cannot be split: at K = 400, R = 100 its temporaries hold
    # (M/2 + 1) K = 206,400 complex values, 3.3 MB each
    eta = np.random.default_rng(5).normal(size=(1, 400))
    tracemalloc.start()
    try:
        value, grad, hess = conditional._log_g_batch(eta, 100, 200, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    assert np.isfinite(value).all()
    assert grad.sum() == pytest.approx(100 * 200, rel=1e-12)


class TestClrLoglik:
    def test_uniform_pair(self):
        ds = screen_dataset([Cluster(np.array([[1.0], [0.0]]),
                                     np.array([1, 0]))])
        assert clr_avg_loglik(ds, [0.0]) == pytest.approx(-0.5 * math.log(2),
                                                          abs=1e-14)

    def test_uniform_triple(self):
        ds = screen_dataset([Cluster(np.arange(3.0)[:, None],
                                     np.array([1, 1, 0]))])
        assert clr_avg_loglik(ds, [0.0]) == pytest.approx(-math.log(3) / 3,
                                                          abs=1e-14)

    def test_grid_oracle_at_cmle(self, matched_pair_dataset):
        from clogitrep.solve import solve_cmle
        beta_hat = solve_cmle(matched_pair_dataset).beta_hat
        grid = np.linspace(0.5, 1.7, 2401)
        vals = [clr_avg_loglik(matched_pair_dataset, [b]) for b in grid]
        assert clr_avg_loglik(matched_pair_dataset, beta_hat) >= max(vals)
        assert beta_hat[0] == pytest.approx(grid[int(np.argmax(vals))],
                                            abs=1e-3)

    @pytest.mark.parametrize("seed", range(5))
    def test_within_cluster_shift_invariance(self, seed):
        rng = np.random.default_rng(80 + seed)
        ds = random_matched_pairs(seed, n_pairs=6)
        beta = rng.normal(size=2)
        shifted = screen_dataset([
            Cluster(c.covariates + rng.normal(size=2), c.outcomes)
            for c in unpack(ds)])
        assert clr_avg_loglik(shifted, beta) == pytest.approx(
            clr_avg_loglik(ds, beta), abs=1e-12)
        np.testing.assert_allclose(clr_score(shifted, beta),
                                   clr_score(ds, beta), atol=1e-10)


class TestClrScore:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_matched_pairs(500 + seed, n_pairs=10)
        beta = rng.normal(size=2)
        score = clr_score(ds, beta)
        h = 1e-5
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (clr_avg_loglik(ds, beta + e)
                     - clr_avg_loglik(ds, beta - e)) / (2 * h)
        assert np.abs(fd - score).max() <= 1e-6 * max(1.0,
                                                      np.abs(score).max())

    def test_stationary_at_cmle(self, matched_pair_dataset):
        from clogitrep.solve import solve_cmle
        fit = solve_cmle(matched_pair_dataset)
        assert np.abs(clr_score(matched_pair_dataset,
                                fit.beta_hat)).max() <= 1e-8


class TestReplicatedLoglik:
    def test_r1_reduction(self):
        ds = random_matched_pairs(9, n_pairs=8)
        beta = np.array([0.2, -0.4])
        assert clr_rep_avg_loglik(ds, 1, beta) == pytest.approx(
            clr_avg_loglik(ds, beta), abs=1e-14)
        np.testing.assert_allclose(clr_rep_score(ds, 1, beta),
                                   clr_score(ds, beta), atol=1e-12)

    def test_pair_r2_value(self):
        ds = screen_dataset([Cluster(np.array([[1.0], [0.0]]),
                                     np.array([1, 0]))])
        assert clr_rep_avg_loglik(ds, 2, [0.0]) == pytest.approx(
            -math.log(6) / 4, abs=1e-12)
        assert clr_rep_avg_loglik(ds, 2, [0.0]) == pytest.approx(-0.447940,
                                                                 abs=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_pointwise_convergence_to_profile(self, seed):
        rng = np.random.default_rng(700 + seed)
        ds = random_matched_pairs(seed, n_pairs=6)
        beta = rng.normal(size=2)
        target = profile_loglik(ds, beta)
        gaps = [abs(clr_rep_avg_loglik(ds, R, beta) - target)
                for R in (1, 2, 5, 10, 20, 50)]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("seed", range(10))
    def test_score_matches_finite_differences(self, seed):
        rng = np.random.default_rng(900 + seed)
        ds = random_matched_pairs(200 + seed, n_pairs=6)
        beta = rng.normal(size=2)
        R = int(rng.integers(1, 6))
        score = clr_rep_score(ds, R, beta)
        h = 1e-5
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (clr_rep_avg_loglik(ds, R, beta + e)
                     - clr_rep_avg_loglik(ds, R, beta - e)) / (2 * h)
        assert np.abs(fd - score).max() <= 1e-6 * max(1.0,
                                                      np.abs(score).max())

    @pytest.mark.parametrize("seed", range(5))
    def test_concavity_along_segments(self, seed):
        rng = np.random.default_rng(1100 + seed)
        ds = random_matched_pairs(seed, n_pairs=6)
        b1, b2 = rng.normal(size=(2, 2))
        lam = rng.uniform(0.1, 0.9)
        R = int(rng.integers(1, 6))
        mid = clr_rep_avg_loglik(ds, R, lam * b1 + (1 - lam) * b2)
        assert mid >= (lam * clr_rep_avg_loglik(ds, R, b1)
                       + (1 - lam) * clr_rep_avg_loglik(ds, R, b2) - 1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        ds = random_matched_pairs(11, n_pairs=6)
        beta = rng.normal(size=2)
        shifted = screen_dataset([
            Cluster(c.covariates + rng.normal(size=2), c.outcomes)
            for c in unpack(ds)])
        for R in (2, 5):
            assert clr_rep_avg_loglik(shifted, R, beta) == pytest.approx(
                clr_rep_avg_loglik(ds, R, beta), abs=1e-12)
            np.testing.assert_allclose(clr_rep_score(shifted, R, beta),
                                       clr_rep_score(ds, R, beta), atol=1e-10)


# every entry point that takes a replication count R, called at R
_ETA = np.array([0.3, -0.2, 0.1])
R_ENTRY_POINTS = {
    "log_g": lambda R: log_g(_ETA, R, 1),
    "clr_rep_avg_loglik": lambda R: clr_rep_avg_loglik(
        random_matched_pairs(3, n_pairs=6), R, np.zeros(2)),
    "solve_cmle_replicated": lambda R: solve_cmle_replicated(
        random_matched_pairs(3, n_pairs=6), R),
    "contour_integral_g": lambda R: contour_integral_g(_ETA, 1, R),
    "rate_limit_check": lambda R: rate_limit_check(_ETA, 1, [R, 100]),
    "SimConfig": lambda R: SimConfig(r_values=(R, 100)),
}


@pytest.mark.parametrize("entry", R_ENTRY_POINTS)
def test_replication_count_must_be_integer_at_least_one(entry):
    # the kernel is exact only for integer R: 2.5 is refused, not truncated
    # to 2 or run as a fractional power
    with pytest.raises(DataError, match="must be an integer >= 1, got 2.5"):
        R_ENTRY_POINTS[entry](2.5)
    with pytest.raises(ValueError, match="integer >= 1, got 0|entries >= 1"):
        R_ENTRY_POINTS[entry](0)


@pytest.mark.parametrize("call", [
    lambda T: log_g(_ETA, 1, T),
    lambda T: contour_integral_g(_ETA, T, 1),
    lambda T: rate_limit_check(_ETA, T, [1]),
    lambda T: u_of_theta(_ETA, T, 0.0),
], ids=["log_g", "contour_integral_g", "rate_limit_check", "u_of_theta"])
def test_outcome_sum_must_be_integer(call):
    with pytest.raises(DataError, match="outcome sum T must be an integer, "
                                        "got 1.5"):
        call(1.5)


def test_integral_values_of_any_type_accepted():
    ds = random_matched_pairs(3, n_pairs=6)
    beta = np.array([0.2, -0.1])
    for R in (np.int64(2), 2.0, np.float64(2.0)):
        assert log_g(_ETA, R, np.int64(1)).value == log_g(_ETA, 2, 1).value
        assert (clr_rep_avg_loglik(ds, R, beta)
                == clr_rep_avg_loglik(ds, 2, beta))
        assert contour_integral_g(_ETA, 1.0, R) == contour_integral_g(_ETA,
                                                                      1, 2)
    assert SimConfig(r_values=(1.0, np.int64(2))).r_values == (1, 2)
