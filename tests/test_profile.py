import math
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import expit

from clogitrep import profile
from clogitrep.data import Cluster, DataError, screen_dataset
from clogitrep.profile import (olr_avg_loglik, olr_profile_score,
                               profile_loglik, profile_tau)
from conftest import random_matched_pairs
from packing_oracle import unpack


def bisect_tau(eta, T):
    """Independent root oracle (scipy brentq on the mean-matching equation)."""
    f = lambda t: expit(np.asarray(eta) + t).sum() - T
    amp = np.abs(eta).max() + 1.0
    lo = math.log(T / (len(eta) - T)) - amp
    return brentq(f, lo, lo + 2 * amp, xtol=1e-14)


class TestProfileTau:
    def test_symmetric_pair(self):
        c = Cluster(np.zeros((2, 1)), np.array([1, 0]))
        assert profile_tau(c, [1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_log2_pair(self):
        c = Cluster(np.array([[1.0], [0.0]]), np.array([1, 0]))
        tau = profile_tau(c, [math.log(2)])
        assert tau == pytest.approx(-0.5 * math.log(2), abs=1e-10)
        assert tau == pytest.approx(bisect_tau([math.log(2), 0.0], 1),
                                    abs=1e-10)

    def test_k3_t2(self):
        c = Cluster(np.zeros((3, 1)), np.array([1, 1, 0]))
        tau = profile_tau(c, [0.0])
        assert tau == pytest.approx(math.log(2), abs=1e-10)
        assert tau == pytest.approx(bisect_tau([0.0, 0.0, 0.0], 2), abs=1e-10)

    def test_concordant_errors(self):
        c = Cluster(np.zeros((2, 1)), np.array([1, 1]))
        with pytest.raises(DataError, match="infinite"):
            profile_tau(c, [0.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_residual_and_oracle(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 7))
        T = int(rng.integers(1, K))
        X = rng.normal(size=(K, 3))
        y = np.zeros(K, dtype=int)
        y[:T] = 1
        beta = rng.normal(size=3)
        c = Cluster(X, y)
        tau = profile_tau(c, beta)
        eta = X @ beta
        assert abs(expit(eta + tau).sum() - T) <= 1e-12
        assert tau == pytest.approx(bisect_tau(eta, T), abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_bracket_contains_root(self, seed):
        rng = np.random.default_rng(100 + seed)
        K = int(rng.integers(2, 6))
        T = int(rng.integers(1, K))
        eta = rng.normal(scale=2.0, size=K)
        center = math.log(T / (K - T))
        amp = np.abs(eta).max()
        f = lambda t: expit(eta + t).sum() - T
        assert f(center - amp) <= 0 <= f(center + amp)


@st.composite
def root_cases(draw):
    """(eta, T) with K <= 8 and predictors out to +-500."""
    K = draw(st.integers(2, 8))
    T = draw(st.integers(1, K - 1))
    eta = draw(st.lists(st.floats(-500.0, 500.0), min_size=K, max_size=K))
    return np.array(eta), T


@settings(deadline=None, max_examples=300)
@given(root_cases())
def test_tau_batch_root_in_bracket(case):
    eta, T = case
    tau = profile._tau_batch(eta[None, :], np.array([T]))[0]
    # np.log, as in _tau_batch: a root on the bracket's end must compare equal
    center = np.log(T / (len(eta) - T))
    amp = np.abs(eta).max()
    assert center - amp <= tau <= center + amp
    assert abs(expit(eta + tau).sum() - T) <= 1e-12


@pytest.fixture
def expit_calls(monkeypatch):
    """Counts expit calls in profile: one per residual evaluation."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return expit(x)

    monkeypatch.setattr(profile, "expit", counted)
    return calls


def test_tau_batch_residual_evaluations(expit_calls):
    rng = np.random.default_rng(7)
    worst = 0
    for _ in range(200):
        K = int(rng.integers(2, 9))
        T = int(rng.integers(1, K))
        eta = rng.normal(scale=2.0, size=(1, K))
        expit_calls[0] = 0
        tau = profile._tau_batch(eta, np.array([T]))[0]
        assert abs(expit(eta[0] + tau).sum() - T) <= 1e-12
        worst = max(worst, expit_calls[0])
    assert worst <= 10


@st.composite
def warm_cases(draw):
    """(eta, T, start) with K <= 8, predictors in +-50 and starts inside,
    outside and at both ends of the root's bracket."""
    K = draw(st.integers(2, 8))
    T = draw(st.integers(1, K - 1))
    eta = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=K,
                                 max_size=K)))
    center = np.log(T / (K - T))
    amp = np.abs(eta).max()
    start = draw(st.one_of(
        st.sampled_from([-1e6, 1e6, center - amp, center + amp]),
        st.floats(center - amp, center + amp),
        st.floats(-1e6, 1e6)))
    return eta, T, start


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(warm_cases())
def test_tau_batch_warm_start(expit_calls, case):
    eta, T, start = case
    cold = profile._tau_batch(eta[None, :], np.array([T]))
    tau = profile._tau_batch(eta[None, :], np.array([T]), np.array([start]))
    assert abs(expit(eta + tau[0]).sum() - T) <= 1e-12
    # a start outside the bracket begins at the bracket's nearer end
    center = np.log(T / (len(eta) - T))
    amp = np.abs(eta).max()
    clipped = min(max(start, center - amp), center + amp)
    assert tau == profile._tau_batch(eta[None, :], np.array([T]),
                                     np.array([clipped]))
    # started at its own root, a solve only checks the residual
    expit_calls[0] = 0
    assert profile._tau_batch(eta[None, :], np.array([T]), cold) == cold
    assert expit_calls[0] == 1


def test_tau_batch_stops_at_rounding_floor(expit_calls):
    # at |tau| ~ 1e5 rounding keeps the residual near 4e-12, above the
    # tolerance; the loop used to run to its cap of 100 steps.  Sixteen
    # halvings of the 2e5-wide bracket come before Newton takes over.
    eta = np.array([1e5, 1e5 + 0.3, -1e5])
    tau = profile._tau_batch(eta[None, :], np.array([1]))[0]
    assert expit_calls[0] <= 20
    p = expit(eta + tau)
    floor = (p * (1.0 - p)).sum() * np.spacing(abs(tau))
    assert abs(p.sum() - 1) <= floor


class TestOlrAvgLoglik:
    def test_all_zero(self, matched_pair_dataset):
        assert olr_avg_loglik(matched_pair_dataset, [0.0],
                              np.zeros(4)) == pytest.approx(-math.log(2),
                                                            abs=1e-14)

    def test_single_cluster_value(self):
        ds = screen_dataset([Cluster(np.array([[1.0], [-1.0]]),
                                     np.array([1, 0]))])
        val = olr_avg_loglik(ds, [1.0], np.zeros(1))
        expected = 0.5 * (1 - math.log(1 + math.e) - math.log(1 + 1 / math.e))
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(-0.313262, abs=1e-6)

    def test_length_mismatch(self, matched_pair_dataset):
        with pytest.raises(DataError):
            olr_avg_loglik(matched_pair_dataset, [0.0], np.zeros(3))

    def test_replication_invariance(self):
        # equal up to summation order: 1e-14 relative is about 90 ulps
        beta = np.array([0.3, -0.2])
        for seed, R in product(range(20), (2, 3, 5)):
            ds = random_matched_pairs(seed, n_pairs=10)
            b = np.linspace(-1, 1, ds.n_clusters)
            base = olr_avg_loglik(ds, beta, b)
            rep = screen_dataset([
                Cluster(np.tile(c.covariates, (R, 1)),
                        np.tile(c.outcomes, R))
                for c in unpack(ds)])
            val = olr_avg_loglik(rep, beta, b)
            assert abs(val - base) <= 1e-14 * abs(base), (seed, R)


class TestProfileLoglik:
    def test_symmetric_cluster(self):
        X = np.array([[0.7, -0.1], [0.7, -0.1]])
        ds = screen_dataset([Cluster(X, np.array([1, 0]))])
        assert profile_loglik(ds, [0.0, 0.0]) == pytest.approx(-math.log(2),
                                                               abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_olr_at_profile_roots(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_matched_pairs(seed, n_pairs=8)
        beta = rng.normal(size=2)
        taus = np.array([profile_tau(c, beta) for c in unpack(ds)])
        assert profile_loglik(ds, beta) == pytest.approx(
            olr_avg_loglik(ds, beta, taus),
            abs=1e-14)

    def test_replication_invariance(self):
        # equal up to summation order: 1e-14 relative is about 90 ulps
        beta = np.array([0.3, -0.2])
        for seed, R in product(range(20), (2, 3, 5)):
            ds = random_matched_pairs(seed, n_pairs=10)
            base = profile_loglik(ds, beta)
            rep = screen_dataset([
                Cluster(np.tile(c.covariates, (R, 1)),
                        np.tile(c.outcomes, R))
                for c in unpack(ds)])
            val = profile_loglik(rep, beta)
            assert abs(val - base) <= 1e-14 * abs(base), (seed, R)

    def test_grid_search_oracle(self, matched_pair_dataset):
        # all pair profile roots coincide, so a 2-d (beta, b) grid suffices
        from clogitrep.solve import solve_mle
        beta_hat = solve_mle(matched_pair_dataset).beta_hat
        best = -np.inf
        for beta in np.linspace(1.9, 2.5, 241):
            for b in np.linspace(-1.6, -0.6, 201):
                val = olr_avg_loglik(matched_pair_dataset, [beta],
                                     np.full(4, b))
                best = max(best, val)
        assert profile_loglik(matched_pair_dataset, beta_hat) == pytest.approx(
            best, abs=1e-4)
        assert profile_loglik(matched_pair_dataset, beta_hat) >= best - 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_concavity_along_segments(self, seed):
        rng = np.random.default_rng(300 + seed)
        ds = random_matched_pairs(seed, n_pairs=8)
        b1, b2 = rng.normal(size=(2, 2))
        lam = rng.uniform(0.1, 0.9)
        mid = profile_loglik(ds, lam * b1 + (1 - lam) * b2)
        assert mid >= (lam * profile_loglik(ds, b1)
                       + (1 - lam) * profile_loglik(ds, b2) - 1e-10)


class TestOlrProfileScore:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_matched_pairs(1000 + seed, n_pairs=12)
        beta = rng.normal(size=2)
        score = olr_profile_score(ds, beta)
        h = 1e-5
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (profile_loglik(ds, beta + e)
                     - profile_loglik(ds, beta - e)) / (2 * h)
        assert np.abs(fd - score).max() <= 1e-6 * max(1.0,
                                                      np.abs(score).max())

    def test_symmetric_cluster_zero_score(self):
        X = np.array([[0.7, -0.1], [0.7, -0.1]])
        ds = screen_dataset([Cluster(X, np.array([1, 0]))])
        assert np.abs(olr_profile_score(ds, [0.0, 0.0])).max() <= 1e-12

    def test_stationary_at_mle(self, matched_pair_dataset):
        from clogitrep.solve import solve_mle
        fit = solve_mle(matched_pair_dataset)
        assert np.abs(olr_profile_score(matched_pair_dataset,
                                        fit.beta_hat)).max() <= 1e-8
