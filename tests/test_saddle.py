import math

import numpy as np
import pytest
from scipy.special import gammaln

from clogitrep.conditional import log_g
from clogitrep.data import DataError
from clogitrep.saddle import (QuadratureError, contour_integral_g,
                              rate_limit_check, u_of_theta)
from conftest import random_cluster_eta


def log_comb(n, k):
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


class TestUOfTheta:
    def test_u0_real_symmetric_pair(self):
        u0 = u_of_theta(np.zeros(2), 1, 0.0)
        assert u0.imag == 0.0
        assert u0.real == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_u0_matches_profile_form(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            eta, T = random_cluster_eta(rng)
            u0 = u_of_theta(eta, T, 0.0)
            assert abs(u0.imag) <= 1e-12
            d = rate_limit_check(eta, T, [1])
            tau = d.tau
            expected = -tau * T + np.logaddexp(0.0, eta + tau).sum()
            assert u0.real == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("seed", range(50))
    def test_saddle_condition(self, seed):
        rng = np.random.default_rng(seed)
        eta, T = random_cluster_eta(rng)
        h = 1e-6
        up = (u_of_theta(eta, T, h) - u_of_theta(eta, T, -h)) / (2 * h)
        assert abs(up) <= 1e-8

    def test_rejects_concordant(self):
        with pytest.raises(DataError):
            u_of_theta(np.zeros(3), 3, 0.0)


class TestRateLimitCheck:
    def test_symmetric_pair_grid(self):
        d = rate_limit_check(np.zeros(2), 1, [10, 20, 40, 50, 80])
        assert d.u0 == pytest.approx(math.log(4), abs=1e-12)
        assert d.u_prime0_abs <= 1e-8
        rate50 = d.exact_rates[d.r_grid.index(50)]
        assert rate50 == pytest.approx(log_comb(100, 50) / 50, abs=1e-9)
        assert d.gaps[d.r_grid.index(50)] == pytest.approx(0.0506, abs=2e-3)
        assert all(g > 0 for g in d.gaps)
        assert all(g1 > g2 for g1, g2 in zip(d.gaps, d.gaps[1:]))

    @pytest.mark.parametrize("seed", range(10))
    def test_gap_halving_band(self, seed):
        rng = np.random.default_rng(200 + seed)
        eta, T = random_cluster_eta(rng, k_range=(2, 4))
        d = rate_limit_check(eta, T, [10, 20, 40, 80])
        ratios = [d.gaps[i + 1] / d.gaps[i] for i in range(3)]
        assert all(0.4 < r < 0.7 for r in ratios)

    def test_gap_bounded_by_log_r_over_r(self):
        rng = np.random.default_rng(9)
        eta, T = random_cluster_eta(rng)
        grid = [5, 10, 20, 40, 80, 160]
        d = rate_limit_check(eta, T, grid)
        c = max(g * R / math.log(R) for g, R in zip(d.gaps, grid))
        assert all(g <= c * math.log(R) / R + 1e-12
                   for g, R in zip(d.gaps, grid))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            rate_limit_check(np.zeros(2), 1, [5, 2])

    def test_quadrature_cross_check_populated(self):
        d = rate_limit_check(np.array([0.3, -0.2, 0.1]), 1, [1, 2, 5, 10],
                             quadrature_max_r=5)
        assert [R for R, _ in d.quadrature_vs_dp] == [1, 2, 5]
        assert all(err <= 1e-8 for _, err in d.quadrature_vs_dp)


class TestContourIntegral:
    def test_pair_r2(self):
        val = contour_integral_g(np.zeros(2), 1, 2)
        assert val == pytest.approx(math.log(6), rel=1e-10)

    def test_r1_matches_perm_normalizer(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            eta, T = random_cluster_eta(rng, k_range=(2, 4))
            assert contour_integral_g(eta, T, 1) == pytest.approx(
                log_g(eta, 1, T).value, rel=1e-8)

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_matches_dp_all_small_cases(self, K):
        rng = np.random.default_rng(K)
        for T in range(1, K):
            for R in range(1, 6):
                for _ in range(3):
                    eta = rng.normal(size=K)
                    q = contour_integral_g(eta, T, R)
                    dp = log_g(eta, R, T).value
                    assert abs(q - dp) <= 1e-8 * max(1.0, abs(dp))

    def test_modulus_peaks_at_saddle(self):
        rng = np.random.default_rng(17)
        eta, T = random_cluster_eta(rng)
        u0 = u_of_theta(eta, T, 0.0).real
        thetas = np.linspace(-math.pi, math.pi, 301)
        mods = [u_of_theta(eta, T, t).real for t in thetas]
        assert max(mods) <= u0 + 1e-12
