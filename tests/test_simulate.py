import numpy as np
import pytest

from clogitrep import simulate
from clogitrep.simulate import (SimConfig, _fit_replicate, generate_dataset,
                                run_study)
from clogitrep.solve import solve_cmle_replicated, solve_mle
from packing_oracle import unpack


class TestSimConfig:
    def test_defaults_match_study_design(self):
        cfg = SimConfig()
        assert cfg.J == 100 and cfg.K == 3
        assert cfg.beta_true == (0.5, 0.8)
        assert cfg.r_values == (1, 2, 3, 4, 5, 10, 15, 20, 50, 80)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(K=1)
        with pytest.raises(ValueError):
            SimConfig(r_values=(3, 1))
        with pytest.raises(ValueError, match="strictly ascending"):
            SimConfig(r_values=(1, 1, 2))

    @pytest.mark.parametrize("beta_true", [
        (0.5,), (0.5, 0.8, 9.0), (), (float("nan"), 0.8), (0.5, float("inf")),
    ])
    def test_beta_true_must_be_two_finite_reals(self, beta_true):
        # the design has exactly two covariates
        with pytest.raises(ValueError, match="beta_true"):
            SimConfig(beta_true=beta_true)


class TestGenerateDataset:
    def test_design_shape(self):
        cfg = SimConfig(J=50, K=3, seed=1)
        ds = generate_dataset(cfg, 0)
        assert ds.n_clusters + ds.dropped_concordant == cfg.J
        assert ds.n_covariates == 2
        for c in unpack(ds):
            assert c.size == 3
            np.testing.assert_array_equal(c.covariates[:, 0], [1.0, 0.0, 0.0])

    def test_deterministic_per_replicate(self):
        cfg = SimConfig(J=30, seed=9)
        a = generate_dataset(cfg, 4)
        b = generate_dataset(cfg, 4)
        assert a.n_clusters == b.n_clusters
        for ca, cb in zip(unpack(a), unpack(b)):
            np.testing.assert_array_equal(ca.covariates, cb.covariates)
            np.testing.assert_array_equal(ca.outcomes, cb.outcomes)

    def test_distinct_across_replicates(self):
        cfg = SimConfig(J=30, seed=9)
        a = generate_dataset(cfg, 0)
        b = generate_dataset(cfg, 1)
        assert not np.array_equal(unpack(a)[0].covariates,
                                  unpack(b)[0].covariates)

    def test_rng_contract_stream(self):
        # rng-contract-v1: x2 normals first, then cluster effects, then
        # outcome uniforms, all from SeedSequence([seed, index])
        cfg = SimConfig(J=40, K=3, seed=123)
        rng = np.random.default_rng(np.random.SeedSequence([123, 2]))
        x2 = rng.standard_normal((40, 3))
        ds = generate_dataset(cfg, 2)
        observed = np.vstack([c.covariates[:, 1] for c in unpack(ds)])
        rows = {tuple(np.round(r, 12)) for r in x2}
        assert all(tuple(np.round(r, 12)) in rows for r in observed)

    def test_covariate_moments(self):
        # 100k+ standard normal draws for the second covariate
        rng = np.random.default_rng(np.random.SeedSequence([7, 0]))
        x2 = rng.standard_normal((34000, 3))
        assert abs(x2.mean()) <= 0.02
        assert abs(x2.var() - 1.0) <= 0.03


class TestRunStudy:
    def test_small_study_summary(self):
        cfg = SimConfig(J=40, n_sims=4, r_values=(1, 2), seed=3)
        s = run_study(cfg)
        assert [r.method for r in s.rows] == ["MLE", "CMLE", "CMLE"]
        assert [r.R for r in s.rows] == [None, 1, 2]
        for r in s.rows:
            assert r.n_used + r.n_failed == cfg.n_sims
            if r.n_used > 1:
                assert np.all(r.variance >= 0.0)

    def test_worker_count_invariance(self):
        cfg1 = SimConfig(J=30, n_sims=6, r_values=(1, 2), seed=5, workers=1)
        cfg2 = SimConfig(J=30, n_sims=6, r_values=(1, 2), seed=5, workers=3)
        s1, s2 = run_study(cfg1), run_study(cfg2)
        for a, b in zip(s1.rows, s2.rows):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.variance, b.variance)

    def test_csv_deterministic(self, tmp_path):
        cfg = SimConfig(J=30, n_sims=3, r_values=(1,), seed=11)
        s = run_study(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        s.to_csv(p1)
        run_study(cfg).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_replicate_variance_marker(self, tmp_path):
        cfg = SimConfig(J=30, n_sims=1, r_values=(1,), seed=2)
        s = run_study(cfg)
        path = tmp_path / "one.csv"
        s.to_csv(path)
        line = path.read_text().splitlines()[1]
        assert ",NA,NA," in line


def test_chain_starts_extrapolate_in_one_over_r(monkeypatch):
    # against a chain that starts each R at the previous estimate: the same
    # estimates, in at most 0.8 times the CMLE-R iterations
    cfg = SimConfig(J=100, K=3, r_values=(1, 2, 5, 10, 20, 50))
    iterations = []

    def counted(*args, **kwargs):
        fit = solve_cmle_replicated(*args, **kwargs)
        iterations.append(fit.iterations)
        return fit

    monkeypatch.setattr(simulate, "solve_cmle_replicated", counted)
    previous_rule = 0
    for i in range(5):
        dataset = generate_dataset(cfg, i)
        fits = [solve_mle(dataset).beta_hat]
        warm = None
        for R in cfg.r_values:
            fit = solve_cmle_replicated(dataset, R, x0=warm)
            previous_rule += fit.iterations
            warm = fit.beta_hat
            fits.append(warm)
        np.testing.assert_allclose(_fit_replicate(cfg, i)[0], fits, rtol=0,
                                   atol=1e-6)
    assert sum(iterations) <= 0.8 * previous_rule
