import inspect
import math

import numpy as np
import pytest
from scipy.special import expit

from clogitrep import conditional, profile
from clogitrep.conditional import clr_rep_score, clr_score
from clogitrep.data import Cluster, DataError, screen_dataset
from clogitrep.profile import olr_profile_score
from clogitrep.simulate import SimConfig, _fit_replicate
from clogitrep.solve import (SolverConfig, SolverError, _maximize,
                             solve_cmle, solve_cmle_replicated, solve_mle,
                             verify_1K_identity, verify_pair_identity)
from conftest import random_five_sets, random_matched_pairs, random_one_to_k


class TestSolveMle:
    def test_matched_pair_closed_form(self, matched_pair_dataset):
        fit = solve_mle(matched_pair_dataset)
        assert fit.beta_hat[0] == pytest.approx(2 * math.log(3), abs=1e-8)
        assert fit.grad_inf_norm <= 1e-8
        assert fit.tau is not None and len(fit.tau) == 4

    def test_mirrored_symmetry(self, mirrored_dataset):
        fit = solve_mle(mirrored_dataset)
        assert fit.beta_hat[0] == pytest.approx(0.0, abs=1e-8)

    def test_rank_deficiency_rejected(self):
        # single covariate constant within every cluster
        clusters = [Cluster(np.ones((2, 1)) * v, np.array([1, 0]))
                    for v in (0.5, -1.0, 2.0)]
        ds = screen_dataset(clusters)
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(SolverError, match="rank"):
                solve_mle(ds)

    def test_uniqueness_from_different_starts(self):
        ds = random_matched_pairs(22, n_pairs=30)
        f0 = solve_mle(ds)
        f1 = solve_mle(ds, x0=np.array([1.5, -2.0]))
        np.testing.assert_allclose(f0.beta_hat, f1.beta_hat, atol=1e-6)

    def test_separation_reported(self):
        # every treated outcome 1, every control 0: no finite MLE
        X = np.array([[1.0], [0.0]])
        ds = screen_dataset([Cluster(X, np.array([1, 0]))
                             for _ in range(5)])
        with pytest.raises(SolverError):
            solve_mle(ds, SolverConfig(divergence_norm=20.0))


def test_line_search_stall_raises_at_once():
    # the score does not match the objective, so no step along it helps
    calls = 0

    def evaluate(x):
        nonlocal calls
        calls += 1
        return -float(x @ x), np.ones(2), -np.eye(2)

    with pytest.raises(SolverError, match="line search stalled"):
        _maximize(evaluate, 2, SolverConfig())
    assert calls < 100


def test_maximize_returns_last_evaluation_whole():
    # an evaluation may carry more than (value, score, Hessian); the
    # maximizer's comes back as evaluated, the extra element included
    evaluations = []

    def evaluate(x):
        evaluations.append((-float((x - 1.0) @ (x - 1.0)), 2.0 * (1.0 - x),
                            -2.0 * np.eye(2), object()))
        return evaluations[-1]

    x, state, iterations = _maximize(evaluate, 2, SolverConfig())
    np.testing.assert_array_equal(x, [1.0, 1.0])
    assert iterations == 1 and len(evaluations) == 2
    assert state is evaluations[-1]


# each solver with the evaluation it calls once per trial point
SOLVERS = [
    (profile, "_olr_eval", solve_mle),
    (conditional, "_clr_eval", solve_cmle),
    (conditional, "_clr_eval", lambda ds: solve_cmle_replicated(ds, 5)),
]


@pytest.mark.parametrize("make", [random_matched_pairs, random_five_sets])
@pytest.mark.parametrize("module, name, solver", SOLVERS)
def test_fit_objective_is_best_evaluated(monkeypatch, module, name, solver,
                                         make):
    # the line search only accepts ascent, so no trial point of a fit beats
    # the value it reports
    values = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        state = original(*args, **kwargs)
        values.append(state[0])
        return state

    monkeypatch.setattr(module, name, recorded)
    for seed in range(21, 25):
        values.clear()
        fit = solver(make(seed))
        assert len(values) > fit.iterations
        assert fit.objective >= max(values)


@pytest.mark.parametrize("module, name, solver", SOLVERS)
def test_one_derivative_call_per_iterate(monkeypatch, module, name, solver):
    # no step on this fixture backtracks, so each iterate is one trial point
    calls = []
    original = getattr(module, name)
    signature = inspect.signature(original)

    def counted(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments["order"])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    fit = solver(random_matched_pairs(41, n_pairs=30))
    assert fit.iterations >= 1
    assert calls == [2] * (fit.iterations + 1)


@pytest.mark.parametrize("module, name, solver", SOLVERS)
def test_fit_reuses_roots_of_accepted_point(monkeypatch, module, name, solver):
    # one root pass per objective call: FitResult.tau is the array the last
    # one returned rather than that of a pass of its own at beta_hat, and
    # solves the root equation there
    counts = {name: 0, "_dataset_taus": 0}
    returned = {}
    for owner, attr in ((module, name), (profile, "_dataset_taus")):
        def counted(*args, _attr=attr, _original=getattr(owner, attr),
                    **kwargs):
            counts[_attr] += 1
            returned[_attr] = _original(*args, **kwargs)
            return returned[_attr]

        monkeypatch.setattr(owner, attr, counted)
    ds = random_five_sets(41)
    fit = solver(ds)
    assert counts["_dataset_taus"] == counts[name] == fit.iterations + 1
    assert fit.tau is returned["_dataset_taus"]
    for block in ds.blocks:
        p = expit(block.X @ fit.beta_hat + fit.tau[block.index][:, None])
        assert np.abs(p.sum(axis=1) - block.T).max() <= 1e-12


@pytest.mark.parametrize("R", [None, 1, 10, 100])
@pytest.mark.parametrize("seed", range(3))
def test_exact_hessian(R, seed):
    # R None is the profile objective; the rest are CMLE-R objectives
    ds = random_five_sets(500 + seed)
    beta = np.array([0.3, -0.2])
    if R is None:
        score = lambda b: olr_profile_score(ds, b)
        hess = profile._olr_eval(ds, beta, 2)[2]
    else:
        score = lambda b: clr_rep_score(ds, R, b)
        hess = conditional._clr_eval(ds, R, beta, 2)[2]
    h = 1e-5
    fd = np.column_stack([(score(beta + h * e) - score(beta - h * e)) / (2 * h)
                          for e in np.eye(2)])
    scale = np.abs(hess).max()
    assert np.abs(hess - fd).max() <= 1e-7 * scale
    # Cov(r) is R^2 E[a a'] - E[r] E[r]', so rounding grows with R
    assert np.abs(hess - hess.T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(hess).max() <= 1e-12 * scale


class TestSolveCmle:
    def test_matched_pair_closed_form(self, matched_pair_dataset):
        fit = solve_cmle(matched_pair_dataset)
        assert fit.beta_hat[0] == pytest.approx(math.log(3), abs=1e-8)
        assert np.abs(clr_score(matched_pair_dataset,
                                fit.beta_hat)).max() <= 1e-8

    def test_mirrored_symmetry(self, mirrored_dataset):
        fit = solve_cmle(mirrored_dataset)
        assert fit.beta_hat[0] == pytest.approx(0.0, abs=1e-8)

    def test_uniqueness_from_different_starts(self):
        ds = random_matched_pairs(23, n_pairs=30)
        f0 = solve_cmle(ds)
        f1 = solve_cmle(ds, x0=np.array([-1.0, 2.0]))
        np.testing.assert_allclose(f0.beta_hat, f1.beta_hat, atol=1e-6)


class TestSolveCmleReplicated:
    def test_r1_matches_cmle(self, matched_pair_dataset):
        c = solve_cmle(matched_pair_dataset)
        r = solve_cmle_replicated(matched_pair_dataset, 1)
        np.testing.assert_allclose(r.beta_hat, c.beta_hat, atol=1e-8)

    def test_gap_decreasing_and_small_at_r200(self, matched_pair_dataset):
        mle = solve_mle(matched_pair_dataset).beta_hat
        gaps = []
        warm = None
        for R in (1, 2, 5, 10, 20, 50):
            fit = solve_cmle_replicated(matched_pair_dataset, R, x0=warm)
            warm = fit.beta_hat
            gaps.append(np.abs(fit.beta_hat - mle).max())
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        fit200 = solve_cmle_replicated(matched_pair_dataset, 200, x0=warm)
        assert np.abs(fit200.beta_hat - mle).max() <= 0.02

    def test_stationarity(self):
        ds = random_matched_pairs(31, n_pairs=15)
        fit = solve_cmle_replicated(ds, 4)
        assert np.abs(clr_rep_score(ds, 4, fit.beta_hat)).max() <= 1e-8

    def test_invalid_r(self, matched_pair_dataset):
        with pytest.raises(DataError):
            solve_cmle_replicated(matched_pair_dataset, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gap_nonincreasing_random_pairs(self, seed):
        ds = random_matched_pairs(2000 + seed, n_pairs=25)
        mle = solve_mle(ds).beta_hat
        gaps = []
        warm = None
        for R in (1, 2, 5, 10, 20, 50):
            fit = solve_cmle_replicated(ds, R, x0=warm)
            warm = fit.beta_hat
            gaps.append(np.abs(fit.beta_hat - mle).max())
        assert all(g1 >= g2 - 1e-6 for g1, g2 in zip(gaps, gaps[1:]))


class TestPairIdentity:
    def test_example(self, matched_pair_dataset):
        rep = verify_pair_identity(matched_pair_dataset)
        assert rep.abs_gap <= 1e-6

    def test_mirrored(self, mirrored_dataset):
        rep = verify_pair_identity(mirrored_dataset)
        assert rep.lhs == pytest.approx(0.0, abs=1e-7)
        assert rep.rhs == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_two_covariate_pairs(self, seed):
        ds = random_matched_pairs(3000 + seed, n_pairs=40)
        assert verify_pair_identity(ds).abs_gap <= 1e-6

    def test_rejects_non_pairs(self):
        ds = random_one_to_k(1, n_clusters=10, controls=2)
        with pytest.raises(DataError):
            verify_pair_identity(ds)


class TestOneToKIdentity:
    @pytest.mark.parametrize("controls", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_fit_then_evaluate(self, controls, seed):
        ds = random_one_to_k(4000 + seed, n_clusters=40, controls=controls)
        rep = verify_1K_identity(ds)
        assert rep.abs_gap <= 1e-6

    def test_symmetric_zero_case(self):
        # equal counts of mirrored outcome patterns force both fits to 0
        x = np.array([[1.0], [0.0], [0.0]])
        clusters = [Cluster(x, np.array([1, 0, 0])),
                    Cluster(x, np.array([0, 1, 0])),
                    Cluster(x, np.array([0, 0, 1])),
                    Cluster(x, np.array([0, 1, 1])),
                    Cluster(x, np.array([1, 0, 1])),
                    Cluster(x, np.array([1, 1, 0]))]
        ds = screen_dataset(clusters)
        rep = verify_1K_identity(ds)
        K = rep.inputs["K"]
        n_t = rep.inputs["n_t"]
        expected = sum(n / (1 + t / (K - t + 1))
                       for t, n in enumerate(n_t, start=1))
        assert rep.inputs["beta_mle"] == pytest.approx(0.0, abs=1e-7)
        assert rep.inputs["beta_cmle"] == pytest.approx(0.0, abs=1e-7)
        assert rep.lhs == pytest.approx(expected, abs=1e-6)
        assert rep.rhs == pytest.approx(expected, abs=1e-6)

    def test_rejects_wrong_design(self, matched_pair_dataset):
        with pytest.raises(DataError):
            verify_1K_identity(matched_pair_dataset)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=-1.0)

    @pytest.mark.parametrize("field, value, message", [
        ("grad_tol", 0.0, "grad_tol must be finite and > 0, got 0.0"),
        ("grad_tol", math.inf, "grad_tol must be finite and > 0, got inf"),
        ("grad_tol", math.nan, "grad_tol must be finite and > 0, got nan"),
        ("divergence_norm", math.inf,
         "divergence_norm must be finite and > 0, got inf"),
        ("divergence_norm", -1.0,
         "divergence_norm must be finite and > 0, got -1.0"),
        ("max_iter", 0, "max_iter must be an integer >= 1, got 0"),
        ("max_iter", 2.5, "max_iter must be an integer >= 1, got 2.5"),
        ("max_iter", 3.0, "max_iter must be an integer >= 1, got 3.0"),
    ])
    def test_each_field_checked(self, field, value, message):
        with pytest.raises(ValueError) as err:
            SolverConfig(**{field: value})
        assert str(err.value) == message

    def test_integer_types_accepted(self):
        assert SolverConfig(max_iter=np.int64(5)).max_iter == 5


def test_profile_score_stationary_at_mle():
    ds = random_matched_pairs(77, n_pairs=20)
    fit = solve_mle(ds)
    assert np.abs(olr_profile_score(ds, fit.beta_hat)).max() <= 1e-8


def test_rank_checked_once_per_dataset(monkeypatch):
    # a replicate fits one dataset 1 + len(r_values) times
    calls = 0
    original = np.linalg.matrix_rank

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    assert _fit_replicate(SimConfig(J=40), 0) is not None
    assert calls == 1
