"""Property tests for the invariants of the replicated normalizer kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clogitrep.conditional import _log_g_batch, log_g


@st.composite
def kernel_cases(draw):
    """(eta, R, T) with K <= 6, R <= 200 and predictors out to +-500."""
    K = draw(st.integers(2, 6))
    T = draw(st.integers(1, K - 1))
    R = draw(st.integers(1, 200))
    eta = draw(st.lists(st.floats(-500.0, 500.0), min_size=K, max_size=K))
    return np.array(eta), R, T


@settings(deadline=None, max_examples=150)
@given(kernel_cases())
def test_gradient_sums_to_rt(case):
    eta, R, T = case
    grad = log_g(eta, R, T).grad_eta
    assert abs(grad.sum() - R * T) <= 1e-12 * R * T


@settings(deadline=None, max_examples=150)
@given(kernel_cases())
def test_gradient_entries_within_zero_and_r(case):
    eta, R, T = case
    grad = log_g(eta, R, T).grad_eta
    assert grad.min() >= -1e-12 * R
    assert grad.max() <= R + 1e-12 * R


@settings(deadline=None, max_examples=150)
@given(kernel_cases(), st.floats(-100.0, 100.0))
def test_shift_adds_rtc(case, c):
    eta, R, T = case
    base = log_g(eta, R, T).value
    shifted = log_g(eta + c, R, T).value
    assert abs(shifted - (base + R * T * c)) <= 1e-12 * max(
        1.0, abs(base), abs(shifted))


@settings(deadline=None, max_examples=150)
@given(kernel_cases())
def test_hessian_rows_sum_to_zero(case):
    # the entries of r always sum to R T, so Cov(r) annihilates ones
    eta, R, T = case
    hess = _log_g_batch(eta[None, :], R, T, 2)[2][0]
    assert np.abs(hess.sum(axis=1)).max() <= 1e-10 * R * R


@settings(deadline=None, max_examples=150)
@given(kernel_cases())
def test_hessian_positive_semidefinite(case):
    eta, R, T = case
    hess = _log_g_batch(eta[None, :], R, T, 2)[2][0]
    assert np.linalg.eigvalsh(hess).min() >= -1e-10 * R * R
