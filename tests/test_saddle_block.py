"""The per-block diagnostics pass against one-row calls, its error messages
and its memory bound."""

import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from clogitrep import cli, profile, saddle
from clogitrep.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from clogitrep.conditional import log_g
from clogitrep.data import DataError, read_csv
from clogitrep.saddle import (QuadratureError, contour_integral_g,
                              rate_limit_block, rate_limit_check)

BETA = (0.6, -0.4)
R_GRID = [1, 2, 5, 10, 20, 50]
QUAD_MAX_R = 20


@pytest.fixture
def mixed_csv(tmp_path):
    """24 discordant clusters of sizes 2..6 with interleaved rows; returns
    the path and each cluster's (X, T) in order of first appearance."""
    rng = np.random.default_rng(3)
    sizes = [2 + j % 5 for j in range(24)]
    clusters = []
    for K in sizes:
        y = np.zeros(K, dtype=int)
        y[rng.choice(K, size=rng.integers(1, K), replace=False)] = 1
        clusters.append((rng.normal(scale=1.5, size=(K, 2)), y))
    # rows dealt out round-robin, so every cluster's rows are interleaved
    rows = [(f"id{j}", clusters[j][1][k], *clusters[j][0][k])
            for k in range(max(sizes)) for j in range(len(sizes))
            if k < sizes[j]]
    path = tmp_path / "mixed.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cluster_id", "y", "x1", "x2"])
        w.writerows((c, y, repr(float(a)), repr(float(b)))
                    for c, y, a, b in rows)
    return str(path), [(X, int(y.sum())) for X, y in clusters]


def test_block_pass_matches_one_row_calls(mixed_csv, capsys):
    path, clusters = mixed_csv
    assert len(read_csv(path).blocks) == 5
    rc = main(["asymptotics", "--input", path,
               "--beta", ",".join(map(str, BETA)),
               "--r-grid", ",".join(map(str, R_GRID)),
               "--quadrature-max-r", str(QUAD_MAX_R)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(int(r["cluster"]), int(r["R"])) for r in rows] == [
        (j, R) for j in range(len(clusters)) for R in R_GRID]
    for j, (X, T) in enumerate(clusters):
        eta = X @ np.array(BETA)
        d = rate_limit_check(eta, T, R_GRID, quadrature_max_r=QUAD_MAX_R)
        mine = rows[j * len(R_GRID):(j + 1) * len(R_GRID)]
        for r, R, rate, gap in zip(mine, R_GRID, d.exact_rates, d.gaps):
            assert abs(float(r["tau"]) - d.tau) <= 1e-11
            assert abs(float(r["uprime0_abs"]) - d.u_prime0_abs) <= 1e-11
            assert abs(float(r["u0"]) - d.u0) <= 1e-13
            assert abs(float(r["rate"]) - rate) <= 1e-13
            assert abs(float(r["gap"]) - gap) <= 1e-13
            if R > QUAD_MAX_R:
                assert r["quad_rel_err"] == ""
                continue
            exact = log_g(eta, R, T).value
            err = abs(contour_integral_g(eta, T, R) - exact) / max(1.0,
                                                                abs(exact))
            assert abs(float(r["quad_rel_err"]) - err) <= 1e-13
            assert dict(d.quadrature_vs_dp)[R] == err


def test_block_rows_match_rate_limit_check():
    rng = np.random.default_rng(8)
    eta = rng.normal(scale=2.0, size=(9, 5))
    T = 1 + np.arange(9) % 4
    diags = rate_limit_block(eta, T, [1, 3, 7], quadrature_max_r=3)
    assert len(diags) == 9
    for row, t, d in zip(eta, T, diags):
        one = rate_limit_check(row, t, [1, 3, 7], quadrature_max_r=3)
        assert abs(d.tau - one.tau) <= 1e-11
        assert d.r_grid == one.r_grid == [1, 3, 7]
        assert [R for R, _ in d.quadrature_vs_dp] == [1, 3]
        np.testing.assert_allclose(d.exact_rates, one.exact_rates,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose([e for _, e in d.quadrature_vs_dp],
                                   [e for _, e in one.quadrature_vs_dp],
                                   rtol=0, atol=1e-13)


def test_one_root_solve_per_block(mixed_csv, monkeypatch, capsys):
    path, _ = mixed_csv
    calls = []
    tau_batch = profile._tau_batch

    def counting(eta, T):
        calls.append(len(eta))
        return tau_batch(eta, T)

    monkeypatch.setattr(profile, "_tau_batch", counting)
    rc = main(["asymptotics", "--input", path, "--beta", "0.6,-0.4",
               "--r-grid", ",".join(map(str, R_GRID))])
    assert rc == EXIT_OK
    assert calls == [len(b.T) for b in read_csv(path).blocks]


@pytest.mark.parametrize("beta", ["nan,0.5", "inf,0.5", "0.5,-inf"])
def test_non_finite_beta_rejected(mixed_csv, beta, capsys):
    path, _ = mixed_csv
    rc = main(["asymptotics", "--input", path, "--beta", beta])
    assert rc == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert "--beta: entries must be finite" in err


def test_non_finite_eta_names_cluster():
    eta = np.zeros((3, 4))
    eta[1, 2] = np.nan
    with pytest.raises(DataError,
                       match="^cluster 7: linear predictor is not finite"):
        rate_limit_block(eta, [2, 2, 2], [1, 5], ids=[4, 7, 9])


def _concordant_row(monkeypatch, path, block, row):
    """Make `row` of `block` concordant in what the CLI reads from path."""
    dataset = read_csv(path)
    blocks = list(dataset.blocks)
    b = blocks[block]
    T = b.T.copy()
    T[row] = 0
    blocks[block] = replace(b, T=T)
    monkeypatch.setattr(cli, "read_csv",
                        lambda _: replace(dataset, blocks=tuple(blocks)))
    return int(b.index[row])


def test_failing_row_is_named(mixed_csv, monkeypatch, capsys):
    path, _ = mixed_csv
    j = _concordant_row(monkeypatch, path, 2, 3)
    rc = main(["asymptotics", "--input", path, "--beta", "0.6,-0.4"])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"cluster {j}: saddle requires a discordant cluster" in err


def test_state_cap_names_cluster_and_r(mixed_csv, capsys):
    path, _ = mixed_csv
    rc = main(["asymptotics", "--input", path, "--beta", "0.6,-0.4",
               "--r-grid", "1,300000"])
    assert rc == EXIT_INPUT
    # R K passes the cap for K = 2 and 3; the first cluster of size 4 is 2
    assert "cluster 2, R = 300000: state space" in capsys.readouterr().err


def test_unconverged_quadrature_names_cluster_and_r(tmp_path, capsys):
    # at R = 20000 the integrand of a flat K = 6 cluster is too narrow for
    # 512 nodes (relative error about 1e-2); clusters whose eta spread
    # wide have a tiny variance and a flat integrand, and converge
    spread = [-20.0, -15.0, -10.0, 10.0, 15.0, 20.0]
    xs = [spread, spread, [0.0] * 6, spread]
    path = tmp_path / "wide.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cluster_id", "y", "x1"])
        w.writerows((j, int(k >= 3), x) for j, col in enumerate(xs)
                    for k, x in enumerate(col))
    rc = main(["asymptotics", "--input", str(path), "--beta", "1",
               "--r-grid", "20000", "--quadrature-max-r", "20000"])
    assert rc == EXIT_NUMERIC
    assert ("cluster 2, R = 20000: quadrature not converged"
            in capsys.readouterr().err)
    with pytest.raises(QuadratureError,
                       match="^R = 20000: quadrature not converged"):
        contour_integral_g(np.zeros(6), 3, 20000)


def test_contour_pass_memory_bounded():
    # 2,000 clusters of size 8: unsplit, each (rows, 2 * nodes, K) complex
    # temporary would take 262 MB; split, the pass peaks near 0.8 MB
    rng = np.random.default_rng(4)
    eta = rng.normal(size=(2000, 8))
    T = 1 + np.arange(2000) % 7
    tau = profile._tau_batch(eta, T)
    tracemalloc.start()
    try:
        out = saddle._contour_block(eta, T, tau, [1, 2], 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
    for i in (0, 999, 1999):
        assert out[i, 1] == pytest.approx(
            contour_integral_g(eta[i], T[i], 2), abs=1e-13)
