import csv
import json
import math
from pathlib import Path

import pytest

from clogitrep import cli
from clogitrep.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from clogitrep.simulate import SimConfig, SimulationSummary

PAIR_ROWS = [
    (1, 1, 1.0), (1, 0, 0.0),
    (2, 1, 1.0), (2, 0, 0.0),
    (3, 1, 1.0), (3, 0, 0.0),
    (4, 0, 1.0), (4, 1, 0.0),
]


@pytest.fixture
def pair_csv(tmp_path):
    path = tmp_path / "pairs.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cluster_id", "y", "x1"])
        w.writerows(PAIR_ROWS)
    return str(path)


@pytest.fixture
def flat_csv(tmp_path):
    # eta is identically zero under any beta: symmetric pairs
    path = tmp_path / "flat.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cluster_id", "y", "x1"])
        w.writerows([(1, 1, 0.0), (1, 0, 0.0), (2, 0, 0.0), (2, 1, 0.0)])
    return str(path)


class TestFit:
    def test_mle_table(self, pair_csv, capsys):
        assert main(["fit", "--input", pair_csv, "--method", "mle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "MLE" in out
        beta = float([ln for ln in out.splitlines()
                      if ln.startswith("beta_1")][0].split(":")[1])
        assert beta == pytest.approx(2 * math.log(3), abs=1e-5)

    def test_cmle_json(self, pair_csv, capsys):
        rc = main(["fit", "--input", pair_csv, "--method", "cmle",
                   "--format", "json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["beta_hat"][0] == pytest.approx(math.log(3), abs=1e-7)

    def test_cmle_r1_matches_cmle(self, pair_csv, capsys):
        main(["fit", "--input", pair_csv, "--method", "cmle",
              "--format", "json"])
        a = json.loads(capsys.readouterr().out)
        main(["fit", "--input", pair_csv, "--method", "cmle-r",
              "--replications", "1", "--format", "json"])
        b = json.loads(capsys.readouterr().out)
        assert b["beta_hat"][0] == pytest.approx(a["beta_hat"][0], abs=1e-7)

    def test_csv_output_and_manifest(self, pair_csv, tmp_path, capsys):
        out = str(tmp_path / "fit.csv")
        rc = main(["fit", "--input", pair_csv, "--method", "mle",
                   "--format", "csv", "--out", out])
        assert rc == EXIT_OK
        header = Path(out).read_text().splitlines()[0].split(",")
        assert header[:2] == ["method", "beta_1"]
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["config"]["method"] == "mle"
        assert "runtime_seconds" in manifest
        assert manifest["read_s"] >= 0.0 and manifest["solve_s"] >= 0.0
        assert manifest["python"].count(".") == 2
        assert manifest["numpy"] and manifest["scipy"]
        assert manifest["cpu_count"] >= 1

    def test_missing_replications_is_input_error(self, pair_csv, capsys):
        rc = main(["fit", "--input", pair_csv, "--method", "cmle-r"])
        assert rc == EXIT_INPUT
        assert "replications" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        rc = main(["fit", "--input", str(tmp_path / "none.csv"),
                   "--method", "mle"])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("command", [
        ["fit", "--method", "mle"],
        ["asymptotics", "--beta", "0"],
    ])
    def test_directory_input_is_input_error(self, tmp_path, command, capsys):
        rc = main(command + ["--input", str(tmp_path)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_is_input_error(self, pair_csv, tol, capsys):
        rc = main(["fit", "--input", pair_csv, "--method", "mle",
                   "--tol", tol])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: grad_tol must be finite and > 0, got {tol}\n")

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,y,x1\n1,1,0.5\n1,oops,0.1\n")
        rc = main(["fit", "--input", str(path), "--method", "mle"])
        assert rc == EXIT_INPUT
        assert "line 3" in capsys.readouterr().err

    def test_rank_deficient_is_numeric_error(self, flat_csv, capsys):
        rc = main(["fit", "--input", flat_csv, "--method", "mle"])
        assert rc == EXIT_NUMERIC
        assert "rank" in capsys.readouterr().err


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        args = ["simulate", "--clusters", "25", "--n-sims", "3",
                "--replications", "1,2", "--seed", "7"]
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(args + ["--out", p1]) == EXIT_OK
        assert main(args + ["--out", p2]) == EXIT_OK
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
        manifest = json.loads(Path(p1 + ".manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_csv_rows(self, tmp_path):
        out = str(tmp_path / "s.csv")
        main(["simulate", "--clusters", "25", "--n-sims", "2",
              "--replications", "1,5", "--seed", "2", "--out", out])
        rows = list(csv.DictReader(Path(out).read_text().splitlines()))
        assert [r["method"] for r in rows] == ["MLE", "CMLE", "CMLE"]
        assert [r["R"] for r in rows] == ["", "1", "5"]
        assert all(int(r["n_used"]) + int(r["n_failed"]) == 2 for r in rows)

    def test_bad_replication_list(self, tmp_path, capsys):
        rc = main(["simulate", "--replications", "1,x",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("flag,value,message", [
        ("--clusters", "0", "J must be >= 1, got 0"),
        ("--cluster-size", "1", "K must be >= 2, got 1"),
        ("--n-sims", "0", "n_sims must be >= 1, got 0"),
        ("--workers", "0", "workers must be >= 1, got 0"),
    ])
    def test_bad_field_is_named(self, tmp_path, flag, value, message, capsys):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--n-sims", "1", flag, value, "--out", str(out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_repeated_replication_rejected(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--n-sims", "1", "--clusters", "20",
                   "--replications", "1,1,2", "--out", str(out)])
        assert rc == EXIT_INPUT
        assert "strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("beta_true", ["0.5", "0.5,0.8,9"])
    def test_beta_true_needs_two_entries(self, tmp_path, beta_true, capsys):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--n-sims", "1", "--beta-true", beta_true,
                   "--out", str(out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: beta_true")
        assert not out.exists()

    def test_missing_out_directory_rejected_before_study(self, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_study", None)  # never reached
        out = tmp_path / "nodir" / "s.csv"
        rc = main(["simulate", "--n-sims", "1", "--out", str(out)])
        assert rc == EXIT_INPUT
        assert str(out.parent) in capsys.readouterr().err

    def test_defaults_are_sim_config_defaults(self, tmp_path, monkeypatch):
        configs = []

        def capture(cfg):
            configs.append(cfg)
            return SimulationSummary(rows=(), seed=cfg.seed, n_sims=0,
                                     mean_dropped_concordant=0.0)

        monkeypatch.setattr(cli, "run_study", capture)
        assert main(["simulate", "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert configs == [SimConfig()]


class TestAsymptotics:
    def test_symmetric_pair_diagnostics(self, flat_csv, capsys):
        rc = main(["asymptotics", "--input", flat_csv, "--beta", "0",
                   "--r-grid", "1,2,5,10,20,50", "--quadrature-max-r", "5"])
        assert rc == EXIT_OK
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 12  # 2 clusters x 6 grid points
        first = [r for r in rows if r["cluster"] == "0"]
        assert float(first[0]["u0"]) == pytest.approx(math.log(4), abs=1e-12)
        assert float(first[0]["uprime0_abs"]) <= 1e-8
        gaps = [float(r["gap"]) for r in first]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        quads = [float(r["quad_rel_err"]) for r in first
                 if r["quad_rel_err"] != ""]
        assert len(quads) == 3 and all(q <= 1e-8 for q in quads)

    def test_beta_length_mismatch(self, flat_csv, capsys):
        rc = main(["asymptotics", "--input", flat_csv, "--beta", "0,1"])
        assert rc == EXIT_INPUT
        assert "covariates" in capsys.readouterr().err

    def test_repeated_r_rejected(self, flat_csv, capsys):
        rc = main(["asymptotics", "--input", flat_csv, "--beta", "0",
                   "--r-grid", "1,1"])
        assert rc == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: r_grid must be strictly")

    def test_out_file_and_manifest(self, flat_csv, tmp_path):
        out = str(tmp_path / "asy.csv")
        rc = main(["asymptotics", "--input", flat_csv, "--beta", "0",
                   "--r-grid", "1,2", "--out", out])
        assert rc == EXIT_OK
        assert Path(out).read_text().startswith("cluster,tau,u0")
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["read_s"] >= 0.0 and manifest["diagnose_s"] >= 0.0


def test_console_script_installed():
    import shutil
    import subprocess
    exe = shutil.which("clogitrep")
    assert exe is not None
    r = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert r.returncode == 0 and "fit" in r.stdout
