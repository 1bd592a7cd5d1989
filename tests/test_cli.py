"""Command-line interface tests, run in-process through ``main(argv)``.

Covers every subcommand, global-flag placement on either side of the
subcommand name, trajectory-file validation, the simulate -> fit pipeline,
the 0/2/3 exit-code contract, and, in a fresh interpreter, which scipy
subpackages ``import fraclab`` loads."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fraclab
from fraclab.calibration import inverse_calibration
from fraclab.cli import main
from fraclab.grids import SamplingGrid, Trajectory


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_traj_csv(path, times, values):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time", "value"))
        writer.writerows(
            (repr(float(t)), repr(float(v))) for t, v in zip(times, values)
        )


def parse_traj_stdout(out):
    lines = out.strip().splitlines()
    assert lines[0] == "time,value"
    pairs = [line.split(",") for line in lines[1:]]
    times = np.array([float(t) for t, _ in pairs])
    values = np.array([float(v) for _, v in pairs])
    return times, values


class TestSimulate:
    def test_fbm_to_stdout(self, capsys):
        rc, out, err = run_cli(
            capsys, "simulate", "--model", "fbm", "--delta", "0.1",
            "--count", "10", "--seed", "1",
        )
        assert rc == 0 and err == ""
        times, values = parse_traj_stdout(out)
        assert len(times) == 11
        assert values[0] == 0.0
        np.testing.assert_allclose(times, 0.1 * np.arange(11), rtol=1e-15)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        args = ("simulate", "--model", "fbm", "--delta", "0.1", "--count", "5",
                "--seed", "3")
        rc, out, _ = run_cli(capsys, *args)
        assert rc == 0
        path = tmp_path / "traj.csv"
        rc2, out2, _ = run_cli(capsys, *args, "--out", str(path))
        assert rc2 == 0 and out2 == ""  # written to the file instead
        assert path.read_text().strip().splitlines() == out.strip().splitlines()

    def test_global_flags_either_side(self, capsys):
        tail = ("simulate", "--model", "fbm", "--delta", "0.1", "--count", "8")
        rc_a, out_a, _ = run_cli(capsys, "--seed", "2", *tail)
        rc_b, out_b, _ = run_cli(capsys, *tail, "--seed", "2")
        assert rc_a == rc_b == 0
        assert out_a == out_b

    def test_seed_changes_output(self, capsys):
        tail = ("simulate", "--model", "fbm", "--delta", "0.1", "--count", "8")
        _, out_a, _ = run_cli(capsys, *tail, "--seed", "2")
        _, out_b, _ = run_cli(capsys, *tail, "--seed", "4")
        _, out_c, _ = run_cli(capsys, *tail, "--seed", "2")
        assert out_a != out_b
        assert out_a == out_c

    @pytest.mark.parametrize(
        "extra",
        [
            ("--model", "fou", "--lam", "2.0", "--beta", "1.5", "--hurst", "0.5"),
            ("--model", "fou", "--lam", "0.5", "--hurst", "0.95"),
            ("--model", "physical-fbm", "--component", "slow", "--hurst", "0.3"),
            ("--model", "physical-fbm", "--component", "driver"),
            ("--model", "physical-fbm", "--component", "fast", "--epsilon", "0.05"),
            ("--model", "tfe", "--component", "fast", "--eta", "0.001",
             "--epsilon", "0.05", "--refine", "4"),
            ("--model", "approximate", "--theta", "0.5"),
        ],
    )
    def test_other_models_run(self, capsys, extra):
        rc, out, err = run_cli(
            capsys, "simulate", "--delta", "0.1", "--count", "6", *extra
        )
        assert rc == 0, err
        times, values = parse_traj_stdout(out)
        assert len(values) == 7
        assert np.all(np.isfinite(values))

    def test_fou_next_to_half_samples(self, capsys):
        # at H = 0.4999 the fOU covariance r is nearly 0 against the two
        # halves of its closed form that cancel to it; sampling still works
        rc, out, err = run_cli(
            capsys, "simulate", "--model", "fou", "--hurst", "0.4999", "--lam", "1",
            "--delta", "0.5", "--count", "100",
        )
        assert rc == 0, err
        _, values = parse_traj_stdout(out)
        assert len(values) == 101 and np.all(np.isfinite(values))

    def test_bad_delta_is_config_error(self, capsys):
        rc, _, err = run_cli(
            capsys, "simulate", "--model", "fbm", "--delta", "-1", "--count", "4"
        )
        assert rc == 2
        assert "config error" in err

    @pytest.mark.parametrize(
        "grid, message",
        [
            (("--delta", "1e-320", "--horizon", "1"), "no finite cell count"),
            (("--delta", "1e-9", "--horizon", "1"), "1000000000 cells exceeds"),
            (("--delta", "0.1", "--count", "16777217"), "16777217 cells exceeds"),
        ],
    )
    def test_oversized_grid_exits_2(self, capsys, grid, message):
        # refused when the grid is built, before any array is allocated
        rc, out, err = run_cli(capsys, "simulate", "--model", "fbm", *grid)
        assert rc == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("eps, message", [("5e-324", "finite"), ("1e-9", "cap of")])
    def test_hostile_epsilon_exits_2(self, capsys, eps, message):
        # an infinite or oversized sub-grid is refused before it is built
        rc, out, err = run_cli(
            capsys, "simulate", "--model", "tfe", "--epsilon", eps,
            "--delta", "0.01", "--count", "100",
        )
        assert rc == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "extra, code, message",
        [
            (("--model", "fou", "--lam", "1e-6"), 3, "fast/slow pair eps/delta=1"),
            (("--model", "fou", "--lam", "5e-324"), 2, "finite"),
            (("--model", "physical-fbm", "--component", "fast", "--epsilon", "1e4"),
             3, "fast/slow pair eps/delta=1"),
            (("--model", "physical-fbm", "--component", "driver", "--epsilon", "1e-7"), 0, ""),
            (("--model", "physical-fbm", "--component", "slow", "--epsilon", "1e300"),
             2, "not finite"),
            (("--model", "approximate", "--theta", "1e-9"), 2, "burn-in cells"),
            (("--model", "approximate", "--theta", "1e-300"), 2, "burn-in cells"),
        ],
        ids=["fou-lam-1e-6", "fou-lam-5e-324", "fast-eps-1e4", "driver-eps-1e-7",
             "slow-eps-1e300", "approximate-theta-1e-9", "approximate-theta-1e-300"],
    )
    def test_hostile_scales_exit_with_a_cause(self, capsys, extra, code, message):
        # a scale the law cannot be built at is refused before anything
        # large is allocated (exit 2); one the embedding cannot make
        # non-negative definite fails at the doubling cap naming the law
        # (exit 3); a tiny eps/delta samples
        rc, out, err = run_cli(capsys, "simulate", *extra, "--delta", "0.01")
        assert rc == code, err
        assert message in err
        if code:
            assert out == ""
        else:
            assert np.all(np.isfinite(parse_traj_stdout(out)[1]))


class TestFitPipeline:
    def test_simulate_then_mle(self, capsys, tmp_path):
        path = tmp_path / "fou.csv"
        rc, _, _ = run_cli(
            capsys, "simulate", "--model", "approximate", "--theta", "0.5",
            "--hurst", "0.7", "--delta", "0.05", "--count", "200",
            "--seed", "11", "--out", str(path),
        )
        assert rc == 0
        out_json = tmp_path / "fit.json"
        rc, out, _ = run_cli(
            capsys, "mle", "--data", str(path), "--hurst", "0.7",
            "--out", str(out_json),
        )
        assert rc == 0
        payload = json.loads(out)
        assert set(payload) == {
            "theta_hat", "sigma_hat", "sigma2_hat", "loglik",
            "hurst", "delta", "count",
        }
        assert payload["count"] == 200
        assert payload["delta"] == pytest.approx(0.05)
        assert 0.0 <= payload["theta_hat"] <= 10.0
        assert 0.6 < payload["sigma_hat"] < 1.4
        assert np.isfinite(payload["loglik"])
        assert json.loads(out_json.read_text()) == payload

    def test_estimate_sigma(self, capsys, tmp_path):
        path = tmp_path / "fbm.csv"
        run_cli(
            capsys, "simulate", "--model", "fbm", "--sigma", "2.0",
            "--hurst", "0.3", "--delta", "0.01", "--count", "400",
            "--seed", "5", "--out", str(path),
        )
        rc, out, _ = run_cli(
            capsys, "estimate-sigma", "--data", str(path), "--hurst", "0.3"
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["sigma2_hat"] == pytest.approx(4.0, rel=0.3)

    def test_estimate_hurst(self, capsys, tmp_path):
        path = tmp_path / "fine.csv"
        run_cli(
            capsys, "simulate", "--model", "fbm", "--hurst", "0.7",
            "--delta", "0.005", "--count", "2048", "--seed", "9",
            "--out", str(path),
        )
        rc, out, _ = run_cli(capsys, "estimate-hurst", "--data", str(path))
        assert rc == 0
        payload = json.loads(out)
        assert payload["hurst_hat"] == pytest.approx(0.7, abs=0.06)
        assert payload["fine_count"] == 2048

    def test_tfe_recovers_drift(self, capsys, tmp_path):
        path = tmp_path / "slow.csv"
        rc, _, _ = run_cli(
            capsys, "simulate", "--model", "tfe", "--component", "slow",
            "--theta", "1.0", "--eta", "1e-6", "--epsilon", "1e-4",
            "--hurst", "0.7", "--delta", "0.05", "--count", "20",
            "--refine", "4", "--seed", "2", "--out", str(path),
        )
        assert rc == 0
        rc, out, _ = run_cli(
            capsys, "tfe", "--data", str(path), "--theta0", "1.0",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["theta_ref"] == 1.0
        assert payload["abs_error"] == abs(payload["theta_hat"] - 1.0)
        assert payload["abs_error"] < 0.1


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
def test_series_file_is_stdout_with_crlf_rows(capsys, tmp_path, command):
    # the file holds csv's CRLF-terminated rows, stdout the same text in LF lines
    data = tmp_path / "obs.csv"
    write_traj_csv(data, 0.25 * np.arange(6), np.arange(6.0) ** 2 / 7)
    args = {
        "simulate": ("simulate", "--model", "fbm", "--delta", "0.1", "--count", "5"),
        "calibrate": ("calibrate", "--data", str(data), "--theta", "0.5", "--sigma", "2.0"),
    }[command]
    rc, out, _ = run_cli(capsys, *args)
    path = tmp_path / "series.csv"
    rc2, out2, _ = run_cli(capsys, *args, "--out", str(path))
    assert rc == rc2 == 0 and out2 == ""
    assert path.read_bytes() == out.replace("\n", "\r\n").encode()


class TestCalibrateCommand:
    def test_matches_library_exactly(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        values = np.concatenate([[0.0], np.cumsum(rng.standard_normal(12))])
        times = 0.25 * np.arange(13)
        path = tmp_path / "obs.csv"
        write_traj_csv(path, times, values)
        rc, out, _ = run_cli(
            capsys, "calibrate", "--data", str(path),
            "--theta", "0.5", "--sigma", "2.0",
        )
        assert rc == 0
        out_times, out_values = parse_traj_stdout(out)
        expected = inverse_calibration(
            Trajectory(SamplingGrid(delta=0.25, count=12), values), 0.5, 2.0
        )
        np.testing.assert_allclose(out_values, expected.values, rtol=1e-12)
        np.testing.assert_allclose(out_times, 0.25 * np.arange(1, 13), rtol=1e-12)


class TestVerifyConjecture:
    def test_small_scan(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify-conjecture", "--hursts", "0.3,0.7",
            "--sizes", "8,16", "--k-max", "4",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["counterexamples"] == []
        assert len(payload["cells"]) == 4
        for cell in payload["cells"]:
            assert cell["trace_zero"] == pytest.approx(cell["size"], rel=1e-8)

    def test_output_is_strict_json(self, capsys):
        def reject(name):
            raise AssertionError(f"non-JSON constant {name} on stdout")

        rc, out, _ = run_cli(
            capsys, "verify-conjecture", "--hursts", "0.5", "--sizes", "8,16",
            "--k-max", "2",
        )
        assert rc == 0
        assert json.loads(out, parse_constant=reject)["ok"] is True

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--sizes", "8,16", "--growth-factor", "nan"), "growth_factor"),
            (("--sizes", "8,150000"), "N=150000, k_max=2"),
            (("--sizes", "512", "--k-max", "512"), "PAIR_CAP"),
        ],
    )
    def test_invalid_scan_exits_2(self, capsys, extra, message):
        rc, out, err = run_cli(capsys, "verify-conjecture", "--k-max", "2", *extra)
        assert rc == 2
        assert out == ""
        assert message in err


class TestSignatureCheck:
    def test_summary_reports_residuals(self, capsys):
        rc, out, _ = run_cli(
            capsys, "signature-check", "--replicates", "3", "--seed", "1"
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["replicates"] == 3
        assert payload["max_chen_residual"] < 1e-12
        assert payload["max_shuffle_residual"] < 1e-12
        assert payload["all_below_1e_12"] is True


class TestExperimentCommand:
    CONFIG = (
        "experiment = expansion-residual\n"
        "seed = 3\n"
        "replicates = 2\n"
        "model.hurst = 0.6\n"
        "sweep.deltas = 0.1, 0.05\n"
        "grid.horizon = 1.0\n"
    )

    def test_runs_config_and_writes_outputs(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG + f"out = {tmp_path / 'res.csv'}\n")
        rc, out, err = run_cli(capsys, "experiment", str(cfg))
        assert rc == 0
        assert "wrote" in err
        summary = json.loads(out)
        assert summary["experiment"] == "expansion-residual"
        assert summary["replicates"] == 2
        assert (tmp_path / "res.csv").exists()
        sidecar = json.loads((tmp_path / "res.summary.json").read_text())
        assert sidecar == summary

    def test_cli_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG)
        rc, out, _ = run_cli(
            capsys, "--replicates", "1", "experiment", str(cfg),
            "--out", str(tmp_path / "o.csv"),
        )
        assert rc == 0
        summary = json.loads(out)
        assert summary["replicates"] == 1
        assert (tmp_path / "o.summary.json").exists()

    def test_summary_on_stdout_is_strict_json(self, capsys, tmp_path):
        # one clt replicate leaves the normality p-value and the variance
        # undefined; stdout must carry them as null, never as bare NaN
        cfg = tmp_path / "clt.cfg"
        cfg.write_text(
            "experiment = clt\nreplicates = 1\n"
            "model.epsilon = 1e-3\ngrid.horizon = 0.5\n"
        )

        def reject(name):
            raise AssertionError(f"non-JSON constant {name} on stdout")

        with pytest.warns(RuntimeWarning):
            rc, out, _ = run_cli(capsys, "experiment", str(cfg))
        assert rc == 0
        summary = json.loads(out, parse_constant=reject)
        assert summary["normality_p_value"] is None
        assert summary["variance"] is None

    @pytest.mark.parametrize(
        "horizon, message", [("1e308", "no finite cell count"), ("1e6", "cells exceeds")]
    )
    def test_oversized_grid_exits_2(self, capsys, tmp_path, horizon, message):
        # clt's step is eps^alpha = 0.005: the grid is refused when built
        cfg = tmp_path / "clt.cfg"
        cfg.write_text(f"experiment = clt\nreplicates = 1\ngrid.horizon = {horizon}\n")
        rc, out, err = run_cli(capsys, "experiment", str(cfg))
        assert rc == 2 and out == ""
        assert "config error" in err and message in err

    def test_overflowing_exponent_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text("experiment = consistency-rate\nsweep.eps_log2 = 1100\n")
        rc, out, err = run_cli(capsys, "experiment", str(cfg))
        assert rc == 2 and out == ""
        assert "config error" in err and "'sweep.eps_log2'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "experiment, key, value",
        [
            ("score-consistency", "model.sigma", "1e-300"),
            ("expansion-residual", "model.theta", "1e300"),
        ],
    )
    def test_underflowing_likelihood_scale_exits_2(self, capsys, tmp_path, experiment, key, value):
        # sigma^2 phi^2 underflows to 0: refused, not divided by
        cfg = tmp_path / "fou.cfg"
        cfg.write_text(f"experiment = {experiment}\nreplicates = 1\n{key} = {value}\n")
        rc, out, err = run_cli(capsys, "experiment", str(cfg))
        assert rc == 2 and out == ""
        assert "config error" in err and "underflows to 0" in err

    def test_oversized_signature_exits_2(self, capsys, tmp_path):
        # 1000**3 entries a level: refused before anything is allocated
        cfg = tmp_path / "sig.cfg"
        cfg.write_text("experiment = signature-check\nreplicates = 1\nsig.dimension = 1000\n")
        rc, out, err = run_cli(capsys, "experiment", str(cfg))
        assert rc == 2 and out == ""
        assert "config error" in err and "TENSOR_CAP" in err

    @pytest.mark.parametrize(
        "experiment, key, value, message",
        [
            ("signature-check", "sig.segments", "1", "'sig.segments' must be >= 2"),
            ("calibration-convergence", "cal.levels", "19", "PVAR_CAP"),
        ],
    )
    def test_refused_sizes_exit_2(self, capsys, tmp_path, experiment, key, value, message):
        # one segment has no split point (numpy's "low >= high" in its draw
        # before), and 19 dyadic levels would take days a replicate
        cfg = tmp_path / "size.cfg"
        cfg.write_text(f"experiment = {experiment}\n{key} = {value}\n")
        rc, out, err = run_cli(capsys, "experiment", str(cfg))
        assert rc == 2 and out == ""
        assert "config error" in err and message in err

    def test_unknown_experiment_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = nonsense\n")
        rc, _, err = run_cli(capsys, "experiment", str(cfg))
        assert rc == 2
        assert "config error" in err and "choose from" in err


class TestExitCodes:
    def test_missing_data_file(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "mle", "--data", str(tmp_path / "none.csv"),
            "--hurst", "0.7",
        )
        assert rc == 2
        assert "config error" in err and "cannot read" in err

    def test_wrong_trajectory_header(self, capsys, tmp_path):
        path = tmp_path / "wrong.csv"
        path.write_text("a,b\n0,0\n1,1\n")
        rc, _, err = run_cli(
            capsys, "estimate-sigma", "--data", str(path), "--hurst", "0.7"
        )
        assert rc == 2
        assert "expected header" in err

    def test_non_uniform_grid_rejected(self, capsys, tmp_path):
        path = tmp_path / "warped.csv"
        write_traj_csv(path, [0.0, 0.1, 0.35, 0.4], [0.0, 1.0, 2.0, 3.0])
        rc, _, err = run_cli(
            capsys, "estimate-sigma", "--data", str(path), "--hurst", "0.7"
        )
        assert rc == 2
        assert "uniform" in err

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, capsys, tmp_path, column, cell):
        rows = [["0.0", "0.0"], ["0.5", "1.0"], ["1.0", "2.0"], ["1.5", "3.0"]]
        rows[2][column] = cell
        path = tmp_path / "holes.csv"
        path.write_text("time,value\n" + "".join(f"{t},{v}\n" for t, v in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, err = run_cli(capsys, "mle", "--data", str(path), "--hurst", "0.7")
        assert rc == 2
        assert "config error" in err and "holes.csv" in err
        assert "non-finite cell on line 4" in err

    def test_numeric_failure_exits_3(self, capsys, tmp_path):
        # identically-zero data anchors the fit at zero, so the fitting loss
        # cannot distinguish drift values
        path = tmp_path / "flat.csv"
        write_traj_csv(path, [0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
        rc, _, err = run_cli(capsys, "tfe", "--data", str(path))
        assert rc == 3
        assert "numeric failure" in err and "flat fitting loss" in err


def _fresh_env():
    return dict(os.environ, PYTHONPATH=str(Path(fraclab.__file__).parents[1]))


def test_import_loads_no_heavy_scipy_subpackage():
    # every command pays for `import fraclab`: scipy.fft and scipy.special
    # only
    heavy = ["scipy.signal", "scipy.stats", "scipy.integrate", "scipy.interpolate",
             "scipy.optimize"]
    script = f"import sys, fraclab; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", script], env=_fresh_env(), capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_clt_run_loads_no_scipy_stats(tmp_path):
    # clt's normality test is closed form, so a whole run, summary and
    # outputs included, never imports scipy.stats or what it pulls in
    heavy = ["scipy.stats", "scipy.signal", "scipy.interpolate"]
    script = (
        "import sys\n"
        "from fraclab.experiments import ExperimentConfig, run_config, write_outputs\n"
        "result = run_config(ExperimentConfig(experiment='clt', replicates=8, params="
        "{'model.epsilon': '1e-3', 'grid.horizon': '0.5'}))\n"
        "write_outputs(result, sys.argv[1])\n"
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "clt.csv")],
        env=_fresh_env(), capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
    assert json.loads((tmp_path / "clt.summary.json").read_text())["replicates"] == 8


def test_consistency_rate_run_loads_no_scipy_integrate(tmp_path):
    # consistency-rate reads the fOU covariance r on lags in (2, 40), which
    # is closed form, so a whole run never imports scipy.integrate or the
    # subpackages it pulls in
    heavy = ["scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse",
             "scipy.spatial"]
    script = (
        "import sys\n"
        "from fraclab.experiments import ExperimentConfig, run_config, write_outputs\n"
        "result = run_config(ExperimentConfig(experiment='consistency-rate', replicates=2))\n"
        "write_outputs(result, sys.argv[1])\n"
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "rate.csv")],
        env=_fresh_env(), capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
    assert json.loads((tmp_path / "rate.summary.json").read_text())["replicates"] == 2
