"""Experiment-harness tests: config parsing and validation, CSV round trips,
the registry surface, deterministic and thread-invariant replication, and
failure propagation with replicate context."""

import json

import numpy as np
import pytest

from fraclab import NumericFailure, conjecture_scan
from fraclab.experiments import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    _sum_calibration,
    experiment_defaults,
    experiment_names,
    format_float,
    load_config,
    parse_config_text,
    read_csv,
    run_config,
    write_csv,
    write_outputs,
)

CHEAP_EXPANSION = {
    "model.hurst": "0.6",
    "sweep.deltas": "0.1, 0.05",
    "grid.horizon": "1.0",
}

# parameter overrides that make each experiment run in well under a second
TINY_PARAMS = {
    "bias-sweep": {"grid.horizon": "0.5"},
    "calibration-convergence": {"cal.levels": "3", "grid.horizon": "2.0"},
    "clt": {"model.epsilon": "1e-3", "grid.horizon": "0.5", "sim.max_substeps": "16"},
    "conjecture-scan": {"scan.sizes": "8, 16", "scan.k_max": "4"},
    "consistency-rate": {"sweep.eps_log2": "-4, -5", "grid.horizon": "1.0"},
    "expansion-residual": CHEAP_EXPANSION,
    "hurst-sweep": {"grid.count": "64"},
    "score-consistency": {"grid.horizon": "1.0", "sweep.deltas": "0.1, 0.05"},
    "signature-check": {},
    "tfe-sweep": {
        "grid.delta": "0.1",
        "grid.horizon": "0.5",
        "model.epsilon_small": "1e-3",
        "sweep.schedule_eps": "0.01",
        "sweep.schedule_eta": "0.01",
        "sweep.eta_levels": "0.01",
        "sweep.avg_eps_log2": "-4",
        "sim.refine": "2",
    },
}


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config_text("experiment = clt\n")
        assert cfg.experiment == "clt"
        assert cfg.seed == 0
        assert cfg.replicates is None
        assert cfg.threads == 1
        assert cfg.out is None
        assert cfg.params == {}

    def test_full_syntax(self):
        text = """
        # leading comment

        experiment = expansion-residual
        seed = 7   # trailing comment
        replicates = 3
        threads = 2
        out = results.csv
        model.theta = 0.5
        sweep.deltas = 0.1, 0.05
        """
        cfg = parse_config_text(text)
        assert cfg.experiment == "expansion-residual"
        assert cfg.seed == 7
        assert cfg.replicates == 3
        assert cfg.threads == 2
        assert cfg.out == "results.csv"
        assert cfg.params == {"model.theta": "0.5", "sweep.deltas": "0.1, 0.05"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'seed'"):
            parse_config_text("experiment = clt\nseed = 1\nseed = 2\n")

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config_text("seed = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("experiment = clt\njust some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("experiment = clt\n= 3\n")

    def test_bad_harness_values_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("experiment = clt\nseed = abc\n")
        with pytest.raises(ConfigError, match="replicates"):
            parse_config_text("experiment = clt\nreplicates = 0\n")
        with pytest.raises(ConfigError, match="threads"):
            parse_config_text("experiment = clt\nthreads = 0\n")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = clt\nseed = 5\n", encoding="utf-8")
        cfg = load_config(path)
        assert (cfg.experiment, cfg.seed) == ("clt", 5)


class TestRegistry:
    def test_all_experiments_listed(self):
        assert experiment_names() == [
            "bias-sweep",
            "calibration-convergence",
            "clt",
            "conjecture-scan",
            "consistency-rate",
            "expansion-residual",
            "hurst-sweep",
            "score-consistency",
            "signature-check",
            "tfe-sweep",
        ]

    def test_defaults_are_copies(self):
        d = experiment_defaults("clt")
        d["model.sigma"] = -99
        assert experiment_defaults("clt") != d

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            experiment_defaults("nope")


class TestCsvRoundTrip:
    def test_rows_round_trip_exactly(self, tmp_path):
        rows = [
            ResultRow(
                experiment="clt",
                replicate=0,
                statistic="z_score",
                value=1.0 / 3.0,
                epsilon=2.5e-5,
                delta=0.1,
                hurst=0.7,
            ),
            ResultRow(
                experiment="clt",
                replicate=1,
                statistic="z_score",
                value=-1e-300,
                alpha=0.5,
                theta=0.0,
                sigma=1.0,
                eta=1e-4,
            ),
        ]
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        assert read_csv(path) == rows

    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text().strip().startswith("experiment,replicate,")
        assert read_csv(path) == []

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unexpected CSV header"):
            read_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        write_csv([], path)
        with path.open("a") as fh:
            fh.write("clt,0,only,three\n")
        with pytest.raises(ConfigError, match="malformed row"):
            read_csv(path)

    def test_format_float_round_trips(self):
        for x in (0.1, 1.0 / 3.0, 1e308, 5e-324, -0.0, 123456789.123456789):
            assert float(format_float(x)) == x


class TestRunConfig:
    def test_unknown_experiment_lists_choices(self):
        with pytest.raises(ConfigError, match="choose from: bias-sweep"):
            run_config(ExperimentConfig(experiment="bogus"))

    def test_unknown_param_key_rejected(self):
        cfg = ExperimentConfig(
            experiment="expansion-residual", params={"model.rho": "1.0"}
        )
        with pytest.raises(ConfigError, match="unknown key 'model.rho'"):
            run_config(cfg)

    def test_bad_param_type_rejected(self):
        cfg = ExperimentConfig(
            experiment="conjecture-scan", params={"scan.k_max": "2.5"}
        )
        with pytest.raises(ConfigError, match="cannot parse"):
            run_config(cfg)

    def test_invalid_param_value_names_key(self):
        cfg = ExperimentConfig(
            experiment="expansion-residual", params={"model.sigma": "-1"}
        )
        with pytest.raises(ConfigError, match="'model.sigma' must be positive"):
            run_config(cfg)

    def test_resolved_params_and_override(self):
        cfg = ExperimentConfig(
            experiment="expansion-residual",
            replicates=2,
            params=dict(CHEAP_EXPANSION),
        )
        result = run_config(cfg)
        assert result.params["model.hurst"] == 0.6
        assert result.params["sweep.deltas"] == (0.1, 0.05)
        assert result.params["model.theta"] == 1.0  # untouched default
        assert result.summary["replicates"] == 2
        assert {row.replicate for row in result.rows} == {0, 1}

    @pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
    def test_single_value_becomes_tuple(self):
        cfg = ExperimentConfig(
            experiment="expansion-residual",
            replicates=1,
            params={**CHEAP_EXPANSION, "sweep.deltas": "0.1"},
        )
        result = run_config(cfg)
        assert result.params["sweep.deltas"] == (0.1,)

    def test_deterministic_and_seed_sensitive(self):
        cfg = ExperimentConfig(
            experiment="expansion-residual", seed=3, replicates=3,
            params=dict(CHEAP_EXPANSION),
        )
        a, b = run_config(cfg), run_config(cfg)
        assert a.rows == b.rows
        assert a.summary == b.summary
        other = run_config(
            ExperimentConfig(
                experiment="expansion-residual", seed=4, replicates=3,
                params=dict(CHEAP_EXPANSION),
            )
        )
        assert [r.value for r in other.rows] != [r.value for r in a.rows]

    def test_threads_do_not_change_results(self):
        serial = run_config(
            ExperimentConfig(
                experiment="expansion-residual", seed=5, replicates=6,
                params=dict(CHEAP_EXPANSION),
            )
        )
        threaded = run_config(
            ExperimentConfig(
                experiment="expansion-residual", seed=5, replicates=6, threads=3,
                params=dict(CHEAP_EXPANSION),
            )
        )
        assert serial.rows == threaded.rows
        assert serial.summary == threaded.summary

    @pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
    @pytest.mark.filterwarnings("ignore:One or more sample arguments is too small")
    @pytest.mark.parametrize("name", experiment_names())
    def test_serial_and_parallel_outputs_are_byte_identical(self, name, tmp_path):
        # compare the written bytes, not the dicts: a NaN in the summary
        # (clt's normality p-value below 8 replicates) never equals itself
        written = []
        for threads in (1, 2):
            result = run_config(
                ExperimentConfig(
                    experiment=name, seed=5, replicates=3, threads=threads,
                    params=dict(TINY_PARAMS[name]),
                )
            )
            csv_path, json_path = write_outputs(result, tmp_path / f"{threads}.csv")
            written.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert written[0] == written[1]

    def test_failure_carries_replicate_context(self):
        # a zero initial state makes the fitting loss exactly flat
        cfg = ExperimentConfig(
            experiment="tfe-sweep",
            replicates=1,
            params={
                "model.x0": "0",
                "grid.delta": "0.1",
                "grid.horizon": "0.5",
                "model.epsilon_small": "1e-3",
                "sweep.schedule_eps": "0.01",
                "sweep.schedule_eta": "0.01",
                "sweep.eta_levels": "0.01",
                "sweep.avg_eps_log2": "-4",
                "sim.refine": "2",
            },
        )
        with pytest.raises(NumericFailure, match="replicate 0.*flat fitting loss"):
            run_config(cfg)


def _calibration_rows(distances_by_seed, deltas=(0.5, 0.25, 0.125)):
    rows = []
    for rep, distances in enumerate(distances_by_seed):
        for delta, dist in zip(deltas, distances):
            common = dict(
                experiment="calibration-convergence", replicate=rep, delta=delta
            )
            rows.append(ResultRow(statistic="pvar_distance", value=dist, **common))
            rows.append(ResultRow(statistic="gradient_gap", value=delta**2, **common))
    return rows


class TestCalibrationSummary:
    PARAMS = experiment_defaults("calibration-convergence")

    def test_mean_can_stall_when_every_seed_is_non_increasing(self):
        summary = _sum_calibration(
            self.PARAMS, _calibration_rows([[1.0, 0.5, 0.5], [1.0, 0.6, 0.6]])
        )
        assert summary["mean_distances"] == pytest.approx([1.0, 0.55, 0.55])
        assert summary["all_non_increasing"]
        assert not summary["mean_decreasing"]

    def test_mean_decreases_through_a_single_seed_rise(self):
        summary = _sum_calibration(
            self.PARAMS, _calibration_rows([[1.0, 0.2, 0.3], [1.0, 0.8, 0.1]])
        )
        assert summary["mean_distances"] == pytest.approx([1.0, 0.5, 0.2])
        assert [s["non_increasing"] for s in summary["per_seed"]] == [False, True]
        assert not summary["all_non_increasing"]
        assert summary["mean_decreasing"]


class TestWriteOutputs:
    def test_csv_and_summary_sidecar(self, tmp_path):
        result = run_config(
            ExperimentConfig(
                experiment="expansion-residual", replicates=2,
                params=dict(CHEAP_EXPANSION),
            )
        )
        csv_path, json_path = write_outputs(result, tmp_path / "res.csv")
        assert csv_path == tmp_path / "res.csv"
        assert json_path == tmp_path / "res.summary.json"
        assert read_csv(csv_path) == result.rows
        summary = json.loads(json_path.read_text())
        assert summary["experiment"] == "expansion-residual"
        assert summary == json.loads(json.dumps(result.summary))

    @pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
    @pytest.mark.filterwarnings("ignore:One or more sample arguments is too small")
    @pytest.mark.filterwarnings("ignore:Degrees of freedom <= 0")
    @pytest.mark.filterwarnings("ignore:invalid value encountered in scalar divide")
    @pytest.mark.parametrize("replicates", [1, 3])
    @pytest.mark.parametrize("name", experiment_names())
    def test_summary_is_strict_json(self, name, replicates, tmp_path):
        # statistics undefined at few replicates (a standard error of one
        # value, a normality test of three) are written as null, never NaN
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        result = run_config(
            ExperimentConfig(
                experiment=name, seed=5, replicates=replicates,
                params=dict(TINY_PARAMS[name]),
            )
        )
        _, json_path = write_outputs(result, tmp_path / "res.csv")
        json.loads(json_path.read_text(), parse_constant=reject)


class TestConjectureScanSummary:
    def test_summary_from_rows_equals_a_fresh_scan(self):
        params = {"scan.sizes": "8, 16, 32", "scan.k_max": "4", "scan.hursts": "0.3, 0.5"}
        result = run_config(
            ExperimentConfig(experiment="conjecture-scan", replicates=2, params=params)
        )
        report = conjecture_scan((0.3, 0.5), (8, 16, 32), 4, growth_factor=1.5)
        fresh = {
            "growth_factor": report.growth_factor,
            "cells": [
                {
                    "hurst": c.hurst,
                    "size": c.size,
                    "trace_zero": c.trace_zero,
                    "max_abs_trace": c.max_abs_trace,
                    "max_abs_pair_trace": c.max_abs_pair_trace,
                }
                for c in report.cells
            ],
            "counterexamples": report.counterexamples,
            "ok": report.ok,
        }
        summary = {
            key: value
            for key, value in result.summary.items()
            if key not in ("experiment", "seed", "replicates")
        }
        assert json.dumps(summary, sort_keys=True) == json.dumps(fresh, sort_keys=True)
