"""Experiment-harness tests: config parsing and validation, CSV round trips,
the registry surface, deterministic and thread-invariant replication, and
failure propagation with replicate context."""

import dataclasses
import json
import math
import re
import struct
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import normaltest

from fraclab import NumericFailure, conjecture_scan, experiments, fgn, signatures, simulate
from fraclab.experiments import (
    _PARAM_COLUMNS,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    _normality_p_value,
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
from fraclab.grids import STREAM_AUX, SeedSpec
from oracles import rep_hurst_sweep, rep_signature_check, rep_tfe_sweep

CHEAP_EXPANSION = {
    "model.hurst": "0.6",
    "sweep.deltas": "0.1, 0.05",
    "grid.horizon": "1.0",
}

# parameter overrides that make each experiment run in well under a second
TINY_PARAMS = {
    "bias-sweep": {"grid.horizon": "0.5"},
    "calibration-convergence": {"cal.levels": "3", "grid.horizon": "2.0"},
    "clt": {"model.epsilon": "1e-3", "grid.horizon": "0.5"},
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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_STATISTICS = st.one_of(
    st.sampled_from(["sigma2_hat", "trace[N=8;k=0]", "pair[N=8;k=1;l=2]"]),
    st.text(alphabet='ab ,;"\'[]=\r\n', max_size=12),
)


@st.composite
def _result_rows(draw):
    return ResultRow(
        experiment=draw(st.sampled_from(experiment_names())),
        replicate=draw(st.integers(0, 10**6)),
        statistic=draw(_STATISTICS),
        value=draw(_FINITE),
        **{name: draw(st.none() | _FINITE) for name in _PARAM_COLUMNS},
    )


def _bits(x):
    return None if x is None else struct.pack("<d", x)


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

    @given(rows=st.lists(_result_rows(), max_size=6))
    @example(rows=[ResultRow("clt", 0, 'a,"b"', -0.0, epsilon=5e-324, delta=-2.2e-308)])
    def test_round_trip_keeps_every_bit(self, rows):
        # every float comes back with its bit pattern (so -0.0 and
        # subnormals count), None stays None, and statistics survive
        # commas, quotes and line breaks
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            write_csv(rows, path)
            back = read_csv(path)
        assert len(back) == len(rows)
        for got, want in zip(back, rows):
            assert (got.experiment, got.replicate, got.statistic) == (
                want.experiment, want.replicate, want.statistic
            )
            for name in ("value",) + _PARAM_COLUMNS:
                assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name


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

    def test_nan_positive_value_rejected(self):
        cfg = ExperimentConfig(
            experiment="conjecture-scan", params={"tol.growth_factor": "nan"}
        )
        with pytest.raises(ConfigError, match="'tol.growth_factor' must be positive"):
            run_config(cfg)

    @pytest.mark.parametrize(
        "experiment, key, value",
        [
            ("consistency-rate", "sweep.eps_log2", "-4, 1100"),
            ("consistency-rate", "sweep.eps_log2", "-1075"),
            ("tfe-sweep", "sweep.avg_eps_log2", "1024"),
            ("hurst-sweep", "tol.mean_abs_error", "0"),
            ("calibration-convergence", "tol.slope", "inf"),
            ("tfe-sweep", "tol.slope", "-0.15"),
            ("tfe-sweep", "tol.recovery", "-1e-7"),
            ("tfe-sweep", "tol.sd_spread", "nan"),
            ("signature-check", "sig.segments", "1"),
        ],
    )
    def test_out_of_range_key_rejected(self, experiment, key, value):
        # eps_log2 = 1100 used to overflow 2.0**v; a negative tol.recovery
        # used to flip recovery_ok silently; one segment has no split point
        # and failed in the draw of one
        rule = (
            "lie in [-1074, 1023]" if "eps_log2" in key
            else "be >= 2" if key == "sig.segments"
            else "be positive and finite"
        )
        cfg = parse_config_text(f"experiment = {experiment}\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=re.escape(f"'{key}' must {rule}")):
            run_config(cfg)

    @pytest.mark.parametrize(
        "experiment, key",
        [
            (name, key)
            for name in experiment_names()
            for key, value in experiment_defaults(name).items()
            if isinstance(value, tuple)
        ],
    )
    def test_empty_list_rejected(self, experiment, key):
        # 'key =' parses as an empty tuple, which used to run over no cells
        # (or fail in a reduction with no key named)
        cfg = parse_config_text(f"experiment = {experiment}\n{key} =\n")
        with pytest.raises(ConfigError, match=re.escape(f"key '{key}' must list at least one value")):
            run_config(cfg)

    def test_exponent_range_is_inclusive(self):
        # 2.0**-1074 is the least positive double and 2.0**1023 the largest power
        for key in ("sweep.eps_log2", "sweep.avg_eps_log2"):
            experiments._check_value(key, (-1074, 1023))
        assert 2.0**-1074 > 0 and math.isfinite(2.0**1023)

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

    def test_workers_capped_at_chunk_count(self, monkeypatch):
        # the pool forks all its workers up front: never more than the chunks
        # and with the fork start method, whatever the platform's default
        sizes, methods = [], []

        class SpyPool(experiments.ProcessPoolExecutor):
            def __init__(self, max_workers=None, mp_context=None, **kwargs):
                sizes.append(max_workers)
                methods.append(mp_context.get_start_method())
                super().__init__(max_workers=max_workers, mp_context=mp_context, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SpyPool)
        cfg = ExperimentConfig(
            experiment="expansion-residual", seed=5, replicates=2, threads=4,
            params=dict(CHEAP_EXPANSION),
        )
        result = run_config(cfg)
        assert sizes == [2]
        assert methods == ["fork"]
        assert [r.replicate for r in result.rows] == sorted(r.replicate for r in result.rows)

    def test_parallel_failure_is_the_lowest_failing_replicate(self, monkeypatch):
        # replicate 1 fails late and replicate 4 at once; like the serial loop,
        # the pooled run must report replicate 1 (patched before the fork)
        spec = experiments._REGISTRY["signature-check"]

        def failing(params, seed):
            if seed.replicate == 1:
                time.sleep(0.3)
            if seed.replicate in (1, 4):
                raise NumericFailure(f"planted failure {seed.replicate}")
            return rep_signature_check(params, seed)

        monkeypatch.setitem(
            experiments._REGISTRY,
            spec.name,
            dataclasses.replace(spec, run=experiments._each_replicate(failing)),
        )
        messages = []
        for threads in (1, 2):
            cfg = ExperimentConfig(
                experiment=spec.name, seed=5, replicates=6, threads=threads,
                params=dict(TINY_PARAMS[spec.name]),
            )
            with pytest.raises(NumericFailure) as info:
                run_config(cfg)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "replicate 1: planted failure 1" in messages[0]

    def test_sigma2_kernel_failure_names_the_first_replicate(self, monkeypatch):
        # the kernel draws each cell for a block of replicates at once; a
        # failed embedding stops it where a replicate-at-a-time loop stops,
        # at replicate 0, serially and pooled
        def failing(hurst, law, m):
            raise NumericFailure(f"planted embedding failure at m={m}")

        monkeypatch.setattr(simulate, "_circulant_roots", failing)
        messages = []
        for threads in (1, 2):
            cfg = ExperimentConfig(
                experiment="consistency-rate", seed=5, replicates=6, threads=threads,
                params=dict(TINY_PARAMS["consistency-rate"]),
            )
            with pytest.raises(NumericFailure) as info:
                run_config(cfg)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(
            "experiment 'consistency-rate' replicate 0: planted embedding failure"
        )

    def test_block_cap_leaves_outputs_unchanged(self, monkeypatch, tmp_path):
        # blocks of 1-2 replicates (2m = 80 doubles a row at N = 40, more
        # beyond) write the bytes that one block of the whole chunk writes
        sampler, blocks = experiments.sample_slow_paths, []

        def recording(params, grid, seeds, **kwargs):
            blocks.append(len(seeds))
            return sampler(params, grid, seeds, **kwargs)

        monkeypatch.setattr(experiments, "sample_slow_paths", recording)
        cfg = ExperimentConfig(experiment="consistency-rate", seed=11, replicates=5)
        written = []
        for cap in (experiments._BLOCK_DOUBLES, 160):
            monkeypatch.setattr(experiments, "_BLOCK_DOUBLES", cap)
            csv_path, json_path = write_outputs(run_config(cfg), tmp_path / f"{cap}.csv")
            written.append((csv_path.read_bytes(), json_path.read_bytes()))
        cells = len(experiment_defaults("consistency-rate")["sweep.eps_log2"])
        assert blocks[:cells] == [5] * cells
        assert set(blocks[cells:]) == {1, 2}
        assert written[0] == written[1]

    @pytest.mark.parametrize("name", ["score-consistency", "expansion-residual"])
    def test_fou_block_cap_leaves_outputs_unchanged(self, name, monkeypatch, tmp_path):
        # blocks of 1-2 replicates (2m = 480-600 doubles a row at delta =
        # 0.1, more beyond) write the bytes that one block of the chunk writes
        sampler, blocks = experiments.sample_approximate_paths, []

        def recording(params, grid, seeds, **kwargs):
            blocks.append(len(seeds))
            return sampler(params, grid, seeds, **kwargs)

        monkeypatch.setattr(experiments, "sample_approximate_paths", recording)
        cfg = ExperimentConfig(experiment=name, seed=11, replicates=5)
        written = []
        for cap in (experiments._BLOCK_DOUBLES, 1200):
            monkeypatch.setattr(experiments, "_BLOCK_DOUBLES", cap)
            csv_path, json_path = write_outputs(run_config(cfg), tmp_path / f"{cap}.csv")
            written.append((csv_path.read_bytes(), json_path.read_bytes()))
        params = experiment_defaults(name)
        cells = len(params.get("sweep.hursts", (None,))) * len(params["sweep.deltas"])
        assert blocks[:cells] == [5] * cells
        assert set(blocks[cells:]) == {1, 2}
        assert written[0] == written[1]

    @pytest.mark.parametrize("name", ["score-consistency", "expansion-residual"])
    def test_fou_kernel_failure_names_the_first_replicate(self, name, monkeypatch):
        # each cell is drawn and scored for a block of replicates at once; a
        # covariance that cannot be factored stops the first block, at
        # replicate 0, serially and pooled
        def failing(hurst, size):
            raise NumericFailure(f"planted generator failure at N={size}")

        monkeypatch.setattr(fgn, "_unit_generator", failing)
        messages = []
        for threads in (1, 2):
            cfg = ExperimentConfig(
                experiment=name, seed=5, replicates=6, threads=threads,
                params=dict(TINY_PARAMS[name]),
            )
            with pytest.raises(NumericFailure) as info:
                run_config(cfg)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(
            f"experiment '{name}' replicate 0: planted generator failure"
        )

    def test_fou_kernel_failure_names_the_block_not_the_replicate(self, monkeypatch):
        # serially, in blocks of 2: a failure drawing replicate 3's block
        # names replicate 2, the block's first
        sampler = experiments.sample_approximate_paths

        def failing(params, grid, seeds, **kwargs):
            if any(seed.replicate == 3 for seed in seeds):
                raise NumericFailure("planted draw failure")
            return sampler(params, grid, seeds, **kwargs)

        monkeypatch.setattr(experiments, "sample_approximate_paths", failing)
        monkeypatch.setattr(experiments, "_BLOCK_DOUBLES", 800)
        cfg = ExperimentConfig(
            experiment="score-consistency", seed=5, replicates=6,
            params=dict(TINY_PARAMS["score-consistency"]),
        )
        message = "^experiment 'score-consistency' replicate 2: planted"
        with pytest.raises(NumericFailure, match=message):
            run_config(cfg)

    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize(
        "name, replicate", [("hurst-sweep", rep_hurst_sweep), ("tfe-sweep", rep_tfe_sweep)]
    )
    def test_cells_equal_one_replicate_at_a_time(self, name, replicate, rows, monkeypatch):
        # blocks of 1, 3 and all 7 replicates give the rows, bit for bit, of
        # a loop over the replicates that draws each one's cells in turn
        params = experiments._resolve_params(name, experiment_defaults(name), TINY_PARAMS[name])
        replicates = range(7, 14)
        want = [row for r in replicates for row in replicate(params, SeedSpec(3, r))]
        monkeypatch.setattr(experiments, "_block_rows", lambda row_doubles: rows)
        got = experiments._REGISTRY[name].run(name, params, 3, replicates)
        assert [(r.replicate, r.statistic, r.value.hex()) for r in got] == [
            (r.replicate, r.statistic, float(r.value).hex()) for r in want
        ]
        assert got == want

    @pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
    @pytest.mark.parametrize(
        "name, row_doubles, cells", [("hurst-sweep", 256, 2), ("tfe-sweep", 10, 3)]
    )
    def test_cell_block_cap_leaves_outputs_unchanged(
        self, name, row_doubles, cells, monkeypatch, tmp_path
    ):
        # a row holds 256 doubles for hurst-sweep (2m at 128 fine cells) and
        # 10 for tfe-sweep (2 x 5 cells): caps of one and 2.5 rows give
        # blocks of 1 and 2, which write the bytes one block of the chunk writes
        runner, blocks = experiments._run_cells, []

        def recording(name, master, replicates, cells):
            def record(cell):
                def draw(seeds):
                    blocks.append(len(seeds))
                    return cell.draw(seeds)

                return dataclasses.replace(cell, draw=draw)

            return runner(name, master, replicates, [record(cell) for cell in cells])

        monkeypatch.setattr(experiments, "_run_cells", recording)
        cfg = ExperimentConfig(
            experiment=name, seed=11, replicates=5, params=dict(TINY_PARAMS[name])
        )
        written = []
        for cap in (experiments._BLOCK_DOUBLES, row_doubles, int(2.5 * row_doubles)):
            monkeypatch.setattr(experiments, "_BLOCK_DOUBLES", cap)
            csv_path, json_path = write_outputs(run_config(cfg), tmp_path / f"{cap}.csv")
            written.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert blocks == [5] * cells + [1] * 5 * cells + [2, 2, 1] * cells
        assert written[0] == written[1] == written[2]

    @pytest.mark.parametrize("name", ["hurst-sweep", "tfe-sweep"])
    def test_cell_failure_names_the_first_replicate(self, name, monkeypatch):
        # a failed embedding depends on the cell alone: it stops the first
        # block, at replicate 0, serially and pooled
        def failing(hurst, law, m):
            raise NumericFailure(f"planted embedding failure at m={m}")

        monkeypatch.setattr(simulate, "_circulant_roots", failing)
        messages = []
        for threads in (1, 2):
            cfg = ExperimentConfig(
                experiment=name, seed=5, replicates=6, threads=threads,
                params=dict(TINY_PARAMS[name]),
            )
            with pytest.raises(NumericFailure) as info:
                run_config(cfg)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"experiment '{name}' replicate 0: planted embedding failure")

    @pytest.mark.parametrize("dim, segments, level", [(3, 8, 3), (1, 2, 1), (2, 5, 2), (4, 3, 3)])
    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("entries", [1, None])
    def test_signature_kernel_equals_one_replicate_at_a_time(
        self, dim, segments, level, rows, entries, monkeypatch
    ):
        # blocks of 1, 3 and all 40 replicates, each scan in blocks of one
        # segment or of all; every split value occurs among the replicates
        params = {"sig.dimension": dim, "sig.segments": segments, "sig.level": level}
        replicates = range(7, 47)
        splits = set()
        for r in replicates:
            rng = SeedSpec(3, r).rng(STREAM_AUX)
            rng.standard_normal((segments, dim))
            splits.add(int(rng.integers(1, segments)))
        assert splits == set(range(1, segments))
        want = [row for r in replicates for row in rep_signature_check(params, SeedSpec(3, r))]
        monkeypatch.setattr(experiments, "_block_rows", lambda row_doubles: rows)
        if entries is not None:
            monkeypatch.setattr(signatures, "_SCAN_ENTRIES", entries)
        got = experiments._run_signature_check("signature-check", params, 3, replicates)
        assert [(r.replicate, r.statistic, r.value.hex()) for r in got] == [
            (r.replicate, r.statistic, r.value.hex()) for r in want
        ]
        assert got == want

    def test_signature_block_cap_leaves_outputs_unchanged(self, monkeypatch, tmp_path):
        # a row holds 166 doubles at the defaults (24 path entries and 142
        # word pairs), so caps of 166 and 400 give blocks of 1 and 2
        kernel, blocks = experiments._signature_residual_rows, []

        def recording(params, seeds):
            blocks.append(len(seeds))
            return kernel(params, seeds)

        monkeypatch.setattr(experiments, "_signature_residual_rows", recording)
        cfg = ExperimentConfig(experiment="signature-check", seed=11, replicates=5)
        written = []
        for cap in (experiments._BLOCK_DOUBLES, 166, 400):
            monkeypatch.setattr(experiments, "_BLOCK_DOUBLES", cap)
            csv_path, json_path = write_outputs(run_config(cfg), tmp_path / f"{cap}.csv")
            written.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert blocks == [5] + [1] * 5 + [2, 2, 1]
        assert written[0] == written[1] == written[2]

    def test_signature_kernel_failure_names_the_block(self, monkeypatch):
        # a failure in replicate 3's block names the block's first replicate:
        # 2 serially in blocks of 2, and 3 pooled, where 6 replicates on 2
        # workers make chunks of one
        kernel = experiments._signature_residual_rows

        def failing(params, seeds):
            if any(seed.replicate == 3 for seed in seeds):
                raise NumericFailure("planted residual failure")
            return kernel(params, seeds)

        monkeypatch.setattr(experiments, "_signature_residual_rows", failing)
        monkeypatch.setattr(experiments, "_BLOCK_DOUBLES", 400)
        for threads, first in ((1, 2), (2, 3)):
            cfg = ExperimentConfig(
                experiment="signature-check", seed=5, replicates=6, threads=threads
            )
            message = f"^experiment 'signature-check' replicate {first}: planted"
            with pytest.raises(NumericFailure, match=message):
                run_config(cfg)

    def test_signature_chunk_memory_is_bounded(self):
        # in R^20 at level 3 the shuffle table has 33 241 word pairs, 266 KB
        # of residuals a replicate: 100 replicates at once would hold several
        # 27 MB arrays
        signatures._shuffle_table(20, 3)  # cached: not the chunk's memory
        cfg = ExperimentConfig(
            experiment="signature-check", replicates=100, params={"sig.dimension": "20"}
        )
        tracemalloc.start()
        try:
            result = run_config(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.summary["all_below_1e_12"]
        assert peak <= 12 * 2**20

    def test_default_clt_memory_is_bounded(self):
        # one chunk of 2000 replicates at N = 2000, drawn and whitened in
        # blocks of at most _BLOCK_DOUBLES doubles per array
        tracemalloc.start()
        try:
            run_config(ExperimentConfig(experiment="clt"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

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


_NORMALITY_LAWS = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "student-t3": lambda rng, n: rng.standard_t(3.0, n),
    "cauchy": lambda rng, n: rng.standard_cauchy(n),
    "exponential": lambda rng, n: rng.exponential(1.0, n),
    "lognormal": lambda rng, n: rng.lognormal(0.0, 1.0, n),
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
}


class TestNormalityPValue:
    @settings(max_examples=200)
    @given(
        size=st.integers(8, 2000),
        law=st.sampled_from(sorted(_NORMALITY_LAWS)),
        seed=st.integers(0, 2**32 - 1),
        scale_log10=st.floats(-6.0, 6.0),
        shift=st.floats(-1e3, 1e3),
    )
    def test_matches_scipy_normaltest(self, size, law, seed, scale_log10, shift):
        z = shift + 10.0**scale_log10 * _NORMALITY_LAWS[law](np.random.default_rng(seed), size)
        # below the smallest normal double exp(-K^2/2) keeps few bits
        assert _normality_p_value(z) == pytest.approx(
            float(normaltest(z).pvalue), rel=1e-10, abs=np.finfo(float).tiny
        )

    @pytest.mark.parametrize(
        "z",
        [np.arange(7.0), np.full(20, 0.1), np.zeros(20),
         np.r_[np.arange(20.0), np.nan], np.r_[np.arange(20.0), -np.inf]],
        ids=["seven-values", "constant", "zeros", "nan", "inf"],
    )
    def test_undefined_samples_give_nan(self, z):
        assert math.isnan(_normality_p_value(z))


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
        fresh = conjecture_scan((0.3, 0.5), (8, 16, 32), 4, growth_factor=1.5).summary()
        summary = {
            key: value
            for key, value in result.summary.items()
            if key not in ("experiment", "seed", "replicates")
        }
        assert json.dumps(summary, sort_keys=True) == json.dumps(fresh, sort_keys=True)
