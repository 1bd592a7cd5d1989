"""Tests of the benchmark itself, at tiny sizes: the serial/pooled identity
the mc-parallel workload relies on, the output checker, the tracer and the
statistics it reports.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fraclab import experiments, simulate  # noqa: E402

# small parameter overrides for every mc-parallel experiment
TINY = {
    "bias-sweep": {"grid.horizon": "0.5"},
    "score-consistency": {"grid.horizon": "1.0", "sweep.deltas": "0.1, 0.05"},
    "expansion-residual": {"grid.horizon": "1.0", "sweep.deltas": "0.1, 0.05"},
    "calibration-convergence": {"cal.levels": "3", "grid.horizon": "2.0"},
    "signature-check": {},
    "conjecture-scan": {"scan.sizes": "8, 16", "scan.k_max": "4"},
}


def tiny_task(kind: str, replicates: int = 3) -> workloads.Task:
    return workloads.Task("test", 0, 0, kind, seed=7, replicates=replicates, inputs=TINY[kind])


@pytest.mark.parametrize("kind", [exp for exp, _ in workloads.make("mc-parallel").mix])
def test_serial_and_pooled_outputs_are_byte_identical(kind, tmp_path):
    wl = workloads.make("mc-parallel")
    task = tiny_task(kind)
    written = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        result, csv_path = wl.run(task, threads, out)
        assert wl.check(task, (result, csv_path)) == []
        written[threads] = (csv_path.read_bytes(), csv_path.with_suffix(".summary.json").read_bytes())
    assert written[1] == written[2]


def test_checker_flags_nan_and_wrong_row_count(tmp_path):
    wl = workloads.make("mc-parallel")
    task = tiny_task("bias-sweep")
    result, csv_path = wl.run(task, 1, tmp_path)
    assert wl.check(task, (result, csv_path)) == []

    rows = list(result.rows)
    poisoned = dataclasses.replace(result, rows=[dataclasses.replace(rows[0], value=math.nan)] + rows[1:])
    assert any("non-finite" in p for p in wl.check(task, (poisoned, csv_path)))

    short = dataclasses.replace(result, rows=rows[:-1])
    assert any(f"{len(rows) - 1} rows, expected {len(rows)}" in p for p in wl.check(task, (short, csv_path)))


def test_fit_checker_flags_theta_outside_bounds(tmp_path):
    wl = workloads.make("fit-cold")
    inputs = {"size": 64, "hurst": 0.6, "delta": 0.05, "theta": 1.0, "sigma": 1.0, "theta_bounds": (0.0, 10.0)}
    task = workloads.Task("test", 0, 0, "fit", seed=3, inputs=inputs)
    path, fit, lik, s2 = wl.run(task, 1, tmp_path)
    assert wl.check(task, (path, fit, lik, s2)) == []
    moved = dataclasses.replace(fit, theta_hat=11.0)
    assert any("outside" in p for p in wl.check(task, (path, moved, lik, s2)))


def test_fit_cold_never_repeats_hurst_and_size():
    wl = workloads.make("fit-cold")
    tasks = [t for c in range(20) for t in wl.cycle(5, c)]
    pairs = {(t.inputs["hurst"], t.inputs["size"]) for t in tasks}
    assert len(pairs) == len(tasks)
    again = workloads.make("fit-cold").cycle(5, 0)
    assert [t.inputs for t in again] == [t.inputs for t in tasks[: len(again)]]


def span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent, task=0)


def test_self_time_on_nested_spans():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("leaf", 2.0, 3.0, parent=1),
        span("b", 5.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    totals = tracing.totals_by_name(spans + [span("b", 11.0, 12.0)])
    assert totals["b"].calls == 2
    assert totals["b"].self_s == pytest.approx(5.0)
    assert totals["root"].total_s == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0), span("x", 1.0, 4.0, 0), span("y", 3.0, 6.0, 0), span("z", 9.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_nests_spans_and_restores_patched_names(tmp_path):
    original = simulate.sample_approximate_model
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert experiments.sample_approximate_model is not original
        wl = workloads.make("mc-parallel")
        with tracer.task(0):
            wl.run(tiny_task("calibration-convergence", replicates=1), 1, tmp_path)
        wl.run(tiny_task("signature-check", replicates=1), 1, tmp_path)  # outside a task
    finally:
        tracer.uninstall()
    assert experiments.sample_approximate_model is original
    assert simulate.sample_approximate_model is original

    names = [s.name for s in tracer.spans]
    assert names[0] == "experiments.run_config.calibration-convergence"
    assert "experiments.run_config.signature-check" not in names
    pvar = [s for s in tracer.spans if s.name == "signatures.rough_pvar_distance"]
    assert len(pvar) == 4  # one per dyadic level 0..3
    assert all(tracer.spans[s.parent].name == "calibration.convergence_diagnostic" for s in pvar)
    assert tracer.counters["signatures.pvar_dp_cells"] > 0


def test_tail_keeps_ten_samples_above_it():
    value, pct = run.tail([float(i) for i in range(1, 31)])
    assert value == 20.0
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
