"""fraclab benchmark: end-to-end metrics per workload, per-layer metrics from a
traced run.

    python3 bench/run.py --workload mc-sampling --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; fraclab is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a readable report and the run manifest.

``--trace 0`` measures one workload (see ``workloads.py``) for ``--seconds``
of whole task cycles and reports the end-to-end metrics.  ``--trace 1``
ignores the workload choice and, for every workload, runs a short untraced
pass and a traced serial pass over the same number of cycles (plus an
untraced pass with workers where the workload uses them), then probes the
Lanczos branch of ``FgnCovariance.inverse_spectral_norm`` once.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # "process start" for setup_s

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_BASE = ROOT / ".bench_build"
WORKLOADS = ("mc-sampling", "mc-parallel", "fit-cold")
SETUP_SAMPLES = 3  # setup_s is the median of this many process set-ups
TRACE_SHARE = 8  # a traced run gives each untraced pass seconds / TRACE_SHARE
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
# One BLAS thread in the parent and, by inheritance, in every pool worker.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def prepare() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    Exits non-zero when the checkout holds no fraclab sources.
    """
    if not (SRC / "fraclab" / "__init__.py").is_file():
        sys.exit(f"bench: no fraclab sources under {SRC}; run from a source checkout")
    os.environ.update(PINNED_ENV)  # before numpy loads OpenBLAS
    sys.path.insert(0, str(SRC))
    import fraclab

    if Path(fraclab.__file__).resolve().parent != (SRC / "fraclab").resolve():
        sys.exit(f"bench: imported fraclab from {fraclab.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# running tasks


@dataclass
class TaskRecord:
    task: object
    wall_s: float
    cpu_s: float
    problems: list


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_task(workload, task, threads: int, out_dir: Path, tracer=None, task_id: int = 0) -> TaskRecord:
    """Time one task; its output check runs after the clock stops."""
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    output = error = None
    try:
        with tracer.task(task_id) if tracer is not None else nullcontext():
            output = workload.run(task, threads, out_dir)
    except Exception as exc:  # a failing task is counted and the run goes on
        error = exc
        traceback.print_exc()
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    if error is not None:
        problems = [f"raised {type(error).__name__}: {error}"]
    else:
        try:
            problems = workload.check(task, output)
        except Exception as exc:
            traceback.print_exc()
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    if problems:
        print(f"bench: FAILED {task.label}: {'; '.join(problems)}", file=sys.stderr)
    return TaskRecord(task, wall, cpu, problems)


def run_phase(workload, seed: int, threads: int, out_dir: Path, *, seconds=None, cycles=None,
              first_cycle: int = 0, tracer=None) -> tuple[list[TaskRecord], int]:
    """Whole cycles of tasks, until ``seconds`` have passed or ``cycles`` ran."""
    records: list[TaskRecord] = []
    start = time.perf_counter()
    done = 0
    while True:
        for task in workload.cycle(seed, first_cycle + done):
            records.append(run_task(workload, task, threads, out_dir, tracer, len(records)))
        done += 1
        if cycles is not None:
            if done >= cycles:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return records, done


# ---------------------------------------------------------------------------
# end-to-end metrics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(records: list[TaskRecord], setup_samples: list[float]) -> tuple[dict, list[str]]:
    walls = [r.wall_s for r in records]
    n = len(walls)
    tail_s, tail_pct = tail(walls)
    failed = sum(1 for r in records if r.problems)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "tasks_per_s": (n / sum(walls), "1/s"),
        "task_p50_ms": (1e3 * statistics.median(walls), "ms"),
        "task_tail_ms": (1e3 * tail_s, "ms"),
        "cpu_per_task_ms": (1e3 * sum(r.cpu_s for r in records) / n, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"setup_s is the median of {len(setup_samples)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setup_samples),
        f"task_tail_ms is p{tail_pct:.1f} of {n} tasks "
        f"({TAIL_BEYOND if n > TAIL_BEYOND else 0} samples above it)",
        f"failed_frac = {failed / n!r} ratio ({failed} of {n} tasks failed)",
    ]
    return metrics, notes


def setup_samples_from_probes(args, count: int) -> list[float]:
    """Set-up time of ``count`` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# manifest


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def blas_info() -> dict:
    """BLAS builds of numpy and scipy and the thread count each library reports."""
    import ctypes

    import numpy
    import scipy

    info = {}
    for module in (numpy, scipy):
        blas = module.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
        info[module.__name__] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    threads = {}
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                threads[Path(path).name] = getter()
                break
    info["threads"] = threads
    info["env"] = {k: os.environ.get(k) for k in PINNED_ENV}
    return info


def manifest(args, described: dict, cycles: dict) -> dict:
    import numpy
    import scipy

    return {
        "git_revision": git_revision(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": blas_info(),
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "task_seeds": "SeedSequence([seed, cycle, position])",
        "seconds": args.seconds,
        "cycles": cycles,
        "workloads": described,
    }


# ---------------------------------------------------------------------------
# the traced run


def lanczos_probe() -> tuple[dict, list[str]]:
    """Time inverse_spectral_norm at H = 0.7 on both sides of the dense cut-off.

    Cauchy interlacing makes the N = 2049 norm at least the N = 2048 one.
    """
    from fraclab.fgn import FgnCovariance

    values, metrics = {}, {}
    for label, size in (("dense_n2048_s", 2048), ("lanczos_n2049_s", 2049)):
        t0 = time.perf_counter()
        values[size] = FgnCovariance(0.7, 1.0, size).inverse_spectral_norm()
        metrics[f"fgn.inverse_spectral_norm.{label}"] = (time.perf_counter() - t0, "s")
    problems = []
    if not all(v > 0 and v < float("inf") for v in values.values()):
        problems.append(f"inverse spectral norms {values} are not finite and positive")
    elif values[2049] < values[2048] * (1 - 1e-6):
        problems.append(f"interlacing violated: {values}")
    return metrics, problems


def run_traced(args, out_dir: Path) -> tuple[dict, list[TaskRecord], list[str], dict]:
    import tracing
    import workloads

    metrics: dict = {}
    records: list[TaskRecord] = []
    notes: list[str] = []
    cycles: dict = {}
    tracer = tracing.Tracer()
    for name in WORKLOADS:
        workload = workloads.make(name)
        workload.warm_up()
        plain, n = run_phase(workload, args.seed, 1, out_dir, seconds=args.seconds / TRACE_SHARE)
        tracing.install(tracer)
        try:
            traced, _ = run_phase(workload, args.seed, 1, out_dir, cycles=n, first_cycle=n, tracer=tracer)
        finally:
            tracer.uninstall()
        pooled = None
        if workload.threads > 1:
            pooled, _ = run_phase(workload, args.seed, workload.threads, out_dir, cycles=n, first_cycle=2 * n)
        layer, layer_notes = layer_metrics(workload, tracer, plain, traced, pooled)
        metrics.update({f"{name}.{key}": value for key, value in layer.items()})
        notes += [f"{name}: {line}" for line in layer_notes]
        records += plain + traced + (pooled or [])
        cycles[name] = n
        tracer.reset()
    probe, problems = lanczos_probe()
    metrics.update(probe)
    records.append(TaskRecord("lanczos-probe", 0.0, 0.0, problems))
    ratio = probe["fgn.inverse_spectral_norm.lanczos_n2049_s"][0] / probe["fgn.inverse_spectral_norm.dense_n2048_s"][0]
    notes.append(f"Lanczos cliff: N = 2049 takes {ratio:.1f}x the dense N = 2048 eigensolve")
    return metrics, records, notes, cycles


def layer_metrics(workload, tracer, plain, traced, pooled) -> tuple[dict, list[str]]:
    import tracing

    totals = tracing.totals_by_name(tracer.spans)

    def get(name: str) -> tracing.SpanTotals:
        return totals.get(name, tracing.SpanTotals())

    counters = tracer.counters
    wall = sum(r.wall_s for r in traced)
    out: dict = {}

    def span(name: str, kind: str = "self_s"):
        entry = get(name)
        out[f"{name}.{kind}"] = (entry.self_s if kind == "self_s" else entry.total_s, "s")
        out[f"{name}.calls"] = (entry.calls, "count")

    def fine_samples():
        sampled = sum(get(f"simulate.{n}").self_s for n in
                      ("sample_physical_fbm", "sample_tfe_system", "sample_approximate_model"))
        out["simulate.fine_samples"] = (int(counters["simulate.fine_samples"]), "count")
        out["simulate.ns_per_fine_sample"] = (1e9 * sampled / counters["simulate.fine_samples"], "ns")

    def factor():
        entry = get("fgn.factor")
        out["fgn.factor.s"] = (entry.total_s, "s")
        out["fgn.factor.calls"] = (entry.calls, "count")
        out["fgn.dense_bytes_peak"] = (int(tracer.peaks["fgn.dense_bytes_peak"]), "bytes")

    def solves(per_factor: bool):
        entry = get("fgn.solve")  # self time: a factorisation it triggers is fgn.factor
        out["fgn.solve.s"] = (entry.self_s, "s")
        out["fgn.solve.calls"] = (entry.calls, "count")
        if per_factor:
            out["fgn.solves_per_factor"] = (entry.calls / get("fgn.factor").calls, "ratio")

    def runner():
        per_exp = {exp: get(f"experiments.run_config.{exp}") for exp, _ in workload.mix}
        for exp, entry in per_exp.items():
            out[f"experiments.run_config.{exp}.s"] = (entry.total_s, "s")
        out["experiments.runner_overhead_s"] = (sum(e.self_s for e in per_exp.values()), "s")
        out["experiments.write_outputs.s"] = (get("experiments.write_outputs").total_s, "s")
        out["experiments.output_bytes"] = (int(counters["experiments.output_bytes"]), "bytes")

    if workload.name == "mc-sampling":
        span("simulate.sample_physical_fbm")
        span("simulate.sample_tfe_system")
        fine_samples()
        solves(per_factor=False)
        span("estimators.sigma2_hat")
        span("estimators.hurst_hat")
        span("optimize.golden_section_minimize", "s")
        span("tfe.tfe_estimate")
        runner()
    elif workload.name == "mc-parallel":
        span("simulate.sample_physical_fbm")
        span("simulate.sample_approximate_model")
        factor()
        solves(per_factor=True)
        span("likelihood.score")
        span("likelihood.expansion_terms")
        span("estimators.sigma2_hat")
        span("calibration.convergence_diagnostic")
        span("signatures.rough_pvar_distance", "s")
        cells = counters["signatures.pvar_dp_cells"]
        out["signatures.pvar_dp_cells"] = (int(cells), "count")
        out["signatures.ns_per_dp_cell"] = (1e9 * get("signatures.rough_pvar_distance").self_s / cells, "ns")
        span("traces.conjecture_scan", "s")
        runner()
        serial = sum(r.wall_s for r in plain)
        out["experiments.pool_efficiency"] = (serial / (workload.threads * sum(r.wall_s for r in pooled)), "ratio")
    else:
        span("simulate.sample_approximate_model")
        fine_samples()
        factor()
        solves(per_factor=True)
        span("likelihood.profile_mle")
        span("optimize.golden_section_minimize", "s")
        span("estimators.sigma2_hat")

    spanned = sum(tracing.self_times(tracer.spans))
    plain_rate = len(plain) / sum(r.wall_s for r in plain)
    traced_rate = len(traced) / wall
    out["trace.wall_s"] = (wall, "s")
    out["trace.accounted_frac"] = (spanned / wall, "ratio")
    out["trace.overhead_tasks_per_s"] = (traced_rate - plain_rate, "1/s")
    notes = [
        f"{len(traced)} traced tasks, {len(tracer.spans)} spans; self times cover "
        f"{spanned:.3f} of {wall:.3f} traced seconds; tasks_per_s untraced "
        f"{plain_rate:.4g}, traced {traced_rate:.4g}"
    ]
    if hasattr(workload, "mix"):
        for exp, reps in workload.mix:
            entry = get(f"experiments.run_config.{exp}")
            if entry.calls:
                notes.append(f"{exp}: {1e3 * entry.total_s / (entry.calls * reps):.2f} ms per replicate "
                             f"(traced, serial, {entry.calls} x {reps} replicates)")
    return out, notes


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare()
    import workloads

    if args.setup_probe or not args.trace:
        workload = workloads.make(args.workload)
        workload.warm_up()
        setup_s = time.perf_counter() - _STARTED
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
    out_dir = OUT_BASE / f"out-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, records, notes, cycles = run_traced(args, out_dir)
            described = {name: workloads.make(name).describe() for name in WORKLOADS}
        else:
            samples = [setup_s] + setup_samples_from_probes(args, SETUP_SAMPLES - 1)
            records, n = run_phase(workload, args.seed, workload.threads, out_dir, seconds=args.seconds)
            metrics, notes = end_to_end(records, samples)
            cycles = {args.workload: n}
            described = {args.workload: workload.describe()}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = sum(1 for r in records if r.problems)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for line in notes:
        print(line)
    print("manifest " + json.dumps(manifest(args, described, cycles), default=list))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
