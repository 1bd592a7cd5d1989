"""The benchmark's workloads: seeded task streams, warm-up and output checks.

A task is one ``run_config`` + ``write_outputs`` call in the ``mc-*``
workloads and one cold trajectory fit in ``fit-cold``.  Tasks come in fixed
cycles so that every run measures the same mix whatever its seed: the seed
only changes the experiments' master seeds and the fits' inputs.

Why these three:

* ``mc-sampling`` is almost all sampler time (``simulate``): hurst-sweep,
  clt, consistency-rate and tfe-sweep at their default grids, serial.  The
  default grids keep the prime-factor FFT lengths a sampler change must fix.
* ``mc-parallel`` is the Toeplitz layer used warm (one factor, thousands of
  solves), the p-variation dynamic program, the trace scan and the process
  pool runner, with two workers.
* ``fit-cold`` is the Toeplitz layer used cold: every fit factorises a fresh
  covariance, because no two fits share (H, N).  The sampler is under 1 % of
  it, so it is the control for sampler changes.

Replicate counts are chosen so that the tasks of one workload take roughly
the same time; a mix of very unequal tasks would put the median on the edge
between two kinds of task.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fraclab import estimators, experiments, likelihood, simulate
from fraclab.grids import FouParams, SamplingGrid, SeedSpec


@dataclass(frozen=True)
class Task:
    workload: str
    cycle: int
    position: int
    kind: str  # experiment name, or "fit"
    seed: int
    replicates: int = 1
    inputs: dict = field(default_factory=dict)  # fit inputs, or experiment param overrides

    @property
    def label(self) -> str:
        return f"{self.workload}[{self.cycle}.{self.position}] {self.kind} seed={self.seed}"


def _task_seed(seed: int, cycle: int, position: int) -> int:
    return int(np.random.SeedSequence([seed, cycle, position]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# output checks: invariants that hold for any correct sampler, never digests
# of random draws


def _scan_rows(p: dict) -> int:
    total = 0
    for n in set(p["scan.sizes"]):
        k = min(p["scan.k_max"], n) + 1
        total += k + k * (k + 1) // 2
    return len(p["scan.hursts"]) * total


ROWS_PER_REPLICATE = {
    "bias-sweep": lambda p: len(p["sweep.ratios"]),
    "consistency-rate": lambda p: len(p["sweep.eps_log2"]),
    "clt": lambda p: 1,
    "score-consistency": lambda p: 2 * len(p["sweep.hursts"]) * len(p["sweep.deltas"]),
    "expansion-residual": lambda p: len(p["sweep.deltas"]),
    "hurst-sweep": lambda p: len(p["sweep.hursts"]),
    "conjecture-scan": _scan_rows,
    "calibration-convergence": lambda p: 2 * (p["cal.levels"] + 1),
    "signature-check": lambda p: 2,
    "tfe-sweep": lambda p: min(len(p["sweep.schedule_eps"]), len(p["sweep.schedule_eta"]))
    + len(p["sweep.eta_levels"])
    + len(p["sweep.avg_eps_log2"]),
}

SIGNATURE_TOLERANCE = 1e-12
SOLVE_RESIDUAL_TOLERANCE = 1e-8


def check_experiment(task: Task, result, csv_path) -> list[str]:
    """Problems with one experiment's output; empty when it is correct."""
    problems = []
    rows = result.rows
    expected = ROWS_PER_REPLICATE[task.kind](result.params) * task.replicates
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    bad = [r for r in rows if not math.isfinite(r.value)]
    if bad:
        problems.append(f"{len(bad)} non-finite values, first {bad[0]}")
    if experiments.read_csv(csv_path) != list(rows):
        problems.append("CSV does not round-trip bit-exactly")
    if task.kind == "signature-check":
        worst = max((r.value for r in rows), default=0.0)
        if not worst < SIGNATURE_TOLERANCE:
            problems.append(f"signature residual {worst!r} >= {SIGNATURE_TOLERANCE}")
    if task.kind == "conjecture-scan":
        flags = [c for c in result.summary["counterexamples"] if c.startswith("identity check failed")]
        if flags:
            problems.append(flags[0])
    return problems


def check_fit(task: Task, output) -> list[str]:
    from scipy.linalg import matmul_toeplitz

    path, fit, lik, s2 = output
    problems = []
    lo, hi = task.inputs["theta_bounds"]
    if not lo <= fit.theta_hat <= hi:
        problems.append(f"theta_hat {fit.theta_hat!r} outside [{lo}, {hi}]")
    for label, value in (("profile sigma2", fit.sigma2_hat), ("sigma2_hat", s2)):
        if not (math.isfinite(value) and value > 0):
            problems.append(f"{label} {value!r} is not finite and positive")
    dx = np.diff(path.values)
    solved = lik.cov.solve(dx)
    residual = np.linalg.norm(matmul_toeplitz(lik.cov.first_row, solved) - dx) / np.linalg.norm(dx)
    if not residual < SOLVE_RESIDUAL_TOLERANCE:
        problems.append(f"Toeplitz solve residual {residual:.3e} >= {SOLVE_RESIDUAL_TOLERANCE}")
    return problems


# ---------------------------------------------------------------------------
# workloads


class McWorkload:
    """Repeated ``run_config`` + ``write_outputs`` calls over a fixed mix."""

    def __init__(self, name: str, mix: tuple, threads: int):
        self.name = name
        self.mix = mix  # (experiment, replicates) per task of one cycle
        self.threads = threads

    def cycle(self, seed: int, cycle: int) -> list[Task]:
        return [
            Task(self.name, cycle, pos, exp, _task_seed(seed, cycle, pos), reps)
            for pos, (exp, reps) in enumerate(self.mix)
        ]

    def warm_up(self) -> None:
        """One replicate of each experiment (fills the factor and circulant
        caches), then one pool spin-up when the workload runs workers."""
        with warnings.catch_warnings():
            # one replicate leaves sample variances undefined; harmless here
            warnings.simplefilter("ignore", RuntimeWarning)
            warnings.filterwarnings("ignore", message=".*too small.*")
            for exp, _ in self.mix:
                experiments.run_config(experiments.ExperimentConfig(exp, replicates=1))
            if self.threads > 1:
                experiments.run_config(
                    experiments.ExperimentConfig(
                        "signature-check", replicates=self.threads, threads=self.threads
                    )
                )

    def run(self, task: Task, threads: int, out_dir: Path):
        config = experiments.ExperimentConfig(
            task.kind, seed=task.seed, replicates=task.replicates, threads=threads,
            params=dict(task.inputs),
        )
        result = experiments.run_config(config)
        csv_path, _ = experiments.write_outputs(result, out_dir / f"{task.kind}.csv")
        return result, csv_path

    def check(self, task: Task, output) -> list[str]:
        return check_experiment(task, *output)

    def describe(self) -> dict:
        return {
            "threads": self.threads,
            "mix": [
                {
                    "experiment": exp,
                    "replicates": reps,
                    "params": experiments.experiment_defaults(exp),
                }
                for exp, reps in self.mix
            ],
        }


class FitWorkload:
    """Serial stream of cold single-trajectory fits: sample, profile MLE,
    then the whitened variance estimator on the fit's own covariance."""

    name = "fit-cold"
    threads = 1
    SIZES = (512, 1024, 2048, 2048, 4096)  # one cycle; the median falls on N = 2048
    THETA_BOUNDS = (0.0, 10.0)

    def __init__(self):
        self._seen: set[tuple[float, int]] = set()

    def cycle(self, seed: int, cycle: int) -> list[Task]:
        tasks = []
        for pos, size in enumerate(self.SIZES):
            task_seed = _task_seed(seed, cycle, pos)
            rng = np.random.default_rng(task_seed)
            hurst = float(rng.uniform(0.2, 0.8))
            while (hurst, size) in self._seen:  # no fit may reuse a (H, N)
                hurst = float(rng.uniform(0.2, 0.8))
            self._seen.add((hurst, size))
            inputs = {
                "size": size,
                "hurst": hurst,
                "delta": float(rng.uniform(0.01, 0.1)),
                "theta": float(rng.uniform(0.5, 2.0)),
                "sigma": float(rng.uniform(0.5, 2.0)),
                "theta_bounds": self.THETA_BOUNDS,
            }
            tasks.append(Task(self.name, cycle, pos, "fit", task_seed, 1, inputs))
        return tasks

    def warm_up(self) -> None:
        """Nothing: the workload is cold by construction."""

    def run(self, task: Task, threads: int, out_dir: Path):
        p = task.inputs
        grid = SamplingGrid(delta=p["delta"], count=p["size"])
        path = simulate.sample_approximate_model(
            FouParams(theta=p["theta"], sigma=p["sigma"], hurst=p["hurst"]), grid, SeedSpec(task.seed)
        )
        lik = likelihood.FouLikelihood(p["hurst"], grid)
        fit = lik.profile_mle(path, theta_bounds=p["theta_bounds"])
        s2 = estimators.sigma2_hat(path, p["hurst"], cov=lik.cov)
        return path, fit, lik, s2

    def check(self, task: Task, output) -> list[str]:
        return check_fit(task, output)

    def describe(self) -> dict:
        return {
            "threads": self.threads,
            "sizes_per_cycle": list(self.SIZES),
            "draws": "H ~ U(0.2, 0.8), delta ~ U(0.01, 0.1), theta ~ U(0.5, 2), sigma ~ U(0.5, 2)",
            "theta_bounds": list(self.THETA_BOUNDS),
        }


def make(name: str):
    if name == "mc-sampling":
        return McWorkload(
            name,
            (("hurst-sweep", 1), ("clt", 8), ("consistency-rate", 14), ("tfe-sweep", 3)),
            threads=1,
        )
    if name == "mc-parallel":
        return McWorkload(
            name,
            (
                ("bias-sweep", 60),
                ("score-consistency", 100),
                ("expansion-residual", 200),
                ("calibration-convergence", 24),
                ("signature-check", 400),
                ("conjecture-scan", 1),
            ),
            threads=2,  # fixed, so that runs on any machine do the same work
        )
    if name == "fit-cold":
        return FitWorkload()
    raise ValueError(f"unknown workload {name!r}")

