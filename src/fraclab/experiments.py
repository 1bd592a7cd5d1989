"""Reproducible Monte Carlo experiment driver.

Configs are flat ``key = value`` text with dotted section keys and strict
unknown-key rejection.  Every experiment is a pure function of (config,
master seed): replicate r draws from SeedSpec(master, r), workers gather
deterministically, CSV floats carry 17 significant digits, and summaries
(means, standard errors, slopes, test p-values) go to a JSON sidecar.
"""

from __future__ import annotations

import csv
import json
import math
import re
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy import stats as sstats

from . import estimators, traces
from .calibration import convergence_diagnostic
from .fgn import FgnCovariance
from .grids import (
    STREAM_AUX,
    FouParams,
    MultiscaleParams,
    NumericFailure,
    SamplingGrid,
    SeedSpec,
    Trajectory,
    make_grid,
)
from .likelihood import FouLikelihood
from .signatures import pwl_signature, shuffle_residual, tensor_multiply
from .simulate import (
    sample_approximate_model,
    sample_physical_fbm,
    sample_tfe_system,
)
from .tfe import TfeInstance, averaged_trajectory, sup_node_error, tfe_estimate

__all__ = [
    "ConfigError",
    "ResultRow",
    "ExperimentConfig",
    "ExperimentResult",
    "COLUMNS",
    "experiment_names",
    "experiment_defaults",
    "parse_config_text",
    "load_config",
    "run_config",
    "write_csv",
    "read_csv",
    "write_outputs",
]


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


# ---------------------------------------------------------------------------
# result rows and CSV emission

COLUMNS = (
    "experiment",
    "replicate",
    "epsilon",
    "delta",
    "alpha",
    "hurst",
    "theta",
    "sigma",
    "eta",
    "statistic",
    "value",
)

_PARAM_COLUMNS = ("epsilon", "delta", "alpha", "hurst", "theta", "sigma", "eta")


@dataclass(frozen=True)
class ResultRow:
    """One statistic from one replicate, with the parameter columns that
    applied to it (inapplicable ones stay empty)."""

    experiment: str
    replicate: int
    statistic: str
    value: float
    epsilon: float | None = None
    delta: float | None = None
    alpha: float | None = None
    hurst: float | None = None
    theta: float | None = None
    sigma: float | None = None
    eta: float | None = None

    def record(self) -> list[str]:
        out = [self.experiment, str(self.replicate)]
        for name in _PARAM_COLUMNS:
            val = getattr(self, name)
            out.append("" if val is None else format_float(val))
        out.append(self.statistic)
        out.append(format_float(self.value))
        return out


def format_float(x: float) -> str:
    """17 significant digits: enough for binary round-tripping."""
    return f"{float(x):.17g}"


def write_csv(rows: Sequence[ResultRow], path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow(row.record())


def read_csv(path) -> list[ResultRow]:
    path = Path(path)
    rows: list[ResultRow] = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(COLUMNS):
            raise ConfigError(f"{path}: unexpected CSV header {header}")
        for rec in reader:
            if len(rec) != len(COLUMNS):
                raise ConfigError(f"{path}: malformed row {rec}")
            kwargs = {
                "experiment": rec[0],
                "replicate": int(rec[1]),
                "statistic": rec[-2],
                "value": float(rec[-1]),
            }
            for name, cell in zip(_PARAM_COLUMNS, rec[2:-2]):
                kwargs[name] = None if cell == "" else float(cell)
            rows.append(ResultRow(**kwargs))
    return rows


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    replicates: int | None = None
    threads: int = 1
    out: str | None = None
    params: dict = field(default_factory=dict)


def parse_config_text(text: str) -> ExperimentConfig:
    """Flat ``key = value`` lines; '#' comments and blank lines ignored."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        entries[key] = value

    if "experiment" not in entries:
        raise ConfigError("missing required key 'experiment'")
    experiment = entries.pop("experiment")
    seed = _coerce("seed", entries.pop("seed", "0"), 0)
    replicates = None
    if "replicates" in entries:
        replicates = _coerce("replicates", entries.pop("replicates"), 0)
        if replicates < 1:
            raise ConfigError(f"key 'replicates' must be >= 1, got {replicates}")
    threads = _coerce("threads", entries.pop("threads", "1"), 0)
    if threads < 1:
        raise ConfigError(f"key 'threads' must be >= 1, got {threads}")
    out = entries.pop("out", None)
    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        replicates=replicates,
        threads=threads,
        out=out,
        params=entries,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _coerce(key: str, raw, template):
    """Parse ``raw`` (usually a string) into the type of ``template``."""
    if isinstance(raw, type(template)) and not isinstance(raw, str):
        return raw
    if isinstance(template, tuple):
        if isinstance(raw, (list, tuple)):
            items = list(raw)
        else:
            items = [part.strip() for part in str(raw).split(",") if part.strip()]
        elem = template[0] if template else 0.0
        return tuple(_coerce(key, item, elem) for item in items)
    text = str(raw).strip()
    try:
        if isinstance(template, bool):
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if isinstance(template, int):
            return int(text)
        if isinstance(template, float):
            return float(text)
    except ValueError as exc:
        raise ConfigError(
            f"key '{key}': cannot parse {raw!r} as {type(template).__name__}"
        ) from exc
    return text


def _check_value(key: str, value) -> None:
    base = key.rsplit(".", 1)[-1]
    seq = value if isinstance(value, tuple) else (value,)
    if base in ("sigma", "delta", "delta0", "horizon", "epsilon", "epsilon_small",
                "p", "growth_factor", "ratio", "ratios", "eta_levels",
                "schedule_eps", "deltas"):
        if any(v <= 0 for v in seq):
            raise ConfigError(f"key '{key}' must be positive, got {value}")
    elif base in ("hurst", "hursts"):
        if any(not 0.0 < v < 1.0 for v in seq):
            raise ConfigError(f"key '{key}' must lie in (0, 1), got {value}")
    elif base in ("theta", "eta", "schedule_eta"):
        if any(v < 0 for v in seq):
            raise ConfigError(f"key '{key}' must be >= 0, got {value}")
    elif base in ("count", "refine", "segments", "level", "levels", "k_max",
                  "max_size", "dimension"):
        if any(v < 1 for v in seq):
            raise ConfigError(f"key '{key}' must be >= 1, got {value}")
    elif base == "max_substeps":
        if any(v < 0 for v in seq):
            raise ConfigError(f"key '{key}' must be >= 0 (0 = uncapped), got {value}")


def _resolve_params(name: str, defaults: dict, raw: dict) -> dict:
    params = dict(defaults)
    for key, value in raw.items():
        if key not in defaults:
            raise ConfigError(f"unknown key '{key}' for experiment '{name}'")
        params[key] = _coerce(key, value, defaults[key])
    for key, value in params.items():
        _check_value(key, value)
    return params


def _substeps_arg(params: dict) -> int | None:
    cap = params.get("sim.max_substeps", 0)
    return None if cap == 0 else int(cap)


def _slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


def _group_values(rows, statistic, key):
    """{key(row): [values in replicate order]} for rows of one statistic."""
    out: dict = {}
    for row in rows:
        if row.statistic == statistic:
            out.setdefault(key(row), []).append(row.value)
    return out


# ---------------------------------------------------------------------------
# experiment: bias-sweep

_BIAS_DEFAULTS = {
    "model.sigma": 1.0,
    "model.hurst": 0.5,
    "grid.delta": 0.005,
    "grid.horizon": 10.0,
    "sweep.ratios": (0.1, 1.0, 10.0),
    "sim.refine": 16,
    "sim.max_substeps": 256,
}


def _rep_bias_sweep(params: dict, seed: SeedSpec) -> list[ResultRow]:
    sigma = params["model.sigma"]
    hurst = params["model.hurst"]
    delta = params["grid.delta"]
    grid = make_grid(delta, params["grid.horizon"])
    cov = FgnCovariance(hurst, grid.delta, grid.count)
    rows = []
    for i, ratio in enumerate(params["sweep.ratios"]):
        eps = ratio * delta
        sample = sample_physical_fbm(
            MultiscaleParams(sigma=sigma, hurst=hurst, epsilon=eps),
            grid,
            seed,
            refine=params["sim.refine"],
            max_substeps=_substeps_arg(params),
            stream=3 * i,
        )
        value = estimators.sigma2_hat(sample.slow, hurst, cov=cov)
        rows.append(
            ResultRow(
                experiment="bias-sweep",
                replicate=seed.replicate,
                statistic="sigma2_hat",
                value=value,
                epsilon=eps,
                delta=delta,
                hurst=hurst,
                sigma=sigma,
            )
        )
    return rows


def _sum_bias_sweep(params: dict, rows: list[ResultRow]) -> dict:
    sigma = params["model.sigma"]
    hurst = params["model.hurst"]
    delta = params["grid.delta"]
    groups = _group_values(rows, "sigma2_hat", lambda r: r.epsilon)
    per_ratio = []
    means = []
    for ratio in params["sweep.ratios"]:
        eps = ratio * delta
        vals = np.asarray(groups[eps])
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
        entry = {
            "ratio": float(ratio),
            "epsilon": float(eps),
            "mean": mean,
            "std_error": se,
        }
        if hurst == 0.5:
            expected = estimators.expected_bias_h_half(sigma, eps, delta)
            entry["expected"] = expected
            entry["z"] = (mean - expected) / se if se > 0 else float("inf")
            entry["within_3se"] = bool(abs(mean - expected) <= 3.0 * se)
        per_ratio.append(entry)
        means.append(mean)
    summary = {
        "per_ratio": per_ratio,
        "strictly_decreasing_in_ratio": bool(
            all(b < a for a, b in zip(means, means[1:]))
        ),
    }
    if hurst == 0.5:
        summary["all_within_3se"] = bool(all(e["within_3se"] for e in per_ratio))
    return summary


# ---------------------------------------------------------------------------
# experiment: consistency-rate

_RATE_DEFAULTS = {
    "model.sigma": 1.0,
    "model.hurst": 0.7,
    "sweep.alpha": 0.5,
    "sweep.eps_log2": (-4, -5, -6, -7, -8, -9, -10),
    "grid.horizon": 10.0,
    "sim.refine": 16,
    "sim.max_substeps": 512,
}


def _rep_consistency_rate(params: dict, seed: SeedSpec) -> list[ResultRow]:
    sigma = params["model.sigma"]
    hurst = params["model.hurst"]
    alpha = params["sweep.alpha"]
    rows = []
    for i, lev in enumerate(params["sweep.eps_log2"]):
        eps = 2.0**lev
        delta = eps**alpha
        grid = make_grid(delta, params["grid.horizon"])
        sample = sample_physical_fbm(
            MultiscaleParams(sigma=sigma, hurst=hurst, epsilon=eps),
            grid,
            seed,
            refine=params["sim.refine"],
            max_substeps=_substeps_arg(params),
            stream=3 * i,
        )
        cov = FgnCovariance(hurst, grid.delta, grid.count)
        value = estimators.sigma2_hat(sample.slow, hurst, cov=cov)
        rows.append(
            ResultRow(
                experiment="consistency-rate",
                replicate=seed.replicate,
                statistic="sigma2_hat",
                value=value,
                epsilon=eps,
                delta=delta,
                alpha=alpha,
                hurst=hurst,
                sigma=sigma,
            )
        )
    return rows


def _sum_consistency_rate(params: dict, rows: list[ResultRow]) -> dict:
    sigma2 = params["model.sigma"] ** 2
    hurst = params["model.hurst"]
    alpha = params["sweep.alpha"]
    groups = _group_values(rows, "sigma2_hat", lambda r: r.epsilon)
    eps_list = sorted(groups, reverse=True)  # coarse -> fine
    l2 = [
        float(np.sqrt(np.mean((np.asarray(groups[e]) - sigma2) ** 2)))
        for e in eps_list
    ]
    slope = _slope(eps_list, l2)
    target = min(hurst * (1.0 - alpha), alpha / 2.0)
    return {
        "epsilons": [float(e) for e in eps_list],
        "l2_errors": l2,
        "monotone_decreasing": bool(all(b < a for a, b in zip(l2, l2[1:]))),
        "slope": slope,
        "slope_target": target,
        "slope_within_0p15": bool(abs(slope - target) <= 0.15),
    }


# ---------------------------------------------------------------------------
# experiment: clt

_CLT_DEFAULTS = {
    "model.sigma": 1.0,
    "model.hurst": 0.7,
    "model.epsilon": 2.5e-5,
    "sweep.alpha": 0.5,
    "grid.horizon": 10.0,
    "sim.refine": 16,
    "sim.max_substeps": 256,
}


def _rep_clt(params: dict, seed: SeedSpec) -> list[ResultRow]:
    sigma = params["model.sigma"]
    hurst = params["model.hurst"]
    eps = params["model.epsilon"]
    alpha = params["sweep.alpha"]
    delta = eps**alpha
    grid = make_grid(delta, params["grid.horizon"])
    sample = sample_physical_fbm(
        MultiscaleParams(sigma=sigma, hurst=hurst, epsilon=eps),
        grid,
        seed,
        refine=params["sim.refine"],
        max_substeps=_substeps_arg(params),
    )
    cov = FgnCovariance(hurst, grid.delta, grid.count)
    value = estimators.sigma2_hat(sample.slow, hurst, cov=cov)
    return [
        ResultRow(
            experiment="clt",
            replicate=seed.replicate,
            statistic="sigma2_hat",
            value=value,
            epsilon=eps,
            delta=delta,
            alpha=alpha,
            hurst=hurst,
            sigma=sigma,
        )
    ]


def _sum_clt(params: dict, rows: list[ResultRow]) -> dict:
    sigma = params["model.sigma"]
    hurst = params["model.hurst"]
    eps = params["model.epsilon"]
    alpha = params["sweep.alpha"]
    delta = eps**alpha
    vals = np.asarray([r.value for r in rows if r.statistic == "sigma2_hat"])
    z = (vals - sigma**2) / math.sqrt(delta)
    _, p_value = sstats.normaltest(z)
    horizon = params["grid.horizon"]
    var_target = 2.0 * sigma**4 / horizon
    var_hat = float(z.var(ddof=1))
    lo, hi = estimators.admissible_alpha(hurst, "clt")
    return {
        "alpha": float(alpha),
        "admissible_alpha": [float(lo), float(hi)],
        "alpha_admissible": bool(lo < alpha < hi),
        "mean_z": float(z.mean()),
        "normality_p_value": float(p_value),
        "normal_at_0p01": bool(p_value >= 0.01),
        "variance": var_hat,
        "variance_target": float(var_target),
        "variance_within_15pct": bool(
            abs(var_hat - var_target) <= 0.15 * var_target
        ),
    }


# ---------------------------------------------------------------------------
# experiment: score-consistency

_SCORE_DEFAULTS = {
    "model.theta": 1.0,
    "model.sigma": 1.0,
    "sweep.hursts": (0.3, 0.7),
    "sweep.deltas": (0.1, 0.05, 0.025, 0.0125),
    "grid.horizon": 10.0,
}


def _rep_score_consistency(params: dict, seed: SeedSpec) -> list[ResultRow]:
    theta = params["model.theta"]
    sigma = params["model.sigma"]
    rows = []
    stream = 0
    for hurst in params["sweep.hursts"]:
        for delta in params["sweep.deltas"]:
            grid = make_grid(delta, params["grid.horizon"])
            x = sample_approximate_model(
                FouParams(theta=theta, sigma=sigma, hurst=hurst),
                grid,
                seed,
                stream=stream,
            )
            stream += 1
            lik = FouLikelihood(hurst, grid, cov=FgnCovariance(hurst, grid.delta, grid.count))
            sc = lik.score(x, theta, sigma)
            common = dict(
                experiment="score-consistency",
                replicate=seed.replicate,
                delta=delta,
                hurst=hurst,
                theta=theta,
                sigma=sigma,
            )
            rows.append(ResultRow(statistic="score_theta", value=sc.d_theta, **common))
            rows.append(ResultRow(statistic="score_sigma", value=sc.d_sigma, **common))
    return rows


def _sum_score_consistency(params: dict, rows: list[ResultRow]) -> dict:
    deltas = sorted(params["sweep.deltas"], reverse=True)
    per_hurst = []
    all_ok = True
    for hurst in params["sweep.hursts"]:
        entry = {"hurst": float(hurst), "deltas": [float(d) for d in deltas]}
        for stat in ("score_theta", "score_sigma"):
            sub = [
                r for r in rows if r.statistic == stat and r.hurst == hurst
            ]
            groups = _group_values(sub, stat, lambda r: r.delta)
            means = [float(np.mean(np.abs(groups[d]))) for d in deltas]
            decreasing = bool(all(b < a for a, b in zip(means, means[1:])))
            entry[f"mean_abs_{stat}"] = means
            entry[f"{stat}_decreasing"] = decreasing
            all_ok = all_ok and decreasing
        per_hurst.append(entry)
    return {"per_hurst": per_hurst, "all_decreasing": bool(all_ok)}


# ---------------------------------------------------------------------------
# experiment: expansion-residual

_EXPANSION_DEFAULTS = {
    "model.theta": 1.0,
    "model.sigma": 1.0,
    "model.hurst": 0.7,
    "sweep.deltas": (0.1, 0.05, 0.025, 0.0125),
    "grid.horizon": 5.0,
}


def _rep_expansion_residual(params: dict, seed: SeedSpec) -> list[ResultRow]:
    theta = params["model.theta"]
    sigma = params["model.sigma"]
    hurst = params["model.hurst"]
    rows = []
    for i, delta in enumerate(params["sweep.deltas"]):
        grid = make_grid(delta, params["grid.horizon"])
        x = sample_approximate_model(
            FouParams(theta=theta, sigma=sigma, hurst=hurst), grid, seed, stream=i
        )
        lik = FouLikelihood(hurst, grid, cov=FgnCovariance(hurst, grid.delta, grid.count))
        terms = lik.expansion_terms(x, theta, sigma)
        rows.append(
            ResultRow(
                experiment="expansion-residual",
                replicate=seed.replicate,
                statistic="abs_residual",
                value=abs(terms.residual),
                delta=delta,
                hurst=hurst,
                theta=theta,
                sigma=sigma,
            )
        )
    return rows


def _sum_expansion_residual(params: dict, rows: list[ResultRow]) -> dict:
    deltas = sorted(params["sweep.deltas"], reverse=True)
    groups = _group_values(rows, "abs_residual", lambda r: r.delta)
    means = [float(np.mean(groups[d])) for d in deltas]
    slope = _slope(deltas, means)
    return {
        "deltas": [float(d) for d in deltas],
        "mean_abs_residual": means,
        "slope": slope,
        "slope_target": 1.0,
        "slope_within_0p3": bool(abs(slope - 1.0) <= 0.3),
    }


# ---------------------------------------------------------------------------
# experiment: hurst-sweep

_HURST_DEFAULTS = {
    "model.sigma": 1.0,
    "model.ratio": 0.01,  # epsilon / delta
    "sweep.hursts": (0.3, 0.7),
    "grid.delta": 1.0,
    "grid.count": 4096,
    "sim.refine": 8,
    "sim.max_substeps": 64,
    "tol.mean_abs_error": 0.05,
}


def _rep_hurst_sweep(params: dict, seed: SeedSpec) -> list[ResultRow]:
    sigma = params["model.sigma"]
    delta = params["grid.delta"]
    count = params["grid.count"]
    eps = params["model.ratio"] * delta
    fine_grid = SamplingGrid(delta=delta / 2.0, count=2 * count)
    rows = []
    for i, hurst in enumerate(params["sweep.hursts"]):
        sample = sample_physical_fbm(
            MultiscaleParams(sigma=sigma, hurst=hurst, epsilon=eps),
            fine_grid,
            seed,
            refine=params["sim.refine"],
            max_substeps=_substeps_arg(params),
            stream=3 * i,
        )
        rows.append(
            ResultRow(
                experiment="hurst-sweep",
                replicate=seed.replicate,
                statistic="hurst_hat",
                value=estimators.hurst_hat(sample.slow),
                epsilon=eps,
                delta=delta,
                hurst=hurst,
                sigma=sigma,
            )
        )
    return rows


def _sum_hurst_sweep(params: dict, rows: list[ResultRow]) -> dict:
    tol = params["tol.mean_abs_error"]
    per_hurst = []
    for hurst in params["sweep.hursts"]:
        vals = np.asarray(
            [r.value for r in rows if r.statistic == "hurst_hat" and r.hurst == hurst]
        )
        mean_abs = float(np.mean(np.abs(vals - hurst)))
        per_hurst.append(
            {
                "hurst": float(hurst),
                "mean_estimate": float(vals.mean()),
                "mean_abs_error": mean_abs,
                "within_tol": bool(mean_abs < tol),
            }
        )
    return {
        "tolerance": float(tol),
        "per_hurst": per_hurst,
        "all_within_tol": bool(all(e["within_tol"] for e in per_hurst)),
    }


# ---------------------------------------------------------------------------
# experiment: conjecture-scan

_SCAN_DEFAULTS = {
    "scan.hursts": (0.3, 0.55, 0.7),
    "scan.sizes": (32, 64, 128, 256),
    "scan.k_max": 16,
    "scan.max_size": traces.DEFAULT_SIZE_CAP,
    "tol.growth_factor": 1.5,
}


def _rep_conjecture_scan(params: dict, seed: SeedSpec) -> list[ResultRow]:
    report = traces.conjecture_scan(
        params["scan.hursts"],
        params["scan.sizes"],
        params["scan.k_max"],
        growth_factor=params["tol.growth_factor"],
        max_size=params["scan.max_size"],
    )
    rows = []
    for cell in report.cells:
        n = cell.size
        for k, tr in zip(cell.shifts, cell.traces):
            rows.append(
                ResultRow(
                    experiment="conjecture-scan",
                    replicate=seed.replicate,
                    statistic=f"trace[N={n};k={int(k)}]",
                    value=float(tr),
                    hurst=cell.hurst,
                )
            )
        for k in cell.shifts:
            for l in cell.shifts:
                if l < k:
                    continue  # the pair table is symmetric
                rows.append(
                    ResultRow(
                        experiment="conjecture-scan",
                        replicate=seed.replicate,
                        statistic=f"pair[N={n};k={int(k)};l={int(l)}]",
                        value=float(cell.pair_traces[k, l]),
                        hurst=cell.hurst,
                    )
                )
    return rows


_SCAN_STATISTIC = re.compile(r"(trace|pair)\[N=(\d+);k=(\d+)(?:;l=(\d+))?\]")


def _scan_cells(rows: list[ResultRow]) -> list[traces.ConjectureCell]:
    """The scan's cells, rebuilt in scan order from the first replicate's
    rows (each cell's rows open with its trace at k = 0)."""
    tables = []
    for row in rows:
        if row.replicate != rows[0].replicate:
            continue
        kind, n, k, l = _SCAN_STATISTIC.fullmatch(row.statistic).groups()
        if kind == "trace" and k == "0":
            tables.append((row.hurst, int(n), [], {}))
        _, _, trace_values, pairs = tables[-1]
        if kind == "trace":
            trace_values.append(row.value)
        else:
            pairs[int(k), int(l)] = pairs[int(l), int(k)] = row.value
    return [
        traces.ConjectureCell(
            hurst=hurst,
            size=n,
            shifts=np.arange(len(values)),
            traces=np.array(values),
            pair_traces=np.array(
                [[pairs[k, l] for l in range(len(values))] for k in range(len(values))]
            ),
        )
        for hurst, n, values, pairs in tables
    ]


def _sum_conjecture_scan(params: dict, rows: list[ResultRow]) -> dict:
    report = traces.scan_report(_scan_cells(rows), params["tol.growth_factor"])
    cells = [
        {
            "hurst": float(c.hurst),
            "size": int(c.size),
            "trace_zero": c.trace_zero,
            "max_abs_trace": c.max_abs_trace,
            "max_abs_pair_trace": c.max_abs_pair_trace,
        }
        for c in report.cells
    ]
    return {
        "growth_factor": float(report.growth_factor),
        "cells": cells,
        "counterexamples": list(report.counterexamples),
        "ok": report.ok,
    }


# ---------------------------------------------------------------------------
# experiment: calibration-convergence

_CALIBRATION_DEFAULTS = {
    "model.theta": 1.0,
    "model.sigma": 1.0,
    "model.hurst": 0.7,
    "cal.p": 1.6,
    "cal.delta0": 0.5,
    "cal.levels": 6,
    "grid.horizon": 4.0,
    "tol.ratio": 0.5,
    "tol.slope": 0.2,
}


def _rep_calibration(params: dict, seed: SeedSpec) -> list[ResultRow]:
    diag = convergence_diagnostic(
        FouParams(
            theta=params["model.theta"],
            sigma=params["model.sigma"],
            hurst=params["model.hurst"],
        ),
        seed,
        delta0=params["cal.delta0"],
        n_max=params["cal.levels"],
        horizon=params["grid.horizon"],
        p=params["cal.p"],
    )
    rows = []
    for level in diag.levels:
        common = dict(
            experiment="calibration-convergence",
            replicate=seed.replicate,
            delta=level.delta,
            hurst=params["model.hurst"],
            theta=params["model.theta"],
            sigma=params["model.sigma"],
        )
        rows.append(
            ResultRow(statistic="pvar_distance", value=level.distance, **common)
        )
        rows.append(
            ResultRow(statistic="gradient_gap", value=level.mean_abs_gap, **common)
        )
    return rows


def _sum_calibration(params: dict, rows: list[ResultRow]) -> dict:
    p = params["cal.p"]
    replicates = sorted({r.replicate for r in rows})
    per_seed = []
    for rep in replicates:
        dist = [
            (r.delta, r.value)
            for r in rows
            if r.replicate == rep and r.statistic == "pvar_distance"
        ]
        dist.sort(key=lambda t: -t[0])  # coarse -> fine
        values = [v for _, v in dist]
        per_seed.append(
            {
                "replicate": int(rep),
                "distances": [float(v) for v in values],
                "non_increasing": bool(
                    all(b <= a for a, b in zip(values, values[1:]))
                ),
                "final_over_initial": float(values[-1] / values[0]),
            }
        )
    dist_groups = _group_values(rows, "pvar_distance", lambda r: r.delta)
    gap_groups = _group_values(rows, "gradient_gap", lambda r: r.delta)
    deltas = sorted(gap_groups, reverse=True)
    mean_distances = [float(np.mean(dist_groups[d])) for d in deltas]
    mean_gaps = [float(np.mean(gap_groups[d])) for d in deltas]
    slope = _slope(deltas, mean_gaps)
    target = 1.0 + 1.0 / p
    return {
        "p": float(p),
        "mean_distances": mean_distances,
        "mean_decreasing": bool(
            all(b < a for a, b in zip(mean_distances, mean_distances[1:]))
        ),
        "per_seed": per_seed,
        "all_non_increasing": bool(all(s["non_increasing"] for s in per_seed)),
        "max_final_over_initial": float(
            max(s["final_over_initial"] for s in per_seed)
        ),
        "ratio_tolerance": float(params["tol.ratio"]),
        "all_ratio_ok": bool(
            all(s["final_over_initial"] < params["tol.ratio"] for s in per_seed)
        ),
        "gap_deltas": [float(d) for d in deltas],
        "mean_gaps": mean_gaps,
        "gap_slope": slope,
        "gap_slope_target": target,
        "gap_slope_within_tol": bool(abs(slope - target) <= params["tol.slope"]),
    }


# ---------------------------------------------------------------------------
# experiment: signature-check

_SIGNATURE_DEFAULTS = {
    "sig.dimension": 3,
    "sig.segments": 8,
    "sig.level": 3,
}


def _all_words(dim: int, max_len: int):
    from itertools import product

    for length in range(1, max_len + 1):
        yield from product(range(dim), repeat=length)


def _tensor_rel_gap(a, b) -> float:
    scale = max(1.0, max(float(np.max(np.abs(arr))) for arr in b.data))
    gap = max(
        float(np.max(np.abs(x - y))) for x, y in zip(a.data, b.data)
    )
    return gap / scale


def _rep_signature_check(params: dict, seed: SeedSpec) -> list[ResultRow]:
    dim = params["sig.dimension"]
    segments = params["sig.segments"]
    level = params["sig.level"]
    rng = seed.rng(STREAM_AUX)
    steps = 0.5 * rng.standard_normal((segments, dim))
    samples = np.vstack([np.zeros(dim), np.cumsum(steps, axis=0)])

    sig = pwl_signature(samples, level)
    split = int(rng.integers(1, segments))
    left = pwl_signature(samples, level, 0, split)
    right = pwl_signature(samples, level, split, segments)
    chen = _tensor_rel_gap(tensor_multiply(left, right), sig)

    scale = max(1.0, max(float(np.max(np.abs(arr))) for arr in sig.data))
    shuffle = 0.0
    words = list(_all_words(dim, level - 1))
    for w1 in words:
        for w2 in words:
            if len(w1) + len(w2) > level:
                continue
            shuffle = max(shuffle, abs(shuffle_residual(sig, w1, w2)) / scale)

    common = dict(experiment="signature-check", replicate=seed.replicate)
    return [
        ResultRow(statistic="chen_residual", value=chen, **common),
        ResultRow(statistic="shuffle_residual", value=shuffle, **common),
    ]


def _sum_signature_check(params: dict, rows: list[ResultRow]) -> dict:
    chen = [r.value for r in rows if r.statistic == "chen_residual"]
    shuf = [r.value for r in rows if r.statistic == "shuffle_residual"]
    return {
        "max_chen_residual": float(max(chen)),
        "max_shuffle_residual": float(max(shuf)),
        "all_below_1e_12": bool(max(max(chen), max(shuf)) < 1e-12),
    }


# ---------------------------------------------------------------------------
# experiment: tfe-sweep

_TFE_DEFAULTS = {
    "model.theta": 1.0,
    "model.x0": 1.0,
    "model.hurst": 0.7,
    "model.epsilon_small": 1e-5,
    "grid.delta": 0.01,
    "grid.horizon": 1.0,
    "sweep.schedule_eps": (1e-2, 1e-3, 1e-4),
    "sweep.schedule_eta": (1e-2, 1e-3, 1e-4),
    "sweep.eta_levels": (1e-2, 1e-3, 1e-4),
    "sweep.avg_eps_log2": (-6, -8, -10, -12),
    "search.lo": 0.0,
    "search.hi": 10.0,
    "sim.refine": 4,
    "tol.recovery": 1e-7,
    "tol.sd_spread": 0.25,
    "tol.slope": 0.15,
}


def _tfe_instance(params: dict) -> TfeInstance:
    return TfeInstance(
        theta=params["model.theta"],
        x0=params["model.x0"],
        bounds=(params["search.lo"], params["search.hi"]),
    )


def _rep_tfe_sweep(params: dict, seed: SeedSpec) -> list[ResultRow]:
    theta0 = params["model.theta"]
    x0 = params["model.x0"]
    hurst = params["model.hurst"]
    refine = params["sim.refine"]
    grid = make_grid(params["grid.delta"], params["grid.horizon"])
    instance = _tfe_instance(params)
    schedule = list(zip(params["sweep.schedule_eps"], params["sweep.schedule_eta"]))
    rows = []
    leg = 0

    def _sample(eps, eta):
        nonlocal leg
        s = sample_tfe_system(
            theta0, eta, eps, hurst, grid, seed, x0=x0, refine=refine, stream=3 * leg
        )
        leg += 1
        return s

    for eps, eta in schedule:
        sample = _sample(eps, eta)
        rows.append(
            ResultRow(
                experiment="tfe-sweep",
                replicate=seed.replicate,
                statistic="theta_hat_schedule",
                value=tfe_estimate(sample.slow, instance),
                epsilon=eps,
                eta=eta,
                hurst=hurst,
                theta=theta0,
            )
        )
    eps_small = params["model.epsilon_small"]
    for eta in params["sweep.eta_levels"]:
        sample = _sample(eps_small, eta)
        rows.append(
            ResultRow(
                experiment="tfe-sweep",
                replicate=seed.replicate,
                statistic="theta_hat_fluct",
                value=tfe_estimate(sample.slow, instance),
                epsilon=eps_small,
                eta=eta,
                hurst=hurst,
                theta=theta0,
            )
        )
    for lev in params["sweep.avg_eps_log2"]:
        eps = 2.0**lev
        sample = _sample(eps, 0.0)
        rows.append(
            ResultRow(
                experiment="tfe-sweep",
                replicate=seed.replicate,
                statistic="sup_error",
                value=sup_node_error(sample),
                epsilon=eps,
                eta=0.0,
                hurst=hurst,
                theta=theta0,
            )
        )
    return rows


def _sum_tfe_sweep(params: dict, rows: list[ResultRow]) -> dict:
    theta0 = params["model.theta"]
    grid = make_grid(params["grid.delta"], params["grid.horizon"])
    instance = _tfe_instance(params)

    exact = averaged_trajectory(theta0, params["model.x0"], grid)
    recovery_error = abs(tfe_estimate(exact, instance) - theta0)

    schedule = list(zip(params["sweep.schedule_eps"], params["sweep.schedule_eta"]))
    sched_groups = _group_values(
        rows, "theta_hat_schedule", lambda r: (r.epsilon, r.eta)
    )
    sched_means = [
        float(np.mean(np.abs(np.asarray(sched_groups[pair]) - theta0)))
        for pair in schedule
    ]

    fluct_groups = _group_values(rows, "theta_hat_fluct", lambda r: r.eta)
    etas = sorted(fluct_groups, reverse=True)
    sds = [
        float(np.std((np.asarray(fluct_groups[eta]) - theta0) / math.sqrt(eta), ddof=1))
        for eta in etas
    ]
    spread = max(sds) / min(sds) - 1.0 if min(sds) > 0 else float("inf")

    sup_groups = _group_values(rows, "sup_error", lambda r: r.epsilon)
    eps_list = sorted(sup_groups, reverse=True)
    sup_means = [float(np.mean(sup_groups[e])) for e in eps_list]
    slope = _slope(eps_list, sup_means)

    return {
        "recovery_error": float(recovery_error),
        "recovery_ok": bool(recovery_error < params["tol.recovery"]),
        "schedule": [[float(e), float(t)] for e, t in schedule],
        "schedule_mean_abs_error": sched_means,
        "schedule_decreasing": bool(
            all(b < a for a, b in zip(sched_means, sched_means[1:]))
        ),
        "fluct_etas": [float(e) for e in etas],
        "fluct_normalized_sd": sds,
        "fluct_spread": float(spread),
        "fluct_stable": bool(spread <= params["tol.sd_spread"]),
        "averaging_epsilons": [float(e) for e in eps_list],
        "averaging_mean_sup_error": sup_means,
        "averaging_slope": float(slope),
        "averaging_slope_target": 0.5,
        "averaging_slope_ok": bool(abs(slope - 0.5) <= params["tol.slope"]),
    }


# ---------------------------------------------------------------------------
# registry and runner

@dataclass(frozen=True)
class _Experiment:
    name: str
    defaults: dict
    default_replicates: int
    replicate: Callable[[dict, SeedSpec], list]
    summarize: Callable[[dict, list], dict]


_REGISTRY = {
    e.name: e
    for e in (
        _Experiment("bias-sweep", _BIAS_DEFAULTS, 2000, _rep_bias_sweep, _sum_bias_sweep),
        _Experiment(
            "consistency-rate", _RATE_DEFAULTS, 500, _rep_consistency_rate, _sum_consistency_rate
        ),
        _Experiment("clt", _CLT_DEFAULTS, 2000, _rep_clt, _sum_clt),
        _Experiment(
            "score-consistency", _SCORE_DEFAULTS, 200, _rep_score_consistency, _sum_score_consistency
        ),
        _Experiment(
            "expansion-residual", _EXPANSION_DEFAULTS, 50, _rep_expansion_residual, _sum_expansion_residual
        ),
        _Experiment("hurst-sweep", _HURST_DEFAULTS, 200, _rep_hurst_sweep, _sum_hurst_sweep),
        _Experiment("conjecture-scan", _SCAN_DEFAULTS, 1, _rep_conjecture_scan, _sum_conjecture_scan),
        _Experiment(
            "calibration-convergence", _CALIBRATION_DEFAULTS, 20, _rep_calibration, _sum_calibration
        ),
        _Experiment(
            "signature-check", _SIGNATURE_DEFAULTS, 100, _rep_signature_check, _sum_signature_check
        ),
        _Experiment("tfe-sweep", _TFE_DEFAULTS, 200, _rep_tfe_sweep, _sum_tfe_sweep),
    )
}


def experiment_names() -> list[str]:
    return sorted(_REGISTRY)


def experiment_defaults(name: str) -> dict:
    if name not in _REGISTRY:
        raise ConfigError(f"unknown experiment '{name}'")
    return dict(_REGISTRY[name].defaults)


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    params: dict
    rows: list[ResultRow]
    summary: dict


def _run_replicate(name: str, params: dict, master: int, replicate: int):
    spec = _REGISTRY[name]
    try:
        return spec.replicate(params, SeedSpec(master, replicate))
    except NumericFailure as exc:
        raise NumericFailure(f"experiment '{name}' replicate {replicate}: {exc}") from exc


def run_config(config: ExperimentConfig) -> ExperimentResult:
    if config.experiment not in _REGISTRY:
        raise ConfigError(
            f"unknown experiment '{config.experiment}' "
            f"(choose from: {', '.join(experiment_names())})"
        )
    spec = _REGISTRY[config.experiment]
    params = _resolve_params(config.experiment, spec.defaults, config.params)
    replicates = (
        config.replicates if config.replicates is not None else spec.default_replicates
    )

    rows: list[ResultRow] = []
    if config.threads > 1 and replicates > 1:
        gathered: dict[int, list[ResultRow]] = {}
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            futures = {
                pool.submit(_run_replicate, config.experiment, params, config.seed, r): r
                for r in range(replicates)
            }
            for fut in as_completed(futures):
                gathered[futures[fut]] = fut.result()
        for r in range(replicates):
            rows.extend(gathered[r])
    else:
        for r in range(replicates):
            rows.extend(_run_replicate(config.experiment, params, config.seed, r))

    summary = {
        "experiment": config.experiment,
        "seed": config.seed,
        "replicates": replicates,
        **spec.summarize(params, rows),
    }
    return ExperimentResult(config=config, params=params, rows=rows, summary=summary)


def _strict_json(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_outputs(result: ExperimentResult, out) -> tuple[Path, Path]:
    """CSV table at ``out`` plus a machine-readable JSON summary sidecar.

    The sidecar is strict JSON: a non-finite summary value (a test statistic
    undefined at too few replicates) is written as null."""
    csv_path = Path(out)
    write_csv(result.rows, csv_path)
    json_path = csv_path.with_suffix(".summary.json")
    text = json.dumps(
        _strict_json(result.summary), indent=2, sort_keys=True, allow_nan=False
    )
    json_path.write_text(text + "\n", encoding="utf-8")
    return csv_path, json_path
