"""Reproducible Monte Carlo experiment driver.

Configs are flat ``key = value`` text with dotted section keys and strict
unknown-key rejection.  Every experiment is a pure function of (config,
master seed): replicate r draws from SeedSpec(master, r), workers gather
deterministically, CSV floats carry 17 significant digits, and summaries
(means, standard errors, slopes, test p-values) go to a JSON sidecar.
The runner splits the replicates into contiguous chunks and calls the
experiment's chunk kernel once per chunk; rows come out replicate-major,
and a NumericFailure names the experiment and a replicate it stopped at.
Eight experiments are lists of cells, one parameter setting each, run by
`_run_cells` in blocks of replicates: the sigma2_hat cells of bias-sweep,
consistency-rate and clt and the fOU cells of score-consistency and
expansion-residual draw and score a block at once, signature-check's one
cell scans and checks a block's paths at once, and the hurst-sweep and
tfe-sweep cells draw one replicate at a time within a block, all bit for
bit as one replicate at a time would.  calibration-convergence and
conjecture-scan run one replicate at a time (`_each_replicate`): each of
their replicates is one library call that returns a structured report.
clt's normality p-value is the D'Agostino-Pearson K^2 test in closed form
(`_normality_p_value`), so no experiment imports scipy's stats subpackage.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import re
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import estimators, traces
from .calibration import convergence_diagnostic
from .grids import (
    STREAM_AUX,
    FouParams,
    MultiscaleParams,
    NumericFailure,
    SamplingGrid,
    SeedSpec,
    make_grid,
)
from .likelihood import FouLikelihood
from .signatures import _multiply_rows, _residuals, _scan, _shuffle_table
from .simulate import (
    _burn_in_grid,
    _embedding_half_size,
    sample_approximate_model,  # noqa: F401  (unused; bench/tracing.py patches it here)
    sample_approximate_paths,
    sample_slow_component,
    sample_slow_paths,
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
    "summary_json",
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
    if value == ():
        raise ConfigError(f"key '{key}' must list at least one value")
    base = key.rsplit(".", 1)[-1]
    seq = value if isinstance(value, tuple) else (value,)
    if base in ("sigma", "delta", "delta0", "horizon", "epsilon", "epsilon_small",
                "p", "growth_factor", "ratio", "ratios", "eta_levels",
                "schedule_eps", "deltas"):
        if any(not v > 0 for v in seq):
            raise ConfigError(f"key '{key}' must be positive, got {value}")
    elif base in ("hurst", "hursts"):
        if any(not 0.0 < v < 1.0 for v in seq):
            raise ConfigError(f"key '{key}' must lie in (0, 1), got {value}")
    elif base in ("theta", "eta", "schedule_eta"):
        if any(v < 0 for v in seq):
            raise ConfigError(f"key '{key}' must be >= 0, got {value}")
    elif base == "segments":
        if any(v < 2 for v in seq):
            raise ConfigError(
                f"key '{key}' must be >= 2: Chen's check splits the path into two "
                f"nonempty halves, got {value}"
            )
    elif base in ("count", "refine", "level", "levels", "k_max", "dimension"):
        if any(v < 1 for v in seq):
            raise ConfigError(f"key '{key}' must be >= 1, got {value}")
    elif base in ("mean_abs_error", "slope", "recovery", "sd_spread"):
        if any(not 0 < v < math.inf for v in seq):
            raise ConfigError(f"key '{key}' must be positive and finite, got {value}")
    elif base in ("eps_log2", "avg_eps_log2"):
        # 2.0**v is then positive and finite
        if any(not -1074 <= v <= 1023 for v in seq):
            raise ConfigError(f"key '{key}' must lie in [-1074, 1023], got {value}")


def _resolve_params(name: str, defaults: dict, raw: dict) -> dict:
    params = dict(defaults)
    for key, value in raw.items():
        if key not in defaults:
            raise ConfigError(f"unknown key '{key}' for experiment '{name}'")
        params[key] = _coerce(key, value, defaults[key])
    for key, value in params.items():
        _check_value(key, value)
    return params


def _slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs); NaN (no rate, so every
    slope flag reads false) below two distinct xs."""
    if len(set(xs)) < 2:
        return math.nan
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


def _decreasing(values, strict: bool = True) -> bool:
    """Whether each value is below the one before it (at most it, if not
    ``strict``)."""
    pairs = zip(values, values[1:])
    return all(b < a for a, b in pairs) if strict else all(b <= a for a, b in pairs)


def _group_values(rows, statistic, key):
    """{key(row): [values in replicate order]} for rows of one statistic."""
    out: dict = {}
    for row in rows:
        if row.statistic == statistic:
            out.setdefault(key(row), []).append(row.value)
    return out


# ---------------------------------------------------------------------------
# cells and the block runner

# Most doubles per array of one block of replicates: a cell's draw holds a
# few arrays of `row_doubles` doubles per row (2m for the sigma2_hat and fOU
# cells, m the embedding half-size of a draw, as the Toeplitz FFT length is
# at most 2m), so this bounds a chunk's transient memory at a few MB whatever
# its replicate count.
_BLOCK_DOUBLES = 2**18


def _block_rows(row_doubles: int) -> int:
    """Replicates per block whose arrays hold `row_doubles` doubles a row."""
    return max(1, _BLOCK_DOUBLES // row_doubles)


@dataclass(frozen=True)
class _Cell:
    """One parameter setting of an experiment: ``draw(seeds)`` gives its
    statistics for a block of replicates as a (len(seeds), len(statistics))
    array, ``row_doubles()`` the doubles a replicate takes in the draw's
    arrays, and ``columns`` the parameter columns of the cell's rows."""

    statistics: tuple
    columns: dict
    row_doubles: Callable[[], int]
    draw: Callable[[list], np.ndarray]


def _run_cells(name: str, master: int, replicates: range, cells) -> list[ResultRow]:
    """Rows of each cell for a chunk of replicates, replicate-major, replicate
    r drawn from SeedSpec(master, r).  A cell is drawn in blocks of
    ``_block_rows(row_doubles())`` replicates.  A failure names the block's
    first replicate (the chunk's first if sizing the blocks fails), which is
    where a replicate-at-a-time loop stops when the failure depends on the
    cell alone."""
    values = []
    for cell in cells:
        with _replicate_context(name, replicates[0]):
            rows = _block_rows(cell.row_doubles())
        part = np.empty((len(replicates), len(cell.statistics)))
        for start in range(0, len(replicates), rows):
            block = replicates[start : start + rows]
            with _replicate_context(name, block[0]):
                part[start : start + rows] = cell.draw([SeedSpec(master, r) for r in block])
        values.append(part.tolist())
    return [
        ResultRow(name, r, statistic, value, **cell.columns)
        for j, r in enumerate(replicates)
        for cell, part in zip(cells, values)
        for statistic, value in zip(cell.statistics, part[j])
    ]


def _embedding_doubles(hurst: float, law, n: int) -> int:
    """2m, m the embedding half-size of a length-n stream."""
    return 2 * _embedding_half_size(hurst, law, n)


# ---------------------------------------------------------------------------
# experiment: bias-sweep

_BIAS_DEFAULTS = {
    "model.sigma": 1.0,
    "model.hurst": 0.5,
    "grid.delta": 0.005,
    "grid.horizon": 10.0,
    "sweep.ratios": (0.1, 1.0, 10.0),
}


def _sigma2_cells(params: dict, cells) -> list[_Cell]:
    """sigma2_hat of the slow component at each (epsilon, delta, alpha) cell
    (alpha None where it does not apply), cell i drawn from stream 3i.  A
    block is drawn and whitened at once (``sample_slow_paths``,
    ``estimators.sigma2_hat_rows``), bit for bit as one replicate at a time."""
    sigma, hurst = params["model.sigma"], params["model.hurst"]
    out = []
    for i, (eps, delta, alpha) in enumerate(cells):
        grid = make_grid(delta, params["grid.horizon"])
        out.append(_Cell(
            ("sigma2_hat",),
            dict(epsilon=eps, delta=delta, alpha=alpha, hurst=hurst, sigma=sigma),
            partial(_embedding_doubles, hurst, eps / grid.delta, grid.count),
            partial(_draw_sigma2, MultiscaleParams(sigma=sigma, hurst=hurst, epsilon=eps),
                    grid, 3 * i),
        ))
    return out


def _draw_sigma2(law: MultiscaleParams, grid: SamplingGrid, stream: int, seeds) -> np.ndarray:
    paths = sample_slow_paths(law, grid, seeds, stream=stream)
    return estimators.sigma2_hat_rows(paths, grid, law.hurst)[:, None]


def _run_bias_sweep(name: str, params: dict, master: int, replicates: range) -> list[ResultRow]:
    delta = params["grid.delta"]
    cells = [(ratio * delta, delta, None) for ratio in params["sweep.ratios"]]
    return _run_cells(name, master, replicates, _sigma2_cells(params, cells))


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
        "strictly_decreasing_in_ratio": _decreasing(means),
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
}


def _run_consistency_rate(
    name: str, params: dict, master: int, replicates: range
) -> list[ResultRow]:
    alpha = params["sweep.alpha"]
    epsilons = [2.0**lev for lev in params["sweep.eps_log2"]]
    cells = [(eps, eps**alpha, alpha) for eps in epsilons]
    return _run_cells(name, master, replicates, _sigma2_cells(params, cells))


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
        "monotone_decreasing": _decreasing(l2),
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
}


def _run_clt(name: str, params: dict, master: int, replicates: range) -> list[ResultRow]:
    eps = params["model.epsilon"]
    alpha = params["sweep.alpha"]
    return _run_cells(name, master, replicates, _sigma2_cells(params, [(eps, eps**alpha, alpha)]))


def _normality_p_value(z: np.ndarray) -> float:
    """p-value of the D'Agostino-Pearson omnibus test, as
    scipy's ``normaltest`` gives it.

    Z_s is D'Agostino's transform of the sample skewness (Biometrika 57,
    1970), Z_k Anscombe and Glynn's of the sample kurtosis (Biometrika 70,
    1983), and K^2 = Z_s^2 + Z_k^2 is chi-squared with two degrees of freedom
    under normality (D'Agostino and Pearson, Biometrika 60, 1973), so
    p = exp(-K^2 / 2).  NaN below 8 values, for a constant sample and when
    any value is non-finite.  At zero sample skewness Z_s = 0; scipy
    substitutes 1 for the standardised skewness there.
    """
    n = z.size
    if n < 8 or not np.isfinite(z).all():
        return math.nan
    mean = z.mean()
    d = z - mean
    d2 = d * d
    m2 = float(d2.mean())
    if m2 <= (np.finfo(float).eps * mean) ** 2:  # constant up to roundoff
        return math.nan
    # skewness: y is sqrt(b1) standardised, W^2 its Johnson S_U shape
    y = float((d2 * d).mean()) / m2**1.5 * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = (3.0 * (n**2 + 27 * n - 70) * (n + 1) * (n + 3)
             / ((n - 2.0) * (n + 5) * (n + 7) * (n + 9)))
    w2 = -1 + math.sqrt(2 * (beta2 - 1))
    alpha = math.sqrt(2.0 / (w2 - 1))
    u = y / alpha  # asinh(u), written as scipy writes it
    z_s = math.log(u + math.sqrt(u * u + 1)) / math.sqrt(0.5 * math.log(w2))
    # kurtosis: x is b2 standardised, A the shape of its Wilson-Hilferty cube root
    b2 = float((d2 * d2).mean()) / m2**2
    x = (b2 - 3.0 * (n - 1) / (n + 1)) / math.sqrt(
        24.0 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1.0) * (n + 3) * (n + 5)))
    sqrt_beta1 = (6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
                  * math.sqrt(6.0 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3))))
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + math.sqrt(1 + 4.0 / sqrt_beta1**2))
    denom = 1 + x * math.sqrt(2 / (a - 4.0))
    if denom == 0:
        return math.nan
    cube = math.copysign(((1 - 2.0 / a) / abs(denom)) ** (1 / 3), denom)
    z_k = (1 - 2 / (9.0 * a) - cube) / math.sqrt(2 / (9.0 * a))
    return math.exp(-(z_s * z_s + z_k * z_k) / 2)


def _sum_clt(params: dict, rows: list[ResultRow]) -> dict:
    sigma = params["model.sigma"]
    hurst = params["model.hurst"]
    eps = params["model.epsilon"]
    alpha = params["sweep.alpha"]
    delta = eps**alpha
    vals = np.asarray([r.value for r in rows if r.statistic == "sigma2_hat"])
    z = (vals - sigma**2) / math.sqrt(delta)
    p_value = _normality_p_value(z)
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


def _fou_cells(params: dict, hursts, statistics: tuple, evaluate: Callable) -> list[_Cell]:
    """The statistics of approximate-model paths at each (hurst, delta) in
    hursts x sweep.deltas, cell k drawn from stream k.  A block is drawn at
    once (``sample_approximate_paths``) and scored by one ``evaluate(lik,
    paths, theta, sigma)``, which gives one array per statistic, one value
    per path."""
    theta, sigma = params["model.theta"], params["model.sigma"]
    cells = [(hurst, delta) for hurst in hursts for delta in params["sweep.deltas"]]
    out = []
    for k, (hurst, delta) in enumerate(cells):
        grid = make_grid(delta, params["grid.horizon"])
        law = FouParams(theta=theta, sigma=sigma, hurst=hurst)
        out.append(_Cell(
            statistics,
            dict(delta=delta, hurst=hurst, theta=theta, sigma=sigma),
            partial(_embedding_doubles, hurst, 0.0, _burn_in_grid(law, grid).count),
            partial(_draw_fou, law, FouLikelihood(hurst, grid), k, evaluate),
        ))
    return out


def _draw_fou(law: FouParams, lik: FouLikelihood, stream: int, evaluate, seeds) -> np.ndarray:
    paths = sample_approximate_paths(law, lik.grid, seeds, stream=stream)
    return np.transpose(evaluate(lik, paths, law.theta, law.sigma))


def _run_score_consistency(
    name: str, params: dict, master: int, replicates: range
) -> list[ResultRow]:
    cells = _fou_cells(
        params, params["sweep.hursts"], ("score_theta", "score_sigma"), FouLikelihood.score_rows
    )
    return _run_cells(name, master, replicates, cells)


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
            decreasing = _decreasing(means)
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


def _abs_residual(lik: FouLikelihood, paths: np.ndarray, theta: float, sigma: float):
    return (np.abs(lik.expansion_rows(paths, theta, sigma)[3]),)


def _run_expansion_residual(
    name: str, params: dict, master: int, replicates: range
) -> list[ResultRow]:
    cells = _fou_cells(params, (params["model.hurst"],), ("abs_residual",), _abs_residual)
    return _run_cells(name, master, replicates, cells)


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
    "tol.mean_abs_error": 0.05,
}


def _run_hurst_sweep(name: str, params: dict, master: int, replicates: range) -> list[ResultRow]:
    """hurst_hat of the slow component on the fine grid (half the step, twice
    the cells) at each sweep.hursts value, cell i drawn from stream 3i."""
    sigma, delta = params["model.sigma"], params["grid.delta"]
    eps = params["model.ratio"] * delta
    fine_grid = SamplingGrid(delta=delta / 2.0, count=2 * params["grid.count"])
    cells = [
        _Cell(
            ("hurst_hat",),
            dict(epsilon=eps, delta=delta, hurst=hurst, sigma=sigma),
            partial(_embedding_doubles, hurst, eps / fine_grid.delta, fine_grid.count),
            partial(_draw_hurst, MultiscaleParams(sigma=sigma, hurst=hurst, epsilon=eps),
                    fine_grid, 3 * i),
        )
        for i, hurst in enumerate(params["sweep.hursts"])
    ]
    return _run_cells(name, master, replicates, cells)


def _draw_hurst(law: MultiscaleParams, grid: SamplingGrid, stream: int, seeds) -> np.ndarray:
    # one path at a time: in blocks, these long paths measured slower
    return np.array([
        [estimators.hurst_hat(sample_slow_component(law, grid, seed, stream=stream))]
        for seed in seeds
    ])


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
    "tol.growth_factor": 1.5,
}


def _rep_conjecture_scan(params: dict, seed: SeedSpec) -> list[ResultRow]:
    report = traces.conjecture_scan(
        params["scan.hursts"],
        params["scan.sizes"],
        params["scan.k_max"],
        growth_factor=params["tol.growth_factor"],
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
    return traces.scan_report(_scan_cells(rows), params["tol.growth_factor"]).summary()


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
                "non_increasing": _decreasing(values, strict=False),
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
        "mean_decreasing": _decreasing(mean_distances),
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


def _run_signature_check(
    name: str, params: dict, master: int, replicates: range
) -> list[ResultRow]:
    """Chen and shuffle residuals of random piecewise-linear paths, one cell
    drawn in blocks (``_signature_residual_rows``)."""
    dim, segments, level = params["sig.dimension"], params["sig.segments"], params["sig.level"]
    cell = _Cell(
        ("chen_residual", "shuffle_residual"),
        {},
        # a row holds its path and one residual per word pair of the table
        lambda: segments * dim + len(_shuffle_table(dim, level).left),
        partial(_signature_residual_rows, params),
    )
    return _run_cells(name, master, replicates, [cell])


def _signature_residual_rows(params: dict, seeds) -> np.ndarray:
    """(chen, shuffle) residuals of each seed's replicate, one row each, bit
    for bit as one replicate at a time.  A replicate draws its steps, then its
    split point, from stream STREAM_AUX.

    The signature S of a replicate's path and its left half over nodes
    [0, split] are two reads of one prefix scan; the right halves are scanned
    together per split value.  chen is max |left x right - S| over all
    entries and shuffle the largest shuffle residual of S, both divided by
    max(1, max |S|)."""
    dim, segments, level = params["sig.dimension"], params["sig.segments"], params["sig.level"]
    steps = np.empty((len(seeds), segments, dim))
    splits = np.empty(len(seeds), dtype=np.intp)
    for row, seed in enumerate(seeds):
        rng = seed.rng(STREAM_AUX)
        steps[row] = 0.5 * rng.standard_normal((segments, dim))
        splits[row] = rng.integers(1, segments)
    # the increments between the path's nodes 0, cumsum(steps)
    increments = np.diff(np.cumsum(steps, axis=1), axis=1, prepend=0.0)
    ones = np.ones(len(seeds))
    scans = _scan(increments, level, np.column_stack((splits, np.full(len(seeds), segments))))
    left = [ones, *(c[:, 0] for c in scans)]
    sig = [ones, *(c[:, 1] for c in scans)]
    right = [ones, *(np.empty_like(c) for c in sig[1:])]
    for split in np.unique(splits):
        rows = splits == split
        take = np.full((np.count_nonzero(rows), 1), segments - split)
        for whole, part in zip(right[1:], _scan(increments[rows, split:], level, take)):
            whole[rows] = part[:, 0]

    def largest(comps):  # max |entry| of each row over all levels
        return np.max([np.abs(c).reshape(len(seeds), -1).max(axis=1) for c in comps], axis=0)

    scale = np.maximum(1.0, largest(sig))
    chen = largest([x - y for x, y in zip(_multiply_rows(left, right), sig)]) / scale
    shuffle = np.max(_residuals(sig, slice(None)) / scale[:, None], axis=1)
    return np.column_stack((chen, shuffle))


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


def _run_tfe_sweep(name: str, params: dict, master: int, replicates: range) -> list[ResultRow]:
    """theta_hat along the (epsilon, eta) schedule and at each fluctuation
    level, then the averaging sup error at each epsilon (eta = 0), leg k
    drawn from stream 3k."""
    hurst, theta0 = params["model.hurst"], params["model.theta"]
    grid = make_grid(params["grid.delta"], params["grid.horizon"])
    instance = _tfe_instance(params)

    def theta_hat(sample):
        return tfe_estimate(sample.slow, instance)

    schedule = zip(params["sweep.schedule_eps"], params["sweep.schedule_eta"])
    legs = (
        [("theta_hat_schedule", eps, eta, theta_hat) for eps, eta in schedule]
        + [("theta_hat_fluct", params["model.epsilon_small"], eta, theta_hat)
           for eta in params["sweep.eta_levels"]]
        + [("sup_error", 2.0**lev, 0.0, sup_node_error) for lev in params["sweep.avg_eps_log2"]]
    )
    cells = [
        _Cell(
            (statistic,),
            dict(epsilon=eps, eta=eta, hurst=hurst, theta=theta0),
            lambda: 2 * grid.count,  # the fast line's normals
            partial(_draw_tfe, params, grid, eps, eta, 3 * leg, score),
        )
        for leg, (statistic, eps, eta, score) in enumerate(legs)
    ]
    return _run_cells(name, master, replicates, cells)


def _draw_tfe(params: dict, grid: SamplingGrid, eps: float, eta: float, stream: int,
              score: Callable, seeds) -> np.ndarray:
    return np.array([
        [score(sample_tfe_system(
            params["model.theta"], eta, eps, params["model.hurst"], grid, seed,
            x0=params["model.x0"], refine=params["sim.refine"], stream=stream,
        ))]
        for seed in seeds
    ])


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
        "schedule_decreasing": _decreasing(sched_means),
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

@contextmanager
def _replicate_context(name: str, replicate: int):
    """Prefix a NumericFailure with the experiment and replicate it stopped."""
    try:
        yield
    except NumericFailure as exc:
        raise NumericFailure(f"experiment '{name}' replicate {replicate}: {exc}") from exc


def _each_replicate(replicate: Callable[[dict, SeedSpec], list]):
    """The chunk kernel of an experiment run one replicate at a time:
    ``replicate(params, SeedSpec(master, r))`` for each r in order."""

    def run(name: str, params: dict, master: int, replicates: range) -> list[ResultRow]:
        rows: list[ResultRow] = []
        for r in replicates:
            with _replicate_context(name, r):
                rows.extend(replicate(params, SeedSpec(master, r)))
        return rows

    return run


@dataclass(frozen=True)
class _Experiment:
    name: str
    defaults: dict
    default_replicates: int
    # rows of a contiguous chunk of replicates, replicate-major:
    # run(name, params, master, replicates)
    run: Callable[[str, dict, int, range], list]
    summarize: Callable[[dict, list], dict]


_REGISTRY = {
    e.name: e
    for e in (
        _Experiment("bias-sweep", _BIAS_DEFAULTS, 2000, _run_bias_sweep, _sum_bias_sweep),
        _Experiment(
            "consistency-rate", _RATE_DEFAULTS, 500, _run_consistency_rate, _sum_consistency_rate
        ),
        _Experiment("clt", _CLT_DEFAULTS, 2000, _run_clt, _sum_clt),
        _Experiment(
            "score-consistency", _SCORE_DEFAULTS, 200,
            _run_score_consistency, _sum_score_consistency,
        ),
        _Experiment(
            "expansion-residual", _EXPANSION_DEFAULTS, 50,
            _run_expansion_residual, _sum_expansion_residual,
        ),
        _Experiment("hurst-sweep", _HURST_DEFAULTS, 200, _run_hurst_sweep, _sum_hurst_sweep),
        _Experiment(
            "conjecture-scan", _SCAN_DEFAULTS, 1,
            _each_replicate(_rep_conjecture_scan), _sum_conjecture_scan,
        ),
        _Experiment(
            "calibration-convergence", _CALIBRATION_DEFAULTS, 20,
            _each_replicate(_rep_calibration), _sum_calibration,
        ),
        _Experiment(
            "signature-check", _SIGNATURE_DEFAULTS, 100,
            _run_signature_check, _sum_signature_check,
        ),
        _Experiment("tfe-sweep", _TFE_DEFAULTS, 200, _run_tfe_sweep, _sum_tfe_sweep),
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


def _run_chunk(name: str, params: dict, master: int, replicates: range) -> list[ResultRow]:
    """Rows of a contiguous run of replicates in order; the first failure raises."""
    return _REGISTRY[name].run(name, params, master, replicates)


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

    job = (config.experiment, params, config.seed)
    if config.threads > 1 and replicates > 1:
        # contiguous chunks, mapped in order: serial row order, and the lowest
        # failing replicate raises, as in the serial loop
        chunks = min(replicates, 4 * config.threads)
        parts = [range(replicates * c // chunks, replicates * (c + 1) // chunks)
                 for c in range(chunks)]
        # forked workers inherit what the parent has cached; pinned, since
        # Python 3.14 makes forkserver the default on Linux
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=min(config.threads, chunks), mp_context=fork) as pool:
            rows = [row for part in pool.map(partial(_run_chunk, *job), parts) for row in part]
    else:
        rows = _run_chunk(*job, range(replicates))

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


def summary_json(summary: dict) -> str:
    """``summary`` as strict JSON text: a non-finite value (a test statistic
    undefined at too few replicates) is written as null."""
    return json.dumps(_strict_json(summary), indent=2, sort_keys=True, allow_nan=False)


def write_outputs(result: ExperimentResult, out) -> tuple[Path, Path]:
    """CSV table at ``out`` plus a machine-readable JSON summary sidecar
    (see :func:`summary_json`)."""
    csv_path = Path(out)
    write_csv(result.rows, csv_path)
    json_path = csv_path.with_suffix(".summary.json")
    json_path.write_text(summary_json(result.summary) + "\n", encoding="utf-8")
    return csv_path, json_path
