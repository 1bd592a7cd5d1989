"""Command-line interface.

Subcommands: simulate, mle, estimate-sigma, estimate-hurst,
verify-conjecture, signature-check, calibrate, tfe, experiment.
Global flags --seed/--out/--replicates/--threads may appear before or after
the subcommand.  Exit codes: 0 success, 2 configuration error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import estimators, traces
from .calibration import inverse_calibration
from .experiments import (
    ConfigError,
    ExperimentConfig,
    experiment_names,
    format_float,
    load_config,
    run_config,
    summary_json,
    write_csv,
    write_outputs,
)
from .grids import (
    FouParams,
    MultiscaleParams,
    NumericFailure,
    SamplingGrid,
    SeedSpec,
    Trajectory,
    make_grid,
)
from .likelihood import profile_mle
from .simulate import (
    sample_approximate_model,
    sample_fgn,
    sample_physical_fbm,
    sample_slow_component,
    sample_stationary_fou,
    sample_tfe_system,
)
from .tfe import TfeInstance, tfe_estimate

_MODELS = ("fbm", "fou", "physical-fbm", "tfe", "approximate")


# ---------------------------------------------------------------------------
# trajectory files: two-column CSV (time,value)

def _write_series(times, values, out) -> None:
    """time,value rows: CRLF-terminated CSV at ``out``, else LF lines on stdout."""
    rows = [("time", "value")] + [(format_float(t), format_float(v)) for t, v in zip(times, values)]
    if out:
        with Path(out).open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        for t, v in rows:
            print(f"{t},{v}")


def _read_trajectory(path) -> Trajectory:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["time", "value"]:
                raise ConfigError(
                    f"{path}: expected header 'time,value', got {header}"
                )
            times, values = [], []
            for rec in reader:
                if len(rec) != 2:
                    raise ConfigError(f"{path}: malformed row {rec}")
                times.append(float(rec[0]))
                values.append(float(rec[1]))
                if not (math.isfinite(times[-1]) and math.isfinite(values[-1])):
                    raise ConfigError(
                        f"{path}: non-finite cell on line {reader.line_num}: {rec}"
                    )
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory {path}: {exc}") from exc
    if len(times) < 2:
        raise ConfigError(f"{path}: need at least two nodes")
    diffs = np.diff(times)
    delta = float(diffs.mean())
    # 1e-9 of a step, plus the rounding of written node times fl(k delta):
    # each step, and so their mean, lies within an ulp of the last time of
    # delta.  Written so that NaN fails it: finite times can still overflow
    # a step
    slack = 1e-9 * delta + 2.0 * np.spacing(max(abs(times[0]), abs(times[-1])))
    if not (delta > 0 and np.max(np.abs(diffs - delta)) <= slack):
        raise ConfigError(f"{path}: time column is not a uniform grid")
    grid = SamplingGrid(delta=delta, count=len(times) - 1)
    return Trajectory(grid=grid, values=np.asarray(values))


def _emit_json(payload: dict, out) -> None:
    text = summary_json(payload)
    print(text)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer list {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers

def _seed_value(args) -> int:
    return 0 if args.seed is None else args.seed


def _grid_from_args(args) -> SamplingGrid:
    if args.count is not None:
        if args.count < 1:
            raise ConfigError(f"--count must be >= 1, got {args.count}")
        return SamplingGrid(delta=args.delta, count=args.count)
    return make_grid(args.delta, args.horizon)


def _cmd_simulate(args) -> int:
    grid = _grid_from_args(args)
    seed = SeedSpec(_seed_value(args))
    if args.model == "fbm":
        db = sample_fgn(args.hurst, grid, seed).values
        values = args.sigma * np.concatenate([[0.0], np.cumsum(db)])
        trajectory = Trajectory(grid, values)
    elif args.model == "fou":
        trajectory = sample_stationary_fou(args.lam, args.beta, args.hurst, grid, seed)
    elif args.model == "physical-fbm":
        params = MultiscaleParams(sigma=args.sigma, hurst=args.hurst, epsilon=args.epsilon)
        if args.component == "slow":
            trajectory = sample_slow_component(params, grid, seed)
        else:
            sample = sample_physical_fbm(params, grid, seed)
            trajectory = {"fast": sample.fast, "driver": sample.driver}[args.component]
    elif args.model == "tfe":
        sample = sample_tfe_system(
            args.theta, args.eta, args.epsilon, args.hurst, grid, seed,
            x0=args.x0, refine=args.refine, max_substeps=args.max_substeps or None,
        )
        trajectory = {"slow": sample.slow, "fast": sample.fast}[args.component]
    elif args.model == "approximate":
        trajectory = sample_approximate_model(
            FouParams(theta=args.theta, sigma=args.sigma, hurst=args.hurst), grid, seed
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown model {args.model}")

    _write_series(trajectory.grid.nodes, trajectory.values, args.out)
    return 0


def _cmd_mle(args) -> int:
    trajectory = _read_trajectory(args.data)
    result = profile_mle(
        trajectory, args.hurst, theta_bounds=(args.theta_lo, args.theta_hi)
    )
    _emit_json(
        {
            "theta_hat": result.theta_hat,
            "sigma_hat": result.sigma_hat,
            "sigma2_hat": result.sigma2_hat,
            "loglik": result.loglik,
            "hurst": args.hurst,
            "delta": trajectory.grid.delta,
            "count": trajectory.grid.count,
        },
        args.out,
    )
    return 0


def _cmd_estimate_sigma(args) -> int:
    trajectory = _read_trajectory(args.data)
    value = estimators.sigma2_hat(trajectory, args.hurst)
    _emit_json(
        {
            "sigma2_hat": value,
            "hurst": args.hurst,
            "delta": trajectory.grid.delta,
            "count": trajectory.grid.count,
        },
        args.out,
    )
    return 0


def _cmd_estimate_hurst(args) -> int:
    trajectory = _read_trajectory(args.data)
    value = estimators.hurst_hat(trajectory)
    _emit_json(
        {
            "hurst_hat": value,
            "fine_delta": trajectory.grid.delta,
            "fine_count": trajectory.grid.count,
        },
        args.out,
    )
    return 0


def _cmd_calibrate(args) -> int:
    trajectory = _read_trajectory(args.data)
    gradients = inverse_calibration(trajectory, args.theta, args.sigma)
    delta = trajectory.grid.delta
    times = [(k + 1) * delta for k in range(len(gradients.values))]
    _write_series(times, gradients.values, args.out)
    return 0


def _cmd_verify_conjecture(args) -> int:
    report = traces.conjecture_scan(
        _floats(args.hursts),
        _ints(args.sizes),
        args.k_max,
        growth_factor=args.growth_factor,
    )
    _emit_json(report.summary(), args.out)
    return 0


def _cmd_signature_check(args) -> int:
    config = ExperimentConfig(
        experiment="signature-check",
        seed=_seed_value(args),
        replicates=args.replicates,
        threads=1 if args.threads is None else args.threads,
    )
    result = run_config(config)
    if args.out:
        write_outputs(result, args.out)
    print(summary_json(result.summary))
    return 0


def _cmd_tfe(args) -> int:
    trajectory = _read_trajectory(args.data)
    instance = TfeInstance(
        theta=args.theta0,
        x0=float(trajectory.values[0]),
        bounds=(args.theta_lo, args.theta_hi),
    )
    theta_hat = tfe_estimate(trajectory, instance)
    payload = {
        "theta_hat": theta_hat,
        "theta_ref": args.theta0,
        "abs_error": abs(theta_hat - args.theta0),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.out is not None:
        overrides["out"] = args.out
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    result = run_config(config)
    if config.out:
        csv_path, json_path = write_outputs(result, config.out)
        print(f"wrote {csv_path} and {json_path}", file=sys.stderr)
    print(summary_json(result.summary))
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_global_flags(parser, suppress: bool) -> None:
    # Root flags default to None (= unset); subcommand copies use SUPPRESS so
    # they only overwrite the root value when given explicitly.  This lets the
    # four global flags appear on either side of the subcommand name.
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int, default=default,
                        help="master seed (default 0)")
    parser.add_argument("--out", default=default, help="output path")
    parser.add_argument("--replicates", type=int, default=default,
                        help="replicate count override")
    parser.add_argument("--threads", type=int, default=default,
                        help="worker processes (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="Simulation, calibration and estimation toolkit for "
        "fractional diffusions.",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        sp = sub.add_parser(name, help=help_text)
        _add_global_flags(sp, suppress=True)
        sp.set_defaults(func=func)
        return sp

    sp = command("simulate", _cmd_simulate, "sample one trajectory to CSV")
    sp.add_argument("--model", choices=_MODELS, required=True)
    sp.add_argument("--delta", type=float, required=True, help="observation step")
    sp.add_argument("--horizon", type=float, default=1.0, help="time horizon")
    sp.add_argument("--count", type=int, default=None, help="cell count (overrides --horizon)")
    sp.add_argument("--hurst", type=float, default=0.7)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--theta", type=float, default=1.0)
    sp.add_argument("--epsilon", type=float, default=0.01)
    sp.add_argument("--eta", type=float, default=0.0)
    sp.add_argument("--lam", type=float, default=1.0, help="fou mean reversion")
    sp.add_argument("--beta", type=float, default=1.0, help="fou noise scale")
    sp.add_argument("--x0", type=float, default=1.0)
    sp.add_argument("--refine", type=int, default=16, help="tfe: least sub-steps per cell")
    sp.add_argument("--max-substeps", type=int, default=0, help="tfe: sub-step cap, 0 = none")
    sp.add_argument("--component", choices=("slow", "fast", "driver"), default="slow")

    sp = command("mle", _cmd_mle, "profile maximum likelihood fit")
    sp.add_argument("--data", required=True, help="trajectory CSV (time,value)")
    sp.add_argument("--hurst", type=float, required=True)
    sp.add_argument("--theta-lo", type=float, default=0.0)
    sp.add_argument("--theta-hi", type=float, default=10.0)

    sp = command("estimate-sigma", _cmd_estimate_sigma, "whitened variance estimator")
    sp.add_argument("--data", required=True)
    sp.add_argument("--hurst", type=float, required=True)

    sp = command("estimate-hurst", _cmd_estimate_hurst,
                 "second-difference ratio estimator (data at half the target step)")
    sp.add_argument("--data", required=True)

    sp = command("verify-conjecture", _cmd_verify_conjecture,
                 "trace-boundedness scan over (hurst, size)")
    sp.add_argument("--hursts", default="0.3,0.55,0.7")
    sp.add_argument("--sizes", default="32,64,128,256",
                    help="sizes N >= 2; the largest cell solves (min(N, 2 k_max + 1)"
                         f" + k_max) N <= {traces.SOLVE_CAP} entries")
    sp.add_argument("--k-max", type=int, default=16,
                    help="largest shift, capped at each N; the pair table takes (k_max"
                         f" + 1)^2 min(N, 2 k_max + 1)^2 <= {traces.PAIR_CAP} multiply-adds")
    sp.add_argument("--growth-factor", type=float, default=1.5)

    command("signature-check", _cmd_signature_check,
            "Chen/shuffle residuals on random piecewise-linear paths")

    sp = command("calibrate", _cmd_calibrate, "inverse calibration gradients")
    sp.add_argument("--data", required=True)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--sigma", type=float, required=True)

    sp = command("tfe", _cmd_tfe, "trajectory fitting estimate of the drift")
    sp.add_argument("--data", required=True)
    sp.add_argument("--theta0", type=float, default=1.0,
                    help="reference drift for error reporting")
    sp.add_argument("--theta-lo", type=float, default=0.0)
    sp.add_argument("--theta-hi", type=float, default=10.0)

    sp = command("experiment", _cmd_experiment, "run a config-driven experiment")
    sp.add_argument("config", help="flat key=value config file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in ("seed", "out", "replicates", "threads"):
        if not hasattr(args, name):
            setattr(args, name, None)
    try:
        return args.func(args)
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
