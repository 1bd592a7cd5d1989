"""Acceptance suite: sixteen numbered end-to-end checks of the package's
headline behaviour, one test per criterion.

Each test prints a single ``[criterion NN] PASS/FAIL -- detail`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see all lines) and then asserts.
Statistical checks run the experiment registry at its default replicate counts
with fixed seeds, so every number below is reproducible bit-for-bit.

The full suite takes about 15 seconds on two cores; the heavy Monte Carlo
runs use four worker processes.

Criterion 11 asserts three clauses on twenty seeds: the across-seed mean
rough-path distance strictly decreases at every dyadic refinement, every
seed's final/initial distance ratio is below 0.5, and the mean gradient gap
decays with slope 1 + 1/p within 0.2.  Convergence is a statement about the
distance going to zero, so the monotone clause is on the mean, as criterion 3
does for its rate; single realisations of the long-memory driver may still
rise at a coarse step, and the detail line counts them."""

import time

import numpy as np

from fraclab import (
    FgnCovariance,
    FouParams,
    SamplingGrid,
    SeedSpec,
    Trajectory,
)
from fraclab.calibration import forward_map, inverse_calibration
from fraclab.estimators import expected_bias_h_half, sigma2_hat
from fraclab.experiments import ExperimentConfig, run_config
from fraclab.likelihood import log_likelihood, score
from fraclab.signatures import p_variation_norm, pwl_signature
from fraclab.simulate import sample_approximate_model, sample_fgn
from fraclab.traces import q_moment

from oracles import exhaustive_p_variation, quadrature_signature

THREADS = 4


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _run(experiment: str, *, seed: int = 0, replicates: int | None = None,
         threads: int = THREADS, params: dict | None = None):
    return run_config(
        ExperimentConfig(
            experiment=experiment,
            seed=seed,
            replicates=replicates,
            threads=threads,
            params={k: str(v) for k, v in (params or {}).items()},
        )
    )


def test_01_subsampled_estimator_bias():
    # mean of sigma2_hat on the two-scale model matches 1 + r(e^{-1/r} - 1)
    # at ratios r = eps/delta in {0.1, 1, 10}, H = 1/2, within 3 SE, < 2 min
    t0 = time.perf_counter()
    summary = _run("bias-sweep").summary
    elapsed = time.perf_counter() - t0
    per = summary["per_ratio"]
    analytic = [expected_bias_h_half(1.0, r * 0.005, 0.005) for r in (0.1, 1.0, 10.0)]
    pinned = np.allclose(
        [e["expected"] for e in per], analytic, rtol=1e-12
    ) and np.allclose(analytic, [0.9000045, 0.3678794, 0.0483742], atol=5e-7)
    ok = bool(summary["all_within_3se"]) and pinned and elapsed < 120.0
    detail = (
        "mean sigma2_hat vs 1+r(e^{-1/r}-1): "
        + ", ".join(f"r={e['ratio']:g} z={e['z']:+.2f}" for e in per)
        + f"; runtime {elapsed:.0f}s (< 120s)"
    )
    _report(1, ok, detail)


def test_02_whitened_quadratic_form_is_chi_squared():
    # exact fBM input: Q = N sigma2_hat / sigma^2 has chi^2_N mean and variance
    replicates, count, sigma = 2000, 200, 2.0
    grid = SamplingGrid(delta=0.02, count=count)
    clauses, parts = [], []
    for hurst in (0.3, 0.7):
        cov = FgnCovariance(hurst, grid.delta, count)
        base = SeedSpec(202 if hurst == 0.3 else 707)
        q = np.empty(replicates)
        for r in range(replicates):
            db = sigma * sample_fgn(hurst, grid, base.child(r)).values
            traj = Trajectory(grid, np.concatenate([[0.0], np.cumsum(db)]))
            q[r] = count * sigma2_hat(traj, hurst, cov=cov) / sigma**2
        mean_gap = abs(q.mean() - count)
        mean_tol = 3.0 * np.sqrt(2.0 * count / replicates)
        var_rel = abs(q.var(ddof=1) - 2 * count) / (2 * count)
        clauses.append(mean_gap <= mean_tol and var_rel <= 0.10)
        parts.append(
            f"H={hurst}: |mean-{count}|={mean_gap:.2f} (tol {mean_tol:.2f}), "
            f"var/{2 * count}-1={var_rel:+.3f} (tol 0.10)"
        )
    _report(2, all(clauses), "; ".join(parts))


def test_03_subsampled_estimator_consistency_rate():
    # L2 error decreasing in eps with log-log slope near min{H(1-a), a/2} = 1/4
    summary = _run("consistency-rate").summary
    ok = bool(summary["monotone_decreasing"]) and bool(summary["slope_within_0p15"])
    detail = (
        f"L2 errors monotone={summary['monotone_decreasing']}, "
        f"decay slope {summary['slope']:+.3f} vs target "
        f"{summary['slope_target']:.2f} +/- 0.15"
    )
    _report(3, ok, detail)


def test_04_estimator_fails_without_subsampling():
    # fixed eps = 0.01 while delta -> 0: the mean collapses toward zero
    deltas = (0.01, 0.005, 0.0025, 0.00125)
    means, all_within = [], True
    for delta in deltas:
        summary = _run(
            "bias-sweep",
            replicates=500,
            threads=2,
            params={
                "grid.delta": delta,
                "grid.horizon": 5.0,
                "sweep.ratios": 0.01 / delta,
            },
        ).summary
        entry = summary["per_ratio"][0]
        means.append(entry["mean"])
        all_within = all_within and bool(entry["within_3se"])
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    ok = decreasing and all_within and means[-1] < 0.1
    detail = (
        "mean sigma2_hat at eps=0.01, delta=eps/{1,2,4,8}: "
        + ", ".join(f"{m:.3f}" for m in means)
        + f"; strictly decreasing={decreasing}, final < 0.1, each within 3 SE"
    )
    _report(4, ok, detail)


def test_05_estimator_central_limit_theorem():
    # standardized error is Gaussian with variance 2 sigma^4 / T
    summary = _run("clt").summary
    ok = (
        bool(summary["normal_at_0p01"])
        and bool(summary["variance_within_15pct"])
        and bool(summary["alpha_admissible"])
    )
    detail = (
        f"normality p={summary['normality_p_value']:.3f} (> 0.01), "
        f"variance {summary['variance']:.4f} vs 2 sigma^4/T = "
        f"{summary['variance_target']:.4f} (+/-15%), "
        f"alpha=0.5 admissible={summary['alpha_admissible']}"
    )
    _report(5, ok, detail)


def test_06_hurst_estimator_consistency():
    # second-difference ratio estimator: mean |H_hat - H| < 0.05
    summary = _run("hurst-sweep").summary
    per = summary["per_hurst"]
    ok = bool(summary["all_within_tol"])
    detail = ", ".join(
        f"H={e['hurst']}: mean|H_hat-H|={e['mean_abs_error']:.3f} (< 0.05)"
        for e in per
    )
    _report(6, ok, detail)


def test_07_score_vanishes_at_truth():
    # mean |score| at the generating parameters decreases as delta -> 0
    summary = _run("score-consistency").summary
    ok = bool(summary["all_decreasing"])
    parts = []
    for entry in summary["per_hurst"]:
        parts.append(
            f"H={entry['hurst']}: |d_sigma| {entry['mean_abs_score_sigma'][0]:.3f}"
            f"->{entry['mean_abs_score_sigma'][-1]:.3f}, "
            f"|d_theta| {entry['mean_abs_score_theta'][0]:.3f}"
            f"->{entry['mean_abs_score_theta'][-1]:.3f}"
        )
    _report(7, ok, "; ".join(parts) + " across delta=0.1..0.0125")


def test_08_likelihood_expansion_residual():
    # |ell_delta - ell0/delta - ell1| shrinks linearly in delta
    summary = _run("expansion-residual", replicates=200).summary
    ok = bool(summary["slope_within_0p3"])
    detail = (
        f"log-log residual slope {summary['slope']:+.3f} vs 1 +/- 0.3; "
        "mean |residual| at delta=0.1..0.0125: "
        + ", ".join(f"{m:.2e}" for m in summary["mean_abs_residual"])
    )
    _report(8, ok, detail)


def test_09_analytic_score_matches_finite_differences():
    # analytic (d_theta, d_sigma) vs fourth-order stencil on 100 random triples
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(100):
        hurst = rng.uniform(0.3, 0.8)
        theta = rng.uniform(0.05, 3.0)
        sigma = rng.uniform(0.5, 2.0)
        count = int(rng.integers(30, 80))
        delta = rng.uniform(0.05, 0.2)
        grid = SamplingGrid(delta=delta, count=count)
        params = FouParams(theta=theta, sigma=sigma, hurst=hurst)
        traj = sample_approximate_model(params, grid, SeedSpec(1000 + trial))
        cov = FgnCovariance(hurst, delta, count)
        vec = score(traj, params, cov=cov)

        def stencil(f, x):
            h = 1e-4 * max(1.0, abs(x))
            return (
                8 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))
            ) / (12 * h)

        fd_theta = stencil(
            lambda t: delta
            * log_likelihood(traj, FouParams(theta=t, sigma=sigma, hurst=hurst), cov=cov),
            theta,
        )
        fd_sigma = stencil(
            lambda s: delta
            * log_likelihood(traj, FouParams(theta=theta, sigma=s, hurst=hurst), cov=cov),
            sigma,
        )
        worst = max(
            worst,
            abs(vec.d_theta - fd_theta) / max(1e-12, abs(fd_theta)),
            abs(vec.d_sigma - fd_sigma) / max(1e-12, abs(fd_sigma)),
        )
    _report(9, worst < 1e-6, f"worst relative error {worst:.2e} (< 1e-6)")


def test_10_calibration_round_trip():
    # forward_map after inverse_calibration reproduces the trajectory
    worst = 0.0
    for theta in (0.0, 0.5, 2.0):
        for delta in (1.0, 0.1, 0.01):
            grid = SamplingGrid(delta=delta, count=50)
            rng = np.random.default_rng(17)
            values = np.concatenate([[0.0], np.cumsum(rng.standard_normal(50))])
            traj = Trajectory(grid, values)
            gradients = inverse_calibration(traj, theta, 1.3)
            back = forward_map(values[0], gradients, theta, 1.3)
            rel = np.max(np.abs(back.values - values)) / np.max(np.abs(values))
            worst = max(worst, rel)
    _report(
        10,
        worst < 1e-12,
        f"max relative gap over theta x delta grid {worst:.2e} (< 1e-12)",
    )


def test_11_calibrated_driver_convergence():
    # rough-distance collapse under dyadic refinement, 20 seeds: the mean
    # distance strictly decreases at every step, every seed's final/initial
    # ratio is below 0.5, and the mean gap-decay slope is 1 + 1/p +/- 0.2
    summary = _run("calibration-convergence", threads=1).summary
    bad_seeds = sum(1 for e in summary["per_seed"] if not e["non_increasing"])
    ok = (
        bool(summary["mean_decreasing"])
        and bool(summary["all_ratio_ok"])
        and bool(summary["gap_slope_within_tol"])
    )
    detail = (
        f"mean distance decreasing: {summary['mean_decreasing']} "
        f"({bad_seeds}/20 seeds rise at some step), "
        f"max final/initial {summary['max_final_over_initial']:.3f} (< 0.5), "
        f"gap slope {summary['gap_slope']:+.3f} vs "
        f"{summary['gap_slope_target']:.3f} +/- 0.2"
    )
    _report(11, ok, detail)


def test_12_signature_identities():
    # Chen + shuffle residuals on random paths, quadrature cross-check,
    # p-variation dynamic program vs exhaustive partition enumeration
    summary = _run("signature-check", threads=1).summary
    residuals_ok = bool(summary["all_below_1e_12"])

    rng = np.random.default_rng(3)
    quad_rel = 0.0
    for _ in range(3):
        pts = rng.standard_normal((6, 3))
        sig = pwl_signature(pts, 3)
        oracle = quadrature_signature(pts, 3, refine=20_000)
        scale = max(abs(v) for v in oracle.values())
        for word, value in oracle.items():
            quad_rel = max(quad_rel, abs(sig.coordinate(word) - value) / scale)

    pvar_gap = 0.0
    for n in range(2, 11):
        values = rng.standard_normal(n + 1)
        for p in (1.0, 1.7, 2.3):
            a = p_variation_norm(values, p)
            b = exhaustive_p_variation(values, p)
            pvar_gap = max(pvar_gap, abs(a - b) / max(1.0, b))

    ok = residuals_ok and quad_rel < 1e-6 and pvar_gap < 1e-12
    detail = (
        f"chen residual {summary['max_chen_residual']:.1e}, "
        f"shuffle residual {summary['max_shuffle_residual']:.1e} (< 1e-12); "
        f"quadrature rel {quad_rel:.1e} (< 1e-6); "
        f"p-variation vs exhaustive gap {pvar_gap:.1e} (N <= 10)"
    )
    _report(12, ok, detail)


def test_13_trace_conjecture_scan():
    # identity trace = N, shifted/pair traces bounded across N doublings
    summary = _run("conjecture-scan", threads=1).summary
    cells = summary["cells"]
    identity_rel = max(
        abs(c["trace_zero"] - c["size"]) / c["size"] for c in cells
    )
    ok = (
        bool(summary["ok"])
        and summary["counterexamples"] == []
        and identity_rel < 1e-6
    )
    worst_growth = 0.0
    for hurst in (0.3, 0.55, 0.7):
        row = [c for c in cells if c["hurst"] == hurst]
        row.sort(key=lambda c: c["size"])
        for a, b in zip(row, row[1:]):
            for key in ("max_abs_trace", "max_abs_pair_trace"):
                if a[key] > 1e-8:
                    worst_growth = max(worst_growth, b[key] / a[key])
    detail = (
        f"Tr(A_0)=N to {identity_rel:.1e} relative; "
        f"worst per-doubling growth {worst_growth:.3f} (< {summary['growth_factor']}); "
        f"counterexamples: {len(summary['counterexamples'])}"
    )
    _report(13, ok, detail)


def test_14_wick_moment_identity():
    # E(Q^{k,0} Q^{l,0}) per the three-trace identity: exact at (0,0),
    # matched by Monte Carlo elsewhere
    size = 64
    exact_rel = 0.0
    for hurst in (0.3, 0.7):
        analytic = q_moment(hurst, size, 0, 0).analytic
        expected = size**2 + 2 * size
        exact_rel = max(exact_rel, abs(analytic - expected) / expected)

    rng = np.random.default_rng(1414)
    zs = []
    for i in range(10):
        hurst = (0.3, 0.7)[i % 2]
        k = int(rng.integers(0, 13))
        l = int(rng.integers(0, 13))
        res = q_moment(hurst, size, k, l, samples=10_000, seed=SeedSpec(5000 + i))
        zs.append(abs(res.analytic - res.monte_carlo) / res.std_error)
    ok = exact_rel < 1e-9 and max(zs) < 3.0
    detail = (
        f"(0,0) moment = N^2+2N to {exact_rel:.1e} relative; "
        f"10 random (k,l): max Monte Carlo |z| = {max(zs):.2f} (< 3)"
    )
    _report(14, ok, detail)


def test_15_inverse_covariance_spectral_bound():
    # ||Sigma^{-1}|| / N^{max(1, 2H)} stays bounded; exactly 1/delta at H=1/2
    sizes = (32, 64, 128, 256, 512)
    exact_rel = 0.0
    for n in sizes:
        norm = FgnCovariance(0.5, 1.0 / n, n).inverse_spectral_norm()
        exact_rel = max(exact_rel, abs(norm - n) / n)
    parts, bounded = [], True
    for hurst in (0.3, 0.7):
        ratios = np.array(
            [
                FgnCovariance(hurst, 1.0 / n, n).inverse_spectral_norm()
                / n ** max(1.0, 2 * hurst)
                for n in sizes
            ]
        )
        bounded = bounded and ratios.max() < 2.0 and (
            ratios.max() / ratios.min() < 1.05
        )
        parts.append(f"H={hurst}: ratio in [{ratios.min():.4f}, {ratios.max():.4f}]")
    ok = exact_rel < 1e-12 and bounded
    detail = (
        f"H=0.5 exact 1/delta to {exact_rel:.1e}; "
        + "; ".join(parts)
        + " over N=32..512 (bounded < 2, spread < 5%)"
    )
    _report(15, ok, detail)


def test_16_trajectory_fitting_estimator():
    # exact recovery, schedule convergence, fluctuation scale sqrt(eta),
    # strong-averaging rate 1/2
    summary = _run("tfe-sweep").summary
    ok = (
        bool(summary["recovery_ok"])
        and bool(summary["schedule_decreasing"])
        and bool(summary["fluct_stable"])
        and bool(summary["averaging_slope_ok"])
    )
    detail = (
        f"noiseless recovery error {summary['recovery_error']:.1e} (< 1e-7); "
        "schedule mean |theta_hat-theta|: "
        + ", ".join(f"{m:.3f}" for m in summary["schedule_mean_abs_error"])
        + f"; sd spread {summary['fluct_spread']:.2f} (< 0.25); "
        f"averaging slope {summary['averaging_slope']:+.3f} vs 0.5 +/- 0.15"
    )
    _report(16, ok, detail)
