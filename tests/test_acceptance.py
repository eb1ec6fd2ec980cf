"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Statistical criteria use fixed seeds, so the whole
suite is deterministic.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fpp_lab import (
    ConsistencyConfig,
    GirsanovCheckConfig,
    IntensitySpec,
    KernelSpec,
    MarkDistributionSpec,
    PhiFunction,
    consistency_experiment,
    kernel_eval,
    log_density,
    log_density_batch,
    mle_solve,
    monotonicity_violations,
    phi_fractional,
    phi_lambda_integral,
    power_grid,
    simulate,
    simulate_replicas,
    solve_phi_volterra,
    trajectory,
    verify_tilted_law,
)
from fpp_lab.cli import main as cli_main
from fpp_lab.special_functions import hyp2f1

from oracles import density, ln_gamma, score, uniform_grid


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_seconds:
        print(f"ACCEPTANCE {number} ({description}): FAIL (runtime {elapsed:.1f}s > {budget_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded runtime budget: {elapsed:.1f}s")
    print(f"ACCEPTANCE {number} ({description}): PASS ({elapsed:.2f}s)")


def test_criterion_1_special_functions(hyp2f1_oracle):
    with criterion(1, "special functions vs quadrature oracle", 1.0):
        worst = 0.0
        for row in hyp2f1_oracle:
            got = hyp2f1(row["a"], row["b"], row["c"], row["z"])
            worst = max(worst, abs(got - row["f"]))
        assert worst <= 1e-8, f"hyp2f1 worst abs error {worst:.2e}"
        assert abs(ln_gamma(1.0) - 0.0) <= 1e-12
        assert abs(ln_gamma(0.5) - math.log(math.sqrt(math.pi))) <= 1e-12 * abs(math.log(math.sqrt(math.pi)))
        assert abs(ln_gamma(5.0) - math.log(24.0)) <= 1e-12 * math.log(24.0)


def test_criterion_2_kernel_identities():
    with criterion(2, "fractional kernel identity and triangularity", 1.0):
        rng = np.random.default_rng(2222)
        # identity against the Gamma * F assembly
        for _ in range(50):
            H = rng.uniform(0.55, 0.95)
            t = rng.uniform(0.2, 5.0)
            s = t * rng.uniform(1e-4, 0.999)
            f = hyp2f1(H - 0.5, 0.5 - H, H + 0.5, 1.0 - t / s)
            assembly = (t - s) ** (H - 0.5) * f / math.exp(ln_gamma(H + 0.5))
            got = kernel_eval(KernelSpec.fractional(H), t, s)
            assert abs(got - assembly) <= 1e-10
        # H -> 1/2 limit
        assert abs(kernel_eval(KernelSpec.fractional(0.5001), 2.0, 1.0) - 1.0) < 5e-3
        # triangularity: exact zeros on 10^4 probes with s > t
        kernels = [KernelSpec.indicator(), KernelSpec.exp_shot_noise(1.0), KernelSpec.fractional(0.7)]
        t = rng.uniform(0.01, 10.0, 10_000)
        s = t * rng.uniform(1.0 + 1e-9, 3.0, 10_000)
        for i in range(10_000):
            assert kernel_eval(kernels[i % 3], t[i], s[i]) == 0.0


def test_criterion_3_phi_oracle_equivalence():
    with criterion(3, "Volterra solver vs closed-form phi", 10.0):
        inten = IntensitySpec.constant(1.0)
        for H in (0.55, 0.6, 0.7, 0.8, 0.9):
            exact = phi_fractional(H, 1.0)
            errs = {}
            for n in (2000, 4000):
                phi = solve_phi_volterra(KernelSpec.fractional(H), inten, 1.0, power_grid(5.0, n))
                sel = phi.nodes >= 0.01  # the span of downstream use
                rel = np.abs(phi.values[sel] - exact(phi.nodes[sel])) / exact(phi.nodes[sel])
                errs[n] = rel.max()
            assert errs[2000] <= 1e-2, f"H={H}: max rel err {errs[2000]:.3e}"
            assert errs[4000] < errs[2000], f"H={H}: no improvement under refinement"
        # exponential-kernel analytic case phi = 1 + s
        phi = solve_phi_volterra(
            KernelSpec.exp_shot_noise(1.0), inten, 1.0, uniform_grid(1e-3, 2.0, 2000)
        )
        exact_vals = 1.0 + phi.nodes
        assert (np.abs(phi.values - exact_vals) / exact_vals).max() <= 1e-6


def test_criterion_4_doleans_unit_expectation():
    with criterion(4, "stochastic exponential has unit mean", 30.0):
        inten = IntensitySpec.constant(1.0)
        marks = MarkDistributionSpec.unit()
        scale, phi = 0.5, phi_fractional(0.7, 1.0)
        T, reps = 5.0, 100_000
        log_weights = np.empty(reps)
        for rows, batch in simulate_replicas(inten, marks, T, reps, 100_000):
            log_weights[rows] = log_density_batch(batch, scale, phi, inten, T)
        scalar = [log_density(simulate(inten, marks, T, 100_000 + i), scale, phi, inten, T) for i in range(1000)]
        assert np.array_equal(log_weights[:1000], scalar)
        w = np.exp(log_weights)
        se = w.std(ddof=1) / math.sqrt(reps)
        assert abs(w.mean() - 1.0) <= 4.0 * se, f"mean weight {w.mean():.5f}, se {se:.5f}"
        # per-path agreement with the jump-by-jump recursion oracle
        for i in range(200):
            path = simulate(inten, marks, T, 100_000 + i)
            r = 1.0
            for tj in path.jump_times:
                r *= 1.0 + scale * phi(tj)
            r *= math.exp(-scale * phi_lambda_integral(phi, inten, T))
            got = density(path, scale, phi, inten, T)
            assert abs(got - r) <= 1e-12 * max(1.0, abs(r))


def test_criterion_5_girsanov_equality_in_law():
    # The density tilts the jump intensity from lambda to (1 + h) lambda, so
    # the reweighted law of the compensated process must equal its law on
    # independent paths simulated directly at the tilted intensity.  For the
    # calibrated phi both samples have the closed-form mean 0.3 t.
    with criterion(5, "equality in law under the change of measure", 120.0):
        cfg = GirsanovCheckConfig(
            kernel=KernelSpec.fractional(0.7),
            scale=0.3,
            intensity=IntensitySpec.constant(1.0),
            marks=MarkDistributionSpec.unit(),
            eval_times=(1.0, 2.5, 5.0),
            replicas=20_000,
            seed=2_024_05,
        )
        report = verify_tilted_law(cfg, phi_fractional(0.7, 1.0))
        assert report.effective_sample_size >= 100.0
        for k in range(3):
            t = report.eval_times[k]
            assert abs(report.mean_weighted[k] - 0.3 * t) <= 4.0 * report.mean_weighted_se[k], (
                f"t={t}: reweighted mean {report.mean_weighted[k]:.4f} vs closed-form "
                f"shift {0.3 * t:.4f}, 4 SE = {4.0 * report.mean_weighted_se[k]:.4f}"
            )
            assert abs(report.mean_diff[k]) <= 4.0 * report.mean_diff_se[k], (
                f"t={report.eval_times[k]}: mean diff {report.mean_diff[k]:+.4f} "
                f"(reweighted vs tilted-intensity sample) vs "
                f"4 SE = {4.0 * report.mean_diff_se[k]:.4f}"
            )
            assert abs(report.var_diff[k]) <= 4.0 * report.var_diff_se[k], (
                f"t={report.eval_times[k]}: variance diff {report.var_diff[k]:+.4f} "
                f"vs 4 SE = {4.0 * report.var_diff_se[k]:.4f}"
            )
            assert report.ks_stat[k] < report.ks_threshold[k], (
                f"t={report.eval_times[k]}: KS {report.ks_stat[k]:.4f} "
                f">= threshold {report.ks_threshold[k]:.4f}"
            )
        assert report.passed


def test_criterion_6_mle_correctness():
    with criterion(6, "closed-form MLE agreement and calculus checks", 60.0):
        inten = IntensitySpec.constant(1.0)
        marks = MarkDistributionSpec.unit()
        phi_one = PhiFunction.constant(1.0)
        t = 10.0
        # closed-form case on 1000 simulated paths
        for i in range(1000):
            path = simulate(inten, marks, t, 300_000 + i)
            got = mle_solve(path, phi_one, inten, t)
            want = max(path.count / t - 1.0, 0.0)
            assert abs(got - want) <= 1e-8
        # estimating-equation residual on interior solutions, fractional phi
        frac = phi_fractional(0.7, 1.0)
        interior = 0
        for i in range(200):
            path = simulate(inten.tilted(1.0, frac), marks, 20.0, 400_000 + i)
            theta = mle_solve(path, frac, inten, 20.0)
            if theta > 0:
                interior += 1
                pv = frac(path.jump_times)
                resid = (pv / (1.0 + theta * pv)).sum() - phi_lambda_integral(frac, inten, 20.0)
                assert abs(resid) <= 1e-8
        assert interior > 150  # the residual check must actually exercise roots
        # concavity on 1000 random probes
        rng = np.random.default_rng(606)
        for i in range(1000):
            path = simulate(inten, marks, t, 500_000 + (i % 100))
            _, _, fpp = score(path, frac, inten, rng.uniform(0.0, 4.0), t)
            assert fpp <= 0.0
        # gradients against central finite differences
        eps = 1e-5
        for i in range(25):
            path = simulate(inten, marks, t, 600_000 + i)
            for theta in (0.3, 1.2):
                f_hi, fp_hi, _ = score(path, frac, inten, theta + eps, t)
                f_lo, fp_lo, _ = score(path, frac, inten, theta - eps, t)
                _, fp, fpp = score(path, frac, inten, theta, t)
                assert fp == pytest.approx((f_hi - f_lo) / (2 * eps), rel=1e-6, abs=1e-10)
                assert fpp == pytest.approx((fp_hi - fp_lo) / (2 * eps), rel=1e-6, abs=1e-10)


def test_criterion_7_trajectory_monotonicity():
    with criterion(7, "between-jumps monotonicity of the estimator", 120.0):
        marks = MarkDistributionSpec.unit()
        base = IntensitySpec.constant(1.0)
        violations = 0
        # 50 indicator-calibration traces: rate 2 under the true measure,
        # expected gap 0.5, grid step 0.025 gives 20 points per gap
        phi_one = PhiFunction.constant(1.0)
        for i in range(50):
            grid = np.linspace(0.025, 25.0, 1000)
            trace = trajectory(base, phi_one, 1.0, marks, 25.0, grid, 700_000 + i)
            violations += monotonicity_violations(trace)
        # 50 fractional traces, theta = 0.5
        frac = phi_fractional(0.7, 1.0)
        for i in range(50):
            grid = np.linspace(0.025, 15.0, 600)
            trace = trajectory(base, frac, 0.5, marks, 15.0, grid, 800_000 + i)
            violations += monotonicity_violations(trace)
        assert violations == 0


def test_criterion_8_consistency():
    with criterion(8, "drift estimator consistency", 300.0):
        base = IntensitySpec.constant(1.0)
        # indicator/constant case: RMSE within 25% of sqrt(lam (1+theta)/T)
        report = consistency_experiment(
            ConsistencyConfig(
                intensity=base,
                theta_true=1.0,
                horizons=(100.0, 1000.0),
                replicas=500,
                seed=900_000,
                marks=MarkDistributionSpec.unit(),
            ),
            PhiFunction.constant(1.0),
        )
        for T, rmse in zip(report.horizons, report.rmse):
            analytic = math.sqrt(2.0 / T)
            assert abs(rmse - analytic) <= 0.25 * analytic, f"T={T}: rmse {rmse:.4f} vs {analytic:.4f}"
        assert report.passed
        # fractional case: strictly decreasing RMSE, final below the frozen threshold
        report = consistency_experiment(
            ConsistencyConfig(
                intensity=base,
                theta_true=1.0,
                horizons=(50.0, 200.0, 1000.0),
                replicas=200,
                seed=910_000,
                marks=MarkDistributionSpec.unit(),
            ),
            phi_fractional(0.7, 1.0),
        )
        assert report.rmse[0] > report.rmse[1] > report.rmse[2]
        assert report.rmse[-1] < 0.15
        assert report.passed
        assert report.hypothesis_note["phi2_integral_diverges"]


def test_criterion_9_reproducibility(tmp_path):
    with criterion(9, "byte-identical artifacts under fixed seeds", 120.0):
        configs = {
            "simulate": {
                "experiment": "simulate",
                "intensity": {"kind": "constant", "base_rate": 2.0},
                "marks": {"kind": "lognormal", "mu": 0.0, "sigma": 0.5},
                "horizon": 30.0,
                "replicas": 3,
                "seed": 11,
            },
            "verify-girsanov": {
                "experiment": "verify-girsanov",
                "kernel": {"kind": "fractional", "H": 0.7},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 3.0,
                "grid": {"start": 1.0, "stop": 3.0, "count": 2},
                "h_spec": {"scale": 0.2, "phi_source": "closed_form"},
                "replicas": 500,
                "seed": 23,
            },
            "solve-phi": {
                "experiment": "solve-phi",
                "kernel": {"kind": "exp_shot_noise", "a": 1.0},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "grid": {"start": 0.001, "stop": 2.0, "count": 300},
                "seed": 7,
            },
        }
        for name, raw in configs.items():
            # rerun the identical config (same output_path) and snapshot the
            # artifact bytes between the runs
            out = tmp_path / name
            cfg_file = tmp_path / f"{name}.json"
            cfg_file.write_text(json.dumps(dict(raw, output_path=str(out))))
            snapshots = []
            for run in (0, 1):
                code = cli_main(["run", str(cfg_file)])
                # verify-girsanov legitimately exits 3 (statistical failure);
                # reproducibility concerns the artifacts, not the verdict
                assert code in (0, 3), f"{name} run {run} exited {code}"
                snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert snapshots[0].keys() == snapshots[1].keys()
            for fname in snapshots[0]:
                assert snapshots[0][fname] == snapshots[1][fname], (
                    f"{name}: {fname} differs between reruns"
                )
