from __future__ import annotations

import math

import numpy as np
import pytest

from fpp_lab import (
    ConsistencyConfig,
    IntensitySpec,
    MarkDistributionSpec,
    MarkedPath,
    NumericsError,
    PathBatch,
    PhiFunction,
    ValidationError,
    consistency_experiment,
    fractional_hypothesis_note,
    mle_solve,
    mle_solve_batch,
    monotonicity_violations,
    phi_lambda_integral,
    simulate,
    trajectory,
)
from fpp_lab import estimator

from oracles import score

PHI_ONE = PhiFunction.constant(1.0)


def path_with(times, horizon):
    times = np.asarray(times, dtype=float)
    return MarkedPath(times, np.ones(times.size), horizon)


class TestScore:
    def test_no_jumps(self, unit_rate):
        path = MarkedPath(np.empty(0), np.empty(0), 10.0)
        f, fp, fpp = score(path, PHI_ONE, unit_rate, 0.7, 10.0)
        assert f == pytest.approx(-0.7 * 10.0)
        assert fp == pytest.approx(-10.0)
        assert fpp == 0.0

    def test_twelve_jumps_formula(self, unit_rate):
        path = path_with(np.linspace(0.5, 9.5, 12), 10.0)
        for theta in (0.0, 0.3, 1.7):
            _, fp, _ = score(path, PHI_ONE, unit_rate, theta, 10.0)
            assert fp == pytest.approx(12.0 / (1.0 + theta) - 10.0, rel=1e-12)

    def test_concave_everywhere(self, unit_rate):
        rng = np.random.default_rng(42)
        marks = MarkDistributionSpec.unit()
        for i in range(50):
            path = simulate(unit_rate, marks, 10.0, 3000 + i)
            theta = rng.uniform(0.0, 5.0)
            _, _, fpp = score(path, PHI_ONE, unit_rate, theta, 10.0)
            assert fpp <= 0.0

    def test_gradient_matches_finite_differences(self, unit_rate, frac_phi):
        marks = MarkDistributionSpec.unit()
        eps = 1e-5
        for i in range(20):
            path = simulate(unit_rate, marks, 10.0, 5000 + i)
            for theta in (0.2, 1.0, 2.5):
                f_hi, _, _ = score(path, frac_phi, unit_rate, theta + eps, 10.0)
                f_lo, _, _ = score(path, frac_phi, unit_rate, theta - eps, 10.0)
                _, fp, fpp = score(path, frac_phi, unit_rate, theta, 10.0)
                _, fp_hi, _ = score(path, frac_phi, unit_rate, theta + eps, 10.0)
                _, fp_lo, _ = score(path, frac_phi, unit_rate, theta - eps, 10.0)
                fd_fp = (f_hi - f_lo) / (2.0 * eps)
                fd_fpp = (fp_hi - fp_lo) / (2.0 * eps)
                assert fp == pytest.approx(fd_fp, rel=1e-6, abs=1e-9)
                assert fpp == pytest.approx(fd_fpp, rel=1e-6, abs=1e-9)

    def test_negative_theta_rejected(self, unit_rate):
        with pytest.raises(ValidationError):
            score(MarkedPath(np.empty(0), np.empty(0), 1.0), PHI_ONE, unit_rate, -0.1, 1.0)


class TestMleSolve:
    def test_no_jumps_boundary(self, unit_rate):
        assert mle_solve(MarkedPath(np.empty(0), np.empty(0), 5.0), PHI_ONE, unit_rate, 5.0) == 0.0

    def test_closed_form_indicator_case(self, unit_rate):
        # phi == 1/lambda reduces the root equation to theta = max(N_t/t - lambda, 0)
        path = path_with(np.linspace(0.5, 9.9, 12), 10.0)
        got = mle_solve(path, PHI_ONE, unit_rate, 10.0)
        assert got == pytest.approx(0.2, abs=1e-10)

    def test_single_jump_algebra(self):
        # phi(T_1) = 2, int phi lambda = 1: 2/(1+2 theta) = 1 so theta = 1/2
        inten = IntensitySpec.constant(0.5)
        phi = PhiFunction.constant(2.0)
        path = path_with([0.4], 1.0)
        assert mle_solve(path, phi, inten, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_closed_form_over_many_paths(self, unit_rate):
        # phi == 1 under a unit rate: theta-hat = max(N_t / t - 1, 0) exactly
        marks = MarkDistributionSpec.unit()
        cases = [(simulate(unit_rate, marks, 10.0, 8000 + i), 10.0) for i in range(200)]
        # one jump by t = 0.2, so theta-hat = 4; the bracketed solve stopped 1.6e-11 short
        short = simulate(IntensitySpec.constant(0.4), MarkDistributionSpec.exponential(1.3), 2.0, 0)
        cases.append((short, 0.2))
        # roots of 1e6 and 1e12, whose rounding exceeds THETA_TOL; bracketing gave up at 1e12
        cases += [(path_with([0.5 * t], 1.0), t) for t in (1e-6, 1e-12)]
        worst = 0.0
        for path, t in cases:
            got = mle_solve(path, PHI_ONE, unit_rate, t)
            want = max(np.searchsorted(path.jump_times, t, side="right") / t - 1.0, 0.0)
            worst = max(worst, abs(got - want) / max(1.0, want))
        assert worst <= 1e-14

    def test_exact_root_is_kept(self, unit_rate, frac_phi):
        # on this drift path the iterate 0.45254119004438... has a score of
        # exactly 0.0; stepping on from it used to move the estimate by 2e-10
        perturbed = IntensitySpec.scaled_by_phi(1.0, 1.0, frac_phi)
        path = simulate(perturbed, MarkDistributionSpec.unit(), 1000.0, 75)
        got = mle_solve(path, frac_phi, unit_rate, 50.0)
        assert abs(got - 0.4525411900443826) <= 1e-13 * 0.4525411900443826

    def test_non_convergence_names_replica_and_time(self, monkeypatch, unit_rate, frac_phi):
        monkeypatch.setattr(estimator, "MAX_NEWTON_STEPS", 1)
        drift = IntensitySpec.scaled_by_phi(1.0, 1.0, frac_phi)
        batch = PathBatch.from_path(simulate(drift, MarkDistributionSpec.unit(), 20.0, 9000))
        message = r"replica 0: the drift MLE did not converge at t = 10\.0 within 1 Newton step"
        with pytest.raises(NumericsError, match=message):
            mle_solve_batch(batch, frac_phi, unit_rate, [10.0, 20.0])

    def test_root_residual_and_concavity(self, unit_rate, frac_phi):
        marks = MarkDistributionSpec.unit()
        drift = IntensitySpec.scaled_by_phi(1.0, 1.0, frac_phi)
        cases = [(simulate(drift, marks, 20.0, 9000 + i), 20.0) for i in range(50)]
        cases.append((path_with([0.5e-9, 0.9e-9], 1.0), 1e-9))  # a root near 3.2e7
        for path, t in cases:
            theta = mle_solve(path, frac_phi, unit_rate, t)
            f, fp, fpp = score(path, frac_phi, unit_rate, theta, t)
            assert fpp <= 0.0
            if theta > 0.0:
                # root residual of the estimating equation, relative to its sides below 1
                assert abs(fp) <= 1e-8 * min(1.0, phi_lambda_integral(frac_phi, unit_rate, t))
            else:
                assert fp <= 0.0


class TestTrajectory:
    def test_empty_path_identically_zero(self, unit_rate):
        path = MarkedPath(np.empty(0), np.empty(0), 5.0)
        trace = trajectory(path, PHI_ONE, unit_rate, np.linspace(0.5, 5.0, 20))
        assert np.all(trace.theta_hat == 0.0)
        assert trace.jump_epochs.size == 0

    def test_nonincreasing_between_jumps(self, unit_rate):
        path = path_with([1.0, 3.0], 6.0)
        grid = np.linspace(0.5, 6.0, 45)
        trace = trajectory(path, PHI_ONE, unit_rate, grid)
        assert monotonicity_violations(trace) == 0

    def test_increases_only_at_jump_epochs(self, unit_rate):
        # indicator/constant closed form jumps upward exactly at arrivals
        path = simulate(IntensitySpec.constant(2.0), MarkDistributionSpec.unit(), 10.0, 31)
        grid = np.linspace(0.25, 10.0, 200)
        trace = trajectory(path, PHI_ONE, IntensitySpec.constant(1.0), grid)
        epochs = set(trace.jump_epochs.tolist())
        for i in range(1, grid.size):
            if trace.theta_hat[i] > trace.theta_hat[i - 1] + 1e-9:
                assert i in epochs

    def test_grid_validation(self, unit_rate):
        path = path_with([1.0], 2.0)
        with pytest.raises(ValidationError):
            trajectory(path, PHI_ONE, unit_rate, np.array([0.0, 1.0]))
        with pytest.raises(ValidationError):
            trajectory(path, PHI_ONE, unit_rate, np.array([1.0, 3.0]))

    def test_csv(self, tmp_path, unit_rate):
        path = path_with([1.0], 2.0)
        trace = trajectory(path, PHI_ONE, unit_rate, np.array([0.5, 1.5, 2.0]))
        f = tmp_path / "trace.csv"
        trace.to_csv(f)
        lines = f.read_text().splitlines()
        assert lines[0] == "t,theta_hat,jump_epoch"
        assert len(lines) == 4


class TestHypothesisNote:
    def test_exponents(self):
        note = fractional_hypothesis_note(0.7)
        assert note["phi2_growth_exponent"] == pytest.approx(0.6)
        assert note["phi2_integral_diverges"]
        for j, entry in note["ratio_decays"].items():
            assert entry["decays"], f"ratio for j={j} must decay"


class TestConsistency:
    def test_indicator_case_matches_analytic_scale(self, unit_rate):
        cfg = ConsistencyConfig(
            intensity=unit_rate,
            phi=PHI_ONE,
            theta_true=1.0,
            horizons=(100.0, 400.0),
            replicas=150,
            seed=2030,
            rmse_threshold=0.2,
        )
        report = consistency_experiment(cfg)
        assert report.passed
        for T, rmse in zip(report.horizons, report.rmse):
            analytic = math.sqrt(2.0 / T)  # sqrt(lam (1 + theta) / T)
            assert abs(rmse - analytic) <= 0.3 * analytic

    def test_zero_theta_not_allowed(self, unit_rate):
        with pytest.raises(ValidationError):
            ConsistencyConfig(
                intensity=unit_rate, phi=PHI_ONE, theta_true=0.0,
                horizons=(10.0, 20.0), replicas=10, seed=1,
            )

    def test_degenerate_zero_jump_replica(self):
        cfg = ConsistencyConfig(
            intensity=IntensitySpec.constant(1e-9),
            phi=PHI_ONE,
            theta_true=1.0,
            horizons=(0.5, 1.0),
            replicas=5,
            seed=4,
        )
        with pytest.raises(NumericsError):
            consistency_experiment(cfg)

    def test_zero_jump_error_names_replica_and_seed(self):
        # rate 0.5 (1 + 1): about a third of the paths on [0, 1] have no jump
        cfg = ConsistencyConfig(
            intensity=IntensitySpec.constant(0.5),
            phi=PHI_ONE,
            theta_true=1.0,
            horizons=(0.5, 1.0),
            replicas=20,
            seed=4,
        )
        perturbed = IntensitySpec.scaled_by_phi(0.5, 1.0, PHI_ONE)
        first = next(i for i in range(20) if simulate(perturbed, cfg.marks, 1.0, 4 + i).count == 0)
        assert first > 0
        message = rf"^replica {first} \(seed {4 + first}\) produced zero jumps"
        with pytest.raises(NumericsError, match=message):
            consistency_experiment(cfg)

    def test_null_case_concentrates_near_zero(self, unit_rate):
        # theta = 0: paths come from the base measure, and the estimate
        # theta_hat = max(N_T/T - lambda, 0) sits at the Poisson noise scale
        marks = MarkDistributionSpec.unit()
        est = []
        for i in range(101):
            path = simulate(unit_rate, marks, 1000.0, 50_000 + i)
            est.append(mle_solve(path, PHI_ONE, unit_rate, 1000.0))
        assert float(np.median(est)) < 0.05

    def test_report_has_hypothesis_note_for_fractional(self, unit_rate, frac_phi):
        cfg = ConsistencyConfig(
            intensity=unit_rate,
            phi=frac_phi,
            theta_true=1.0,
            horizons=(20.0, 60.0),
            replicas=40,
            seed=11,
            rmse_threshold=1.0,
        )
        report = consistency_experiment(cfg)
        assert report.hypothesis_note["phi2_integral_diverges"]
        assert len(report.rmse) == 2
        d = report.to_dict()
        assert d["replicas"] == 40
