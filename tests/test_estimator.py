from __future__ import annotations

import math
import warnings

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
    drift_estimates,
    fractional_hypothesis_note,
    mle_solve,
    mle_solve_batch,
    monotonicity_violations,
    phi_lambda_integral,
    simulate,
    trajectory,
)
from fpp_lab import estimator, point_process

from oracles import newton_lanes_grad_first, newton_lanes_plain, score

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

    @staticmethod
    def worst_closed_form_error(unit_rate) -> float:
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
        return worst

    def test_closed_form_over_many_paths(self, unit_rate):
        assert self.worst_closed_form_error(unit_rate) <= 1e-14

    def test_constant_phi_takes_one_step(self, monkeypatch, unit_rate):
        # for a constant phi the reciprocal score 1/S - 1/integral is affine in theta, so the
        # first step lands on the root and the second only confirms it
        monkeypatch.setattr(estimator, "MAX_NEWTON_STEPS", 2)
        assert self.worst_closed_form_error(unit_rate) <= 1e-14

    def test_exact_root_is_kept(self, unit_rate, frac_phi):
        # on this drift path the iterate 0.45254119004438... has a score of
        # exactly 0.0; stepping on from it used to move the estimate by 2e-10
        perturbed = IntensitySpec.constant(1.0).tilted(1.0, frac_phi)
        path = simulate(perturbed, MarkDistributionSpec.unit(), 1000.0, 75)
        got = mle_solve(path, frac_phi, unit_rate, 50.0)
        assert abs(got - 0.4525411900443826) <= 1e-13 * 0.4525411900443826

    def test_non_convergence_names_replica_and_time(self, monkeypatch, unit_rate, frac_phi):
        monkeypatch.setattr(estimator, "MAX_NEWTON_STEPS", 1)
        drift = IntensitySpec.constant(1.0).tilted(1.0, frac_phi)
        batch = PathBatch.from_path(simulate(drift, MarkDistributionSpec.unit(), 20.0, 9000))
        message = r"replica 0: the drift MLE did not converge at t = 10\.0 within 1 Newton step"
        with pytest.raises(NumericsError, match=message):
            mle_solve_batch(batch, frac_phi, unit_rate, [10.0, 20.0])

    def test_root_residual_and_concavity(self, unit_rate, frac_phi):
        marks = MarkDistributionSpec.unit()
        drift = IntensitySpec.constant(1.0).tilted(1.0, frac_phi)
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


class TestNewtonLanesMatchFrozen:
    def test_drift_consistency_blocks(self, monkeypatch, unit_rate, frac_phi):
        # every lane block of the drift-consistency benchmark run (seed 0), solved with the
        # default step cap and with caps of 1, 3 and 4 steps, which leave lanes unconverged (NaN);
        # the converged lanes agree with the plain Newton steps on the score to its rounding
        solve, cap = estimator._newton_lanes, estimator.MAX_NEWTON_STEPS
        unconverged = {1: 0, 3: 0, 4: 0, cap: 0}
        worst = 0.0

        def checking(pv, n, integral):
            nonlocal worst
            for steps in unconverged:
                monkeypatch.setattr(estimator, "MAX_NEWTON_STEPS", steps)
                got = solve(pv, n, integral)
                assert got.tobytes() == newton_lanes_grad_first(pv, n, integral).tobytes()
                unconverged[steps] += int(np.isnan(got).sum())
            plain = newton_lanes_plain(pv, n, integral)
            worst = max(worst, float(np.max(np.abs(got - plain) / np.maximum(1.0, plain))))
            return got

        monkeypatch.setattr(estimator, "_newton_lanes", checking)
        cfg = ConsistencyConfig(
            intensity=unit_rate,
            theta_true=1.0,
            horizons=tuple(np.linspace(50.0, 1000.0, 10)),
            replicas=1000,
            seed=0,
            marks=MarkDistributionSpec.unit(),
        )
        consistency_experiment(cfg, frac_phi)
        assert unconverged[1] >= unconverged[3] > unconverged[4] > unconverged[cap] == 0
        assert worst <= 1e-14

    def test_boundary_and_empty_lanes(self):
        pv = np.array([0.5, 2.0, 1e-300, 3.0, 0.25])
        n = np.array([0, 2, 1, 0, 2])
        integral = np.array([0.0, 1.0, 1.0, 0.5, 0.25])
        got = estimator._newton_lanes(pv, n, integral)
        assert got.tobytes() == newton_lanes_grad_first(pv, n, integral).tobytes()
        assert np.all(np.abs(got - newton_lanes_plain(pv, n, integral)) <= 1e-14 * np.maximum(1.0, got))
        assert got[[0, 2, 3]].tolist() == [0.0, 0.0, 0.0] and got[1] > 0 and got[4] > 0
        none = estimator._newton_lanes(np.empty(0), np.zeros(3, dtype=int), np.ones(3))
        assert none.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "phi, integral", [(1.0, 1e-300), (1.0, 1e-308), (1.0, 1e-310), (1.0, 0.0), (1e-170, 5e-171)]
    )
    def test_extreme_roots_raise_no_warning(self, phi, integral):
        # one jump: the root 1/integral - 1/phi lies near or past the largest double, and s2
        # underflows to 0 at the first or second iterate; the lane is that root or NaN, silently
        # (plain Newton steps returned inf for the last lane, after divide-by-zero warnings)
        args = np.array([phi]), np.array([1]), np.array([integral])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimator._newton_lanes(*args)
        assert got.tobytes() == newton_lanes_grad_first(*args).tobytes()
        assert np.isnan(got[0]) or got[0] == pytest.approx(1.0 / integral - 1.0 / phi, rel=1e-14)


class TestHugePhiLanes:
    @pytest.mark.parametrize(
        "pv, n, integral, root", [([1e200], [1], [1e199], 9e-200), ([1e160, 1e160], [2], [1e160], 1e-160)]
    )
    def test_roots_of_ordinary_size_are_found(self, pv, n, integral, root):
        # sum phi^2 overflowed, and these lanes came back NaN after overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimator._newton_lanes(np.array(pv), np.array(n), np.array(integral))
        assert got[0] == pytest.approx(root, rel=1e-15)

    def test_scaled_lanes_take_the_unscaled_steps(self):
        # phi near 1e150 puts the first lane's sum past PHI_SUM_MAX before anything
        # overflows: scaling by a power of 2 is exact, so both lanes are the frozen
        # reference's, bit for bit
        pv = np.concatenate([np.linspace(0.5, 2.0, 5) * 1e150, np.linspace(0.5, 2.0, 4)])
        n, integral = np.array([5, 4]), np.array([1.0, 0.5])
        assert pv[:5].sum() > estimator.PHI_SUM_MAX
        got = estimator._newton_lanes(pv, n, integral)
        assert got.tobytes() == newton_lanes_grad_first(pv, n, integral).tobytes()
        assert 0.0 < got[1] and got[0] == pytest.approx(5.0, rel=1e-3)

    def test_a_lane_whose_sum_overflows_is_nan_and_its_neighbours_are_not_scaled(self):
        # [1e308, 1e308] sums to inf, and its root 2 puts theta phi past the largest
        # double; [1e300] has root 1e10 and theta phi = 1e310; the unit lanes beside
        # them must keep their roots, which dividing by a block-wide scale underflows
        pv = np.array([1e308, 1e308, 1.0, 1e300, 1.0])
        n, integral = np.array([2, 1, 1, 1]), np.array([1.0, 0.5, 1e-10, 0.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimator._newton_lanes(pv, n, integral)
        assert np.isnan(got[0]) and np.isnan(got[2])
        assert got[1] == 1.0 and got[3] == 3.0


class TestTrajectory:
    UNIT = MarkDistributionSpec.unit()

    def test_empty_path_identically_zero(self):
        # at rate 2e-9 on [0, 5] replica 0 of stream 0 has no jump
        tiny = IntensitySpec.constant(1e-9)
        assert simulate(tiny.tilted(1.0, PHI_ONE), self.UNIT, 5.0, 0).count == 0
        trace = trajectory(tiny, PHI_ONE, 1.0, self.UNIT, 5.0, np.linspace(0.5, 5.0, 20), 0)
        assert np.all(trace.theta_hat == 0.0)
        assert trace.jump_epochs.size == 0

    def test_nonincreasing_between_jumps(self, unit_rate):
        assert simulate(unit_rate.tilted(1.0, PHI_ONE), self.UNIT, 6.0, 12).count >= 2
        grid = np.linspace(0.5, 6.0, 45)
        trace = trajectory(unit_rate, PHI_ONE, 1.0, self.UNIT, 6.0, grid, 12)
        assert trace.jump_epochs.size >= 2
        assert monotonicity_violations(trace) == 0

    def test_increases_only_at_jump_epochs(self, unit_rate):
        # indicator/constant closed form jumps upward exactly at arrivals; rate 2 under the tilt
        grid = np.linspace(0.25, 10.0, 200)
        trace = trajectory(unit_rate, PHI_ONE, 1.0, self.UNIT, 10.0, grid, 31)
        epochs = set(trace.jump_epochs.tolist())
        assert epochs
        for i in range(1, grid.size):
            if trace.theta_hat[i] > trace.theta_hat[i - 1] + 1e-9:
                assert i in epochs

    def test_grid_validation(self, unit_rate):
        with pytest.raises(ValidationError):
            trajectory(unit_rate, PHI_ONE, 1.0, self.UNIT, 2.0, np.array([0.0, 1.0]), 0)
        with pytest.raises(ValidationError):
            trajectory(unit_rate, PHI_ONE, 1.0, self.UNIT, 2.0, np.array([1.0, 3.0]), 0)

    def test_csv(self, tmp_path, unit_rate):
        assert simulate(unit_rate.tilted(1.0, PHI_ONE), self.UNIT, 2.0, 1).count >= 1
        trace = trajectory(unit_rate, PHI_ONE, 1.0, self.UNIT, 2.0, np.array([0.5, 1.5, 2.0]), 1)
        f = tmp_path / "trace.csv"
        trace.to_csv(f)
        lines = f.read_text().splitlines()
        assert lines[0] == "t,theta_hat,jump_epoch"
        assert len(lines) == 4


class TestDriftEstimates:
    def test_blocks_match_the_one_row_route(self, monkeypatch, frac_phi):
        # blocks of 8 replicas: 20 replicas at rate 0.5 (1 + phi) on [0, 1] span 3 blocks, and
        # some replicas have no jump by t = 0.25 or by t = 1
        monkeypatch.setattr(point_process, "JUMP_BLOCK", 8)
        base, marks = IntensitySpec.constant(0.5), MarkDistributionSpec.exponential(1.3)
        tilted, times = base.tilted(1.0, frac_phi), np.array([0.25, 0.6, 1.0])
        assert len(list(point_process.replica_blocks(20, point_process.expected_jumps(tilted, 1.0)))) >= 2
        theta_hat, jumps = drift_estimates(base, frac_phi, 1.0, marks, 1.0, times, 20, 40)
        assert theta_hat.shape == jumps.shape == (20, 3)
        for i in range(20):
            path = simulate(tilted, marks, 1.0, 40 + i)
            assert jumps[i].tolist() == np.searchsorted(path.jump_times, times, side="right").tolist()
            assert theta_hat[i].tolist() == [mle_solve(path, frac_phi, base, t) for t in times]
        assert (jumps[:, -1] == 0).any() and (jumps[:, -1] > 0).any()
        assert np.all(theta_hat[jumps == 0] == 0.0)

    def test_times_past_the_horizon_are_rejected(self, unit_rate):
        with pytest.raises(ValidationError, match=r"t must lie in \(0, horizon\]"):
            drift_estimates(unit_rate, PHI_ONE, 1.0, MarkDistributionSpec.unit(), 1.0, [0.5, 1.5], 2, 0)


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
            theta_true=1.0,
            horizons=(100.0, 400.0),
            replicas=150,
            seed=2030,
            marks=MarkDistributionSpec.unit(),
        )
        report = consistency_experiment(cfg, PHI_ONE)
        assert report.passed
        for T, rmse in zip(report.horizons, report.rmse):
            analytic = math.sqrt(2.0 / T)  # sqrt(lam (1 + theta) / T)
            assert abs(rmse - analytic) <= 0.3 * analytic

    def test_zero_theta_not_allowed(self, unit_rate):
        with pytest.raises(ValidationError):
            ConsistencyConfig(
                intensity=unit_rate, theta_true=0.0,
                horizons=(10.0, 20.0), replicas=10, seed=1, marks=MarkDistributionSpec.unit(),
            )

    def test_degenerate_zero_jump_replica(self):
        # no replica jumps at rate 2e-9: every estimate is the boundary 0, an error of 1
        cfg = ConsistencyConfig(
            intensity=IntensitySpec.constant(1e-9),
            theta_true=1.0,
            horizons=(0.5, 1.0),
            replicas=5,
            seed=4,
            marks=MarkDistributionSpec.unit(),
        )
        report = consistency_experiment(cfg, PHI_ONE)
        assert report.rmse == report.mae == (1.0, 1.0)
        assert report.passed is False

    def test_zero_jump_replica_estimates_zero(self):
        # rate 0.5 (1 + 1): about a third of the paths on [0, 1] have no jump
        base, marks = IntensitySpec.constant(0.5), MarkDistributionSpec.unit()
        perturbed = IntensitySpec.constant(0.5).tilted(1.0, PHI_ONE)
        first = next(i for i in range(20) if simulate(perturbed, marks, 1.0, 4 + i).count == 0)
        assert first > 0
        theta_hat, jumps = drift_estimates(base, PHI_ONE, 1.0, marks, 1.0, (0.5, 1.0), 20, 4)
        assert theta_hat[first].tolist() == [0.0, 0.0]
        assert jumps[first].tolist() == [0, 0]

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
            theta_true=1.0,
            horizons=(20.0, 60.0),
            replicas=40,
            seed=11,
            marks=MarkDistributionSpec.unit(),
        )
        report = consistency_experiment(cfg, frac_phi)
        assert report.hypothesis_note["phi2_integral_diverges"]
        assert len(report.rmse) == 2
        d = report.to_dict()
        assert d["replicas"] == 40
