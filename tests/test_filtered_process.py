from __future__ import annotations

import math

import numpy as np
import pytest

from fpp_lab import (
    IntensitySpec,
    KernelSpec,
    MarkDistributionSpec,
    MarkedPath,
    ShiftFunction,
    ValidationError,
    eval_compensated,
    eval_filtered,
    phi_fractional,
    simulate,
)

from oracles import PathOnGrid, eval_filtered_on_grid, eval_observed, sample_on_grid, shifted_compensated


def small_path():
    return MarkedPath(np.array([0.5, 1.0, 2.5]), np.array([1.0, 2.0, 0.5]), 4.0)


class TestEvalFiltered:
    def test_empty_path_is_zero(self):
        path = MarkedPath(np.empty(0), np.empty(0), 3.0)
        assert eval_filtered(path, KernelSpec.fractional(0.7), 2.0) == 0.0

    def test_indicator_counts_marks(self):
        path = small_path()
        k = KernelSpec.indicator()
        assert eval_filtered(path, k, 0.4) == 0.0
        assert eval_filtered(path, k, 1.0) == 3.0  # jumps at 0.5, 1.0 with marks 1, 2
        assert eval_filtered(path, k, 4.0) == 3.5

    def test_exp_kernel_single_jump(self):
        path = MarkedPath(np.array([1.0]), np.array([2.0]), 5.0)
        got = eval_filtered(path, KernelSpec.exp_shot_noise(1.0), 3.0)
        assert got == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)

    def test_beyond_horizon_rejected(self):
        with pytest.raises(ValidationError):
            eval_filtered(small_path(), KernelSpec.indicator(), 4.5)

    def test_additive_in_superposition(self):
        k = KernelSpec.exp_shot_noise(0.7)
        p1 = MarkedPath(np.array([0.5, 2.0]), np.array([1.0, 1.5]), 4.0)
        p2 = MarkedPath(np.array([1.0, 3.0]), np.array([0.5, 2.0]), 4.0)
        merged_t = np.sort(np.concatenate([p1.jump_times, p2.jump_times]))
        order = np.argsort(np.concatenate([p1.jump_times, p2.jump_times]))
        merged_z = np.concatenate([p1.marks, p2.marks])[order]
        merged = MarkedPath(merged_t, merged_z, 4.0)
        for t in (0.75, 2.2, 4.0):
            assert eval_filtered(merged, k, t) == pytest.approx(
                eval_filtered(p1, k, t) + eval_filtered(p2, k, t), rel=1e-12
            )


class TestGridFastPath:
    def test_exp_recursion_matches_direct_sum(self):
        path = simulate(IntensitySpec.constant(2.0), MarkDistributionSpec.exponential(1.0), 20.0, 5)
        k = KernelSpec.exp_shot_noise(1.3)
        grid = np.linspace(0.1, 20.0, 400)
        fast = eval_filtered_on_grid(path, k, grid)
        direct = np.array([eval_filtered(path, k, t) for t in grid])
        assert np.abs(fast - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())

    def test_indicator_path_jumps_by_marks(self):
        path = small_path()
        k = KernelSpec.indicator()
        eps = 1e-12
        for t, z in zip(path.jump_times, path.marks):
            before = eval_filtered(path, k, t - eps)
            at = eval_filtered(path, k, t)
            assert at - before == pytest.approx(z, abs=1e-9)

    def test_fractional_path_is_continuous_across_jumps(self):
        # max increment over a refining grid through a jump goes to zero;
        # the decay is the Hoelder rate (step)^(H - 1/2), so it is slow
        path = MarkedPath(np.array([1.0]), np.array([1.0]), 2.0)
        k = KernelSpec.fractional(0.7)
        increments = []
        for n in (20, 80, 320, 1280):
            grid = np.linspace(0.8, 1.2, n)
            vals = eval_filtered_on_grid(path, k, grid)
            increments.append(np.abs(np.diff(vals)).max())
        assert increments[0] > increments[1] > increments[2] > increments[3]
        # two refinements by 4 shrink the max increment by about 4^(-2/5)
        assert increments[3] < 0.65 * increments[1]


class TestCompensated:
    def test_zero_at_origin(self, unit_rate, unit_marks):
        path = small_path()
        assert eval_compensated(path, KernelSpec.indicator(), unit_rate, 1.0, 0.0) == 0.0

    def test_indicator_compensation(self, unit_rate):
        # unit marks, lambda = 1: compensated value is N_t - t
        path = MarkedPath(np.array([0.5, 1.0, 2.5]), np.ones(3), 4.0)
        k = KernelSpec.indicator()
        got = eval_compensated(path, k, unit_rate, 1.0, 3.0)
        assert got == pytest.approx(3.0 - 3.0, abs=1e-12)
        assert eval_compensated(path, k, unit_rate, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_martingale_mean_over_replicas(self):
        # E[compensated value at T] = 0 under the simulating measure
        inten = IntensitySpec.constant(1.0)
        marks = MarkDistributionSpec.exponential(1.0)
        k = KernelSpec.exp_shot_noise(1.0)
        T, reps = 5.0, 10_000
        grid = np.array([T])
        shift = marks.mean * (1.0 - math.exp(-T))  # m1 * int K lambda
        vals = np.empty(reps)
        for i in range(reps):
            path = simulate(inten, marks, T, 40_000 + i)
            vals[i] = eval_filtered_on_grid(path, k, grid)[0] - shift
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean()) <= 4.0 * se


class TestObserved:
    def test_theta_zero_equals_compensated(self, unit_rate):
        path = small_path()
        k = KernelSpec.exp_shot_noise(1.0)
        a = eval_observed(path, k, unit_rate, 1.0, 0.0, 2.0)
        b = eval_compensated(path, k, unit_rate, 1.0, 2.0)
        assert a == b

    def test_drift_subtraction(self, unit_rate):
        path = small_path()
        k = KernelSpec.indicator()
        t, theta = 2.0, 1.0
        base = eval_compensated(path, k, unit_rate, 1.0, t)
        assert eval_observed(path, k, unit_rate, 1.0, theta, t) == pytest.approx(base - theta * t)

    def test_matches_shifted_compensated_for_calibrated_h(self, unit_rate):
        # h = theta * phi with phi calibrated: the h-shift equals theta * t
        H, theta = 0.7, 0.6
        k = KernelSpec.fractional(H)
        phi = phi_fractional(H, 1.0)
        h = ShiftFunction.scaled_phi(theta, phi)
        path = simulate(unit_rate, MarkDistributionSpec.unit(), 5.0, 11)
        for t in (1.0, 3.0, 5.0):
            a = eval_observed(path, k, unit_rate, 1.0, theta, t)
            b = shifted_compensated(path, k, h, unit_rate, 1.0, t)
            assert a == pytest.approx(b, abs=2e-6)


class TestSampleOnGrid:
    def test_raw_and_compensated_meta(self, unit_rate):
        path = small_path()
        k = KernelSpec.exp_shot_noise(1.0)
        grid = np.linspace(0.5, 4.0, 8)
        raw = sample_on_grid(path, k, grid)
        assert raw.meta == {"kernel": "exp_shot_noise", "compensated": False, "drift_theta": 0.0}
        comp = sample_on_grid(path, k, grid, intensity=unit_rate, m1=1.0, theta=0.5)
        assert comp.meta["compensated"] is True and comp.meta["drift_theta"] == 0.5
        for i, t in enumerate(grid):
            assert comp.values[i] == pytest.approx(
                eval_observed(path, k, unit_rate, 1.0, 0.5, t), rel=1e-12
            )

    def test_drift_without_intensity_rejected(self):
        with pytest.raises(ValidationError):
            sample_on_grid(small_path(), KernelSpec.indicator(), np.array([1.0]), theta=1.0)


class TestPathOnGrid:
    def test_csv(self, tmp_path):
        pog = PathOnGrid(np.array([0.5, 1.0]), np.array([0.25, -1.0]), {"kind": "test"})
        f = tmp_path / "pog.csv"
        pog.to_csv(f)
        lines = f.read_text().splitlines()
        assert lines[0] == "t,value"
        assert lines[1].startswith("0.5,")

    def test_validation(self):
        with pytest.raises(ValidationError):
            PathOnGrid(np.array([1.0, 0.5]), np.array([0.0, 0.0]))
        with pytest.raises(ValidationError):
            PathOnGrid(np.array([0.5, 1.0]), np.array([np.inf, 0.0]))
