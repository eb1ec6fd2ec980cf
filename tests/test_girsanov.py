from __future__ import annotations

import math

import numpy as np
import pytest

from fpp_lab import (
    GirsanovCheckConfig,
    IntensitySpec,
    KernelSpec,
    MarkDistributionSpec,
    MarkedPath,
    NumericsError,
    PhiFunction,
    ShiftFunction,
    ValidationError,
    eval_compensated,
    kernel_shift_lambda_integral,
    log_density,
    log_density_batch,
    phi_fractional,
    simulate,
    simulate_batch,
    verify_equality_in_law,
    verify_tilted_law,
)

from oracles import density, shift_constant, shifted_compensated, witness

TWO_JUMPS = MarkedPath(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 3.0)


class TestLogDensity:
    def test_zero_shift_gives_zero(self, unit_rate):
        h = shift_constant(0.0)
        assert log_density(TWO_JUMPS, h, unit_rate, 3.0) == 0.0
        assert density(TWO_JUMPS, h, unit_rate, 3.0) == 1.0

    def test_direct_arithmetic_example(self, unit_rate):
        # jumps at {1, 2}, h == 1, lambda = 1, t = 3: 2 ln 2 - 3
        h = shift_constant(1.0)
        got = log_density(TWO_JUMPS, h, unit_rate, 3.0)
        assert got == pytest.approx(2.0 * math.log(2.0) - 3.0, rel=1e-12)

    def test_domain_error_when_shift_hits_minus_one(self, unit_rate):
        h = shift_constant(-1.0)
        with pytest.raises(ValidationError):
            log_density(TWO_JUMPS, h, unit_rate, 3.0)

    def test_batch_domain_error_names_replica_and_seed(self):
        # rate 0.3 on [0, 1]: most rows have no jump, and h = -1 fails at any jump
        rate = IntensitySpec.constant(0.3)
        batch = simulate_batch(rate, MarkDistributionSpec.unit(), 1.0, range(18, 38), first_replica=5)
        first = int(np.flatnonzero(batch.counts)[0])
        assert first > 0
        message = rf"replica {5 + first} \(seed {18 + first}\); density undefined"
        with pytest.raises(ValidationError, match=message):
            log_density_batch(batch, shift_constant(-1.0), rate, 1.0)

    def test_density_positive(self, unit_rate):
        h = shift_constant(-0.5)
        assert density(TWO_JUMPS, h, unit_rate, 3.0) > 0.0

    def test_matches_jump_recursion_oracle(self, unit_rate):
        # Doleans SDE solution: R = prod (1 + h(T_j)) * exp(-int h lambda)
        h = ShiftFunction.scaled_phi(0.5, phi_fractional(0.7, 1.0))
        marks = MarkDistributionSpec.unit()
        for i in range(60):
            path = simulate(unit_rate, marks, 5.0, 600 + i)
            r = 1.0
            for tj in path.jump_times:
                r *= 1.0 + h(tj)
            r *= math.exp(-h.lambda_integral(unit_rate, 5.0))
            got = density(path, h, unit_rate, 5.0)
            assert got == pytest.approx(r, rel=1e-12)

    def test_unit_expectation_small_scale(self, unit_rate):
        h = shift_constant(0.5)
        marks = MarkDistributionSpec.unit()
        w = np.array([density(simulate(unit_rate, marks, 5.0, 7000 + i), h, unit_rate, 5.0) for i in range(3000)])
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - 1.0) <= 4.0 * se

    def test_witness_kinds(self, unit_rate):
        closed = ShiftFunction.scaled_phi(0.3, phi_fractional(0.7, 1.0))
        kind, val = witness(closed, unit_rate, 5.0)
        assert kind == "closed_form" and val > 0
        gridded = ShiftFunction.scaled_phi(0.3, PhiFunction.constant(1.0))
        kind, val = witness(gridded, unit_rate, 5.0)
        assert kind == "numeric_check" and val == pytest.approx(0.3 * 5.0)

    def test_witness_rejects_inadmissible_negative_scale(self, unit_rate):
        # unbounded phi with any negative scale crosses h = -1 near the origin
        h = ShiftFunction.scaled_phi(-0.1, phi_fractional(0.7, 1.0))
        with pytest.raises(ValidationError):
            witness(h, unit_rate, 5.0)
        # a bounded phi with mild negative scale stays admissible
        ok = ShiftFunction.scaled_phi(-0.5, PhiFunction.constant(1.0))
        kind, _ = witness(ok, unit_rate, 5.0)
        assert kind == "numeric_check"


class TestShiftedCompensated:
    def test_zero_shift_matches_compensated(self, unit_rate):
        k = KernelSpec.exp_shot_noise(1.0)
        h = shift_constant(0.0)
        a = shifted_compensated(TWO_JUMPS, k, h, unit_rate, 1.0, 2.5)
        b = eval_compensated(TWO_JUMPS, k, unit_rate, 1.0, 2.5)
        assert a == b

    def test_indicator_constant_shift_closed_form(self, unit_rate):
        # N_t - t - c t for the indicator kernel, unit marks, lambda = 1
        k = KernelSpec.indicator()
        c = 0.7
        h = shift_constant(c)
        t = 2.5
        got = shifted_compensated(TWO_JUMPS, k, h, unit_rate, 1.0, t)
        n_t = 2.0
        assert got == pytest.approx(n_t - t - c * t, rel=1e-9)

    def test_calibrated_shift_is_linear_drift(self, unit_rate):
        # m1 int K (theta phi) lambda ds = theta t for the calibrating phi
        H, theta = 0.7, 0.3
        k = KernelSpec.fractional(H)
        h = ShiftFunction.scaled_phi(theta, phi_fractional(H, 1.0))
        for t in (1.0, 2.5, 5.0):
            got = kernel_shift_lambda_integral(k, h, unit_rate, t)
            assert got == pytest.approx(theta * t, rel=1e-6)

    def test_calibrated_shift_within_4_ulp(self, unit_rate):
        k = KernelSpec.fractional(0.7)
        h = ShiftFunction.scaled_phi(0.3, phi_fractional(0.7, 1.0))
        for t in (0.5, 1.0, 2.5, 3.0, 5.0, 1000.0):
            got = kernel_shift_lambda_integral(k, h, unit_rate, t)
            assert abs(got - 0.3 * t) <= 4 * math.ulp(0.3 * t), t


class TestVerifyEqualityInLaw:
    def test_indicator_kernel_rejected(self, unit_rate, unit_marks):
        cfg = GirsanovCheckConfig(
            kernel=KernelSpec.indicator(),
            h=shift_constant(0.1),
            intensity=unit_rate,
            marks=unit_marks,
            eval_times=(1.0, 2.0),
            replicas=10,
            seed=1,
        )
        with pytest.raises(ValidationError):
            verify_equality_in_law(cfg)
        # the intensity tilt (1 + h) lambda is representable only for a
        # constant base intensity
        not_tiltable = GirsanovCheckConfig(
            kernel=KernelSpec.fractional(0.7),
            h=shift_constant(0.1),
            intensity=IntensitySpec.scaled_by_phi(1.0, 0.5, phi_fractional(0.7, 1.0)),
            marks=unit_marks,
            eval_times=(1.0, 2.0),
            replicas=10,
            seed=1,
        )
        with pytest.raises(ValidationError):
            verify_tilted_law(not_tiltable)

    @pytest.mark.parametrize(
        "ks",
        [{"ks_bootstrap": 0}, {"ks_bootstrap": 2.5}, {"ks_level": 0.0}, {"ks_level": 1.5}],
        ids=["bootstrap-0", "bootstrap-2.5", "level-0", "level-1.5"],
    )
    def test_ks_settings_rejected_at_construction(self, unit_rate, unit_marks, frac_kernel, ks):
        # rejected at construction, before any replica is simulated
        with pytest.raises(ValidationError, match="ks_"):
            GirsanovCheckConfig(
                kernel=frac_kernel,
                h=shift_constant(0.1),
                intensity=unit_rate,
                marks=unit_marks,
                eval_times=(1.0, 2.0),
                replicas=10,
                seed=1,
                **ks,
            )

    def test_zero_shift_identical_samples(self, unit_rate, unit_marks, frac_kernel):
        cfg = GirsanovCheckConfig(
            kernel=frac_kernel,
            h=ShiftFunction.scaled_phi(0.0, phi_fractional(0.7, 1.0)),
            intensity=unit_rate,
            marks=unit_marks,
            eval_times=(1.0, 2.0),
            replicas=300,
            seed=5,
            ks_bootstrap=200,
        )
        report = verify_equality_in_law(cfg)
        assert report.passed
        assert report.mean_weight == 1.0
        assert max(abs(d) for d in report.mean_diff) == 0.0
        assert max(report.ks_stat) == 0.0
        assert report.effective_sample_size == pytest.approx(300.0)

    def test_reweighted_moments_follow_the_intensity_tilt(self, unit_rate, unit_marks, frac_kernel):
        # Reweighting tilts the jump intensity to (1 + h) lambda, so the
        # reweighted mean of the compensated process is +m1 int K h lambda
        # (the calibrated shift), and its variance exceeds the base variance.
        cfg = GirsanovCheckConfig(
            kernel=frac_kernel,
            h=ShiftFunction.scaled_phi(0.3, phi_fractional(0.7, 1.0)),
            intensity=unit_rate,
            marks=unit_marks,
            eval_times=(1.0, 2.5),
            replicas=4000,
            seed=21,
            ks_bootstrap=300,
        )
        report = verify_equality_in_law(cfg)
        assert report.effective_sample_size > 2000.0
        for k in range(2):
            assert report.shift[k] == pytest.approx(0.3 * report.eval_times[k], rel=1e-5)
            assert abs(report.mean_weighted[k] - report.shift[k]) <= 4.0 * report.mean_weighted_se[k]
            assert report.var_weighted[k] > report.var_shifted[k]

    def test_detects_the_order_h_law_discrepancy(self, unit_rate, unit_marks, frac_kernel):
        # A deterministic shift moves only the mean while the reweighting
        # tilts every cumulant: for h != 0 the two laws differ (mean gap
        # 2 * shift) and the verifier must say so.
        cfg = GirsanovCheckConfig(
            kernel=frac_kernel,
            h=ShiftFunction.scaled_phi(0.3, phi_fractional(0.7, 1.0)),
            intensity=unit_rate,
            marks=unit_marks,
            eval_times=(1.0, 2.5),
            replicas=4000,
            seed=22,
            ks_bootstrap=300,
        )
        report = verify_equality_in_law(cfg)
        assert not report.passed
        for k in range(2):
            gap = 2.0 * report.shift[k]
            assert report.mean_diff[k] == pytest.approx(gap, abs=6.0 * report.mean_diff_se[k])
            assert abs(report.mean_diff[k]) > 4.0 * report.mean_diff_se[k]

    def test_degenerate_weights_detected(self, unit_rate, unit_marks, frac_kernel):
        # an extreme shift makes a handful of paths dominate the weights
        cfg = GirsanovCheckConfig(
            kernel=frac_kernel,
            h=ShiftFunction.scaled_phi(40.0, phi_fractional(0.7, 1.0)),
            intensity=unit_rate,
            marks=unit_marks,
            eval_times=(1.0, 5.0),
            replicas=150,
            seed=3,
            ks_bootstrap=100,
        )
        with pytest.raises(NumericsError):
            verify_equality_in_law(cfg)
