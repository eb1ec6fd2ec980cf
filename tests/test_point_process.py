from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fpp_lab import (
    IntensitySpec,
    MarkDistributionSpec,
    MarkedPath,
    PhiFunction,
    ValidationError,
    integrated_intensity,
    phi_fractional,
    simulate,
)
from fpp_lab import point_process
from fpp_lab.point_process import POISSON_MULT_MAX, _small_mean_draws, _thinning_majorant

from oracles import path_from_csv


class TestMarkDistribution:
    def test_means_are_analytic(self):
        assert MarkDistributionSpec.unit().mean == 1.0
        assert MarkDistributionSpec.exponential(2.5).mean == 2.5
        ln = MarkDistributionSpec.lognormal(0.3, 0.8)
        assert ln.mean == pytest.approx(math.exp(0.3 + 0.32), rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            MarkDistributionSpec.exponential(-1.0)
        with pytest.raises(ValidationError):
            MarkDistributionSpec(kind="weibull", mean=1.0)

    @pytest.mark.parametrize(
        "spec",
        [
            MarkDistributionSpec.unit(),
            MarkDistributionSpec.exponential(1.7),
            MarkDistributionSpec.lognormal(0.2, 0.6),
        ],
        ids=["unit", "exponential", "lognormal"],
    )
    def test_empirical_mean_within_4_sigma(self, spec):
        rng = np.random.default_rng(2024)
        draws = spec.sample(rng, 100_000)
        assert np.all(draws > 0)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - spec.mean) <= 4.0 * max(se, 1e-12)


class TestMarkedPath:
    def test_validation(self):
        with pytest.raises(ValidationError):
            MarkedPath(np.array([2.0, 1.0]), np.array([1.0, 1.0]), 5.0)  # not increasing
        with pytest.raises(ValidationError):
            MarkedPath(np.array([1.0]), np.array([-1.0]), 5.0)  # negative mark
        with pytest.raises(ValidationError):
            MarkedPath(np.array([6.0]), np.array([1.0]), 5.0)  # beyond horizon

    def test_csv_round_trip(self, tmp_path):
        for path in (
            MarkedPath(np.array([0.5, 1.25]), np.array([2.0, 0.125]), 3.0),
            MarkedPath(np.empty(0), np.empty(0), 3.0),  # zero jumps: header only
        ):
            f = tmp_path / "p.csv"
            path.to_csv(f)
            again = path_from_csv(f, horizon=3.0)
            np.testing.assert_array_equal(path.jump_times, again.jump_times)
            np.testing.assert_array_equal(path.marks, again.marks)

    def test_csv_header_checked(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("x,y\n1,2\n")
        with pytest.raises(ValidationError):
            path_from_csv(f, horizon=3.0)


class TestSimulate:
    def test_vanishing_rate_empty_and_deterministic(self):
        inten = IntensitySpec.constant(1e-9)
        marks = MarkDistributionSpec.unit()
        p1 = simulate(inten, marks, 1.0, 7)
        p2 = simulate(inten, marks, 1.0, 7)
        assert p1.count == 0
        np.testing.assert_array_equal(p1.jump_times, p2.jump_times)

    def test_determinism_byte_for_byte(self, tmp_path):
        inten = IntensitySpec.constant(2.0)
        marks = MarkDistributionSpec.lognormal(0.0, 0.5)
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        simulate(inten, marks, 50.0, 123).to_csv(f1)
        simulate(inten, marks, 50.0, 123).to_csv(f2)
        assert f1.read_bytes() == f2.read_bytes()
        # a different seed must give a different path
        simulate(inten, marks, 50.0, 124).to_csv(f2)
        assert f1.read_bytes() != f2.read_bytes()

    def test_constant_rate_within_3_sigma(self):
        path = simulate(IntensitySpec.constant(2.0), MarkDistributionSpec.unit(), 1000.0, 42)
        rate = path.count / 1000.0
        assert abs(rate - 2.0) <= 3.0 * math.sqrt(2.0 / 1000.0)

    def test_scaled_by_constant_phi_rate(self):
        # lambda (1 + theta phi) with phi == 1, theta = 1 doubles the rate
        inten = IntensitySpec.constant(1.0).tilted(1.0, PhiFunction.constant(1.0))
        path = simulate(inten, MarkDistributionSpec.unit(), 1000.0, 99)
        assert abs(path.count / 1000.0 - 2.0) <= 3.0 * math.sqrt(2.0 / 1000.0)

    def test_scaled_by_fractional_phi_count(self):
        # expected count = lam T + theta C T^(3/2-H)/(3/2-H), Poisson fluctuation scale
        H, lam, theta, T = 0.7, 1.0, 1.0, 500.0
        phi = phi_fractional(H, lam)
        inten = IntensitySpec.constant(lam).tilted(theta, phi)
        path = simulate(inten, MarkDistributionSpec.unit(), T, 4321)
        expected = lam * T + theta * phi.coefficient * T ** (1.5 - H) / (1.5 - H)
        assert abs(path.count - expected) <= 4.0 * math.sqrt(expected)

    def test_majorant_built_once_per_intensity_and_horizon(self, monkeypatch):
        calls = []
        max_rate_on = IntensitySpec.max_rate_on

        def counting(spec, a, b):
            calls.append((a, b))
            return max_rate_on(spec, a, b)

        monkeypatch.setattr(IntensitySpec, "max_rate_on", counting)
        inten = IntensitySpec.constant(1.0).tilted(0.5, phi_fractional(0.7, 1.0))
        marks = MarkDistributionSpec.unit()
        simulate(inten, marks, 5.0, 0)
        segments = len(calls)
        assert segments > 1
        for seed in range(1, 50):
            simulate(inten, marks, 5.0, seed)
        assert len(calls) == segments

    def test_thinning_counts_pass_chi_square(self):
        # N_T ~ Poisson(lam T); chi-square GOF at the 1% level over 10^4 replicas
        lam, T, reps = 2.0, 2.0, 10_000
        inten = IntensitySpec.constant(lam)
        marks = MarkDistributionSpec.unit()
        counts = np.array([simulate(inten, marks, T, 10_000 + i).count for i in range(reps)])
        mean = lam * T
        kmax = int(stats.poisson.ppf(0.9999, mean)) + 1
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1).astype(float)
        expected = stats.poisson.pmf(np.arange(kmax + 1), mean) * reps
        expected[kmax] = reps - expected[:kmax].sum()  # fold the tail
        keep = expected >= 5.0
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.01

    def test_invalid_horizon(self):
        with pytest.raises(ValidationError):
            simulate(IntensitySpec.constant(1.0), MarkDistributionSpec.unit(), 0.0, 1)


def per_segment_draws(rng, means):
    """(segment, count, uniforms) from one `poisson` and one `random(2 n)` call per segment."""
    drawn = []
    for k, mean in enumerate(means):
        n = rng.poisson(mean)
        if n:
            drawn.append((k, n, rng.random(2 * n)))
    return drawn


class TestSmallMeanDraws:
    """The one-block replay of numpy's multiplication method is pinned to the per-segment stream.

    This depends on numpy internals: `Generator.poisson` below mean 10
    multiplies uniforms from the generator's `next_double` until the product
    is no longer above exp(-mean), and `Generator.random` takes its uniforms
    from the same `next_double`.
    """

    def assert_same_stream(self, means, seed, block):
        floors = tuple(math.exp(-m) for m in means)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _small_mean_draws(rng, floors, block)
        want = per_segment_draws(ref, means)
        assert [(k, n) for k, n, _ in got] == [(k, n) for k, n, _ in want]
        for (_, n, u), (_, _, v) in zip(got, want):
            assert u.tobytes() == v.tobytes()  # the n times, then the n acceptance draws
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("mean", [1e-300, 1e-9, 0.5, 9.999999])
    def test_constant_means(self, mean):
        for length in range(2, 61):
            for seed in range(3):
                self.assert_same_stream([mean] * length, 1000 * length + seed, length + 3)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(1e-300, 9.999999), min_size=2, max_size=60),
        st.integers(0, 2**32),
        st.integers(1, 200),
    )
    def test_mixed_means_and_block_sizes(self, means, seed, block):
        self.assert_same_stream(means, seed, block)

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_overrun_extends_the_block(self, block):
        # 40 segments of mean 9.9 use about 1 230 uniforms, well past the first block
        for seed in range(5):
            self.assert_same_stream([9.9] * 40, seed, block)

    def test_drift_majorant_prefix(self):
        # the drift-consistency majorant: 48 segments, of which the first 41 have mean below 10
        inten = IntensitySpec.constant(1.0).tilted(1.0, phi_fractional(0.7, 1.0))
        _, means, floors, block = _thinning_majorant(inten, 1000.0)
        assert len(means) == 48 and len(floors) == 41
        assert floors == tuple(math.exp(-m) for m in means[:41]) and not means[41] < POISSON_MULT_MAX
        for seed in range(20):
            self.assert_same_stream(means[:41], seed, block)

    def test_one_segment_never_replays(self, monkeypatch):
        def replay(*args):
            raise AssertionError("a one-segment majorant took the replay")

        monkeypatch.setattr(point_process, "_small_mean_draws", replay)
        marks = MarkDistributionSpec.unit()
        for rate, horizon in [(2.0, 1.0), (1e-9, 5.0), (0.5, 3.0)]:  # every mean below 10
            inten = IntensitySpec.constant(rate)
            assert _thinning_majorant(inten, horizon)[2] == ()
            simulate(inten, marks, horizon, 3)
        # a phi-scaled majorant over a horizon whose first half already holds mass below 1e-9
        inten = IntensitySpec.constant(1.0).tilted(1.0, PhiFunction.constant(1.0))
        assert len(_thinning_majorant(inten, 1e-10)[1]) == 1
        assert _thinning_majorant(inten, 1e-10)[2] == ()
        simulate(inten, marks, 1e-10, 3)


class TestIntegratedIntensity:
    def test_constant(self):
        assert integrated_intensity(IntensitySpec.constant(3.0), 2.0) == pytest.approx(6.0)
        assert integrated_intensity(IntensitySpec.constant(3.0), 0.0) == 0.0

    def test_scaled_affine_phi(self):
        # phi(s) = 1 + s on [0,2]: int_0^2 (1 + 0.5 (1+s)) ds = 4
        phi = PhiFunction(kind="grid", nodes=np.array([0.0, 2.0]), values=np.array([1.0, 3.0]))
        inten = IntensitySpec.constant(1.0).tilted(0.5, phi)
        assert integrated_intensity(inten, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_scaled_fractional_closed_form(self):
        H, lam, theta = 0.7, 2.0, 0.5
        phi = phi_fractional(H, lam)
        inten = IntensitySpec.constant(lam).tilted(theta, phi)
        t = 3.0
        want = lam * t + theta * phi.coefficient * t ** (1.5 - H) / (1.5 - H)
        assert integrated_intensity(inten, t) == pytest.approx(want, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            integrated_intensity(IntensitySpec.constant(1.0), -0.5)


class TestIntensityValidation:
    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            IntensitySpec(kind="hawkes", base_rate=1.0)

    def test_nonpositive_rate(self):
        with pytest.raises(ValidationError):
            IntensitySpec.constant(0.0)

    def test_scaled_needs_phi(self):
        with pytest.raises(ValidationError):
            IntensitySpec(kind="scaled-by-phi", base_rate=1.0, theta=1.0)
