from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fpp_lab import ValidationError, ks_bootstrap_threshold, weighted_ks_statistic
from fpp_lab import weighted_ks
from fpp_lab.weighted_ks import DRAW_BLOCK
from oracles import ks_statistic_two_cumsums, ks_threshold_two_draws


def oracle_statistic(x, wx, y, wy):
    """Reference statistic: sort each sample, read both CDFs with searchsorted."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wx = np.asarray(wx, dtype=float)
    wy = np.asarray(wy, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValidationError("KS statistic needs non-empty samples")
    if np.any(wx < 0) or np.any(wy < 0) or wx.sum() <= 0 or wy.sum() <= 0:
        raise ValidationError("weights must be nonnegative with positive totals")
    ox = np.argsort(x, kind="stable")
    oy = np.argsort(y, kind="stable")
    xs, cwx = x[ox], np.cumsum(wx[ox]) / wx.sum()
    ys, cwy = y[oy], np.cumsum(wy[oy]) / wy.sum()
    grid = np.concatenate([xs, ys])
    fx = np.concatenate([[0.0], cwx])[np.searchsorted(xs, grid, side="right")]
    fy = np.concatenate([[0.0], cwy])[np.searchsorted(ys, grid, side="right")]
    return float(np.abs(fx - fy).max())


def oracle_threshold(x, wx, y, wy, n_boot, level, rng):
    """Reference bootstrap: the oracle statistic on each pooled resample."""
    vals = np.concatenate([x, y])
    wts = np.concatenate([wx, wy])
    n, m = len(x), len(y)
    stats_ = np.empty(n_boot)
    for b in range(n_boot):
        ia = rng.integers(0, n + m, n)
        ib = rng.integers(0, n + m, m)
        stats_[b] = oracle_statistic(vals[ia], wts[ia], vals[ib], wts[ib])
    return float(np.quantile(stats_, 1.0 - level))


def outcome(fn, *args):
    """fn's value, or the ValidationError it raised."""
    try:
        return fn(*args)
    except ValidationError:
        return ValidationError


def assert_same_outcome(ours, ref):
    """Both raised ValidationError, or the values agree to 1e-13 (a KS value lies in [0, 1])."""
    if ours is ValidationError or ref is ValidationError:
        assert ours is ref
    else:
        assert abs(ours - ref) <= 1e-13


# tie-heavy values: a small set holding both zeros, mixed with arbitrary floats
values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.25]),
    st.floats(-10.0, 10.0, allow_nan=False),
)
weights = st.one_of(st.just(0.0), st.floats(0.01, 5.0))


@st.composite
def weighted_samples(draw, weights=weights):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    x = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(values, min_size=m, max_size=m)))
    wx = np.array(draw(st.lists(weights, min_size=n, max_size=n)))
    wy = np.array(draw(st.lists(weights, min_size=m, max_size=m)))
    return x, wx, y, wy


class TestStatistic:
    def test_matches_scipy_with_unit_weights(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, 300)
        y = rng.normal(0.4, 1.3, 450)
        ours = weighted_ks_statistic(x, np.ones(300), y, np.ones(450))
        ref = stats.ks_2samp(x, y).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_identical_samples_give_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        assert weighted_ks_statistic(x, np.ones(3), x, np.ones(3)) == 0.0

    def test_weight_splitting_invariance(self):
        # duplicating a point with half weights leaves the ECDF unchanged
        x = np.array([1.0, 2.0, 3.0])
        wx = np.array([1.0, 2.0, 1.0])
        x2 = np.array([1.0, 2.0, 2.0, 3.0])
        wx2 = np.array([1.0, 1.0, 1.0, 1.0])
        y = np.array([1.5, 2.5])
        d1 = weighted_ks_statistic(x, wx, y, np.ones(2))
        d2 = weighted_ks_statistic(x2, wx2, y, np.ones(2))
        assert d1 == pytest.approx(d2, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            weighted_ks_statistic(np.array([]), np.array([]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValidationError):
            weighted_ks_statistic(np.array([1.0]), np.array([-1.0]), np.array([1.0]), np.array([1.0]))
        # a bootstrap resample that draws only zero weights: rng seed 0 draws
        # index 1 (weight 0) for the one-point second half of its first resample
        x, wx = np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 1.0])
        y, wy = np.array([1.5]), np.array([1.0])
        assert weighted_ks_statistic(x, wx, y, wy) > 0.0
        with pytest.raises(ValidationError):
            ks_bootstrap_threshold(x, wx, y, wy, 10, 0.1, np.random.default_rng(0))


class TestInputChecks:
    """Misaligned, non-1-D or non-finite samples and weights raise ValidationError in both functions."""

    @staticmethod
    def both(x, wx, y, wy):
        with pytest.raises(ValidationError):
            weighted_ks_statistic(x, wx, y, wy)
        with pytest.raises(ValidationError):
            ks_bootstrap_threshold(x, wx, y, wy, 10, 0.1, np.random.default_rng(0))

    def test_lengths_that_only_add_up_are_rejected(self):
        # 3 + 2 values against 2 + 3 weights: the pooled lengths agree
        self.both([0.1, 0.2, 0.3], np.ones(2), [0.2, 0.4], np.ones(3))

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_short_weights_are_rejected(self, side):
        x, wx, y, wy = [0.1, 0.2, 0.3], np.ones(3), [0.2, 0.4], np.ones(2)
        if side == "x":
            wx = np.ones(2)
        else:
            wy = np.ones(3)
        self.both(x, wx, y, wy)

    def test_samples_that_are_not_1d_are_rejected(self):
        x = np.array([[0.1, 0.2], [0.3, 0.4]])
        self.both(x, np.ones((2, 2)), [0.2, 0.4], np.ones(2))
        self.both(0.5, 1.0, [0.2, 0.4], np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["x", "wx", "y", "wy"])
    def test_non_finite_values_and_weights_are_rejected(self, bad, where):
        arrays = {"x": [0.1, 0.2, 0.3], "wx": [1.0, 2.0, 1.0], "y": [0.2, 0.4], "wy": [1.0, 1.0]}
        arrays[where] = arrays[where][:-1] + [bad]
        self.both(*(np.array(arrays[key]) for key in ("x", "wx", "y", "wy")))


class TestOverflowingTotals:
    """Finite weights whose total overflows raise ValidationError, with no overflow warning."""

    def test_statistic(self):
        with pytest.raises(ValidationError, match="finite totals"):
            weighted_ks_statistic([0.1, 0.2], [1e308, 1e308], [0.3], [1.0])

    def test_bootstrap(self):
        # the pooled totals are finite, but a resample that draws the 1e308
        # weight into both places of the first half overflows
        x, wx, y, wy = [0.1, 0.2], [1e308, 1.0], [0.3], [1.0]
        assert weighted_ks_statistic(x, wx, y, wy) > 0.0
        with pytest.raises(ValidationError, match="finite totals"):
            ks_bootstrap_threshold(x, wx, y, wy, 50, 0.1, np.random.default_rng(0))


class TestStatisticProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_bounded_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=rng.integers(2, 50))
        y = rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(2, 50))
        wx = rng.uniform(0.1, 2.0, x.size)
        wy = rng.uniform(0.1, 2.0, y.size)
        d_xy = weighted_ks_statistic(x, wx, y, wy)
        d_yx = weighted_ks_statistic(y, wy, x, wx)
        assert 0.0 <= d_xy <= 1.0
        assert d_xy == pytest.approx(d_yx, abs=1e-12)


class TestBootstrapThreshold:
    def test_same_law_passes_and_shift_fails(self):
        rng = np.random.default_rng(17)
        x = rng.normal(0.0, 1.0, 2000)
        y = rng.normal(0.0, 1.0, 2000)
        w = np.exp(rng.normal(0.0, 0.2, 2000))  # mild importance weights
        stat_null = weighted_ks_statistic(x, w, y, np.ones(2000))
        thr = ks_bootstrap_threshold(x, w, y, np.ones(2000), 400, 0.01, np.random.default_rng(5))
        assert stat_null < thr
        y_shift = y + 0.35
        stat_alt = weighted_ks_statistic(x, w, y_shift, np.ones(2000))
        thr_alt = ks_bootstrap_threshold(x, w, y_shift, np.ones(2000), 400, 0.01, np.random.default_rng(6))
        assert stat_alt > thr_alt

    def test_deterministic_given_rng(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        t1 = ks_bootstrap_threshold(x, np.ones(200), y, np.ones(200), 100, 0.01, np.random.default_rng(9))
        t2 = ks_bootstrap_threshold(x, np.ones(200), y, np.ones(200), 100, 0.01, np.random.default_rng(9))
        assert t1 == t2

    def test_level_validation(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(ValidationError):
            ks_bootstrap_threshold(x, np.ones(2), x, np.ones(2), 10, 1.5, np.random.default_rng(0))

    @pytest.mark.parametrize("n_boot", [0, -3, 2.5, None, True])
    def test_n_boot_validation(self, n_boot):
        x = np.array([1.0, 2.0])
        with pytest.raises(ValidationError, match="n_boot"):
            ks_bootstrap_threshold(x, np.ones(2), x, np.ones(2), n_boot, 0.1, np.random.default_rng(0))


class TestMatchesOracle:
    """The bincount CDFs must match the sort + searchsorted reference.

    Per-rank bin totals are summed in another order than the sorted running
    sums, so values agree to rounding, and ValidationError outcomes exactly.
    """

    @given(weighted_samples())
    @settings(max_examples=200, deadline=None)
    def test_statistic(self, samples):
        assert_same_outcome(outcome(weighted_ks_statistic, *samples), outcome(oracle_statistic, *samples))

    @given(weighted_samples(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_bootstrap_threshold(self, samples, seed):
        ours = outcome(ks_bootstrap_threshold, *samples, 25, 0.05, np.random.default_rng(seed))
        ref = outcome(oracle_threshold, *samples, 25, 0.05, np.random.default_rng(seed))
        assert_same_outcome(ours, ref)

    def test_law_check_sized_ties(self):
        # a quarter of each sample shares one value, as zero-jump paths do
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=2000), rng.normal(size=1500)
        x[rng.random(2000) < 0.25] = -0.5
        y[rng.random(1500) < 0.25] = -0.5
        w = np.exp(rng.normal(0.0, 0.3, 2000))
        ours = weighted_ks_statistic(x, w, y, np.ones(1500))
        assert_same_outcome(ours, oracle_statistic(x, w, y, np.ones(1500)))
        ours = ks_bootstrap_threshold(x, w, y, np.ones(1500), 50, 0.01, np.random.default_rng(1))
        ref = oracle_threshold(x, w, y, np.ones(1500), 50, 0.01, np.random.default_rng(1))
        assert_same_outcome(ours, ref)

    def test_pool_beyond_65535_distinct_values(self):
        # more than 2**16 - 1 distinct pooled values
        rng = np.random.default_rng(12)
        x, y = rng.normal(size=40_000), rng.normal(0.01, 1.0, size=30_000)
        assert np.unique(np.concatenate([x, y])).size > 65_535
        w = np.exp(rng.normal(0.0, 0.3, 40_000))
        wy = np.ones(30_000)
        assert_same_outcome(weighted_ks_statistic(x, w, y, wy), oracle_statistic(x, w, y, wy))
        ours = ks_bootstrap_threshold(x, w, y, wy, 5, 0.1, np.random.default_rng(2))
        ref = oracle_threshold(x, w, y, wy, 5, 0.1, np.random.default_rng(2))
        assert_same_outcome(ours, ref)


class SpyGenerator:
    """A generator that records the number of indices each `integers` call asks for."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def integers(self, low, high, size):
        self.sizes.append(int(np.prod(size)))
        return self.rng.integers(low, high, size)


class ExactPathSpy:
    """Counts the resamples whose exact statistic `ks_bootstrap_threshold` computes, and keeps the last one's weights."""

    def __init__(self):
        self.calls = 0

    def __call__(self, bins, w, k):
        self.calls += 1
        self.weights = w
        return self.ks(bins, w, k)

    def __enter__(self):
        self.ks = weighted_ks._ks
        self.patch = mock.patch.object(weighted_ks, "_ks", self)
        self.patch.start()
        return self

    def __exit__(self, *exc):
        self.patch.stop()


def tied_pool(seed):
    """2 000 + 2 000 values, 30-35 % of each tied at 0.0 as zero-jump paths are, the first weighted."""
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=2000), rng.normal(size=2000)
    x[rng.random(2000) < 0.35] = 0.0
    y[rng.random(2000) < 0.3] = 0.0
    return x, np.exp(rng.normal(0.0, 0.3, 2000)), y, np.ones(2000)


class TestMatchesFrozenCore:
    """The paired bins, the complex cumsum, the block draws and the skipped resamples change no bit.

    The reference is the frozen core with one bincount, one cumsum and one
    index draw per half, and an exact statistic for every resample:
    statistic and threshold must be equal (==), and the generator must end
    in the same state.
    """

    @staticmethod
    def assert_identical(x, wx, y, wy, n_boot, seed, level=0.05):
        assert outcome(weighted_ks_statistic, x, wx, y, wy) == outcome(ks_statistic_two_cumsums, x, wx, y, wy)
        ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ours = outcome(ks_bootstrap_threshold, x, wx, y, wy, n_boot, level, ours_rng)
        ref = outcome(ks_threshold_two_draws, x, wx, y, wy, n_boot, level, ref_rng)
        assert ours == ref
        if ours is not ValidationError:
            # after an error the generator may be up to one block ahead
            assert ours_rng.bit_generator.state == ref_rng.bit_generator.state

    @given(weighted_samples(), st.integers(0, 2**32 - 1), st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed(self, samples, seed, n_boot):
        self.assert_identical(*samples, n_boot, seed)

    @given(
        # mostly positive weights, so that most resamples pass and the bound gets to skip some
        weighted_samples(st.floats(0.0, 5.0)),
        st.integers(0, 2**32 - 1),
        st.integers(1, 400),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([1, 2, 5, weighted_ks.G]),
    )
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_levels_and_runs(self, samples, seed, n_boot, level, g):
        # small runs make the bound tight on these small pools, so resamples are skipped
        with mock.patch.object(weighted_ks, "G", g):
            self.assert_identical(*samples, n_boot, seed, level)

    @pytest.mark.parametrize("level", [0.01, 0.05, 0.5])
    def test_law_check_sized_pool_skips_resamples(self, level):
        x, wx, y, wy = tied_pool(11)
        with ExactPathSpy() as spy:
            self.assert_identical(x, wx, y, wy, 1000, 2, level)
        if level == 0.01:
            assert spy.calls - 1 < 250  # one call is the statistic's

    @pytest.mark.parametrize(
        ("scale", "all_exact"),
        [
            pytest.param(lambda w: w * 2.0**990, True, id="every-half-total-above-2**1000"),
            pytest.param(lambda w: np.append(2.0**1001, w[1:]), False, id="one-weight-above-2**1000"),
        ],
    )
    def test_totals_above_2_to_the_1000_take_the_exact_path(self, scale, all_exact):
        x, wx, y, wy = tied_pool(12)
        with ExactPathSpy() as spy:
            self.assert_identical(x, scale(wx), y, scale(wy), 200, 3, 0.01)
        assert (spy.calls - 1 == 200) == all_exact  # one call is the statistic's

    def test_zero_total_raises_in_the_same_resample(self):
        # P(both second-half draws hit a zero weight) = 1/404: with seed 2 the
        # first such resample is number 290, after the bound has skipped most earlier ones
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=400), rng.normal(size=2)
        wts = np.ones(402)
        wts[:20] = 0.0
        per = DRAW_BLOCK // 402
        draws = np.random.default_rng(2)
        rows = np.concatenate([draws.integers(0, 402, (per, 402)) for _ in range(2)])
        bad = np.flatnonzero(wts[rows[:, 400:]].sum(axis=1) == 0.0)[0]
        assert bad == 289
        with ExactPathSpy() as spy:
            with pytest.raises(ValidationError):
                ks_bootstrap_threshold(x, wts[:400], y, wts[400:], 400, 0.01, np.random.default_rng(2))
        with pytest.raises(ValidationError):
            ks_threshold_two_draws(x, wts[:400], y, wts[400:], 400, 0.01, np.random.default_rng(2))
        assert spy.calls < bad + 1
        assert np.array_equal(spy.weights, wts[rows[bad]])

    @pytest.mark.parametrize(
        "pool",
        [
            pytest.param(([0.1, 0.2], [1e308, 1e308], [0.3], [1.0]), id="pooled-total-overflows"),
            pytest.param(([0.1, 0.2], [1e308, 1.0], [0.3], [1.0]), id="a-resample-total-overflows"),
        ],
    )
    def test_overflowing_totals_raise_in_both(self, pool):
        # the pools of TestOverflowingTotals: both end in ValidationError, not in NaN or an overflow warning
        self.assert_identical(*pool, 50, 0)
        assert outcome(ks_threshold_two_draws, *pool, 50, 0.05, np.random.default_rng(0)) is ValidationError

    def test_law_check_sized_ties(self):
        # 2 000 + 2 000 values draw 16 resamples per block; 37 is not a multiple
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=2000), rng.normal(size=2000)
        x[rng.random(2000) < 0.25] = -0.5
        y[rng.random(2000) < 0.25] = -0.5
        w = np.exp(rng.normal(0.0, 0.3, 2000))
        assert DRAW_BLOCK // 4000 == 16
        self.assert_identical(x, w, y, np.ones(2000), 37, 1)

    def test_more_resamples_than_one_block(self):
        # a 16-value pool: one full block and a partial one
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=7), np.round(rng.normal(size=9), 1)
        wx = rng.uniform(0.0, 2.0, 7)
        self.assert_identical(x, wx, y, np.ones(9), DRAW_BLOCK // 16 + 5, 3)

    def test_pool_above_draw_block(self):
        # one resample per draw
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=40_000), rng.normal(size=30_001)
        assert x.size + y.size > DRAW_BLOCK
        self.assert_identical(x, np.exp(rng.normal(0.0, 0.3, 40_000)), y, np.ones(30_001), 3, 2)

    @pytest.mark.parametrize(("n", "m", "n_boot"), [(3, 5, 20_000), (2000, 2000, 40), (40_000, 30_001, 3)])
    def test_draws_stay_within_one_block(self, n, m, n_boot):
        rng = np.random.default_rng(7)
        spy = SpyGenerator(8)
        ks_bootstrap_threshold(rng.normal(size=n), np.ones(n), rng.normal(size=m), np.ones(m), n_boot, 0.05, spy)
        assert max(spy.sizes) <= max(n + m, DRAW_BLOCK)
        assert sum(spy.sizes) == n_boot * (n + m)
