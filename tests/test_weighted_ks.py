from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fpp_lab import ValidationError, ks_bootstrap_threshold, weighted_ks_statistic


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


# tie-heavy values: a small set holding both zeros, mixed with arbitrary floats
values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.25]),
    st.floats(-10.0, 10.0, allow_nan=False),
)
weights = st.one_of(st.just(0.0), st.floats(0.01, 5.0))


@st.composite
def weighted_samples(draw):
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


class TestMatchesOracle:
    """The rank-based code must equal the sort + searchsorted reference exactly."""

    @given(weighted_samples())
    @settings(max_examples=200, deadline=None)
    def test_statistic(self, samples):
        assert outcome(weighted_ks_statistic, *samples) == outcome(oracle_statistic, *samples)

    @given(weighted_samples(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_bootstrap_threshold(self, samples, seed):
        ours = outcome(ks_bootstrap_threshold, *samples, 25, 0.05, np.random.default_rng(seed))
        ref = outcome(oracle_threshold, *samples, 25, 0.05, np.random.default_rng(seed))
        assert ours == ref

    def test_law_check_sized_ties(self):
        # a quarter of each sample shares one value, as zero-jump paths do
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=2000), rng.normal(size=1500)
        x[rng.random(2000) < 0.25] = -0.5
        y[rng.random(1500) < 0.25] = -0.5
        w = np.exp(rng.normal(0.0, 0.3, 2000))
        assert weighted_ks_statistic(x, w, y, np.ones(1500)) == oracle_statistic(x, w, y, np.ones(1500))
        ours = ks_bootstrap_threshold(x, w, y, np.ones(1500), 50, 0.01, np.random.default_rng(1))
        ref = oracle_threshold(x, w, y, np.ones(1500), 50, 0.01, np.random.default_rng(1))
        assert ours == ref
