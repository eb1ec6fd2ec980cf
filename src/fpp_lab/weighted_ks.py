"""Weighted two-sample Kolmogorov-Smirnov statistic with bootstrap threshold.

There is no closed-form null distribution once one sample carries
importance weights, so the rejection threshold is estimated by a pooled
bootstrap: both groups are resampled (values together with their weights)
from the pooled collection, which imposes the null hypothesis that the two
weighted samples describe the same law.

Both functions share one core.  The pooled sample is ranked once with
`np.unique`: rank r is the r-th smallest of its k distinct values, so tied
values (0.0 and -0.0 among them) share a rank.  An item of rank r in half h
(0 for the first sample, 1 for the second; for a bootstrap resample, the
half it was drawn into) goes to bin 2r + h.  One
`bincount(bins, weights=w, minlength=2k)` sums each half's weight per rank,
and viewed as complex, one `cumsum` gives both halves' running weights at
the k distinct pooled values as (real, imag).  Each half's weighted CDF is
its running weight over its total, and the statistic is max |Fa - Fb| over
those k values; at a value neither sample contains both CDFs repeat their
previous values, so this is the sup over the whole line.  `bincount` sums
each bin in input order and a complex add is two separate float adds, so
the result equals that of one `bincount` and one `cumsum` per half, bit
for bit.  Sorting each sample's values and reading both CDFs with
`searchsorted` gives the same value up to the order of the float additions.

The bootstrap draws the indices of a block of resamples with one
`rng.integers` call, about `DRAW_BLOCK` indices (at least one resample) at
a time.  Row j of a block holds resample j: its first n indices are the
first half, its last m the second.  Bounded integer draws consume the
generator in sequence, so these are the indices, and the final generator
state, of two draws per resample.

The threshold is `np.quantile(stats, 1 - level)`, whose `linear` method
reads two adjacent order statistics near the top, so the bootstrap
computes the exact statistic only for resamples that can reach them.  A
heap keeps the `keep` largest exact statistics so far, one more than
`np.quantile` can read; once it is full its minimum is the cut.  The
pooled ranks are merged into runs of about `G` pool items (a rank
holding `G` or more is a run of its own), and per block of resamples one
`bincount` per row and one complex `cumsum` give both halves' CDFs at the
ends of the runs.  Inside a run each CDF lies between its values at the
previous run's end and its own, so the largest cross difference bounds
the statistic; for a one-rank run the bound is the exact gap there.  A
resample whose bound, plus a margin that covers the rounding of either
summation order, is below the cut is skipped and its entry stays 0.0.
Its statistic is below the cut and so is 0.0, so the `keep` largest
entries, the order statistics that `np.quantile` reads among them, and
the threshold are the same bit for bit.  A resample whose run totals are
not in (0, 2**1000) always gets the exact statistic: a run total that
rounds below the largest double cannot hide an exact total that
overflows, so a half with zero or overflowing total weight raises in the
same resample as without the skip.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import ValidationError

#: bootstrap indices drawn per `rng.integers` call (512 KB of int64), rounded down to whole resamples
DRAW_BLOCK = 2**16

#: pool items per run of ranks in the bootstrap's upper bound on a resample's statistic
G = 32

_WEIGHTS_MSG = "weights must be nonnegative with positive, finite totals"


def _ks(bins: np.ndarray, w: np.ndarray, k: int) -> float:
    """KS distance between the two halves of a pooled sample binned at 2*rank + half."""
    run = np.bincount(bins, weights=w, minlength=2 * k).view(complex).cumsum()
    ta, tb = run[-1].real, run[-1].imag
    if not (0 < ta < np.inf and 0 < tb < np.inf):  # finite weights can sum past the largest double
        raise ValidationError(_WEIGHTS_MSG)
    return float(np.abs(run.real / ta - run.imag / tb).max())


def _ranked_pool(x, wx, y, wy) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense ranks and weights of the pooled sample, and its number of distinct values.

    Checked once for the pool: each sample and its weights are 1-D of one
    length, both samples non-empty, every value and weight finite, all
    weights >= 0.
    """
    x, wx, y, wy = (np.asarray(a, dtype=float) for a in (x, wx, y, wy))
    if any(a.ndim != 1 for a in (x, wx, y, wy)) or wx.size != x.size or wy.size != y.size:
        raise ValidationError("KS samples and their weights must be 1-D arrays of matching lengths")
    if x.size == 0 or y.size == 0:
        raise ValidationError("KS statistic needs non-empty samples")
    vals = np.concatenate([x, y])
    wts = np.concatenate([wx, wy])
    if not (np.isfinite(vals).all() and np.isfinite(wts).all()):
        raise ValidationError("KS samples and weights must be finite")
    if np.any(wts < 0):
        raise ValidationError(_WEIGHTS_MSG)
    distinct, rank = np.unique(vals, return_inverse=True)
    return rank, wts, distinct.size


def _rank_runs(rank: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Run of each rank, and for each run whether it holds a single rank.

    Runs are consecutive ranks holding about `G` pool items; a rank that
    holds `G` or more is a run of its own.
    """
    counts = np.bincount(rank, minlength=k)
    big = counts >= G
    small = np.where(big, 0, counts)
    chunk = (np.cumsum(small) - small) // G  # items of small ranks below each rank, in G's
    first = np.ones(k, dtype=bool)
    first[1:] = big[1:] | big[:-1] | (chunk[1:] != chunk[:-1])
    single = np.diff(np.flatnonzero(np.append(first, True))) == 1
    return np.cumsum(first) - 1, single


def weighted_ks_statistic(x: np.ndarray, wx: np.ndarray, y: np.ndarray, wy: np.ndarray) -> float:
    """sup-distance between the two weighted empirical CDFs."""
    rank, wts, k = _ranked_pool(x, wx, y, wy)
    bins = 2 * rank
    bins[len(x) :] += 1
    with np.errstate(over="ignore"):  # an overflowed total raises in _ks
        return _ks(bins, wts, k)


def ks_bootstrap_threshold(
    x: np.ndarray,
    wx: np.ndarray,
    y: np.ndarray,
    wy: np.ndarray,
    n_boot: int,
    level: float,
    rng: np.random.Generator,
) -> float:
    """(1 - level) quantile of the pooled-bootstrap null KS distribution.

    Resamples that provably fall below the order statistics the quantile
    reads are not computed exactly (see the module docstring); the
    threshold and the generator's final state are those of computing all.
    n_boot must be a positive integer (not a bool), and every resample must
    carry positive, finite total weight in both halves, else ValidationError.
    After that error the generator may have advanced by up to one block of
    draws beyond the failing resample.
    """
    if isinstance(n_boot, bool) or not isinstance(n_boot, (int, np.integer)) or n_boot < 1:
        raise ValidationError(f"n_boot must be a positive integer, got {n_boot!r}")
    if not 0 < level < 1:
        raise ValidationError(f"level must be in (0, 1), got {level}")
    rank, wts, k = _ranked_pool(x, wx, y, wy)
    n = len(x)
    total = len(wts)
    # columns n: of a row draw the second half; offsetting them by total
    # points them at the second copy of the pool, binned at 2*rank + 1
    bins = np.concatenate([2 * rank, 2 * rank + 1])
    wts2 = np.concatenate([wts, wts])
    offset = np.zeros(total, dtype=np.int64)
    offset[n:] = total
    per = max(1, DRAW_BLOCK // total)
    run_of, single = _rank_runs(rank, k)
    runs = single.size
    run_bins = 2 * run_of[rank]
    run_bins = np.concatenate([run_bins, run_bins + 1])
    # column of each run's lower CDF in `ends`: the previous run's end, or
    # for a one-rank run its own end; column 0 is the zero below run 0
    lower = np.arange(runs) + single
    # per block, in place: each row's run sums after a zero run, their
    # running sums, and both halves' CDFs at the run ends as (real, imag)
    ends = np.empty((per, runs + 1), dtype=complex)
    fa, fb = ends.real, ends.imag
    up, down = np.empty((2, per, runs))
    # np.quantile's linear method reads sorted positions floor(q (n_boot - 1))
    # and the next, for q = 1 - level; one more against rounding of that index
    keep = n_boot - math.floor((1.0 - level) * (n_boot - 1)) + 1
    # a CDF value summed in either order is off by under about 2 total 2**-53,
    # so the exact statistic exceeds its float bound by less than this
    margin = 8 * total * 2.0**-52
    top: list[float] = []  # the keep largest exact statistics so far
    cut = -math.inf
    stats = np.zeros(n_boot)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # bad totals raise in _ks
        for start in range(0, n_boot, per):
            rows = min(per, n_boot - start)
            idx = rng.integers(0, total, (rows, total))
            idx += offset
            bound = np.full(rows, math.inf)
            if len(top) + rows > keep:  # else the heap is not full before the block's last row
                # rows past `rows` in the buffers are stale and not read
                ends[:, 0] = 0.0
                for j, row in enumerate(idx):
                    ends[j, 1:] = np.bincount(run_bins[row], weights=wts2[row], minlength=2 * runs).view(complex)
                np.cumsum(ends, axis=1, out=ends)
                ta, tb = fa[:, -1].copy(), fb[:, -1].copy()
                np.divide(fa, ta[:, None], out=fa)
                np.divide(fb, tb[:, None], out=fb)
                np.subtract(fa[:, 1:], np.take(fb, lower, axis=1, out=up), out=up)
                np.subtract(fb[:, 1:], np.take(fa, lower, axis=1, out=down), out=down)
                fine = (ta > 0) & (ta < 2.0**1000) & (tb > 0) & (tb < 2.0**1000)
                np.maximum(up.max(axis=1)[:rows], down.max(axis=1)[:rows], out=bound, where=fine[:rows])
            for j, row in enumerate(idx):
                if bound[j] + margin < cut:
                    continue
                stat = stats[start + j] = _ks(bins[row], wts2[row], k)
                if len(top) < keep:
                    heapq.heappush(top, stat)
                elif stat > cut:
                    heapq.heapreplace(top, stat)
                if len(top) == keep:
                    cut = top[0]
    return float(np.quantile(stats, 1.0 - level))
