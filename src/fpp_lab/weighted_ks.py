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
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

#: bootstrap indices drawn per `rng.integers` call (512 KB of int64), rounded down to whole resamples
DRAW_BLOCK = 2**16

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
    stats = np.empty(n_boot)
    with np.errstate(over="ignore"):  # an overflowed total raises in _ks
        for start in range(0, n_boot, per):
            idx = rng.integers(0, total, (min(per, n_boot - start), total))
            idx += offset
            for j, row in enumerate(idx, start):
                stats[j] = _ks(bins[row], wts2[row], k)
    return float(np.quantile(stats, 1.0 - level))
