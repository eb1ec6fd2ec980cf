"""Weighted two-sample Kolmogorov-Smirnov statistic with bootstrap threshold.

There is no closed-form null distribution once one sample carries
importance weights, so the rejection threshold is estimated by a pooled
bootstrap: both groups are resampled (values together with their weights)
from the pooled collection, which imposes the null hypothesis that the two
weighted samples describe the same law.

Both functions share one core.  The pooled sample is ranked once with
`np.unique`: rank r is the r-th smallest of its k distinct values, so tied
values (0.0 and -0.0 among them) share a rank.  A sample's weighted CDF at
the k distinct pooled values, whether one of the statistic's samples or
one half of a bootstrap resample, is its weight per rank summed up,
`bincount(rank, weights=w, minlength=k).cumsum()`, over the last entry
(its total).  The statistic is max |Fa - Fb| over those k values; at a
value neither sample contains both CDFs repeat their previous values, so
this is the sup over the whole line.  Sorting each sample's values and
reading both CDFs with `searchsorted` gives the same value up to the order
of the float additions.  The bootstrap draws two `rng.integers` index
vectors per resample.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_WEIGHTS_MSG = "weights must be nonnegative with positive totals"


def _cdf_at_ranks(rank: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Weighted ECDF of one sample at each of the k distinct pooled values."""
    cdf = np.bincount(rank, weights=w, minlength=k).cumsum()
    if cdf[-1] <= 0:
        raise ValidationError(_WEIGHTS_MSG)
    return cdf / cdf[-1]


def _ks(ra: np.ndarray, wa: np.ndarray, rb: np.ndarray, wb: np.ndarray, k: int) -> float:
    return float(np.abs(_cdf_at_ranks(ra, wa, k) - _cdf_at_ranks(rb, wb, k)).max())


def _ranked_pool(x, wx, y, wy) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense ranks and weights of the pooled sample, and its number of distinct values.

    Checked once for the pool: both samples non-empty, all weights >= 0.
    """
    vals = np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    wts = np.concatenate([np.asarray(wx, dtype=float), np.asarray(wy, dtype=float)])
    if len(x) == 0 or len(y) == 0:
        raise ValidationError("KS statistic needs non-empty samples")
    if np.any(wts < 0):
        raise ValidationError(_WEIGHTS_MSG)
    distinct, rank = np.unique(vals, return_inverse=True)
    return rank, wts, distinct.size


def weighted_ks_statistic(x: np.ndarray, wx: np.ndarray, y: np.ndarray, wy: np.ndarray) -> float:
    """sup-distance between the two weighted empirical CDFs."""
    rank, wts, k = _ranked_pool(x, wx, y, wy)
    n = len(x)
    return _ks(rank[:n], wts[:n], rank[n:], wts[n:], k)


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

    n_boot must be a positive integer, and every resample must carry
    positive weight in both halves, else ValidationError.
    """
    if not isinstance(n_boot, (int, np.integer)) or n_boot < 1:
        raise ValidationError(f"n_boot must be a positive integer, got {n_boot!r}")
    if not 0 < level < 1:
        raise ValidationError(f"level must be in (0, 1), got {level}")
    rank, wts, k = _ranked_pool(x, wx, y, wy)
    n, m = len(x), len(y)
    total = n + m
    stats = np.empty(n_boot)
    for b in range(n_boot):
        ia = rng.integers(0, total, n)
        ib = rng.integers(0, total, m)
        stats[b] = _ks(rank[ia], wts[ia], rank[ib], wts[ib], k)
    return float(np.quantile(stats, 1.0 - level))
