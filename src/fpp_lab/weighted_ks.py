"""Weighted two-sample Kolmogorov-Smirnov statistic with bootstrap threshold.

There is no closed-form null distribution once one sample carries
importance weights, so the rejection threshold is estimated by a pooled
bootstrap: both groups are resampled (values together with their weights)
from the pooled collection, which imposes the null hypothesis that the two
weighted samples describe the same law.

Both functions share one rank-based core.  The pooled sample is ranked
once with `np.unique`: rank r is the r-th smallest distinct value, so
ranks preserve order and tied values (0.0 and -0.0 among them) share a
rank.  Ranks are stored in the smallest unsigned type that holds the
number k of distinct values; up to 65535 that is uint16, which numpy's
stable argsort sorts by radix.  Each sample's weighted CDF, whether one of
the statistic's samples or one half of a bootstrap resample, is then

* the stable argsort of its integer ranks: the permutation a stable
  argsort of its float values gives, since equal values have equal ranks;
* `cumsum(w[order]) / w.sum()`, the same floating-point operations as
  after sorting the values;
* read at every tie-group end, `cumsum(bincount(rank, minlength=k))`,
  which is the index `searchsorted(sorted values, v, side="right")` gives
  for each distinct pooled value v.

The statistic is max |Fa - Fb| over the k distinct pooled values.  At a
value neither sample contains, both CDFs repeat their values at the
nearest smaller value one of them contains (or are both 0), so the
maximum is the same float as over the samples' own values.  The results
are therefore bit-identical to sorting each sample's values and reading
both CDFs with `searchsorted`, with no float sort per resample.  The
bootstrap draws two `rng.integers` index vectors per resample.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_WEIGHTS_MSG = "weights must be nonnegative with positive totals"


def _cdf_at_ranks(rank: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Weighted ECDF of one sample at each of the k distinct pooled values."""
    total = w.sum()
    if total <= 0:
        raise ValidationError(_WEIGHTS_MSG)
    order = np.argsort(rank, kind="stable")
    cdf = np.concatenate(([0.0], np.cumsum(w[order]) / total))
    return cdf[np.cumsum(np.bincount(rank, minlength=k))]


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
    distinct, inverse = np.unique(vals, return_inverse=True)
    k = distinct.size
    return inverse.astype(np.min_scalar_type(k)), wts, k


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

    Every resample must carry positive weight in both halves, else
    ValidationError.
    """
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
