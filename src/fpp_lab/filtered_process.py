"""Filtered Poisson process values.

The filtered process is the exact finite sum sum_{T_n <= t} Z_n K(t, T_n);
its compensated version subtracts m1 int_0^t K(t,s) lambda(s) ds.
"""

from __future__ import annotations

import numpy as np

from .kernels import KernelSpec, kernel_eval_at, kernel_lambda_integral
from .point_process import IntensitySpec, MarkedPath, PathBatch


def eval_filtered_batch(batch: PathBatch, kernel: KernelSpec, t: float) -> np.ndarray:
    """N^K_t of every row of a batch: the exact finite sum of Z_n K(t, T_n) over jumps up to t.

    One `kernel_eval_at` call on the jumps of all rows; `np.bincount` then
    adds each row's terms left to right.
    """
    batch.check_time(t)
    sel = batch.jump_times <= t
    if not sel.any():  # not a shortcut: np.bincount of no terms returns int64 zeros
        return np.zeros(batch.replicas)
    kv = kernel_eval_at(kernel, t, batch.jump_times[sel])
    return np.bincount(batch.rows[sel], weights=batch.marks[sel] * kv, minlength=batch.replicas)


def eval_filtered(path: MarkedPath, kernel: KernelSpec, t: float) -> float:
    """N^K_t = sum of Z_n K(t, T_n) over jumps up to t: the one-row `eval_filtered_batch`."""
    return float(eval_filtered_batch(PathBatch.from_path(path), kernel, t)[0])


def eval_compensated_batch(
    batch: PathBatch,
    kernel: KernelSpec,
    intensity: IntensitySpec,
    m1: float,
    t: float,
) -> np.ndarray:
    """Compensated filtered process of every row: N^K_t - m1 int_0^t K(t,s) lambda(s) ds.

    The compensator is computed once for all rows, after `eval_filtered_batch` has checked t.
    """
    if t == 0:
        return np.zeros(batch.replicas)
    return eval_filtered_batch(batch, kernel, t) - m1 * kernel_lambda_integral(kernel, intensity, t)


def eval_compensated(
    path: MarkedPath,
    kernel: KernelSpec,
    intensity: IntensitySpec,
    m1: float,
    t: float,
) -> float:
    """Compensated filtered process: the one-row `eval_compensated_batch`."""
    return float(eval_compensated_batch(PathBatch.from_path(path), kernel, intensity, m1, t)[0])

