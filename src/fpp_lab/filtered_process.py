"""Filtered Poisson process values on time grids.

The filtered process is the exact finite sum sum_{T_n <= t} Z_n K(t, T_n);
its compensated version subtracts m1 int_0^t K(t,s) lambda(s) ds and the
observed process additionally subtracts a linear drift theta * t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .kernels import KernelSpec, kernel_eval_at, kernel_lambda_integral
from .point_process import IntensitySpec, MarkedPath, PathBatch
from .serialize import write_csv


@dataclass(frozen=True)
class PathOnGrid:
    """A process sampled on a strictly increasing grid, with provenance meta."""

    grid: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        if g.shape != v.shape or g.ndim != 1:
            raise ValidationError("grid and values must be 1-d arrays of equal length")
        if g.size and not np.all(np.diff(g) > 0):
            raise ValidationError("grid must be strictly increasing")
        if v.size and not np.all(np.isfinite(v)):
            raise ValidationError("values must be finite")

    def to_csv(self, path) -> None:
        write_csv(path, "t,value", zip(self.grid, self.values))


def _check_time(horizon: float, t: float) -> None:
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    if t > horizon:
        raise ValidationError(f"t={t} beyond path horizon {horizon}")


def eval_filtered_batch(batch: PathBatch, kernel: KernelSpec, t: float) -> np.ndarray:
    """N^K_t of every row of a batch: the exact finite sum of Z_n K(t, T_n) over jumps up to t.

    One `kernel_eval_at` call on the jumps of all rows; `np.bincount` then
    adds each row's terms left to right.
    """
    _check_time(batch.horizon, t)
    sel = batch.jump_times <= t
    if not sel.any():
        return np.zeros(batch.replicas)
    kv = kernel_eval_at(kernel, t, batch.jump_times[sel])
    return np.bincount(batch.rows[sel], weights=batch.marks[sel] * kv, minlength=batch.replicas)


def eval_filtered(path: MarkedPath, kernel: KernelSpec, t: float) -> float:
    """N^K_t = sum of Z_n K(t, T_n) over jumps up to t: the one-row `eval_filtered_batch`."""
    return float(eval_filtered_batch(PathBatch.from_path(path), kernel, t)[0])


def eval_filtered_on_grid(path: MarkedPath, kernel: KernelSpec, grid: np.ndarray) -> np.ndarray:
    """Filtered-process values on a grid: `eval_filtered` at every grid time."""
    grid = np.asarray(grid, dtype=float)
    if grid.size and grid[-1] > path.horizon:
        raise ValidationError("grid extends beyond the path horizon")
    return np.array([eval_filtered(path, kernel, t) for t in grid])


def sample_on_grid(
    path: MarkedPath,
    kernel: KernelSpec,
    grid: np.ndarray,
    intensity: IntensitySpec | None = None,
    m1: float = 1.0,
    theta: float = 0.0,
) -> PathOnGrid:
    """Grid-sampled process with provenance metadata.

    Raw filtered values when no intensity is given; compensated when it
    is; drift-perturbed when theta is nonzero (requires an intensity).
    """
    grid = np.asarray(grid, dtype=float)
    values = eval_filtered_on_grid(path, kernel, grid)
    compensated = intensity is not None
    if theta != 0.0 and not compensated:
        raise ValidationError("a drift needs an intensity to compensate against")
    if compensated:
        comp = np.array([m1 * kernel_lambda_integral(kernel, intensity, t) if t > 0 else 0.0 for t in grid])
        values = values - comp - theta * grid
    meta = {"kernel": kernel.kind, "compensated": compensated, "drift_theta": float(theta)}
    return PathOnGrid(grid=grid, values=values, meta=meta)


def eval_compensated_batch(
    batch: PathBatch,
    kernel: KernelSpec,
    intensity: IntensitySpec,
    m1: float,
    t: float,
) -> np.ndarray:
    """Compensated filtered process of every row: N^K_t - m1 int_0^t K(t,s) lambda(s) ds.

    The compensator is computed once for all rows.
    """
    _check_time(batch.horizon, t)
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


def eval_observed(
    path: MarkedPath,
    kernel: KernelSpec,
    intensity: IntensitySpec,
    m1: float,
    theta: float,
    t: float,
) -> float:
    """Observed drift-perturbed process: compensated value minus theta * t."""
    return eval_compensated(path, kernel, intensity, m1, t) - theta * t
