"""Reference code that only the tests call.

Per-grid and one-point forms of the package's batched functions, the score
of the drift likelihood, path and phi CSV readers, and grid builders and
classifiers that no experiment uses; the tests use them as oracles and
fixtures.  `fpp_lab` keeps one path per concept and does not ship them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fpp_lab import (
    IntensitySpec,
    KernelSpec,
    MarkedPath,
    PhiFunction,
    ShiftFunction,
    ValidationError,
    eval_compensated,
    eval_filtered,
    kernel_lambda_integral,
    kernel_shift_lambda_integral,
    log_density,
    phi_lambda_integral,
)
from fpp_lab.kernels import _bilinear
from fpp_lab.serialize import read_csv, write_csv

# ---------------------------------------------------------------------------
# special functions


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0: `math.lgamma`, which the package calls directly."""
    if not x > 0:
        raise ValidationError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# paths and filtered values on grids


def path_from_csv(path, horizon: float) -> MarkedPath:
    """Read a path written by `MarkedPath.to_csv`."""
    arr = read_csv(path, "t,z")
    return MarkedPath(arr[:, 0], arr[:, 1], horizon)


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


# ---------------------------------------------------------------------------
# change of measure


def shift_constant(value: float) -> ShiftFunction:
    """The constant shift h = value."""
    return ShiftFunction(phi=PhiFunction.constant(1.0), scale=float(value))


def witness(h: ShiftFunction, intensity: IntensitySpec, horizon: float) -> tuple[str, float]:
    """Integrability witness: ('closed_form'|'numeric_check', int |h| lambda).

    Also checks admissibility 1 + h > 0 on the horizon; a negative scale
    with unbounded phi always fails it.
    """
    if h.scale < 0.0 and h.scale * h.phi.sup_on(0.0, horizon) <= -1.0:
        raise ValidationError("shift function reaches -1 on the horizon; density undefined")
    value = abs(h.scale) * phi_lambda_integral(h.phi, intensity, horizon)
    if not np.isfinite(value):
        raise ValidationError("shift function is not integrable against the intensity")
    closed = h.phi.kind == "closed_form_fractional" and intensity.kind == "constant"
    return ("closed_form" if closed else "numeric_check", value)


def density(path: MarkedPath, h: ShiftFunction, intensity: IntensitySpec, t: float) -> float:
    """The density itself; strictly positive for admissible h."""
    return float(np.exp(log_density(path, h, intensity, t)))


def shifted_compensated(
    path: MarkedPath,
    kernel: KernelSpec,
    h: ShiftFunction,
    intensity: IntensitySpec,
    m1: float,
    t: float,
) -> float:
    """N^{h,K}_t: the compensated process minus the deterministic h-shift."""
    base = eval_compensated(path, kernel, intensity, m1, t)
    if t == 0:
        return base
    return base - m1 * kernel_shift_lambda_integral(kernel, h, intensity, t)


# ---------------------------------------------------------------------------
# kernels and phi

CONTINUOUS = "continuous_paths"
CADLAG = "cadlag_paths"
IRREGULAR = "irregular"


def diagonal_class(spec: KernelSpec) -> str:
    """Sample-path regularity class implied by K(t, t).

    K(t,t) = 0 everywhere gives continuous paths; finite nonzero diagonal
    gives cadlag paths; anything non-finite is irregular.
    """
    if spec.kind == "fractional":
        return CONTINUOUS
    if spec.kind in ("indicator", "exp_shot_noise"):
        return CADLAG
    if not np.all(np.isfinite(spec.table_values)):
        return IRREGULAR
    diag = _bilinear(spec.table_t, spec.table_s, spec.table_values, spec.table_t, spec.table_t)
    return CONTINUOUS if np.all(diag == 0.0) else CADLAG


def uniform_grid(start: float, stop: float, count: int) -> np.ndarray:
    if not (0 < start < stop) or count < 2:
        raise ValidationError("grid needs 0 < start < stop and count >= 2")
    return np.linspace(start, stop, count)


def phi_from_csv(path) -> PhiFunction:
    """Read a grid phi written by `PhiFunction.to_csv`."""
    arr = read_csv(path, "s,phi")
    return PhiFunction(kind="grid", nodes=arr[:, 0], values=arr[:, 1])


# ---------------------------------------------------------------------------
# drift estimation


def _phi_at_jumps(path: MarkedPath, phi: PhiFunction, t: float) -> np.ndarray:
    k = int(np.searchsorted(path.jump_times, t, side="right"))
    if k == 0:
        return np.empty(0)
    return np.asarray(phi(path.jump_times[:k]), dtype=float)


def score(
    path: MarkedPath,
    phi: PhiFunction,
    intensity: IntensitySpec,
    theta: float,
    t: float,
) -> tuple[float, float, float]:
    """(f, f', f'') of the log-likelihood at theta >= 0; f'' <= 0 always."""
    if theta < 0:
        raise ValidationError(f"theta must be >= 0, got {theta}")
    pv = _phi_at_jumps(path, phi, t)
    integral = phi_lambda_integral(phi, intensity, t)
    ratio = pv / (1.0 + theta * pv)
    f = float(np.log1p(theta * pv).sum()) - theta * integral
    fp = float(ratio.sum()) - integral
    fpp = -float(np.square(ratio).sum())
    return f, fp, fpp
