"""Marked Poisson process simulation and intensity bookkeeping.

The process has intensity measure lambda(s) ds eta(dz) with eta a
probability law on the positive reals, so a realization is a strictly
increasing sequence of jump times with i.i.d. positive marks attached.
Simulation uses thinning against a piecewise-constant majorant of the
rate; for phi-scaled intensities, whose rate diverges at the origin like
s^(1/2-H), the majorant is built on dyadic segments refined toward zero
until the expected count in the uncovered stub is below 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericsError, ValidationError
from .serialize import read_csv, write_csv

if TYPE_CHECKING:  # pragma: no cover
    from .phi_solver import PhiFunction

#: expected number of jumps tolerated in the uncovered stub near t = 0
SKIPPED_MASS_TOL = 1e-9


@dataclass(frozen=True)
class MarkDistributionSpec:
    """Law of the marks: unit, exponential, or lognormal, all positive.

    ``mean`` always holds the analytic first moment m1 = int z eta(dz).
    """

    kind: str
    mean: float
    mu: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("unit", "exponential", "lognormal"):
            raise ValidationError(f"unknown mark distribution kind {self.kind!r}")
        if not self.mean > 0:
            raise ValidationError(f"mark mean must be positive, got {self.mean}")

    @classmethod
    def unit(cls) -> "MarkDistributionSpec":
        return cls(kind="unit", mean=1.0)

    @classmethod
    def exponential(cls, mean: float) -> "MarkDistributionSpec":
        return cls(kind="exponential", mean=float(mean))

    @classmethod
    def lognormal(cls, mu: float, sigma: float) -> "MarkDistributionSpec":
        if sigma < 0:
            raise ValidationError(f"lognormal sigma must be >= 0, got {sigma}")
        mean = math.exp(mu + 0.5 * sigma * sigma)
        return cls(kind="lognormal", mean=mean, mu=mu, sigma=sigma)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "unit":
            return np.ones(n)
        if self.kind == "exponential":
            return rng.exponential(self.mean, n)
        return rng.lognormal(self.mu, self.sigma, n)


@dataclass(frozen=True)
class IntensitySpec:
    """Deterministic rate lambda(s): constant, or base_rate * (1 + theta*phi(s))."""

    kind: str
    base_rate: float
    theta: float = 0.0
    phi_ref: "PhiFunction | None" = None

    def __post_init__(self):
        if self.kind not in ("constant", "scaled-by-phi"):
            raise ValidationError(f"unknown intensity kind {self.kind!r}")
        if not self.base_rate > 0:
            raise ValidationError(f"base_rate must be positive, got {self.base_rate}")
        if self.kind == "scaled-by-phi":
            if self.theta < 0:
                raise ValidationError(f"theta must be >= 0, got {self.theta}")
            if self.phi_ref is None:
                raise ValidationError("scaled-by-phi intensity requires phi_ref")

    @classmethod
    def constant(cls, base_rate: float) -> "IntensitySpec":
        return cls(kind="constant", base_rate=float(base_rate))

    @classmethod
    def scaled_by_phi(cls, base_rate: float, theta: float, phi: "PhiFunction") -> "IntensitySpec":
        return cls(kind="scaled-by-phi", base_rate=float(base_rate), theta=float(theta), phi_ref=phi)

    @property
    def origin_exponent(self) -> float:
        """e with lambda(s) = O(s^(-e)) near 0: phi_ref's exponent for phi-scaled rates."""
        return self.phi_ref.origin_exponent if self.kind == "scaled-by-phi" else 0.0

    def rate_at(self, s):
        """lambda(s); accepts scalars or arrays."""
        if self.kind == "constant":
            return self.base_rate * np.ones_like(np.asarray(s, dtype=float))
        return self.base_rate * (1.0 + self.theta * self.phi_ref(s))

    def max_rate_on(self, a: float, b: float) -> float:
        """A finite upper bound of lambda on [a, b], used by thinning."""
        if self.kind == "constant":
            return self.base_rate
        sup_phi = self.phi_ref.sup_on(a, b)
        bound = self.base_rate * (1.0 + self.theta * sup_phi)
        if not math.isfinite(bound):
            raise NumericsError(f"lambda_max cannot be established on [{a}, {b}]")
        return bound


@dataclass(frozen=True)
class MarkedPath:
    """One realization: sorted jump times with marks, on [0, horizon]."""

    jump_times: np.ndarray
    marks: np.ndarray
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.jump_times, dtype=float)
        z = np.asarray(self.marks, dtype=float)
        object.__setattr__(self, "jump_times", t)
        object.__setattr__(self, "marks", z)
        if t.shape != z.shape or t.ndim != 1:
            raise ValidationError("jump_times and marks must be 1-d arrays of equal length")
        if not self.horizon > 0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        if t.size:
            if not (t[0] > 0 and t[-1] <= self.horizon):
                raise ValidationError("jump times must lie in (0, horizon]")
            if not np.all(np.diff(t) > 0):
                raise ValidationError("jump times must be strictly increasing")
            if not np.all(z > 0):
                raise ValidationError("marks must be positive")

    @property
    def count(self) -> int:
        return int(self.jump_times.size)

    def to_csv(self, path) -> None:
        write_csv(path, "t,z", zip(self.jump_times, self.marks))

    @classmethod
    def from_csv(cls, path, horizon: float) -> "MarkedPath":
        arr = read_csv(path, "t,z")
        return cls(arr[:, 0], arr[:, 1], horizon)


@lru_cache(maxsize=64)
def _thinning_majorant(intensity: IntensitySpec, horizon: float) -> tuple:
    """(a, b, lambda_max) for each segment of the piecewise-constant majorant.

    Constant rate needs a single segment.  Phi-scaled rates get dyadic
    segments refined toward 0 until the expected count below the first
    boundary is negligible; that stub is then skipped.  The list depends
    only on (intensity, horizon), so it is built once and shared by every
    path simulated with them.
    """
    if intensity.kind == "constant":
        return ((0.0, horizon, intensity.base_rate),)
    lo = horizon
    for _ in range(200):
        lo *= 0.5
        mass = intensity.base_rate * (lo + intensity.theta * intensity.phi_ref.integral(lo))
        if mass < SKIPPED_MASS_TOL:
            break
    else:  # pragma: no cover - phi with non-integrable origin would fail earlier
        raise NumericsError("could not refine thinning segments near t = 0")
    n_levels = max(int(math.ceil(math.log2(horizon / lo))), 1)
    bounds = horizon * 0.5 ** np.arange(n_levels, -1, -1.0)
    return tuple((a, b, intensity.max_rate_on(a, b)) for a, b in zip(bounds[:-1], bounds[1:]))


def simulate(
    intensity: IntensitySpec,
    marks: MarkDistributionSpec,
    horizon: float,
    seed: int,
) -> MarkedPath:
    """Draw one path of the marked point process by thinning.

    Fully deterministic given the seed: segments are processed in time
    order, each consuming (count, times, acceptance) from a single PCG64
    stream, and marks are drawn last.
    """
    if not horizon > 0:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    rng = np.random.default_rng(seed)
    kept = []
    for a, b, lam_max in _thinning_majorant(intensity, float(horizon)):
        n = rng.poisson(lam_max * (b - a))
        if n == 0:
            continue
        t = np.sort(rng.uniform(a, b, n))
        accept = rng.uniform(0.0, 1.0, n) * lam_max < intensity.rate_at(t)
        if np.any(accept):
            kept.append(t[accept])
    times = np.concatenate(kept) if kept else np.empty(0)
    z = marks.sample(rng, times.size)
    return MarkedPath(times, z, horizon)


def integrated_intensity(intensity: IntensitySpec, t: float) -> float:
    """int_0^t lambda(s) ds, analytically for both supported intensity kinds."""
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    if intensity.kind == "constant":
        return intensity.base_rate * t
    return intensity.base_rate * (t + intensity.theta * intensity.phi_ref.integral(t))
