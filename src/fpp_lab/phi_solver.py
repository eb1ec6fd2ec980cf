"""The calibration function phi: its closed forms, its Volterra solve and the solve's residual check.

phi is the unique function with m1 * int_0^t K(t,s) phi(s) lambda(s) ds = t.
It involves phi only through psi = phi lambda, which solves
m1 * int_0^t K(t,s) psi(s) ds = t whatever the rate; phi = psi / lambda.
For the fractional kernel psi has the closed form

    psi(s) = Gamma(3/2 - H) / Gamma(2 - 2H) * s^(1/2 - H) / m1,

which is in L1 for H in (1/2, 1); under a constant rate the exponential and
indicator kernels give an affine phi.  `calibration_phi` takes these closed
forms, and a checked Volterra solve for a tabulated kernel.  The solve
discretizes the equation for psi by the product-midpoint rule: panels
[0, g_0], [g_0, g_1], ... between the supplied grid nodes (plus the initial
panel down to 0), one unknown psi_j per panel midpoint, one equation per
grid node, and the lower-triangular system is solved by forward
substitution.

First-kind equations are ill-posed; no regularization is applied, so grid
choice matters.  For diagonal-degenerate kernels a power-graded mesh
(`power_grid`) keeps the scheme stable and resolves the origin
singularity.  The residual check (`check_residuals`, at the nodes that
`residual_spots` picks) runs after every solve of a CLI experiment:
`solve-phi`'s and `calibration_phi`'s.  Near the origin the first panel's
unknown is a kernel-weighted panel average, so for singular phi the
returned values carry an O(1) relative startup error below the first grid
node; accuracy on the grid span is what the solver
advertises (see `SOLVER_RTOL`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericsError, ValidationError
from .kernels import _F_TABLE_RATIO, KernelSpec, _fractional_row, kernel_eval_at, kernel_phi_lambda_integral
from .point_process import IntensitySpec
from .serialize import write_csv

#: diagonal product weights below this abort the forward substitution
SINGULAR_WEIGHT_TOL = 1e-14

#: relative residual the Volterra solver advertises on its grid span, which
#: the residual check reads
SOLVER_RTOL = 1e-2

#: the solver's accuracy advertisement applies at nodes >= this multiple of
#: the first grid node; the startup layer below it absorbs the product rule's
#: misfit of singular phi over the initial panel (O(1) relative at node one)
STARTUP_SPAN_FACTOR = 64.0


@dataclass(frozen=True, eq=False)
class PhiFunction:
    """Calibration function: closed-form fractional, or grid + linear interp.

    Grid evaluation clamps to the first/last value outside the node range;
    the clamped extension is what `integral` integrates.  Closed-form
    evaluation requires s > 0 (phi diverges at the origin).
    """

    kind: str
    H: float | None = None
    lam: float | None = None
    nodes: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "closed_form_fractional":
            if not (self.H is not None and 0.5 < self.H < 1.0):
                raise ValidationError(f"fractional phi requires H in (1/2, 1), got {self.H}")
            if not (self.lam is not None and self.lam > 0):
                raise ValidationError(f"fractional phi requires lambda > 0, got {self.lam}")
        elif self.kind == "grid":
            nodes = np.asarray(self.nodes, dtype=float)
            values = np.asarray(self.values, dtype=float)
            object.__setattr__(self, "nodes", nodes)
            object.__setattr__(self, "values", values)
            if nodes.ndim != 1 or nodes.size < 2 or nodes.shape != values.shape:
                raise ValidationError("grid phi needs >= 2 nodes and matching values")
            if not np.all(np.diff(nodes) > 0):
                raise ValidationError("grid phi nodes must be strictly increasing")
            if nodes[0] < 0:
                raise ValidationError("grid phi nodes must be nonnegative")
            if np.any(values < 0):
                raise ValidationError("phi must be nonnegative")
        else:
            raise ValidationError(f"unknown phi kind {self.kind!r}")

    @classmethod
    def constant(cls, value: float) -> "PhiFunction":
        return cls(kind="grid", nodes=np.array([0.0, 1.0]), values=np.array([value, value], dtype=float))

    @cached_property
    def coefficient(self) -> float:
        """Gamma(3/2 - H) / Gamma(2 - 2H) for the closed fractional form."""
        return math.exp(math.lgamma(1.5 - self.H) - math.lgamma(2.0 - 2.0 * self.H))

    @cached_property
    def kinks(self) -> np.ndarray:
        """Positive nodes where the clamped interpolant's slope changes; none for the closed form."""
        if self.kind != "grid":
            return np.empty(0)
        slopes = np.concatenate(([0.0], np.diff(self.values) / np.diff(self.nodes), [0.0]))
        return self.nodes[(np.diff(slopes) != 0.0) & (self.nodes > 0.0)]

    @property
    def origin_exponent(self) -> float:
        """e with phi(s) ~ s^(-e) near 0; 0 for bounded grid functions."""
        return self.H - 0.5 if self.kind == "closed_form_fractional" else 0.0

    def __call__(self, s):
        scalar = np.isscalar(s)
        if self.kind == "grid":
            out = np.interp(s, self.nodes, self.values)  # interp clamps outside
            return float(out) if scalar else np.atleast_1d(out)
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s_arr <= 0):
            raise ValidationError("fractional phi requires s > 0")
        out = self.coefficient * s_arr ** (0.5 - self.H) / self.lam
        return float(out[0]) if scalar else out

    def sup_on(self, a: float, b: float) -> float:
        """sup of phi over [a, b] (may be inf for the fractional form at a <= 0)."""
        if a > b:
            raise ValidationError(f"empty interval [{a}, {b}]")
        if self.kind == "closed_form_fractional":
            return math.inf if a <= 0 else self(a)  # decreasing in s
        inside = (self.nodes >= a) & (self.nodes <= b)
        cands = [self(a), self(b)]
        if np.any(inside):
            cands.append(float(self.values[inside].max()))
        return max(cands)

    def integral(self, t: float) -> float:
        """int_0^t phi(s) ds, exact for both kinds (clamped extension for grids)."""
        if t < 0:
            raise ValidationError(f"t must be >= 0, got {t}")
        if t == 0:
            return 0.0
        if self.kind == "closed_form_fractional":
            p = 1.5 - self.H
            return self.coefficient / self.lam * t**p / p
        nodes, values = self.nodes, self.values
        total = min(t, nodes[0]) * values[0]  # clamped stub below the first node
        if t <= nodes[0]:
            return float(total)
        # trapezoid over fully covered segments, linear part over a split one
        k = int(np.searchsorted(nodes, t, side="right")) - 1
        seg = np.diff(nodes[: k + 1]) * 0.5 * (values[:k] + values[1 : k + 1])
        total += float(seg.sum())
        if k == nodes.size - 1:
            total += (t - nodes[-1]) * values[-1]  # clamped beyond the last node
        elif t > nodes[k]:
            fa = values[k]
            fb = self(t)
            total += (t - nodes[k]) * 0.5 * (fa + fb)
        return float(total)

    def to_csv(self, path) -> None:
        if self.kind != "grid":
            raise ValidationError("only grid phi functions serialize to CSV")
        write_csv(path, "s,phi", (self.nodes, self.values))


def phi_fractional(H: float, lam: float) -> PhiFunction:
    """Closed-form phi for the fractional kernel under constant rate lam (checked by `PhiFunction`)."""
    return PhiFunction(kind="closed_form_fractional", H=H, lam=lam)


def power_grid(stop: float, count: int) -> np.ndarray:
    """Graded mesh stop * (k/n)^2, k = 1..n; denser toward the origin.

    The gentle panel-growth ratio keeps the product-midpoint scheme stable
    for diagonal-degenerate kernels while resolving singular phi near 0.
    """
    if not stop > 0 or count < 2:
        raise ValidationError("power_grid needs stop > 0 and count >= 2")
    return stop * (np.arange(1, count + 1) / count) ** 2.0


def calibration_phi(kernel: KernelSpec, intensity: IntensitySpec, m1: float, horizon: float) -> PhiFunction:
    """Calibration function for `kernel` under the constant rate `intensity`.

    The three analytic kernels take their closed forms (the affine
    exponential and indicator forms are exact on a 2-node grid).  A tabulated
    kernel is solved on `power_grid(horizon, 2000)`, and the solve must pass
    `check_residuals` (NumericsError otherwise).
    """
    lam = intensity.base_rate * m1
    if kernel.kind == "fractional":
        return phi_fractional(kernel.H, lam)
    if kernel.kind == "indicator":
        return PhiFunction.constant(1.0 / lam)
    if kernel.kind == "exp_shot_noise":
        nodes = np.array([0.0, horizon])
        return PhiFunction(kind="grid", nodes=nodes, values=(1.0 + kernel.a * nodes) / lam)
    grid = power_grid(horizon, 2000)
    phi = solve_phi_volterra(kernel, intensity, m1, grid)
    check_residuals(phi, kernel, intensity, m1, grid)
    return phi


def solve_phi_volterra(
    kernel: KernelSpec,
    intensity: IntensitySpec,
    m1: float,
    grid: np.ndarray,
) -> PhiFunction:
    """Solve m1 int_0^t K(t,s) phi(s) lambda(s) ds = t on the given grid.

    Product-midpoint discretization of the rate-free equation for psi =
    phi lambda: the j-th unknown is psi at the midpoint of panel j (the
    first panel runs from 0 to the first grid node), the i-th equation
    collocates the integral at grid node i, the lower-triangular system is
    solved by forward substitution, and phi = psi / lambda.  Row i is
    K(grid[i], .) on the first i + 1 midpoints: for the fractional kind
    with mids[i] < grid[i] <= mids[0] e^32 (1 - 1e-12), `kernels._fractional_row`
    (the midpoints are sorted, so the row lies below the diagonal and
    inside the F table), otherwise `kernel_eval_at`, with the same floats.  Raises
    NumericsError when a diagonal weight falls below 1e-14 (kernel too
    degenerate near the diagonal for the chosen grid), or when the computed
    phi is not finite (say from an infinite tabulated kernel value) or
    violates nonnegativity.

    For kernels singular at s = 0 the unknown on the initial panel is a
    kernel-weighted panel average, which mismatches a diverging phi by an
    O(1) relative factor; that startup error decays over the first handful
    of nodes.  The advertised tolerance SOLVER_RTOL therefore applies to
    residuals at nodes >= STARTUP_SPAN_FACTOR * grid[0], and closed-form
    agreement holds on the span of downstream use.  Graded meshes
    (`power_grid`) keep the scheme stable for diagonal-degenerate kernels;
    abrupt panel-width shrinkage excites a sawtooth mode and must be
    avoided.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("grid must be a 1-d array with at least 2 nodes")
    if not grid[0] > 0:
        raise ValidationError("grid must start above 0")
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing")
    if not m1 > 0:
        raise ValidationError(f"m1 must be positive, got {m1}")

    bounds = np.concatenate(([0.0], grid))
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    # each row is K * (m1 * widths), in place; one rounded product commutes
    factors = m1 * np.diff(bounds)
    # rows up to t_lean need none of kernel_eval_at's checks and reductions
    lean, t_lean = kernel.kind == "fractional", float(mids[0]) * _F_TABLE_RATIO
    n = grid.size
    psi = np.empty(n)
    for i in range(n):
        t = grid[i]
        if lean and mids[i] < t <= t_lean:
            w = _fractional_row(kernel.H, t, mids[: i + 1])
        else:
            w = kernel_eval_at(kernel, t, mids[: i + 1])
        w *= factors[: i + 1]
        if w[i] < SINGULAR_WEIGHT_TOL:
            raise NumericsError(
                f"singular Volterra system: diagonal weight {w[i]:.3e} at node {t} "
                "(kernel too degenerate near the diagonal for this grid)"
            )
        psi[i] = (t - w[:i] @ psi[:i]) / w[i]
    phi = psi / intensity.rate_at(mids)
    if not np.isfinite(phi).all():
        raise NumericsError(f"Volterra solution is not finite at node {grid[~np.isfinite(phi)][0]}")
    if np.any(phi < 0):
        raise NumericsError(
            "Volterra solution violates phi >= 0; refine the grid (graded meshes "
            "stabilize diagonal-degenerate kernels)"
        )
    return PhiFunction(kind="grid", nodes=mids, values=phi)


def phi_lambda_integral(phi: PhiFunction, intensity: IntensitySpec, t: float) -> float:
    """int_0^t phi(s) lambda(s) ds by `kernel_phi_lambda_integral` (no kernel)."""
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    return kernel_phi_lambda_integral(t, intensity, phi=phi) if t > 0 else 0.0


def volterra_residuals(
    phi: PhiFunction,
    kernel: KernelSpec,
    intensity: IntensitySpec,
    m1: float,
    nodes: np.ndarray,
) -> np.ndarray:
    """Relative residuals |m1 int_0^t K(t,s) phi(s) lambda(s) ds - t| / t.

    Recomputed by `kernel_phi_lambda_integral`, independent of the solver's
    product rule; `check_residuals` compares these against 2x SOLVER_RTOL.
    Raises ValidationError unless every node is finite and > 0.
    """
    nodes = np.atleast_1d(np.asarray(nodes, dtype=float))
    if not np.all(np.isfinite(nodes) & (nodes > 0)):
        raise ValidationError("residual nodes must be finite and > 0")
    vals = np.array([kernel_phi_lambda_integral(float(t), intensity, kernel, phi) for t in nodes])
    return np.abs(m1 * vals - nodes) / nodes


def residual_spots(grid: np.ndarray) -> np.ndarray:
    """At most 12 nodes of `grid`, evenly spread over the span the solver advertises.

    The span is the nodes >= STARTUP_SPAN_FACTOR * grid[0], or the last node
    when there are none.
    """
    span = grid[grid >= STARTUP_SPAN_FACTOR * grid[0]]
    if span.size == 0:
        span = grid[-1:]
    return span[np.unique(np.linspace(0, span.size - 1, min(12, span.size)).astype(int))]


def check_residuals(
    phi: PhiFunction, kernel: KernelSpec, intensity: IntensitySpec, m1: float, grid: np.ndarray
) -> float:
    """Largest relative residual of a solve on `grid` at its `residual_spots`.

    Raises NumericsError when it exceeds 2 x SOLVER_RTOL or is NaN.
    """
    worst = float(volterra_residuals(phi, kernel, intensity, m1, residual_spots(grid)).max())
    if not worst <= 2.0 * SOLVER_RTOL:  # also fails a NaN residual
        raise NumericsError(
            f"Volterra residual check failed: max relative residual {worst:.3e} "
            f"exceeds 2 x solver tolerance {SOLVER_RTOL}"
        )
    return worst
