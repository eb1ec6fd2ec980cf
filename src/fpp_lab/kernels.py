"""Triangular kernels K(t, s), including the fractional Brownian kernel.

Supported kinds:

* ``indicator``        K(t,s) = 1 for s <= t
* ``exp_shot_noise``   K(t,s) = exp(-a (t-s)) for s <= t (convolution kernel)
* ``fractional``       K(t,s) = (t-s)^(H-1/2) F(H-1/2, 1/2-H, H+1/2, 1-t/s)
                       / Gamma(H+1/2), for Hurst H in (1/2, 1)
* ``tabulated``        bilinear interpolation of an externally supplied grid,
                       clamped to the table edges; vectorized evaluation is
                       one `_bilinear` call over all points, elementwise the
                       same arithmetic as the scalar path

Every kind is triangular (exactly 0 for s > t).  The fractional kind
vanishes on the diagonal and diverges like s^(1/2-H) as s -> 0, which is
integrable; quadrature against it substitutes s = t v^(1/(1-e)) to flatten
the origin singularity of exponent e.

`kernel_phi_lambda_integral` is the package's one integral against the
kernel, the calibration function phi and the rate: closed forms where they
exist (among them int K_H = Gamma(3/2-H) t^(H+1/2) / (H+1/2) and, for the
closed-form phi of the same H, int K_H phi = t / lam), otherwise one
quadrature at one tolerance with one convergence check.  That quadrature,
`singular_quad_0_to_t`, is vectorized double-exponential (tanh-sinh)
quadrature (Takahasi & Mori 1974) over the substituted variable: each
refinement level is one call of the integrand on an array of abscissae, so
a residual stub costs a handful of kernel calls, not hundreds of one-point
calls.

F = F(H-1/2, 1/2-H, H+1/2, z) of the fractional kind is
`scipy.special.hyp2f1`.  Scalar fractional evaluation assembles the defining
formula from one F value.  Vectorized evaluation goes through a per-H
cubic-spline table of x -> F(1 - e^x) on x = ln(t/s) in [0, 32], built
lazily from one vectorized F call on its 4096 nodes; points beyond the table
take one F call.  The spline reproduces F to better than 1e-11 relative
(measured for H from 0.5001 to 0.99), far inside the 1e-8 kernel accuracy
contract, and is faster than F itself on the thousands of points a
calibration call evaluates.  A row of points wholly below the diagonal and
inside the table (every row of the Volterra solve) is evaluated on the
input array itself, without the masked gather and scatter that the general
case needs.

scipy is imported inside the functions that use it, not at module level:
importing `scipy.special`, `scipy.integrate` and `scipy.interpolate` takes
longer than a drift-consistency run, which needs none of them, so a run pays
for a scipy submodule only when it first evaluates the fractional kernel,
calls F or runs a quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericsError, ValidationError
from .point_process import IntensitySpec, integrated_intensity
from .serialize import read_csv

if TYPE_CHECKING:  # pragma: no cover
    from scipy.interpolate import CubicSpline

    from .phi_solver import PhiFunction

KERNEL_KINDS = ("indicator", "exp_shot_noise", "fractional", "tabulated")


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A triangular kernel; use the factory classmethods to construct."""

    kind: str
    a: float | None = None
    H: float | None = None
    table_t: np.ndarray | None = None
    table_s: np.ndarray | None = None
    table_values: np.ndarray | None = None
    diagonal_degenerate: bool = False

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "exp_shot_noise" and not (self.a is not None and self.a > 0):
            raise ValidationError("exp_shot_noise kernel requires decay rate a > 0")
        if self.kind == "fractional" and not (self.H is not None and 0.5 < self.H < 1.0):
            raise ValidationError(f"fractional kernel requires H in (1/2, 1), got {self.H}")
        if self.kind in ("indicator", "exp_shot_noise") and self.diagonal_degenerate:
            raise ValidationError(f"{self.kind} kernel has K(t,t) = 1, not degenerate")
        if self.kind == "fractional" and not self.diagonal_degenerate:
            raise ValidationError("fractional kernel with H > 1/2 is diagonal-degenerate")

    @classmethod
    def indicator(cls) -> "KernelSpec":
        return cls(kind="indicator")

    @classmethod
    def exp_shot_noise(cls, a: float) -> "KernelSpec":
        return cls(kind="exp_shot_noise", a=float(a))

    @classmethod
    def fractional(cls, H: float) -> "KernelSpec":
        return cls(kind="fractional", H=float(H), diagonal_degenerate=True)

    @classmethod
    def tabulated(cls, t_grid, s_grid, values) -> "KernelSpec":
        t_grid = np.asarray(t_grid, dtype=float)
        s_grid = np.asarray(s_grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if t_grid.ndim != 1 or s_grid.ndim != 1 or values.shape != (t_grid.size, s_grid.size):
            raise ValidationError("tabulated kernel needs values shaped (len(t), len(s))")
        if not (np.all(np.diff(t_grid) > 0) and np.all(np.diff(s_grid) > 0)):
            raise ValidationError("tabulated kernel grids must be strictly increasing")
        if np.all(np.isfinite(values)):
            degenerate = bool(np.all(_bilinear(t_grid, s_grid, values, t_grid, t_grid) == 0.0))
        else:
            degenerate = False  # non-finite tables are classified irregular
        return cls(
            kind="tabulated",
            table_t=t_grid,
            table_s=s_grid,
            table_values=values,
            diagonal_degenerate=degenerate,
        )

    @classmethod
    def tabulated_from_csv(cls, path) -> "KernelSpec":
        """Load rows "t,s,value" forming a complete rectangular lattice."""
        arr = read_csv(path, "t,s,value")
        if not arr.size:
            raise ValidationError(f"empty tabulated kernel file {path}")
        if not np.all(np.isfinite(arr[:, 2])):
            raise ValidationError(f"tabulated kernel file {path} has a non-finite value")
        t_grid = np.unique(arr[:, 0])
        s_grid = np.unique(arr[:, 1])
        if arr.shape[0] != t_grid.size * s_grid.size:
            raise ValidationError("tabulated kernel CSV must cover a full t x s lattice")
        values = np.full((t_grid.size, s_grid.size), np.nan)
        it = np.searchsorted(t_grid, arr[:, 0])
        js = np.searchsorted(s_grid, arr[:, 1])
        values[it, js] = arr[:, 2]
        if np.any(np.isnan(values)):
            raise ValidationError("tabulated kernel CSV has duplicate or missing lattice points")
        return cls.tabulated(t_grid, s_grid, values)

    @property
    def origin_exponent(self) -> float:
        """e such that K(t, s) ~ s^(-e) as s -> 0 (0 for bounded kernels)."""
        return self.H - 0.5 if self.kind == "fractional" else 0.0


def _bilinear(tg, sg, vals, t, s):
    """Bilinear interpolation clamped to the table edges."""
    i = np.clip(np.searchsorted(tg, t) - 1, 0, tg.size - 2)
    j = np.clip(np.searchsorted(sg, s) - 1, 0, sg.size - 2)
    wt = np.clip((t - tg[i]) / (tg[i + 1] - tg[i]), 0.0, 1.0)
    ws = np.clip((s - sg[j]) / (sg[j + 1] - sg[j]), 0.0, 1.0)
    return (
        vals[i, j] * (1 - wt) * (1 - ws)
        + vals[i + 1, j] * wt * (1 - ws)
        + vals[i, j + 1] * (1 - wt) * ws
        + vals[i + 1, j + 1] * wt * ws
    )


# ---------------------------------------------------------------------------
# fractional kind: scalar assembly and vectorized spline table

_F_TABLE_XMAX = 32.0
_F_TABLE_NODES = 4096
_f_tables: dict[float, CubicSpline] = {}


def _fractional_f(H: float, z: np.ndarray) -> np.ndarray:
    """F(H-1/2, 1/2-H, H+1/2, z), elementwise."""
    import scipy.special

    return scipy.special.hyp2f1(H - 0.5, 0.5 - H, H + 0.5, z)


def _fractional_k(H: float, t: float, s: np.ndarray, f: np.ndarray) -> np.ndarray:
    """K_H(t, s) for s < t from f = F(1 - t/s), in numpy arithmetic.

    The scalar path passes one-point arrays: numpy's SIMD power can differ
    from Python's ** in the last bit, and both paths must agree exactly.
    """
    return (t - s) ** (H - 0.5) * f / math.exp(math.lgamma(H + 0.5))


def _fractional_k_far(H: float, t: float, s: np.ndarray) -> np.ndarray:
    """K_H(t, s) where t / s overflows, without forming t / s.

    With w = 1/z = s / (s - t) below 1e-308 in magnitude, the 1/z
    connection formula of F(a, b; c; z) leaves two powers of -z = t/s - 1
    times F-factors that equal 1 + O(w), and t - s rounds to t, so

        K = Gamma(1-2H)/Gamma(1/2-H) s^(H-1/2)
            + Gamma(2H-1)/(Gamma(H-1/2) Gamma(2H)) t^(2H-1) s^(1/2-H)

    to double precision; both terms are positive, and near H = 1/2 both
    count.  (The Pfaff form F(H-1/2, 2H; H+1/2; 1 - s/t) does not help
    here: 1 - s/t rounds to 1, where that F diverges.)
    """
    a = math.gamma(1.0 - 2.0 * H) / math.gamma(0.5 - H)
    b = math.gamma(2.0 * H - 1.0) / (math.gamma(H - 0.5) * math.gamma(2.0 * H))
    return a * s ** (H - 0.5) + b * t ** (2.0 * H - 1.0) * s ** (0.5 - H)


def _fractional_table(H: float) -> CubicSpline:
    spline = _f_tables.get(H)
    if spline is None:
        from scipy.interpolate import CubicSpline

        x = np.linspace(0.0, _F_TABLE_XMAX, _F_TABLE_NODES)
        spline = _f_tables[H] = CubicSpline(x, _fractional_f(H, -np.expm1(x)))
    return spline


def kernel_eval(spec: KernelSpec, t: float, s: float) -> float:
    """K(t, s), exactly 0 for s > t; scalar, full-accuracy path.

    The fractional kind assembles the defining formula from one F value;
    every other kind is `kernel_eval_at` on one point.
    """
    if not t > 0:
        raise ValidationError(f"kernel_eval requires t > 0, got t={t}")
    if not s > 0:
        raise ValidationError(f"kernel_eval requires s > 0, got s={s}")
    point = np.array([s])
    if spec.kind == "fractional" and s < t and float(t) / float(s) < math.inf:
        return float(_fractional_k(spec.H, t, point, _fractional_f(spec.H, 1.0 - t / point))[0])
    return float(kernel_eval_at(spec, t, point)[0])


def kernel_eval_at(spec: KernelSpec, t: float, s: np.ndarray) -> np.ndarray:
    """Vectorized K(t, s_array) for fixed t.

    The fractional kind uses the spline table of F on x = ln(t/s); points
    beyond the table range (s/t < e^-32) take one direct F call, equal (==)
    to `kernel_eval` point by point, and points so far below the diagonal
    that t / s overflows take `_fractional_k_far`, as in `kernel_eval`.
    When every point lies below the diagonal and inside the table, the
    fractional kind works on `s` itself, with no masked copies, and gives
    the same values (==).  The tabulated kind interpolates all points with
    s <= t in one bilinear call, equal (==) to `kernel_eval` point by point.
    """
    s = np.asarray(s, dtype=float)
    if not t > 0:
        raise ValidationError(f"kernel_eval_at requires t > 0, got t={t}")
    if np.any(s <= 0):
        raise ValidationError("kernel_eval_at requires s > 0")
    if spec.kind == "fractional" and s.size and s.max() < t:
        with np.errstate(over="ignore"):  # an overflowed t / s leaves the table
            x = np.log(t / s)
        if x.max() <= _F_TABLE_XMAX:
            return _fractional_k(spec.H, t, s, _fractional_table(spec.H)(x))
    out = np.zeros(s.shape)
    below = s < t
    if spec.kind == "indicator":
        out[s <= t] = 1.0
        return out
    if spec.kind == "exp_shot_noise":
        sel = s <= t
        out[sel] = np.exp(-spec.a * (t - s[sel]))
        return out
    if spec.kind == "tabulated":
        sel = s <= t
        out[sel] = _bilinear(spec.table_t, spec.table_s, spec.table_values, t, s[sel])
        return out
    # fractional
    sb = s[below]
    with np.errstate(over="ignore"):
        x = np.log(t / sb)
    far = np.isinf(x)
    in_table = x <= _F_TABLE_XMAX
    beyond = ~in_table & ~far
    f = np.zeros(sb.shape)
    f[in_table] = _fractional_table(spec.H)(x[in_table])
    f[beyond] = _fractional_f(spec.H, 1.0 - t / sb[beyond])
    k = _fractional_k(spec.H, t, sb, f)
    k[far] = _fractional_k_far(spec.H, t, sb[far])
    out[below] = k
    return out


#: absolute error floor of `singular_quad_0_to_t`, and of the convergence
#: check that reads its error estimate: one number, so that an integral the
#: rule reports converged also passes the check
QUAD_ATOL = 1e-13

#: relative tolerance of `singular_quad_0_to_t`
QUAD_RTOL = 1e-9

_TINY = np.finfo(float).tiny


def singular_quad_0_to_t(f, t: float, origin_exponent: float) -> tuple[float, float]:
    """int_0^t f(s) ds where f(s) ~ s^(-origin_exponent) near 0.

    `f` maps a 1-d array of s > 0 to an array of the same shape.
    Substitutes s = t v^p with p = 1/(1 - e), turning the origin
    singularity into a bounded integrand, and integrates over v in (0, 1)
    by tanh-sinh quadrature at relative tolerance QUAD_RTOL and absolute
    tolerance QUAD_ATOL.  Returns (value, error estimate); the error is inf
    when the rule reports no convergence.  An abscissa whose s underflows
    (below the smallest normal double, zero included) adds 0, unevaluated:
    the substituted integrand is bounded near v = 0, so a point that close
    to 0 carries no weight at double precision.
    """
    from scipy.integrate import tanhsinh

    if origin_exponent >= 1.0:
        raise NumericsError(f"non-integrable origin exponent {origin_exponent}")
    p = 1.0 / (1.0 - origin_exponent) if origin_exponent > 0.0 else 1.0

    def g(v: np.ndarray) -> np.ndarray:
        s = t * v**p
        out = np.zeros(s.shape)
        keep = s >= _TINY
        out[keep] = f(s[keep]) * t * p * v[keep] ** (p - 1.0)
        return out

    res = tanhsinh(g, 0.0, 1.0, atol=QUAD_ATOL, rtol=QUAD_RTOL)
    return float(res.integral), float(res.error) if res.success else math.inf


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

#: Gauss panels evaluated per kernel call for a grid phi; fixed so that the
#: (panels x 12) temporaries, and with them peak memory, stay small however
#: fine the grid
PANEL_BLOCK = 256


def _checked_quad(
    t: float, upper: float, intensity: IntensitySpec, kernel: KernelSpec | None, phi: PhiFunction | None
) -> float:
    """int_0^upper K(t,s) phi(s) lambda(s) ds by `singular_quad_0_to_t`.

    The integrand is one `kernel_eval_at`, one `phi` and one `rate_at` call
    per array of abscissae; the origin exponent is the sum of the three
    factors' exponents.  Raises NumericsError when the error estimate
    exceeds max(1e-8 |value|, QUAD_ATOL).
    """
    e = intensity.origin_exponent
    if kernel is not None:
        e += kernel.origin_exponent
    if phi is not None:
        e += phi.origin_exponent

    def f(s: np.ndarray) -> np.ndarray:
        k = 1.0 if kernel is None else kernel_eval_at(kernel, t, s)
        p = 1.0 if phi is None else phi(s)
        return k * p * np.asarray(intensity.rate_at(s))

    val, err = singular_quad_0_to_t(f, upper, e)
    if err > max(1e-8 * abs(val), QUAD_ATOL):
        raise NumericsError(
            f"quadrature of K phi lambda did not converge at t={t}: "
            f"value {val:.6e}, error estimate {err:.2e}"
        )
    return val


def _grid_phi_integral(
    t: float, intensity: IntensitySpec, kernel: KernelSpec, phi: PhiFunction
) -> float:
    """int_0^t K(t,s) phi(s) lambda(s) ds for a grid phi.

    The interpolant has kinks at its nodes, so one quadrature over the
    whole interval is noisy; instead the stub from 0 to the first kink (a
    positive node where the slope of the clamped interpolant changes),
    where the kernel and the rate may be singular, goes through
    `_checked_quad`, and each later inter-node panel (smooth) gets a fixed
    12-point Gauss rule.  Without a kink below t the whole integral is the
    stub, which keeps a constant or affine phi as accurate as the
    quadrature (a Gauss rule on one wide panel would miss the kernel's
    (t - s)^(H - 1/2) behaviour at the diagonal).

    The panels are evaluated in blocks of PANEL_BLOCK: one `kernel_eval_at`,
    `phi` and `rate_at` call on the block's flattened Gauss points, all three
    elementwise, so every point gets the value a per-panel call would give.
    The sum keeps the per-panel arithmetic so the result stays bit-identical
    to adding the panels one at a time: each panel is its own `np.dot` of
    weights and values, and the panel values are added left to right from
    the stub value by `np.cumsum` (sequential, unlike `np.sum`), the running
    total carried from block to block.  A row-wise sum or einsum would
    reassociate and move the result in the last digits.
    """
    slopes = np.concatenate(([0.0], np.diff(phi.values) / np.diff(phi.nodes), [0.0]))
    kinks = phi.nodes[(np.diff(slopes) != 0.0) & (phi.nodes > 0.0)]
    stub = min(t, kinks[0]) if kinks.size else t
    total = _checked_quad(t, stub, intensity, kernel, phi)
    if stub == t:
        return total
    edges = np.unique(np.concatenate([np.clip(phi.nodes, stub, t), [t]]))
    for lo in range(0, edges.size - 1, PANEL_BLOCK):
        block = edges[lo : lo + PANEL_BLOCK + 1]
        a, b = block[:-1, None], block[1:, None]
        s = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        w = 0.5 * (b - a) * _GL_WEIGHTS
        flat = s.ravel()
        vals = kernel_eval_at(kernel, t, flat) * phi(flat) * np.asarray(intensity.rate_at(flat))
        total = np.cumsum([total, *map(np.dot, w, vals.reshape(s.shape))])[-1]
    return float(total)


def kernel_phi_lambda_integral(
    t: float, intensity: IntensitySpec, kernel: KernelSpec | None = None, phi: PhiFunction | None = None
) -> float:
    """int_0^t K(t,s) phi(s) lambda(s) ds for t > 0; an omitted K or phi counts as 1.

    The one routine that integrates against the kernel, the calibration
    function (a `PhiFunction`) and the rate.  The first matching case wins:

    1. grid phi with a kernel: quadrature on the stub below the first kink
       of the interpolant plus blocked 12-point Gauss panels between the
       later nodes (`_grid_phi_integral`);
    2. no phi, and no kernel or the indicator kernel: `integrated_intensity`;
    3. constant rate b, closed forms:
       no kernel: b int_0^t phi;
       exponential kernel, no phi: b (1 - e^(-a t)) / a;
       fractional kernel, no phi: b Gamma(3/2 - H) t^(H+1/2) / (H + 1/2);
       fractional kernel with the closed-form phi of the same H:
       b t / phi.lam (the calibration identity);
    4. otherwise singularity-aware quadrature of the product, with the sum
       of the factors' origin exponents.

    Every quadrature runs at relative tolerance QUAD_RTOL and raises
    NumericsError when its error estimate exceeds max(1e-8 |value|, QUAD_ATOL).
    """
    if phi is not None and phi.kind == "grid" and kernel is not None:
        return _grid_phi_integral(t, intensity, kernel, phi)
    if phi is None and (kernel is None or kernel.kind == "indicator"):
        return integrated_intensity(intensity, t)
    if intensity.kind == "constant":
        b = intensity.base_rate
        if kernel is None:
            return b * phi.integral(t)
        if phi is None and kernel.kind == "exp_shot_noise":
            return b * (1.0 - math.exp(-kernel.a * t)) / kernel.a
        if kernel.kind == "fractional":
            H = kernel.H
            if phi is None:
                return b * math.gamma(1.5 - H) * t ** (H + 0.5) / (H + 0.5)
            if phi.kind == "closed_form_fractional" and phi.H == H:
                return b * t / phi.lam
    return _checked_quad(t, t, intensity, kernel, phi)


def kernel_lambda_integral(spec: KernelSpec, intensity: IntensitySpec, t: float) -> float:
    """int_0^t K(t, s) lambda(s) ds by `kernel_phi_lambda_integral`."""
    if not t > 0:
        raise ValidationError(f"kernel_lambda_integral requires t > 0, got {t}")
    return kernel_phi_lambda_integral(float(t), intensity, spec)
