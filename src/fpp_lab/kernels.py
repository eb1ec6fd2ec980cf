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

Scalar fractional evaluation assembles the defining formula from the
special-functions module directly.  Vectorized evaluation goes through a
per-H cubic-spline table of x -> F(1 - e^x) on x = ln(t/s) in [0, 32],
built lazily from the scalar path; the table reproduces the scalar values
to ~1e-10 absolute (tested), far inside the 1e-8 kernel accuracy contract.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .errors import NumericsError, ValidationError
from .point_process import IntensitySpec, integrated_intensity
from .serialize import read_csv
from .special_functions import Hyp2F1Params, hyp2f1, ln_gamma

KERNEL_KINDS = ("indicator", "exp_shot_noise", "fractional", "tabulated")

CONTINUOUS = "continuous_paths"
CADLAG = "cadlag_paths"
IRREGULAR = "irregular"


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
        rows = read_csv(path, "t,s,value")
        if not rows:
            raise ValidationError(f"empty tabulated kernel file {path}")
        arr = np.asarray(rows)
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
_f_tables_lock = threading.Lock()


def _fractional_f(H: float, z: float) -> float:
    return hyp2f1(Hyp2F1Params(a=H - 0.5, b=0.5 - H, c=H + 0.5, z=z))


def _fractional_table(H: float) -> CubicSpline:
    spline = _f_tables.get(H)
    if spline is not None:
        return spline
    with _f_tables_lock:
        spline = _f_tables.get(H)
        if spline is None:
            x = np.linspace(0.0, _F_TABLE_XMAX, _F_TABLE_NODES)
            vals = np.array([_fractional_f(H, 1.0 - math.exp(xi)) if xi > 0 else 1.0 for xi in x])
            spline = CubicSpline(x, vals)
            _f_tables[H] = spline
    return spline


def kernel_eval(spec: KernelSpec, t: float, s: float) -> float:
    """K(t, s), exactly 0 for s > t; scalar, full-accuracy path."""
    if not t > 0:
        raise ValidationError(f"kernel_eval requires t > 0, got t={t}")
    if not s > 0:
        raise ValidationError(f"kernel_eval requires s > 0, got s={s}")
    if s > t:
        return 0.0
    if spec.kind == "indicator":
        return 1.0
    if spec.kind == "exp_shot_noise":
        return math.exp(-spec.a * (t - s))
    if spec.kind == "fractional":
        if s == t:
            return 0.0
        f = _fractional_f(spec.H, 1.0 - t / s)
        return (t - s) ** (spec.H - 0.5) * f / math.exp(ln_gamma(spec.H + 0.5))
    return float(_bilinear(spec.table_t, spec.table_s, spec.table_values, t, s))


def kernel_eval_at(spec: KernelSpec, t: float, s: np.ndarray) -> np.ndarray:
    """Vectorized K(t, s_array) for fixed t.

    The fractional kind uses the spline table of F on x = ln(t/s); points
    beyond the table range (s/t < e^-32) fall back to the scalar path.  The
    tabulated kind interpolates all points with s <= t in one bilinear call,
    equal (==) to `kernel_eval` point by point.
    """
    s = np.asarray(s, dtype=float)
    if not t > 0:
        raise ValidationError(f"kernel_eval_at requires t > 0, got t={t}")
    if np.any(s <= 0):
        raise ValidationError("kernel_eval_at requires s > 0")
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
    x = np.log(t / sb)
    fvals = np.empty(sb.shape)
    in_table = x <= _F_TABLE_XMAX
    if np.any(in_table):
        fvals[in_table] = _fractional_table(spec.H)(x[in_table])
    if np.any(~in_table):
        fvals[~in_table] = [_fractional_f(spec.H, 1.0 - t / si) for si in sb[~in_table]]
    out[below] = (t - sb) ** (spec.H - 0.5) * fvals / math.exp(ln_gamma(spec.H + 0.5))
    return out


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


def singular_quad_0_to_t(f, t: float, origin_exponent: float, rtol: float = 1e-9) -> tuple[float, float]:
    """int_0^t f(s) ds where f(s) ~ s^(-origin_exponent) near 0.

    Substitutes s = t v^p with p = 1/(1 - e), turning the origin
    singularity into a bounded integrand; returns (value, error estimate).
    """
    if origin_exponent >= 1.0:
        raise NumericsError(f"non-integrable origin exponent {origin_exponent}")
    if origin_exponent > 0.0:
        p = 1.0 / (1.0 - origin_exponent)

        def g(v: float) -> float:
            return f(t * v**p) * t * p * v ** (p - 1.0)

    else:

        def g(v: float) -> float:
            return f(t * v) * t

    return quad(g, 0.0, 1.0, epsabs=1e-12, epsrel=rtol, limit=200)


@lru_cache(maxsize=4096)
def _kernel_lambda_integral_cached(spec: KernelSpec, intensity: IntensitySpec, t: float) -> float:
    if spec.kind == "indicator":
        return integrated_intensity(intensity, t)
    if spec.kind == "exp_shot_noise" and intensity.kind == "constant":
        return intensity.base_rate * (1.0 - math.exp(-spec.a * t)) / spec.a
    e = spec.origin_exponent
    if intensity.kind == "scaled-by-phi":
        e += getattr(intensity.phi_ref, "origin_exponent", 0.0)

    def f(s: float) -> float:
        return kernel_eval(spec, t, s) * float(intensity.rate_at(s))

    val, err = singular_quad_0_to_t(f, t, e)
    if err > max(1e-7 * abs(val), 1e-12):
        raise NumericsError(
            f"kernel-intensity quadrature did not converge at t={t}: "
            f"value {val:.6e}, error estimate {err:.2e}"
        )
    return val


def kernel_lambda_integral(spec: KernelSpec, intensity: IntensitySpec, t: float) -> float:
    """int_0^t K(t, s) lambda(s) ds to 1e-7 relative accuracy.

    Closed forms cover the indicator kind and the exponential kind under
    constant intensity; everything else goes through singularity-aware
    quadrature.  Results are cached per (kernel, intensity, t).
    """
    if not t > 0:
        raise ValidationError(f"kernel_lambda_integral requires t > 0, got {t}")
    return _kernel_lambda_integral_cached(spec, intensity, float(t))
