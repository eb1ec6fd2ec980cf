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
quadrature, `singular_quad_0_to_t`, at one tolerance with one convergence
check.  It splits [0, t] at the integrand's kinks (the nodes of a grid phi
in the integrand or in a phi-scaled rate, a tabulated kernel's s-nodes) and
integrates the pieces next to the singularities at 0 and t by vectorized
double-exponential (tanh-sinh) quadrature (Takahasi & Mori 1974) in numpy,
with scipy.integrate.tanhsinh's step, levels and error estimate, the
others by 12-point Gauss-Legendre rules; each tanh-sinh refinement level
and each block of Gauss pieces is one call of the integrand on an array of
abscissae.

F = F(H-1/2, 1/2-H, H+1/2, z) of the fractional kind is
`special_functions.hyp2f1` on the scalar path inside the table range:
`kernel_eval` assembles the defining formula from one F value and sends
every other point to `kernel_eval_at`.  Vectorized evaluation goes through
a per-H cubic Hermite table of x -> F(1 - e^x) on 4096 uniform nodes of
x = ln(t/s) in [0, 32], built lazily in numpy (a few ms): node values and
exact x-derivatives come from two power series of ratio <= 1/2
(`_fractional_f_series`), and a point is one index split, four coefficient
gathers and a Horner step.  Points beyond the table take the series
itself, within 2.2e-16 of 30-digit mpmath up to x = 700.
The nodes are within 1e-14 relative of `hyp2f1` and the table within 1e-12
between them (measured for H from 0.5001 to 0.99; 7.6e-13 at H = 0.9999,
where Gamma(-2a) nears its pole), far inside the 1e-8 kernel accuracy
contract.  A row of points wholly below the diagonal and inside the table
(every row of the Volterra solve) is evaluated on the input array itself,
without the masked gather and scatter that the general case needs.

No code path of an experiment imports scipy: importing `scipy.special`
or `scipy.integrate` takes longer than most runs.  Only
`special_functions.hyp2f1`, which the scalar `kernel_eval` calls inside
the table range, imports `scipy.special`, inside the function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericsError, ValidationError
from .point_process import IntensitySpec, integrated_intensity
from .serialize import read_csv
from .special_functions import Hyp2F1Params, hyp2f1

if TYPE_CHECKING:  # pragma: no cover
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

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "exp_shot_noise" and not (self.a is not None and self.a > 0):
            raise ValidationError("exp_shot_noise kernel requires decay rate a > 0")
        if self.kind == "fractional" and not (self.H is not None and 0.5 < self.H < 1.0):
            raise ValidationError(f"fractional kernel requires H in (1/2, 1), got {self.H}")

    @classmethod
    def indicator(cls) -> "KernelSpec":
        return cls(kind="indicator")

    @classmethod
    def exp_shot_noise(cls, a: float) -> "KernelSpec":
        return cls(kind="exp_shot_noise", a=float(a))

    @classmethod
    def fractional(cls, H: float) -> "KernelSpec":
        return cls(kind="fractional", H=float(H))

    @classmethod
    def tabulated(cls, t_grid, s_grid, values) -> "KernelSpec":
        t_grid = np.asarray(t_grid, dtype=float)
        s_grid = np.asarray(s_grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if t_grid.ndim != 1 or s_grid.ndim != 1 or values.shape != (t_grid.size, s_grid.size):
            raise ValidationError("tabulated kernel needs values shaped (len(t), len(s))")
        if not (np.all(np.diff(t_grid) > 0) and np.all(np.diff(s_grid) > 0)):
            raise ValidationError("tabulated kernel grids must be strictly increasing")
        return cls(kind="tabulated", table_t=t_grid, table_s=s_grid, table_values=values)

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

    @cached_property
    def diagonal_degenerate(self) -> bool:
        """K(t, t) = 0 for every t: the fractional kind, and a finite table that is 0 on its diagonal."""
        if self.kind != "tabulated":
            return self.kind == "fractional"
        tg, values = self.table_t, self.table_values
        if not np.all(np.isfinite(values)):
            return False  # non-finite tables are classified irregular
        return bool(np.all(_bilinear(tg, self.table_s, values, tg, tg) == 0.0))

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
# fractional kind: scalar assembly and vectorized Hermite table

_F_TABLE_XMAX = 32.0
_F_TABLE_NODES = 4096
#: nodes per unit x; (nodes - 1) / xmax = 127.96875 is exact, so x = xmax maps to the last node
_F_TABLE_INV_H = (_F_TABLE_NODES - 1) / _F_TABLE_XMAX
_SERIES_TERMS = 64
_f_tables: dict[float, tuple[np.ndarray, ...]] = {}


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


def _fractional_f_series(H: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(1 - e^x) and its derivative in x, for x >= 0, by power series.

    With a = H - 1/2, Pfaff's transformation (A&S 15.3.5) gives
    F = e^(ax) G(w), w = 1 - e^(-x), G(w) = F(1, -a; a+1; w) = sum c_n w^n
    with c_(n+1) = c_n (n - a) / (n + a + 1).  For x > ln 2 the 1-w
    connection formula (A&S 15.3.6) with q = e^(-x) gives
    G = S(q) / 2 + B q^(2a) (1-q)^(-a), S(q) = sum d_n q^n with
    d_(n+1) = d_n (n - a) / (n + 1 - 2a) and
    B = Gamma(1+a) Gamma(-2a) / Gamma(-a).  Both series run at ratio
    <= 1/2, so _SERIES_TERMS terms reach rounding; derivatives are termwise.
    """
    a = H - 0.5
    n = np.arange(_SERIES_TERMS - 1)
    poly = np.polynomial.polynomial
    f, df = np.empty(x.shape), np.empty(x.shape)
    near = x <= math.log(2.0)
    xn = x[near]
    w = -np.expm1(-xn)
    c = np.cumprod(np.concatenate(([1.0], (n - a) / (n + a + 1.0))))
    g, dg = poly.polyval(w, c), poly.polyval(w, poly.polyder(c))
    e = np.exp(a * xn)
    f[near], df[near] = e * g, e * (a * g + (1.0 - w) * dg)
    xf = x[~near]
    q = np.exp(-xf)
    d = np.cumprod(np.concatenate(([1.0], (n - a) / (n + 1.0 - 2.0 * a))))
    s, ds = poly.polyval(q, d), poly.polyval(q, poly.polyder(d))
    e = np.exp(a * xf)
    # past the table a x reaches 355 and its rounding alone would put F up to
    # 3e-14 off (under 2e-15 inside it, where the nodes stay as they were)
    past = xf > _F_TABLE_XMAX
    e[past] *= 1.0 + _product_rounding(a, xf[past])
    tail = math.gamma(1.0 + a) * math.gamma(-2.0 * a) / math.gamma(-a) / e * (1.0 - q) ** -a
    f[~near] = 0.5 * e * s + tail
    df[~near] = 0.5 * e * (a * s - q * ds) - a * tail / (1.0 - q)
    return f, df


def _product_rounding(a: float, x: np.ndarray) -> np.ndarray:
    """a x - fl(a x), exactly: Dekker's product (1971) on Veltkamp's 26-bit halves."""

    def halves(v):
        c = 134217729.0 * v  # 2^27 + 1
        hi = c - (c - v)
        return hi, v - hi

    p, (ah, al), (xh, xl) = a * x, halves(a), halves(x)
    return ((ah * xh - p) + ah * xl + al * xh) + al * xl


def _fractional_table(H: float) -> tuple[np.ndarray, ...]:
    """Cubic Hermite coefficients (c0, c1, c2, c3) of x -> F(1 - e^x), per interval.

    On interval j with d = x / h - j in [0, 1), F ~ c0 + d (c1 + d (c2 + d c3))
    from the series values and derivatives at both ends.  One interval past
    _F_TABLE_XMAX makes x = _F_TABLE_XMAX (j = nodes - 1, d = 0) a valid index.
    """
    table = _f_tables.get(H)
    if table is None:
        h = 1.0 / _F_TABLE_INV_H
        f, df = _fractional_f_series(H, np.arange(_F_TABLE_NODES + 1) * h)
        df *= h
        rise = np.diff(f)
        lo, hi = df[:-1], df[1:]
        table = _f_tables[H] = (f[:-1], lo, 3.0 * rise - 2.0 * lo - hi, lo + hi - 2.0 * rise)
    return table


def _fractional_table_f(H: float, x: np.ndarray) -> np.ndarray:
    """F(1 - e^x) for x in [0, _F_TABLE_XMAX] from the Hermite table."""
    c0, c1, c2, c3 = _fractional_table(H)
    d, j = np.modf(x * _F_TABLE_INV_H)
    j = j.astype(np.intp)
    f = c3[j]
    f *= d
    f += c2[j]
    f *= d
    f += c1[j]
    f *= d
    f += c0[j]
    return f


def kernel_eval(spec: KernelSpec, t: float, s: float) -> float:
    """K(t, s), exactly 0 for s > t; scalar, full-accuracy path.

    Inside the F table the fractional kind is the defining formula with one
    `special_functions.hyp2f1` value; all else is `kernel_eval_at` on one point.
    """
    if not t > 0:
        raise ValidationError(f"kernel_eval requires t > 0, got t={t}")
    if not s > 0:
        raise ValidationError(f"kernel_eval requires s > 0, got s={s}")
    point = np.array([s])
    if spec.kind == "fractional" and s < t:
        with np.errstate(over="ignore"):  # an overflowed t / s leaves the table
            inside = np.log(t / point)[0] <= _F_TABLE_XMAX
        if inside:
            H = spec.H
            f = hyp2f1(Hyp2F1Params(H - 0.5, 0.5 - H, H + 0.5, float(1.0 - t / point[0])))
            return float(_fractional_k(H, t, point, f)[0])
    return float(kernel_eval_at(spec, t, point)[0])


def kernel_eval_at(spec: KernelSpec, t: float, s: np.ndarray) -> np.ndarray:
    """Vectorized K(t, s_array) for fixed t.

    The fractional kind uses the Hermite table of F on x = ln(t/s); points
    beyond the table range (s/t < e^-32) take the series of F
    (`_fractional_f_series`), and points so far below the diagonal that
    t / s overflows take `_fractional_k_far`; `kernel_eval` sends those
    points here.
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
            return _fractional_k(spec.H, t, s, _fractional_table_f(spec.H, x))
    out = np.zeros(s.shape)
    if spec.kind != "fractional":
        sel = s <= t
        if spec.kind == "indicator":
            out[sel] = 1.0
        elif spec.kind == "exp_shot_noise":
            out[sel] = np.exp(-spec.a * (t - s[sel]))
        else:
            out[sel] = _bilinear(spec.table_t, spec.table_s, spec.table_values, t, s[sel])
        return out
    below = s < t
    sb = s[below]
    with np.errstate(over="ignore"):
        x = np.log(t / sb)
    far = np.isinf(x)
    in_table = x <= _F_TABLE_XMAX
    beyond = ~in_table & ~far
    f = np.zeros(sb.shape)
    f[in_table] = _fractional_table_f(spec.H, x[in_table])
    if beyond.any():
        f[beyond] = _fractional_f_series(spec.H, x[beyond])[0]
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

#: tanh-sinh levels and base step, scipy.integrate.tanhsinh's defaults: level k
#: has step _TS_H0 / 2^k, and the base step is tmax / 8, where tmax is the
#: largest j h whose abscissa complement stays above 4 x the smallest normal double
_TS_MINLEVEL, _TS_MAXLEVEL = 2, 10
_TS_H0 = math.asinh(math.log(2.0 / (4.0 * _TINY) - 1.0) / math.pi) / 8


@cache
def _tanh_sinh_level(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Complements xc = 1 - tanh(pi/2 sinh(j h)) and weights of level k.

    Level 0 holds j = 0..8 (j = 0 at half weight), level k > 0 the odd j
    below 8 * 2^k: each level halves the step and adds the new points only.
    """
    h = _TS_H0 / 2**k
    j = np.arange(8 * 2**k + 1) if k == 0 else np.arange(1, 8 * 2**k + 1, 2)
    u1, u2 = math.pi / 2 * np.cosh(j * h), math.pi / 2 * np.sinh(j * h)
    w = u1 / np.cosh(u2) ** 2
    if k == 0:
        w[0] /= 2
    return 1 / (np.exp(u2) * np.cosh(u2)), w


def _tanh_sinh(g, args: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """int_0^1 g(v, *args) dv per row of args, by tanh-sinh quadrature.

    g maps a 1-d array of abscissae v and columns of args to an array of
    shape (rows, v.size).  The abscissae are 1 - xc/2 and xc/2, so both
    ends of [0, 1] keep their accuracy.  Levels run from _TS_MINLEVEL (all
    points of levels 0 to _TS_MINLEVEL) to _TS_MAXLEVEL, one call of g per
    level on the rows still active; a row leaves once Bailey's error
    estimate (Bailey, Jeyabalan & Li 2005, section 5) is below QUAD_ATOL
    or QUAD_RTOL relative.  A non-finite value of g (a singularity at an
    end point that an abscissa rounded onto) counts as the value at the
    outermost finite abscissa on its side.  Returns (integrals, errors);
    the error is inf for a row that has not converged by _TS_MAXLEVEL or
    whose sum is not finite.
    """
    value, error = np.zeros(args[0].size), np.full(args[0].size, math.inf)
    rows, args = np.arange(value.size), [a[:, None] for a in args]
    # per row and side (1 - xc/2, then xc/2): the outermost valid abscissa so
    # far, signed to grow outward, and its value and weight (Bailey's d4 term)
    edge_x, edge_f, edge_w = (np.full((rows.size, 2), fill) for fill in (-math.inf, math.nan, 0.0))
    levels = [_tanh_sinh_level(k) for k in range(_TS_MINLEVEL + 1)]
    xc, w = (np.concatenate(z) for z in zip(*levels))
    for n in range(_TS_MINLEVEL, _TS_MAXLEVEL + 1):
        if n > _TS_MINLEVEL:
            xc, w = _tanh_sinh_level(n)
        m, h = xc.size, _TS_H0 / 2**n
        v = np.concatenate((1.0 - 0.5 * xc, 0.5 * xc))
        wv = np.concatenate((0.5 * w, 0.5 * w))
        wv[v >= 1.0] = 0.0  # 1 - xc/2 rounded to the end point
        fj = g(v, *args)
        r = np.arange(rows.size)
        for j, (side, sign) in enumerate(((slice(None, m), 1.0), (slice(m, None), -1.0))):
            fs, ws = fj[:, side], wv[side]  # fs is a view: the replacement below edits fj
            bad = ~np.isfinite(fs) | (ws == 0.0)
            out = np.where(bad, -math.inf, sign * v[side])
            i = np.argmax(out, axis=1)
            up = out[r, i] > edge_x[:, j]
            edge_x[up, j], edge_f[up, j], edge_w[up, j] = out[r, i][up], fs[r, i][up], ws[i][up]
            fs[bad] = np.broadcast_to(edge_f[:, j, None], fs.shape)[bad]
        fw = fj * wv
        sn = np.sum(fw, axis=-1) * h
        if n == _TS_MINLEVEL:  # the estimates of the two coarser levels, from the same values
            c0 = levels[0][0].size
            c1 = c0 + levels[1][0].size
            snm1 = np.sum(np.concatenate((fw[:, :c1], fw[:, m : m + c1]), axis=1), axis=-1) * (2 * h)
            snm2 = np.sum(np.concatenate((fw[:, :c0], fw[:, m : m + c0]), axis=1), axis=-1) * (4 * h)
        else:
            sn = snm1 / 2 + sn
        d1, d2 = np.abs(sn - snm1), np.abs(sn - snm2)
        d3 = np.finfo(float).eps * np.max(np.abs(fw), axis=-1)
        d4 = np.max(np.abs(edge_f * edge_w), axis=1)
        d = np.max([np.where(d1 > 0, d1 ** (np.log(d1) / np.log(d2)), 0), d1**2, d3, d4], axis=0)
        err = np.clip(d, np.finfo(float).eps * np.abs(sn), d1)
        finite = np.isfinite(sn)
        done = (err / np.abs(sn) < QUAD_RTOL) | (err < QUAD_ATOL) | ~finite
        value[rows] = sn
        error[rows[done]] = np.where(finite, err, math.inf)[done]
        keep = ~done
        rows, args = rows[keep], [a[keep] for a in args]
        snm2, snm1 = snm1[keep], sn[keep]
        edge_x, edge_f, edge_w = edge_x[keep], edge_f[keep], edge_w[keep]
        if not rows.size:
            break
    return value, error


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

#: Gauss pieces evaluated per integrand call; fixed so that the (pieces x 12)
#: temporaries, and with them peak memory, stay small however many kinks
PANEL_BLOCK = 256


def singular_quad_0_to_t(f, t: float, origin_exponent: float, breaks=()) -> tuple[float, float]:
    """int_0^t f(s) ds where f(s) ~ s^(-origin_exponent) near 0.

    `f` maps a 1-d array of s > 0 to an array of the same shape.  `breaks`,
    increasing kinks of f inside (0, t), split the interval into pieces (a
    rule across a kink converges slowly or not at all).  f may be singular
    only at 0 and at t, and each piece takes one of two rules:

    * a piece [lo, hi] that starts at 0 or lies closer to 0 or t than its
      own width, min(lo, t - hi) < hi - lo: tanh-sinh quadrature
      (`_tanh_sinh`, Takahasi & Mori 1974) at relative tolerance QUAD_RTOL
      and absolute tolerance QUAD_ATOL, all such pieces in one vectorized
      rule, one call of f per refinement level.  The first piece [0, w]
      substitutes s = w v^p with p = 1/(1 - e), which turns the origin
      singularity into a bounded integrand.  An abscissa whose s
      underflows (below the smallest normal double, zero included) adds 0,
      unevaluated: the substituted integrand is bounded near v = 0, so a
      point that close to 0 carries no weight.
    * every other piece: 12-point Gauss-Legendre, PANEL_BLOCK pieces per
      call of f, with no error estimate.  Its nearest singularity lies at
      least one width away, so f is analytic inside the Bernstein ellipse
      of parameter rho >= 3 + 2 sqrt(2), and 12 points err by about
      rho^-24 ~ 1e-18 relative (Trefethen, SIAM Review 2008).

    Returns (value, error estimate), both sums over the pieces; the error
    is inf when the tanh-sinh rule has not converged on some piece.
    """
    if origin_exponent >= 1.0:
        raise NumericsError(f"non-integrable origin exponent {origin_exponent}")
    p = 1.0 / (1.0 - origin_exponent) if origin_exponent > 0.0 else 1.0
    edges = np.concatenate(([0.0], breaks, [t]))
    lo, hi = edges[:-1], edges[1:]
    near = np.minimum(lo, t - hi) < hi - lo
    power = np.concatenate(([p], np.ones(len(breaks))))

    def pieces(v: np.ndarray, lo: np.ndarray, width: np.ndarray, power: np.ndarray) -> np.ndarray:
        s = lo + width * v**power
        out = np.zeros(s.shape)
        keep = s >= _TINY
        out[keep] = f(s[keep]) * (width * power * v ** (power - 1.0))[keep]
        return out

    # as inside scipy's rule: an end-point singularity and log(0) in the error estimate are expected
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, error = _tanh_sinh(pieces, (lo[near], (hi - lo)[near], power[near]))
    total, err = float(value.sum()), float(error.sum())
    far_lo, far_hi = lo[~near, None], hi[~near, None]
    for i in range(0, far_lo.size, PANEL_BLOCK):
        a, b = far_lo[i : i + PANEL_BLOCK], far_hi[i : i + PANEL_BLOCK]
        half = 0.5 * (b - a)
        s = half * _GL_NODES + (a + half)
        total += float(np.sum(half * _GL_WEIGHTS * f(s.ravel()).reshape(s.shape)))
    return total, err


def _checked_quad(
    t: float, intensity: IntensitySpec, kernel: KernelSpec | None, phi: PhiFunction | None
) -> float:
    """int_0^t K(t,s) phi(s) lambda(s) ds by `singular_quad_0_to_t`.

    The integrand is one `kernel_eval_at`, one `phi` and one `rate_at` call
    per array of abscissae; the origin exponent is the sum of the three
    factors' exponents, and the breaks are the kinks of a grid phi in the
    integrand or in a phi-scaled rate and a tabulated kernel's s-nodes.
    Raises NumericsError when the error estimate exceeds
    max(1e-8 |value|, QUAD_ATOL).
    """
    e = intensity.origin_exponent
    kinks = [intensity.phi_ref.kinks] if intensity.kind == "scaled-by-phi" else []
    if kernel is not None:
        e += kernel.origin_exponent
        if kernel.kind == "tabulated":
            kinks.append(kernel.table_s)  # bilinear in s, so K(t, .) has a kink at each s-node
    if phi is not None:
        e += phi.origin_exponent
        kinks.append(phi.kinks)
    kinks = np.concatenate([np.empty(0), *kinks])
    breaks = np.unique(kinks[(kinks > 0.0) & (kinks < t)])

    def f(s: np.ndarray) -> np.ndarray:
        k = 1.0 if kernel is None else kernel_eval_at(kernel, t, s)
        p = 1.0 if phi is None else phi(s)
        return k * p * np.asarray(intensity.rate_at(s))

    val, err = singular_quad_0_to_t(f, t, e, breaks)
    if err > max(1e-8 * abs(val), QUAD_ATOL):
        raise NumericsError(
            f"quadrature of K phi lambda did not converge at t={t}: "
            f"value {val:.6e}, error estimate {err:.2e}"
        )
    return val


def kernel_phi_lambda_integral(
    t: float, intensity: IntensitySpec, kernel: KernelSpec | None = None, phi: PhiFunction | None = None
) -> float:
    """int_0^t K(t,s) phi(s) lambda(s) ds for t > 0; an omitted K or phi counts as 1.

    The one routine that integrates against the kernel, the calibration
    function (a `PhiFunction`) and the rate.  The first matching case wins:

    1. no phi, and no kernel or the indicator kernel: `integrated_intensity`;
    2. constant rate b, closed forms:
       no kernel or the indicator kernel: b int_0^t phi;
       exponential kernel, no phi: b (1 - e^(-a t)) / a;
       fractional kernel, no phi: b Gamma(3/2 - H) t^(H+1/2) / (H + 1/2);
       fractional kernel with the closed-form phi of the same H:
       b t / phi.lam (the calibration identity);
    3. otherwise `singular_quad_0_to_t` of the product (`_checked_quad`),
       with the sum of the factors' origin exponents, split at the kinks.

    The quadrature raises NumericsError when its error estimate exceeds
    max(1e-8 |value|, QUAD_ATOL).
    """
    if phi is None and (kernel is None or kernel.kind == "indicator"):
        return integrated_intensity(intensity, t)
    if intensity.kind == "constant":
        b = intensity.base_rate
        if kernel is None or kernel.kind == "indicator":
            return b * phi.integral(t)
        if phi is None and kernel.kind == "exp_shot_noise":
            return b * (1.0 - math.exp(-kernel.a * t)) / kernel.a
        if kernel.kind == "fractional":
            H = kernel.H
            if phi is None:
                return b * math.gamma(1.5 - H) * t ** (H + 0.5) / (H + 0.5)
            if phi.kind == "closed_form_fractional" and phi.H == H:
                return b * t / phi.lam
    return _checked_quad(t, intensity, kernel, phi)


def kernel_lambda_integral(spec: KernelSpec, intensity: IntensitySpec, t: float) -> float:
    """int_0^t K(t, s) lambda(s) ds by `kernel_phi_lambda_integral`."""
    if not t > 0:
        raise ValidationError(f"kernel_lambda_integral requires t > 0, got {t}")
    return kernel_phi_lambda_integral(float(t), intensity, spec)
