"""Reference code that only the tests call.

Per-grid and one-point forms of the package's batched functions, the score
of the drift likelihood, path and phi CSV readers, grid builders and
classifiers that no experiment uses, the scipy tanh-sinh quadrature
that the package's numpy rule replaced, the weighted-KS core with one
`bincount`, one `cumsum` and one index draw per sample that the paired
core replaced, and the fractional kernel row with `np.modf` and an
out-of-place K that the in-place row replaced, with the Volterra solve
built on it, and the drift MLE's Newton lanes with a score call on every
step, both on the reciprocal score and as the plain Newton steps on the
score that it replaced, and a tabulated exponential kernel; the tests use
them as oracles and fixtures.
`fpp_lab` keeps one path per concept and does not ship them.
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
    ValidationError,
    eval_compensated,
    eval_filtered,
    kernel_eval_at,
    kernel_lambda_integral,
    kernel_shift_lambda_integral,
    log_density,
    phi_lambda_integral,
)
from fpp_lab import estimator
from fpp_lab.kernels import (
    _F_TABLE_INV_H,
    _GL_NODES,
    _GL_WEIGHTS,
    _TINY,
    PANEL_BLOCK,
    QUAD_ATOL,
    QUAD_RTOL,
    _bilinear,
    _fractional_table,
)
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
        write_csv(path, "t,value", (self.grid, self.values))


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


def shift_constant(value: float) -> tuple[float, PhiFunction]:
    """(scale, phi) of the constant shift h = value."""
    return float(value), PhiFunction.constant(1.0)


def witness(scale: float, phi: PhiFunction, intensity: IntensitySpec, horizon: float) -> tuple[str, float]:
    """Integrability witness of h = scale * phi: ('closed_form'|'numeric_check', int |h| lambda).

    Also checks admissibility 1 + h > 0 on the horizon; a negative scale
    with unbounded phi always fails it.
    """
    if scale < 0.0 and scale * phi.sup_on(0.0, horizon) <= -1.0:
        raise ValidationError("shift function reaches -1 on the horizon; density undefined")
    value = abs(scale) * phi_lambda_integral(phi, intensity, horizon)
    if not np.isfinite(value):
        raise ValidationError("shift function is not integrable against the intensity")
    closed = phi.kind == "closed_form_fractional" and intensity.kind == "constant"
    return ("closed_form" if closed else "numeric_check", value)


def density(path: MarkedPath, scale: float, phi: PhiFunction, intensity: IntensitySpec, t: float) -> float:
    """The density of h = scale * phi itself; strictly positive for admissible h."""
    return float(np.exp(log_density(path, scale, phi, intensity, t)))


def shifted_compensated(
    path: MarkedPath,
    kernel: KernelSpec,
    scale: float,
    phi: PhiFunction,
    intensity: IntensitySpec,
    m1: float,
    t: float,
) -> float:
    """N^{h,K}_t: the compensated process minus the deterministic shift of h = scale * phi."""
    base = eval_compensated(path, kernel, intensity, m1, t)
    if t == 0:
        return base
    return base - m1 * kernel_shift_lambda_integral(kernel, scale, phi, intensity, t)


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


def scipy_quad_0_to_t(f, t: float, origin_exponent: float, breaks=()) -> tuple[float, float]:
    """`kernels.singular_quad_0_to_t` with its tanh-sinh pieces in one `scipy.integrate.tanhsinh` call.

    The same pieces, substitution and Gauss-Legendre rule; scipy's
    tanh-sinh (base step tmax / 8, levels 2 to 10, Bailey's error estimate)
    is the rule the package's numpy `_tanh_sinh` reproduces.
    """
    from scipy.integrate import tanhsinh

    p = 1.0 / (1.0 - origin_exponent) if origin_exponent > 0.0 else 1.0
    edges = np.concatenate(([0.0], breaks, [t]))
    lo, hi = edges[:-1], edges[1:]
    near = np.minimum(lo, t - hi) < hi - lo
    power = np.concatenate(([p], np.ones(len(breaks))))

    def pieces(v, lo, width, power):
        s = lo + width * v**power
        out = np.zeros(s.shape)
        keep = s >= _TINY
        out[keep] = f(s[keep]) * (width * power * v ** (power - 1.0))[keep]
        return out

    res = tanhsinh(pieces, 0.0, 1.0, args=(lo[near], (hi - lo)[near], power[near]), atol=QUAD_ATOL, rtol=QUAD_RTOL)
    total = float(res.integral.sum())
    err = float(res.error.sum()) if res.success.all() else math.inf
    far_lo, far_hi = lo[~near, None], hi[~near, None]
    for i in range(0, far_lo.size, PANEL_BLOCK):
        a, b = far_lo[i : i + PANEL_BLOCK], far_hi[i : i + PANEL_BLOCK]
        half = 0.5 * (b - a)
        s = half * _GL_NODES + (a + half)
        total += float(np.sum(half * _GL_WEIGHTS * f(s.ravel()).reshape(s.shape)))
    return total, err


def uniform_grid(start: float, stop: float, count: int) -> np.ndarray:
    if not (0 < start < stop) or count < 2:
        raise ValidationError("grid needs 0 < start < stop and count >= 2")
    return np.linspace(start, stop, count)


def phi_from_csv(path) -> PhiFunction:
    """Read a grid phi written by `PhiFunction.to_csv`."""
    arr = read_csv(path, "s,phi")
    return PhiFunction(kind="grid", nodes=arr[:, 0], values=arr[:, 1])


def write_exponential_table(path, stop: float, count: int):
    """Write K(t, s) = e^-(t-s) as "t,s,value" rows on `count` t-nodes up to `stop`; return `path`.

    The s-nodes lie half a step below the t-nodes, as in
    `test_tabulated_kernel_round_trip`, so the table is not 0 on a common
    t = s lattice, and above the diagonal it holds the smooth continuation, so
    bilinear interpolation stays accurate next to it.
    """
    tg = np.linspace(stop / count, stop, count)
    sg = tg - 0.5 * tg[0]
    rows = [(t, s, math.exp(s - t)) for t in tg.tolist() for s in sg.tolist()]
    write_csv(path, "t,s,value", tuple(zip(*rows)))
    return path


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


# ---------------------------------------------------------------------------
# weighted KS


def _ks_pool(x, wx, y, wy) -> tuple[np.ndarray, np.ndarray, int]:
    vals = np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    wts = np.concatenate([np.asarray(wx, dtype=float), np.asarray(wy, dtype=float)])
    if len(x) == 0 or len(y) == 0:
        raise ValidationError("KS statistic needs non-empty samples")
    if np.any(wts < 0):
        raise ValidationError("weights must be nonnegative with positive totals")
    distinct, rank = np.unique(vals, return_inverse=True)
    return rank, wts, distinct.size


def _cdf_at_ranks(rank: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    with np.errstate(over="ignore"):  # finite weights may sum to inf, rejected below
        cdf = np.bincount(rank, weights=w, minlength=k).cumsum()
    if not 0 < cdf[-1] < np.inf:
        raise ValidationError("weights must be nonnegative with positive, finite totals")
    return cdf / cdf[-1]


def _ks_two_cumsums(ra, wa, rb, wb, k: int) -> float:
    return float(np.abs(_cdf_at_ranks(ra, wa, k) - _cdf_at_ranks(rb, wb, k)).max())


def ks_statistic_two_cumsums(x, wx, y, wy) -> float:
    """Weighted KS statistic with one `bincount` and one `cumsum` per sample (frozen reference)."""
    rank, wts, k = _ks_pool(x, wx, y, wy)
    n = len(x)
    return _ks_two_cumsums(rank[:n], wts[:n], rank[n:], wts[n:], k)


def ks_threshold_two_draws(x, wx, y, wy, n_boot: int, level: float, rng: np.random.Generator) -> float:
    """Pooled-bootstrap KS threshold with two `rng.integers` draws per resample (frozen reference)."""
    rank, wts, k = _ks_pool(x, wx, y, wy)
    n, m = len(x), len(y)
    stats = np.empty(n_boot)
    for b in range(n_boot):
        ia = rng.integers(0, n + m, n)
        ib = rng.integers(0, n + m, m)
        stats[b] = _ks_two_cumsums(rank[ia], wts[ia], rank[ib], wts[ib], k)
    return float(np.quantile(stats, 1.0 - level))


# ---------------------------------------------------------------------------
# kernel rows and Volterra solves


def fractional_row_modf(H: float, t: float, s: np.ndarray) -> np.ndarray:
    """K_H(t, s) on a row wholly below t and inside the F table (frozen reference).

    The table interval and offset come from `np.modf`, and K is formed out of
    place as (t - s) ** (H - 1/2) * f / Gamma(H + 1/2).
    """
    c0, c1, c2, c3 = _fractional_table(H)
    d, j = np.modf(np.log(t / s) * _F_TABLE_INV_H)
    j = j.astype(np.intp)
    f = c3[j]
    f *= d
    f += c2[j]
    f *= d
    f += c1[j]
    f *= d
    f += c0[j]
    return (t - s) ** (H - 0.5) * f / math.exp(math.lgamma(H + 0.5))


def solve_phi_volterra_modf(H: float, intensity: IntensitySpec, m1: float, grid: np.ndarray) -> np.ndarray:
    """Grid values of the fractional Volterra solve, each row from `fractional_row_modf` (frozen reference)."""
    bounds = np.concatenate(([0.0], grid))
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    factors = m1 * np.diff(bounds)
    psi = np.empty(grid.size)
    for i, t in enumerate(grid):
        w = factors[: i + 1] * fractional_row_modf(H, t, mids[: i + 1])
        psi[i] = (t - w[:i] @ psi[:i]) / w[i]
    return psi / intensity.rate_at(mids)


def exponential_table(stop: float, count: int) -> KernelSpec:
    """K(t, s) = e^-(t-s) tabulated on `count` t-nodes up to `stop`, the s-nodes half a step below them.

    The grids of `write_exponential_table`; above the diagonal the table
    holds the smooth continuation.
    """
    tg = np.linspace(stop / count, stop, count)
    sg = tg - 0.5 * tg[0]
    return KernelSpec.tabulated(tg, sg, np.exp(sg[None, :] - tg[:, None]))


def solve_phi_volterra_eval_at(
    kernel: KernelSpec, intensity: IntensitySpec, m1: float, grid: np.ndarray
) -> np.ndarray:
    """Grid values of the Volterra solve, each row one `kernel_eval_at` call (frozen reference).

    Row i is K(grid[i], .) on the first i + 1 panel midpoints, checked and
    evaluated by `kernel_eval_at` on its own.
    """
    bounds = np.concatenate(([0.0], grid))
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    factors = m1 * np.diff(bounds)
    psi = np.empty(grid.size)
    for i, t in enumerate(grid):
        w = kernel_eval_at(kernel, t, mids[: i + 1])
        w *= factors[: i + 1]
        psi[i] = (t - w[:i] @ psi[:i]) / w[i]
    return psi / intensity.rate_at(mids)


# ---------------------------------------------------------------------------
# drift MLE


def newton_lanes_grad_first(pv: np.ndarray, n: np.ndarray, integral: np.ndarray) -> np.ndarray:
    """`estimator._newton_lanes` with `grad` called on every step, the first included (frozen reference).

    Newton steps on the reciprocal score 1/S - 1/integral.  Reads THETA_TOL
    and MAX_NEWTON_STEPS from `fpp_lab.estimator` at call time, so a test
    that patches them patches both solvers.
    """
    theta_hat = np.zeros(n.size)
    s0 = np.zeros(n.size)
    s0[n > 0] = np.add.reduceat(pv, (np.cumsum(n) - n)[n > 0]) if pv.size else 0.0
    interior = s0 - integral > 0.0
    ids = np.flatnonzero(interior)
    if not ids.size:
        return theta_hat
    pv = pv[np.repeat(interior, n)]
    n, s0, integral = n[ids], s0[ids], integral[ids]

    def grad(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        starts = np.cumsum(n) - n
        ratio = np.repeat(theta, n)
        ratio *= pv
        ratio += 1.0
        np.divide(pv, ratio, out=ratio)
        s = np.add.reduceat(ratio, starts)
        ratio *= ratio
        return s, np.add.reduceat(ratio, starts)

    theta = np.zeros(ids.size)
    g_tol = 1e-11 * np.maximum(1.0, s0)
    for _ in range(estimator.MAX_NEWTON_STEPS):
        s, s2 = grad(theta)
        g = s - integral
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            step = s * g / (integral * s2)
        root = g <= 0.0
        theta = np.where(root, theta, theta + step)
        lost = ~np.isfinite(theta)
        finished = root | lost | ((np.abs(step) <= estimator.THETA_TOL) & (np.abs(g) <= g_tol))
        theta[lost] = np.nan
        if finished.any():
            theta_hat[ids[finished]] = theta[finished]
            keep = ~finished
            pv = pv[np.repeat(keep, n)]
            ids, n, theta, g_tol, integral = (v[keep] for v in (ids, n, theta, g_tol, integral))
            if not ids.size:
                return theta_hat
    theta_hat[ids] = np.nan
    return theta_hat


def newton_lanes_plain(pv: np.ndarray, n: np.ndarray, integral: np.ndarray) -> np.ndarray:
    """Plain Newton steps theta <- theta - g / g' on the score g = S - integral (frozen reference).

    The drift MLE's iteration before it stepped on the reciprocal score,
    with `grad` called on every step, the first included; the same root to
    rounding, reached in more steps.

    Reads THETA_TOL and MAX_NEWTON_STEPS from `fpp_lab.estimator` at call
    time, so a test that patches them patches both solvers.
    """
    theta_hat = np.zeros(n.size)
    s0 = np.zeros(n.size)
    s0[n > 0] = np.add.reduceat(pv, (np.cumsum(n) - n)[n > 0]) if pv.size else 0.0
    interior = s0 - integral > 0.0
    ids = np.flatnonzero(interior)
    if not ids.size:
        return theta_hat
    pv = pv[np.repeat(interior, n)]
    n, s0, integral = n[ids], s0[ids], integral[ids]

    def grad(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        starts = np.cumsum(n) - n
        ratio = np.repeat(theta, n)
        ratio *= pv
        ratio += 1.0
        np.divide(pv, ratio, out=ratio)
        g = np.add.reduceat(ratio, starts) - integral
        ratio *= ratio
        return g, -np.add.reduceat(ratio, starts)

    theta = np.zeros(ids.size)
    g_tol = 1e-11 * np.maximum(1.0, s0)
    for _ in range(estimator.MAX_NEWTON_STEPS):
        g, gp = grad(theta)
        step = g / gp
        root = g <= 0.0
        finished = root | ((np.abs(step) <= estimator.THETA_TOL) & (np.abs(g) <= g_tol))
        theta = np.where(root, theta, theta - step)
        if finished.any():
            theta_hat[ids[finished]] = theta[finished]
            keep = ~finished
            pv = pv[np.repeat(keep, n)]
            ids, n, theta, g_tol, integral = (v[keep] for v in (ids, n, theta, g_tol, integral))
            if not ids.size:
                return theta_hat
    theta_hat[ids] = np.nan
    return theta_hat
