"""Maximum-likelihood estimation of the drift theta.

The log-likelihood along one path, as a function of theta, is

    f(theta) = sum_{T_j <= t} ln(1 + theta phi(T_j)) - theta int_0^t phi lambda ds,

which is concave; its maximizer over theta >= 0 is zero when f'(0) <= 0
and otherwise the unique positive root of

    sum_{T_j <= t} phi(T_j) / (1 + theta phi(T_j)) = int_0^t phi(s) lambda(s) ds,

found by Newton iteration from theta = 0 on 1/S - 1/integral, S being the
left side: 1/S is increasing and concave in theta, so the iterates rise
monotonically to the root.  `mle_solve_batch` runs it for many (path, time)
lanes at once; a lane with no jump estimates the boundary 0.  `drift_estimates`
draws and solves the replicas of `estimate`, `trajectory` and `consistency`.
Between consecutive jumps the estimator trajectory is nonincreasing (the left
side is frozen while the right side grows), checked by `monotonicity_violations`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .point_process import (
    JUMP_BLOCK,
    IntensitySpec,
    MarkDistributionSpec,
    MarkedPath,
    PathBatch,
    require_times,
    simulate_replicas,
)
from .phi_solver import PhiFunction, phi_lambda_integral
from .serialize import write_csv

#: absolute tolerance on theta for the Newton solve
THETA_TOL = 1e-10
#: the consistency check passes only if the RMSE at the last horizon is below this
RMSE_THRESHOLD = 0.15
#: Newton steps after which a lane that has not converged raises NumericsError
MAX_NEWTON_STEPS = 200
#: rise of theta_hat over one grid step without a jump that counts as a
#: monotonicity violation
MONOTONE_TOL = 1e-9
#: Newton lanes solve on phi scaled down when a lane's phi sum s0 exceeds this
#: cube root of the largest double, since its s2 <= s0^2 and integral * s2 < s0^3
PHI_SUM_MAX = np.finfo(float).max ** (1.0 / 3.0)


def mle_solve_batch(batch: PathBatch, phi: PhiFunction, intensity: IntensitySpec, times) -> tuple:
    """Drift estimates of every row of a batch at every time, and the row's jump count N_t there.

    Both are (rows, times) arrays.  Each (row, time) pair is a lane: the
    argmax over theta >= 0 of the concave log-likelihood of the row's N_t
    jumps up to that time, 0 for a lane with no jump.  phi is
    evaluated once at the jumps of all rows, and the lanes are solved
    together by `_newton_lanes`, in blocks of about JUMP_BLOCK
    (lane, jump) terms.  A lane that has not converged within
    MAX_NEWTON_STEPS raises NumericsError naming its replica and time.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or not np.all((times > 0) & (times <= batch.horizon)):
        raise ValidationError(f"t must lie in (0, horizon] = (0, {batch.horizon}], got {times}")
    pv = np.asarray(phi(batch.jump_times), dtype=float)
    integral = np.array([phi_lambda_integral(phi, intensity, t) for t in times])
    off = batch.offsets
    # lane (i, k) holds the first counts[i, k] jumps of row i
    counts = np.array(
        [np.searchsorted(batch.jump_times[lo:hi], times, side="right") for lo, hi in zip(off[:-1], off[1:])]
    ).ravel()
    starts = np.repeat(off[:-1], times.size)
    integral = np.tile(integral, batch.replicas)
    theta = np.empty(counts.size)
    ends = np.cumsum(counts)
    lo = 0
    while lo < counts.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + JUMP_BLOCK, side="right")))
        n = counts[lo:hi]
        theta[lo:hi] = _newton_lanes(pv[_lane_jumps(starts[lo:hi], n)], n, integral[lo:hi])
        lo = hi
    if np.isnan(theta).any():
        row, k = divmod(int(np.flatnonzero(np.isnan(theta))[0]), times.size)
        where = f"{batch.describe(row)}: the drift MLE did not converge at t = {times[k]}"
        raise NumericsError(f"{where} within {MAX_NEWTON_STEPS} Newton steps")
    return theta.reshape(batch.replicas, times.size), counts.reshape(batch.replicas, times.size)


def _lane_jumps(starts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Indices of the jumps of consecutive lanes: starts[i], ..., starts[i] + n[i] - 1 for each lane i."""
    jumps = np.arange(n.sum())
    jumps += np.repeat(starts - (np.cumsum(n) - n), n)
    return jumps


def _newton_lanes(pv: np.ndarray, n: np.ndarray, integral: np.ndarray) -> np.ndarray:
    """Root theta >= 0 of S(theta) = sum phi_j / (1 + theta phi_j) = integral, lane by lane.

    ``pv`` holds phi at the jumps of lane 0, then of lane 1, and so on, and
    ``n`` the number of jumps of each lane; `np.add.reduceat` sums per lane.
    A lane whose score S(0) - integral is <= 0 has its maximizer at the
    boundary 0.  Every other lane takes Newton steps from theta = 0 on the
    reciprocal score 1/S - 1/integral, which are
    theta <- theta + S (S - integral) / (integral s2) with
    s2 = sum (phi_j / (1 + theta phi_j))^2: the plain Newton step on
    S - integral times S / integral >= 1, from the same two sums.
    1/S = 1 / sum_j 1 / (1/phi_j + theta) is the parallel sum of positive
    affine functions of theta, so it is increasing and concave (the harmonic
    mean is concave), and the iterates rise monotonically to the root without
    passing it; for a constant phi the first step lands on it.  At theta = 0
    the ratio phi_j / (1 + theta phi_j) is phi_j itself, so the first step
    takes S from the per-lane sums s0 already formed and s2 from one
    `reduceat` of phi_j^2, bit for bit what `grad(0)` would return, and
    `grad` serves the later steps.
    A lane stops when the step is below THETA_TOL and the score below
    1e-11 max(1, sum phi_j), or when the score is <= 0, which only rounding
    brings about: that iterate is the root to working precision, and a step
    could only leave it (the rounding of a root near 1e6 or above already
    exceeds the absolute THETA_TOL).  Lanes leave the arrays as they finish,
    so an iteration costs only the active ones; a lane still active after
    MAX_NEWTON_STEPS steps comes back as NaN, and so does a lane whose step
    is not finite: its root lies past the largest double, or s2 underflowed.
    The root maps to c theta under phi -> phi / c, integral -> integral / c:
    a lane whose sum of phi exceeds PHI_SUM_MAX solves on phi / c and
    integral / c, with both tolerances scaled to match, c being the power of
    2 that brings its sum below the bound, so the division is exact and the
    lane takes the steps it would take with no overflow.  A lane whose sum
    overflowed takes a non-finite first step and comes back as NaN, and so
    does a scaled lane whose theta phi_max, which scaling leaves as it is,
    lies past the largest double: 1 + theta phi_j overflowed on the way.
    """
    starts = (np.cumsum(n) - n)[n > 0]
    s0 = np.zeros(n.size)
    with np.errstate(over="ignore"):  # a lane whose sum overflows ends as NaN below
        s0[n > 0] = np.add.reduceat(pv, starts) if pv.size else 0.0
    big = s0 > PHI_SUM_MAX
    if not big.any():
        return _newton_steps(pv, n, integral, s0, 1.0)
    c = np.ldexp(1.0, np.where(big, np.frexp(s0 / PHI_SUM_MAX)[1], 0))  # frexp gives inf the exponent 0
    pv, integral, s0 = pv / np.repeat(c, n), integral / c, s0 / c
    peak = np.zeros(n.size)
    peak[n > 0] = np.maximum.reduceat(pv, starts)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = _newton_steps(pv, n, integral, s0, c)
        theta[~np.isfinite(theta * peak)] = np.nan
    return theta / c


def _newton_steps(pv: np.ndarray, n: np.ndarray, integral: np.ndarray, s0: np.ndarray, c) -> np.ndarray:
    """`_newton_lanes` past its scaling: s0 holds the lane sums of pv, and c (per lane) scales both tolerances."""
    theta_hat = np.zeros(n.size)
    g_tol, theta_tol = 1e-11 * np.maximum(1.0 / c, s0), np.full(n.size, THETA_TOL) * c
    interior = s0 - integral > 0.0  # the other lanes' maximizer is the boundary 0
    ids = np.flatnonzero(interior)
    if not ids.size:
        return theta_hat
    if ids.size < n.size:
        pv = pv[np.repeat(interior, n)]
        n, s0, integral, g_tol, theta_tol = (v[ids] for v in (n, s0, integral, g_tol, theta_tol))

    def grad(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # S and s2 from phi_j / (1 + theta phi_j) and its square, built in place in one buffer
        starts = np.cumsum(n) - n
        ratio = np.repeat(theta, n)
        ratio *= pv
        ratio += 1.0
        np.divide(pv, ratio, out=ratio)
        s = np.add.reduceat(ratio, starts)
        ratio *= ratio
        return s, np.add.reduceat(ratio, starts)

    theta = np.zeros(ids.size)
    for k in range(MAX_NEWTON_STEPS):
        s, s2 = grad(theta) if k else (s0, np.add.reduceat(pv * pv, np.cumsum(n) - n))
        g = s - integral
        # a step that overflows or divides by 0 ends its lane as NaN below, with no warning
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            step = s * g / (integral * s2)
        root = g <= 0.0  # no exact iterate passes the root: this one is on it up to rounding
        theta = np.where(root, theta, theta + step)
        lost = ~np.isfinite(theta)  # a root past the largest double, or s2 underflowed to 0
        finished = root | lost | ((np.abs(step) <= theta_tol) & (np.abs(g) <= g_tol))
        if finished.any():
            theta[lost] = np.nan
            theta_hat[ids[finished]] = theta[finished]
            if finished.all():
                return theta_hat
            keep = ~finished
            pv = pv[np.repeat(keep, n)]
            ids, n, theta, g_tol, theta_tol, integral = (v[keep] for v in (ids, n, theta, g_tol, theta_tol, integral))
    theta_hat[ids] = np.nan
    return theta_hat


def mle_solve(path: MarkedPath, phi: PhiFunction, intensity: IntensitySpec, t: float) -> float:
    """Drift estimate at time t, the argmax over theta >= 0: the one-lane `mle_solve_batch`."""
    return float(mle_solve_batch(PathBatch.from_path(path), phi, intensity, [t])[0][0, 0])


def drift_estimates(
    intensity: IntensitySpec, phi: PhiFunction, theta: float, marks: MarkDistributionSpec,
    horizon: float, times, replicas: int, seed: int,
) -> tuple:
    """The (replicas, times) drift estimates, and N_t, of replicas drawn under the tilt by theta.

    Replica i is drawn on [0, horizon] from the stream seed + i at the rate
    (1 + theta phi) lambda, and solved against the base ``intensity`` lambda
    by `mle_solve_batch`, one `simulate_replicas` block in memory at a time.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    theta_hat = np.empty((replicas, times.size))
    jumps = np.empty((replicas, times.size), dtype=np.intp)
    for rows, batch in simulate_replicas(intensity.tilted(theta, phi), marks, horizon, replicas, seed):
        theta_hat[rows], jumps[rows] = mle_solve_batch(batch, phi, intensity, times)
        del batch  # before the next block is simulated: one block in memory at a time
    return theta_hat, jumps


@dataclass(frozen=True)
class EstimateTrace:
    """Estimator trajectory on a grid, with jump-epoch annotations.

    ``jump_epochs`` holds the grid indices whose preceding interval
    (previous grid time, current grid time] contains at least one jump;
    between those indices the trajectory must be nonincreasing.
    """

    times: np.ndarray
    theta_hat: np.ndarray
    jump_epochs: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        theta = np.asarray(self.theta_hat, dtype=float)
        epochs = np.asarray(self.jump_epochs, dtype=int)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "theta_hat", theta)
        object.__setattr__(self, "jump_epochs", epochs)
        if times.shape != theta.shape or times.ndim != 1:
            raise ValidationError("times and theta_hat must be 1-d of equal length")
        if not np.all(np.isfinite(theta)) or np.any(theta < 0):
            raise ValidationError("theta_hat values must be finite and >= 0")

    def to_csv(self, path) -> None:
        flags = np.zeros(self.times.size, dtype=int)
        flags[self.jump_epochs] = 1
        write_csv(path, "t,theta_hat,jump_epoch", (self.times, self.theta_hat, flags))


def trajectory(
    intensity: IntensitySpec, phi: PhiFunction, theta: float, marks: MarkDistributionSpec,
    horizon: float, grid: np.ndarray, seed: int,
) -> EstimateTrace:
    """theta-hat at each grid time along replica 0 of `drift_estimates`, the path of stream seed."""
    grid = require_times(grid, "grid", 1, horizon)
    theta_hat, jumps = drift_estimates(intensity, phi, theta, marks, horizon, grid, 1, seed)
    epochs = np.flatnonzero(np.diff(jumps[0], prepend=0))
    return EstimateTrace(times=grid, theta_hat=theta_hat[0], jump_epochs=epochs)


def monotonicity_violations(trace: EstimateTrace) -> int:
    """Count grid steps without a jump where theta_hat increased beyond MONOTONE_TOL."""
    theta = trace.theta_hat
    rose = theta[1:] > theta[:-1] + MONOTONE_TOL
    rose[trace.jump_epochs[trace.jump_epochs > 0] - 1] = False
    return int(np.count_nonzero(rose))


def fractional_hypothesis_note(H: float) -> dict:
    """Analytic growth exponents behind the consistency requirements.

    For phi(s) = C s^(1/2-H)/lambda under constant lambda:
    int_0^t phi^2 lambda ds grows like t^(2-2H) (diverges for H < 1), and
    for j > 0 the ratio int phi^(2+j) lambda / int phi^2 lambda decays:
    the numerator grows like t^(1-(2+j)(H-1/2)) when that exponent is
    positive and stays bounded otherwise.
    """
    note = {
        "phi2_growth_exponent": 2.0 - 2.0 * H,
        "phi2_integral_diverges": 2.0 - 2.0 * H > 0.0,
        "ratio_decays": {},
    }
    for j in (1, 2, 3, 4):
        num_exp = 1.0 - (2.0 + j) * (H - 0.5)
        ratio_exp = (num_exp if num_exp > 0.0 else 0.0) - (2.0 - 2.0 * H)
        note["ratio_decays"][str(j)] = {
            "numerator_exponent": num_exp,
            "ratio_exponent": ratio_exp,
            "decays": ratio_exp < 0.0,
        }
    return note


@dataclass(frozen=True, eq=False)
class ConsistencyConfig:
    """Simulate under the theta-perturbed law and track the estimator error against `RMSE_THRESHOLD`."""

    intensity: IntensitySpec  # the base (reference-measure) intensity
    theta_true: float
    horizons: tuple
    replicas: int
    seed: int
    marks: MarkDistributionSpec

    def __post_init__(self):
        if not self.theta_true > 0:
            raise ValidationError(f"theta_true must be positive, got {self.theta_true}")
        object.__setattr__(self, "horizons", tuple(require_times(self.horizons, "horizons", 2).tolist()))
        if self.replicas < 2:
            raise ValidationError("need at least 2 replicas")


@dataclass(frozen=True)
class ConsistencyReport:
    horizons: tuple
    mae: tuple
    rmse: tuple
    frac_error_decreasing: float
    theta_true: float
    replicas: int
    seed: int
    rmse_threshold: float
    hypothesis_note: dict
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def consistency_experiment(cfg: ConsistencyConfig, phi: PhiFunction) -> ConsistencyReport:
    """Monte-Carlo check that theta_hat converges to the true drift.

    Jump times are simulated with rate lambda(s) (1 + theta phi(s)) -- the
    compensator of the observed process under the perturbed measure --
    while the estimator is fed the constant base intensity; a replica with
    no jump by a horizon estimates 0 there.  Passes when the RMSE decreases
    strictly across horizons and the final RMSE is below `RMSE_THRESHOLD`.
    """
    est, _ = drift_estimates(
        cfg.intensity, phi, cfg.theta_true, cfg.marks, cfg.horizons[-1], cfg.horizons, cfg.replicas, cfg.seed
    )
    err = est - cfg.theta_true
    mae = tuple(float(v) for v in np.abs(err).mean(axis=0))
    rmse = tuple(float(v) for v in np.sqrt(np.square(err).mean(axis=0)))
    frac = float(np.mean(np.abs(err[:, -1]) < np.abs(err[:, 0])))
    if phi.kind == "closed_form_fractional":
        note = fractional_hypothesis_note(phi.H)
    else:
        note = {"analytic_exponents": "not applicable to this phi/intensity pair"}
    decreasing = all(rmse[k + 1] < rmse[k] for k in range(len(rmse) - 1))
    passed = decreasing and rmse[-1] < RMSE_THRESHOLD
    return ConsistencyReport(
        horizons=cfg.horizons,
        mae=mae,
        rmse=rmse,
        frac_error_decreasing=frac,
        theta_true=cfg.theta_true,
        replicas=cfg.replicas,
        seed=cfg.seed,
        rmse_threshold=RMSE_THRESHOLD,
        hypothesis_note=note,
        passed=passed,
    )
