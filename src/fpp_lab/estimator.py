"""Maximum-likelihood estimation of the drift theta.

The log-likelihood along one path, as a function of theta, is

    f(theta) = sum_{T_j <= t} ln(1 + theta phi(T_j)) - theta int_0^t phi lambda ds,

which is concave; its maximizer over theta >= 0 is zero when f'(0) <= 0
and otherwise the unique positive root of

    sum_{T_j <= t} phi(T_j) / (1 + theta phi(T_j)) = int_0^t phi(s) lambda(s) ds,

found by safeguarded Newton iteration.  Between consecutive jumps the
estimator trajectory is nonincreasing (the left side is frozen while the
right side grows), which `monotonicity_violations` checks on traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, ValidationError
from .point_process import IntensitySpec, MarkDistributionSpec, MarkedPath, simulate
from .phi_solver import PhiFunction, phi_lambda_integral
from .serialize import write_csv

#: absolute tolerance on theta for the Newton solve
THETA_TOL = 1e-10
#: give up bracketing the root above this value (cannot happen for phi > 0)
BRACKET_CAP = 1e12


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


def mle_solve(path: MarkedPath, phi: PhiFunction, intensity: IntensitySpec, t: float) -> float:
    """Drift estimate at time t: argmax of the concave log-likelihood over theta >= 0."""
    if not t > 0:
        raise ValidationError(f"t must be positive, got {t}")
    pv = _phi_at_jumps(path, phi, t)
    integral = phi_lambda_integral(phi, intensity, t)

    def grad(th: float) -> tuple[float, float]:
        ratio = pv / (1.0 + th * pv)
        return float(ratio.sum()) - integral, -float(np.square(ratio).sum())

    s0 = float(pv.sum())
    if s0 - integral <= 0.0:
        return 0.0  # boundary maximizer: no positive root of f'

    hi = 1.0
    lo = 0.0
    while grad(hi)[0] > 0.0:
        lo = hi
        hi *= 2.0
        if hi > BRACKET_CAP:
            raise NumericsError("failed to bracket the likelihood root below 1e12")

    theta = max(s0 / integral - 1.0, 0.0) + 0.1  # crude moment guess
    if not lo < theta < hi:
        theta = 0.5 * (lo + hi)
    g_scale = max(1.0, s0)
    for _ in range(200):
        g, gp = grad(theta)
        if g > 0.0:
            lo = theta
        else:
            hi = theta
        step = g / gp if gp != 0.0 else 0.0
        new = theta - step
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        done = abs(new - theta) <= THETA_TOL and abs(g) <= 1e-11 * g_scale
        theta = new
        if done:
            break
    return float(theta)


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
        write_csv(path, "t,theta_hat,jump_epoch", zip(self.times, self.theta_hat, flags))


def trajectory(
    path: MarkedPath,
    phi: PhiFunction,
    intensity: IntensitySpec,
    grid: np.ndarray,
) -> EstimateTrace:
    """theta-hat evaluated at each grid time."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or grid[0] <= 0 or grid[-1] > path.horizon:
        raise ValidationError("grid must lie inside (0, horizon]")
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing")
    theta = np.array([mle_solve(path, phi, intensity, t) for t in grid])
    prev = np.concatenate(([0.0], grid[:-1]))
    counts = np.searchsorted(path.jump_times, grid, side="right") - np.searchsorted(
        path.jump_times, prev, side="right"
    )
    epochs = np.nonzero(counts > 0)[0]
    return EstimateTrace(times=grid, theta_hat=theta, jump_epochs=epochs)


def monotonicity_violations(trace: EstimateTrace, tol: float = 1e-9) -> int:
    """Count grid steps without a jump where theta_hat increased beyond tol."""
    epochs = set(trace.jump_epochs.tolist())
    bad = 0
    for i in range(1, trace.times.size):
        if i in epochs:
            continue
        if trace.theta_hat[i] > trace.theta_hat[i - 1] + tol:
            bad += 1
    return bad


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
    """Simulate under the theta-perturbed law and track the estimator error."""

    intensity: IntensitySpec  # the base (reference-measure) intensity
    phi: PhiFunction
    theta_true: float
    horizons: tuple
    replicas: int
    seed: int
    rmse_threshold: float = 0.15
    marks: MarkDistributionSpec | None = None

    def __post_init__(self):
        hz = tuple(float(t) for t in self.horizons)
        object.__setattr__(self, "horizons", hz)
        if not self.theta_true > 0:
            raise ValidationError(f"theta_true must be positive, got {self.theta_true}")
        if len(hz) < 2 or list(hz) != sorted(set(hz)) or hz[0] <= 0:
            raise ValidationError("horizons must be >= 2 strictly increasing positives")
        if self.replicas < 2:
            raise ValidationError("need at least 2 replicas")
        if self.marks is None:
            object.__setattr__(self, "marks", MarkDistributionSpec.unit())


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
    config_echo: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "horizons": list(self.horizons),
            "mae": list(self.mae),
            "rmse": list(self.rmse),
            "frac_error_decreasing": self.frac_error_decreasing,
            "theta_true": self.theta_true,
            "replicas": self.replicas,
            "seed": self.seed,
            "rmse_threshold": self.rmse_threshold,
            "hypothesis_note": self.hypothesis_note,
            "passed": bool(self.passed),
            "config_echo": self.config_echo,
        }


def consistency_experiment(cfg: ConsistencyConfig) -> ConsistencyReport:
    """Monte-Carlo check that theta_hat converges to the true drift.

    Jump times are simulated with rate lambda(s) (1 + theta phi(s)) -- the
    compensator of the observed process under the perturbed measure --
    while the estimator itself is always fed the base intensity.  Passes
    when the RMSE decreases strictly across horizons and the final RMSE is
    below the configured threshold.
    """
    if cfg.intensity.kind != "constant":
        raise ValidationError("consistency experiment expects a constant base intensity")
    perturbed = IntensitySpec.scaled_by_phi(cfg.intensity.base_rate, cfg.theta_true, cfg.phi)
    t_max = cfg.horizons[-1]

    def one(i: int) -> list[float]:
        path = simulate(perturbed, cfg.marks, t_max, cfg.seed + i)
        if path.count == 0:
            raise NumericsError(f"replica {i} produced zero jumps at horizon {t_max}")
        return [mle_solve(path, cfg.phi, cfg.intensity, T) for T in cfg.horizons]

    est = np.array([one(i) for i in range(cfg.replicas)])
    err = est - cfg.theta_true
    mae = tuple(float(v) for v in np.abs(err).mean(axis=0))
    rmse = tuple(float(v) for v in np.sqrt(np.square(err).mean(axis=0)))
    frac = float(np.mean(np.abs(err[:, -1]) < np.abs(err[:, 0])))
    if cfg.phi.kind == "closed_form_fractional" and cfg.intensity.kind == "constant":
        note = fractional_hypothesis_note(cfg.phi.H)
    else:
        note = {"analytic_exponents": "not applicable to this phi/intensity pair"}
    decreasing = all(rmse[k + 1] < rmse[k] for k in range(len(rmse) - 1))
    passed = decreasing and rmse[-1] < cfg.rmse_threshold
    return ConsistencyReport(
        horizons=cfg.horizons,
        mae=mae,
        rmse=rmse,
        frac_error_decreasing=frac,
        theta_true=cfg.theta_true,
        replicas=cfg.replicas,
        seed=cfg.seed,
        rmse_threshold=cfg.rmse_threshold,
        hypothesis_note=note,
        passed=passed,
        config_echo={},
    )
