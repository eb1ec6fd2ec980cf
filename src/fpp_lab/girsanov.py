"""Change of measure for filtered Poisson processes.

A mark-independent shift h(s) = scale * phi(s) defines a new probability
through the exponential density

    exp( sum_{T_j <= t} ln(1 + h(T_j)) - int_0^t h(s) lambda(s) ds ),

the jump-process stochastic exponential of int h d(mu - nu).  Under the
reweighted measure the point process carries intensity (1 + h(s))
lambda(s), so the compensated filtered process Ntilde^K acquires mean
m1 int K h lambda while every higher cumulant is tilted as well
(variance m2 int K^2 (1 + h) lambda, and so on).

Two Monte-Carlo comparisons share one statistics layer (first/second
moments and a weighted two-sample KS statistic with a bootstrap
threshold):

* `verify_tilted_law` checks the identity the density gives: the
  reweighted law of Ntilde^K_t equals the law of Ntilde^K_t on paths
  simulated directly at intensity (1 + h) lambda, both compensated with
  the base compensator m1 int K lambda.
* `verify_equality_in_law` compares the reweighted law against the
  deterministically shifted process N^{h,K}_t = Ntilde^K_t -
  m1 int_0^t K(t,s) h(s) lambda(s) ds under the original measure.  A
  deterministic shift moves only the mean, so for h != 0 the two laws
  differ (mean gap 2 x shift, variance gap m2 int K^2 h lambda) and the
  check is expected to fail; the two samples coincide realization by
  realization at h = 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .filtered_process import eval_compensated_batch
from .kernels import KernelSpec, kernel_phi_lambda_integral
from .point_process import (
    IntensitySpec,
    MarkDistributionSpec,
    MarkedPath,
    PathBatch,
    require_times,
    simulate_replicas,
)
from .phi_solver import PhiFunction, phi_lambda_integral
from .weighted_ks import ks_bootstrap_threshold, weighted_ks_statistic

#: reject importance-sampling runs whose effective sample size drops below this
MIN_EFFECTIVE_SAMPLE = 100.0
#: pooled bootstrap resamples behind each KS threshold
KS_BOOTSTRAP = 1000
#: the KS threshold is the 1 - KS_LEVEL quantile of the bootstrap statistic
KS_LEVEL = 0.01


def log_density_batch(
    batch: PathBatch, scale: float, phi: PhiFunction, intensity: IntensitySpec, t: float
) -> np.ndarray:
    """Log Radon-Nikodym density at time t of h = scale * phi along every row of a batch.

    One `phi` call on the jumps of all rows up to t; `np.bincount` adds each
    row's ln(1 + h(T_j)) left to right.  Admissibility (1 + h > 0 at every
    jump) holds automatically for scale >= 0, as phi >= 0, and is checked at
    the jumps otherwise: raises ValidationError naming the first row, and its
    seed, where 1 + h vanishes or goes negative at a jump.
    """
    batch.check_time(t)
    sel = batch.jump_times <= t
    rows = batch.rows[sel]
    hv = scale * np.asarray(phi(batch.jump_times[sel]), dtype=float)
    bad = 1.0 + hv <= 0.0
    if bad.any():
        raise ValidationError(
            f"1 + h(T_j) <= 0 at a jump of {batch.describe(rows[bad.argmax()])}; density undefined"
        )
    jump_sum = np.bincount(rows, weights=np.log1p(hv), minlength=batch.replicas)
    return jump_sum - scale * phi_lambda_integral(phi, intensity, t)


def log_density(path: MarkedPath, scale: float, phi: PhiFunction, intensity: IntensitySpec, t: float) -> float:
    """Log Radon-Nikodym density at time t along one path: the one-row `log_density_batch`.

    Raises ValidationError if 1 + h vanishes or goes negative at a jump.
    """
    return float(log_density_batch(PathBatch.from_path(path), scale, phi, intensity, t)[0])


def kernel_shift_lambda_integral(
    kernel: KernelSpec, scale: float, phi: PhiFunction, intensity: IntensitySpec, t: float
) -> float:
    """int_0^t K(t,s) h(s) lambda(s) ds for h = scale * phi: scale times `kernel_phi_lambda_integral`."""
    if not t > 0:
        raise ValidationError(f"t must be positive, got {t}")
    return scale * kernel_phi_lambda_integral(t, intensity, kernel, phi) if scale else 0.0


def require_diagonal_degenerate(kernel: KernelSpec) -> None:
    """Raise ValidationError unless K(t,t) = 0, which `verify_equality_in_law` requires."""
    if not kernel.diagonal_degenerate:
        raise ValidationError(
            "equality in law requires a diagonal-degenerate kernel (K(t,t) = 0); "
            f"got kind {kernel.kind!r}"
        )


@dataclass(frozen=True, eq=False)
class GirsanovCheckConfig:
    """Inputs of the law checks, which take phi at run (h = scale * phi); KS uses `KS_BOOTSTRAP`, `KS_LEVEL`."""

    kernel: KernelSpec
    scale: float
    intensity: IntensitySpec
    marks: MarkDistributionSpec
    eval_times: tuple
    replicas: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "eval_times", tuple(require_times(self.eval_times, "eval_times", 1).tolist()))
        # the ESS is at most the replica count, and equals it only when every weight agrees (h = 0)
        if self.replicas < MIN_EFFECTIVE_SAMPLE + (self.scale != 0):
            raise ValidationError(
                f"{self.replicas} replicas with shift scale {self.scale:g} cannot reach the "
                f"effective sample size floor MIN_EFFECTIVE_SAMPLE = {MIN_EFFECTIVE_SAMPLE:g}"
            )


@dataclass(frozen=True)
class LawComparisonReport:
    eval_times: tuple
    shift: tuple
    mean_weighted: tuple
    mean_weighted_se: tuple
    mean_shifted: tuple
    mean_diff: tuple
    mean_diff_se: tuple
    var_weighted: tuple
    var_shifted: tuple
    var_diff: tuple
    var_diff_se: tuple
    ks_stat: tuple
    ks_threshold: tuple
    mean_weight: float
    mean_weight_se: float
    effective_sample_size: float
    replicas: int
    seed: int
    passed_times: tuple
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _compare_laws(
    cfg: GirsanovCheckConfig,
    shifts: list,
    logw: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
) -> LawComparisonReport:
    """Compare the weighted sample (x, exp(logw)) with the unit-weight sample y.

    x and y are (replicas, n_times) arrays.  Standard errors of the moment
    differences come from per-replica influence terms paired by index; the
    KS threshold comes from a pooled bootstrap, which ignores any pairing.
    """
    w = np.exp(logw)
    R = cfg.replicas

    ess = float(w.sum() ** 2 / np.square(w).sum())
    if not ess >= MIN_EFFECTIVE_SAMPLE:  # NaN weights fail too
        raise NumericsError(f"degenerate importance weights: effective sample size {ess:.1f}")

    wbar = w.mean()
    mean_w = float(wbar)
    mean_w_se = float(w.std(ddof=1) / np.sqrt(R))

    stats = []  # one tuple per evaluation time, transposed into the report's fields below
    for k in range(len(cfg.eval_times)):
        xa = x[:, k]
        yb = y[:, k]
        ma = float(np.sum(w * xa) / np.sum(w))
        mb = float(yb.mean())
        va = float(np.sum(w * (xa - ma) ** 2) / np.sum(w))
        vb = float(yb.var(ddof=0))
        psi_a = w * (xa - ma) / wbar
        mse_a = float(psi_a.std(ddof=1) / np.sqrt(R))
        psi_mean = psi_a - (yb - mb)
        psi_var = w * ((xa - ma) ** 2 - va) / wbar - ((yb - mb) ** 2 - vb)
        se_mean = float(psi_mean.std(ddof=1) / np.sqrt(R))
        se_var = float(psi_var.std(ddof=1) / np.sqrt(R))
        stat = weighted_ks_statistic(xa, w, yb, np.ones(R))
        rng = np.random.default_rng([cfg.seed, 7_716_493, k])
        thr = ks_bootstrap_threshold(xa, w, yb, np.ones(R), KS_BOOTSTRAP, KS_LEVEL, rng)
        ok = abs(ma - mb) <= 4.0 * se_mean and abs(va - vb) <= 4.0 * se_var and stat < thr
        stats.append((ma, mse_a, mb, ma - mb, se_mean, va, vb, va - vb, se_var, stat, thr, bool(ok)))
    m_A, mse_A, m_B, dm, dm_se, v_A, v_B, dv, dv_se, ks, ks_thr, ok = zip(*stats)

    weight_ok = abs(mean_w - 1.0) <= 4.0 * mean_w_se
    return LawComparisonReport(
        eval_times=tuple(cfg.eval_times),
        shift=tuple(shifts),
        mean_weighted=m_A,
        mean_weighted_se=mse_A,
        mean_shifted=m_B,
        mean_diff=dm,
        mean_diff_se=dm_se,
        var_weighted=v_A,
        var_shifted=v_B,
        var_diff=dv,
        var_diff_se=dv_se,
        ks_stat=ks,
        ks_threshold=ks_thr,
        mean_weight=mean_w,
        mean_weight_se=mean_w_se,
        effective_sample_size=ess,
        replicas=R,
        seed=cfg.seed,
        passed_times=ok,
        passed=bool(all(ok) and weight_ok),
    )


def _shifts(cfg: GirsanovCheckConfig, phi: PhiFunction) -> list:
    """m1 int_0^t K(t,s) h(s) lambda(s) ds at every evaluation time, for h = cfg.scale * phi."""
    m1 = cfg.marks.mean
    return [
        m1 * kernel_shift_lambda_integral(cfg.kernel, cfg.scale, phi, cfg.intensity, t)
        for t in cfg.eval_times
    ]


def verify_equality_in_law(cfg: GirsanovCheckConfig, phi: PhiFunction) -> LawComparisonReport:
    """Monte-Carlo comparison of the reweighted and shifted laws.

    Both samples are built on the same simulated paths (common random
    numbers): sample A is the compensated process with importance weight
    given by the density at sup(eval_times); sample B is the shifted
    process with unit weights.  With h = 0 the two coincide realization by
    realization.  For h != 0 the comparison is expected to fail: the
    reweighted mean is +shift, the shifted mean is -shift, and the
    reweighted variance exceeds the base variance by m2 int K^2 h lambda
    (`verify_tilted_law` checks the identity the density does give).
    Standard errors of the moment differences account for the pairing
    through per-replica influence terms, and the KS threshold comes from a
    pooled bootstrap, which ignores pairing and is therefore conservative.
    """
    require_diagonal_degenerate(cfg.kernel)
    shifts = _shifts(cfg, phi)
    logw, x = _weighted_sample(cfg, phi)
    return _compare_laws(cfg, shifts, logw, x, x - np.array(shifts))


def verify_tilted_law(cfg: GirsanovCheckConfig, phi: PhiFunction) -> LawComparisonReport:
    """Monte-Carlo check of the intensity tilt produced by the density.

    Under the measure with density at t* = max(eval_times), the marked
    point process has intensity (1 + h(s)) lambda(s) on [0, t*].  Hence
    the law of Ntilde_t under lambda, reweighted by the density, equals
    the law of Ntilde_t on paths simulated directly at intensity
    (1 + h) lambda, both compensated with the same base compensator
    m1 int K lambda; each has mean `shift` = m1 int K h lambda.

    Sample A is replica i simulated under lambda with seed `seed + i` and
    weighted by the density; sample B (the `*_shifted` report fields) is
    replica i simulated under the tilted intensity with seed
    `seed + replicas + i` and unit weight.  The tilted intensity is
    `IntensitySpec.tilted`, which requires a constant base intensity and
    scale >= 0; any other config raises ValidationError.  Unlike
    `verify_equality_in_law`, it holds for any kernel.

    The report's standard errors pair the samples by index.  For two
    independent samples of equal size the paired influence terms have zero
    cross-covariance in expectation, so their variance is the sum of the
    two samples' variances and the same formula applies.
    """
    tilted = cfg.intensity.tilted(cfg.scale, phi)
    horizon = max(cfg.eval_times)
    logw, x = _weighted_sample(cfg, phi)
    y = np.empty_like(x)
    for rows, ref in simulate_replicas(tilted, cfg.marks, horizon, cfg.replicas, cfg.seed + cfg.replicas):
        y[rows] = _compensated_values(ref, cfg)
    return _compare_laws(cfg, _shifts(cfg, phi), logw, x, y)


def _compensated_values(batch: PathBatch, cfg: GirsanovCheckConfig) -> np.ndarray:
    """(rows, n_times) compensated values of a batch at the evaluation times."""
    return np.column_stack(
        [eval_compensated_batch(batch, cfg.kernel, cfg.intensity, cfg.marks.mean, t) for t in cfg.eval_times]
    )


def _weighted_sample(cfg: GirsanovCheckConfig, phi: PhiFunction) -> tuple[np.ndarray, np.ndarray]:
    """Log-densities at max(eval_times) and compensated values of replicas simulated under lambda.

    The density is that of h = cfg.scale * phi.  Replica i uses seed
    `seed + i`; replicas are simulated and evaluated in the blocks of
    `simulate_replicas`.
    """
    horizon = max(cfg.eval_times)
    logw = np.empty(cfg.replicas)
    x = np.empty((cfg.replicas, len(cfg.eval_times)))
    for rows, batch in simulate_replicas(cfg.intensity, cfg.marks, horizon, cfg.replicas, cfg.seed):
        logw[rows] = log_density_batch(batch, cfg.scale, phi, cfg.intensity, horizon)
        x[rows] = _compensated_values(batch, cfg)
    return logw, x
