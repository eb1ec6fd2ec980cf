"""fpp-lab: filtered Poisson processes, change of measure, drift estimation."""

from .errors import FppError, NumericsError, ValidationError
from .estimator import (
    ConsistencyConfig,
    ConsistencyReport,
    EstimateTrace,
    consistency_experiment,
    fractional_hypothesis_note,
    mle_solve,
    mle_solve_batch,
    monotonicity_violations,
    trajectory,
)
from .filtered_process import (
    eval_compensated,
    eval_compensated_batch,
    eval_filtered,
    eval_filtered_batch,
)
from .girsanov import (
    GirsanovCheckConfig,
    LawComparisonReport,
    ShiftFunction,
    kernel_shift_lambda_integral,
    log_density,
    log_density_batch,
    verify_equality_in_law,
    verify_tilted_law,
)
from .kernels import (
    KernelSpec,
    kernel_eval,
    kernel_eval_at,
    kernel_lambda_integral,
)
from .phi_solver import (
    PhiFunction,
    phi_fractional,
    phi_lambda_integral,
    power_grid,
    solve_phi_volterra,
    volterra_residuals,
)
from .point_process import (
    IntensitySpec,
    MarkDistributionSpec,
    MarkedPath,
    PathBatch,
    expected_jumps,
    integrated_intensity,
    replica_blocks,
    simulate,
    simulate_batch,
    simulate_replicas,
)
from .weighted_ks import ks_bootstrap_threshold, weighted_ks_statistic

__version__ = "0.1.0"

__all__ = [
    "ConsistencyConfig",
    "ConsistencyReport",
    "EstimateTrace",
    "FppError",
    "GirsanovCheckConfig",
    "IntensitySpec",
    "KernelSpec",
    "LawComparisonReport",
    "MarkDistributionSpec",
    "MarkedPath",
    "NumericsError",
    "PathBatch",
    "PhiFunction",
    "ShiftFunction",
    "ValidationError",
    "consistency_experiment",
    "eval_compensated",
    "eval_compensated_batch",
    "eval_filtered",
    "eval_filtered_batch",
    "expected_jumps",
    "fractional_hypothesis_note",
    "integrated_intensity",
    "kernel_eval",
    "kernel_eval_at",
    "kernel_lambda_integral",
    "kernel_shift_lambda_integral",
    "ks_bootstrap_threshold",
    "log_density",
    "log_density_batch",
    "mle_solve",
    "mle_solve_batch",
    "monotonicity_violations",
    "phi_fractional",
    "phi_lambda_integral",
    "power_grid",
    "replica_blocks",
    "simulate",
    "simulate_batch",
    "simulate_replicas",
    "solve_phi_volterra",
    "trajectory",
    "verify_equality_in_law",
    "verify_tilted_law",
    "volterra_residuals",
    "weighted_ks_statistic",
]
