"""fpp-lab: filtered Poisson processes, change of measure, drift estimation."""

from .errors import FppError, NumericsError, ValidationError
from .estimator import (
    ConsistencyConfig,
    ConsistencyReport,
    EstimateTrace,
    consistency_experiment,
    fractional_hypothesis_note,
    mle_solve,
    monotonicity_violations,
    score,
    trajectory,
)
from .filtered_process import (
    PathOnGrid,
    eval_compensated,
    eval_filtered,
    eval_filtered_on_grid,
    eval_observed,
    sample_on_grid,
)
from .girsanov import (
    GirsanovCheckConfig,
    LawComparisonReport,
    ShiftFunction,
    density,
    kernel_shift_lambda_integral,
    log_density,
    shifted_compensated,
    verify_equality_in_law,
    verify_tilted_law,
)
from .kernels import (
    KernelSpec,
    diagonal_class,
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
    uniform_grid,
    volterra_residuals,
)
from .point_process import (
    IntensitySpec,
    MarkDistributionSpec,
    MarkedPath,
    integrated_intensity,
    simulate,
)
from .special_functions import Hyp2F1Params, hyp2f1, ln_gamma
from .weighted_ks import ks_bootstrap_threshold, weighted_ks_statistic

__version__ = "0.1.0"

__all__ = [
    "ConsistencyConfig",
    "ConsistencyReport",
    "EstimateTrace",
    "FppError",
    "GirsanovCheckConfig",
    "Hyp2F1Params",
    "IntensitySpec",
    "KernelSpec",
    "LawComparisonReport",
    "MarkDistributionSpec",
    "MarkedPath",
    "NumericsError",
    "PathOnGrid",
    "PhiFunction",
    "ShiftFunction",
    "ValidationError",
    "consistency_experiment",
    "density",
    "diagonal_class",
    "eval_compensated",
    "eval_filtered",
    "eval_filtered_on_grid",
    "eval_observed",
    "fractional_hypothesis_note",
    "hyp2f1",
    "integrated_intensity",
    "kernel_eval",
    "kernel_eval_at",
    "kernel_lambda_integral",
    "kernel_shift_lambda_integral",
    "ks_bootstrap_threshold",
    "ln_gamma",
    "log_density",
    "mle_solve",
    "monotonicity_violations",
    "phi_fractional",
    "phi_lambda_integral",
    "power_grid",
    "sample_on_grid",
    "score",
    "shifted_compensated",
    "simulate",
    "solve_phi_volterra",
    "trajectory",
    "uniform_grid",
    "verify_equality_in_law",
    "verify_tilted_law",
    "volterra_residuals",
    "weighted_ks_statistic",
]
