"""Experiment runner: `fpp-lab run <config.json>` / `fpp-lab validate <config.json>`.

A config is one JSON document describing one experiment.  Unknown keys are
rejected anywhere in the document.  Every run writes a `run_summary.json`
embedding the fully resolved config and seed next to the data artifacts,
and serialization is canonical (sorted keys, floats as their shortest
round-trip `repr`), so identical configs produce byte-identical outputs.

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 statistical-test failure.  Failures emit a JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import FppError, NumericsError, ValidationError
from .estimator import (
    ConsistencyConfig,
    consistency_experiment,
    mle_solve_batch,
    monotonicity_violations,
    trajectory,
)
from .girsanov import MIN_EFFECTIVE_SAMPLE, GirsanovCheckConfig, ShiftFunction, verify_equality_in_law
from .kernels import KernelSpec
from .phi_solver import (
    SOLVER_RTOL,
    STARTUP_SPAN_FACTOR,
    PhiFunction,
    phi_fractional,
    power_grid,
    solve_phi_volterra,
    volterra_residuals,
)
from .point_process import IntensitySpec, MarkDistributionSpec, simulate, simulate_replicas
from .serialize import dumps_json, write_csv, write_json

# Pre-flight cost caps, checked before anything is allocated; each is more than
# 100x the largest run in the tests and the benchmark (1000 replicas x 1000
# expected jumps; a 4000-node phi grid).

#: cap on replicas x max(base_rate x horizon, 1), a lower bound of the jumps a
#: run draws (a phi tilt only adds jumps)
MAX_REPLICA_JUMPS = 1e9
#: cap on the grid count squared: the Volterra solve is O(n^2) in the nodes
MAX_GRID_NODES_SQUARED = 1e10

def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ValidationError(f"missing required config key {key!r}")
    return cfg[key]


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(obj: dict, key: str, where: str, required: bool = True, default=None):
    if key not in obj:
        if required:
            raise ValidationError(f"missing {key!r} in {where}")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValidationError(f"{where}.{key} must be a number, got {val!r}")
    if not abs(val) <= sys.float_info.max:  # JSON reads 1e310 as inf; also rejects nan
        raise ValidationError(f"{where}.{key} must be finite, got {val!r}")
    return float(val)


def _integer(obj: dict, key: str, where: str, required: bool = True, default=None):
    if key not in obj:
        if required:
            raise ValidationError(f"missing {key!r} in {where}")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ValidationError(f"{where}.{key} must be an integer, got {val!r}")
    return int(val)


def parse_kernel(obj: dict) -> KernelSpec:
    _check_keys(obj, {"kind", "a", "H", "path"}, "kernel")
    kind = _require(obj, "kind")
    if kind == "indicator":
        _check_keys(obj, {"kind"}, "kernel(indicator)")
        return KernelSpec.indicator()
    if kind == "exp_shot_noise":
        _check_keys(obj, {"kind", "a"}, "kernel(exp_shot_noise)")
        return KernelSpec.exp_shot_noise(_number(obj, "a", "kernel"))
    if kind == "fractional":
        _check_keys(obj, {"kind", "H"}, "kernel(fractional)")
        return KernelSpec.fractional(_number(obj, "H", "kernel"))
    if kind == "tabulated":
        _check_keys(obj, {"kind", "path"}, "kernel(tabulated)")
        path = _require(obj, "path")
        if not isinstance(path, str) or not path:
            raise ValidationError(f"kernel.path must be a non-empty string, got {path!r}")
        return KernelSpec.tabulated_from_csv(path)
    raise ValidationError(f"unknown kernel kind {kind!r}")


def parse_marks(obj: dict | None) -> MarkDistributionSpec:
    if obj is None:
        return MarkDistributionSpec.unit()
    _check_keys(obj, {"kind", "mean", "mu", "sigma"}, "marks")
    kind = _require(obj, "kind")
    if kind == "unit":
        _check_keys(obj, {"kind"}, "marks(unit)")
        return MarkDistributionSpec.unit()
    if kind == "exponential":
        _check_keys(obj, {"kind", "mean"}, "marks(exponential)")
        return MarkDistributionSpec.exponential(_number(obj, "mean", "marks"))
    if kind == "lognormal":
        _check_keys(obj, {"kind", "mu", "sigma"}, "marks(lognormal)")
        return MarkDistributionSpec.lognormal(
            _number(obj, "mu", "marks"), _number(obj, "sigma", "marks")
        )
    raise ValidationError(f"unknown marks kind {kind!r}")


def parse_grid(obj: dict) -> np.ndarray:
    _check_keys(obj, {"start", "stop", "count"}, "grid")
    start = _number(obj, "start", "grid")
    stop = _number(obj, "stop", "grid")
    count = _integer(obj, "count", "grid")
    if not (0 < start <= stop) or count < 1:
        raise ValidationError("grid requires 0 < start <= stop and count >= 1")
    if count**2 > MAX_GRID_NODES_SQUARED:
        raise ValidationError(
            f"grid.count {count} exceeds the pre-flight cap: count^2 must be <= {MAX_GRID_NODES_SQUARED:.3g}"
        )
    if count == 1:
        if start != stop:
            raise ValidationError("grid with count=1 requires start == stop")
        return np.array([start])
    return np.linspace(start, stop, count)


def build_phi(
    source: str,
    kernel: KernelSpec,
    base_rate: float,
    m1: float,
    horizon: float,
) -> PhiFunction:
    """Calibration function for the given kernel and constant base rate.

    "closed_form" covers the three analytic kernels (the exponential and
    indicator forms are affine, represented exactly on a 2-node grid);
    "volterra" solves the equation numerically on a power-graded mesh.
    """
    if source == "closed_form":
        if kernel.kind == "fractional":
            return phi_fractional(kernel.H, base_rate * m1)
        if kernel.kind == "indicator":
            return PhiFunction.constant(1.0 / (base_rate * m1))
        if kernel.kind == "exp_shot_noise":
            nodes = np.array([0.0, horizon])
            values = (1.0 + kernel.a * nodes) / (base_rate * m1)
            return PhiFunction(kind="grid", nodes=nodes, values=values)
        raise ValidationError(f"no closed-form phi for kernel kind {kernel.kind!r}")
    if source == "volterra":
        grid = power_grid(horizon, 2000)
        return solve_phi_volterra(kernel, IntensitySpec.constant(base_rate), m1, grid)
    raise ValidationError(f"unknown phi_source {source!r} (use closed_form or volterra)")


@contextmanager
def _fp_guard(stage: str):
    """Raise NumericsError naming `stage` on floating-point overflow, division by zero or invalid operation.

    Extreme finite cells of a tabulated kernel overflow in the phi solve and
    its residual check; under this guard they exit 2 through the error
    contract instead of printing numpy warnings.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericsError(f"{stage}: {exc}") from exc


def parse_h_spec(obj: dict) -> tuple[float, str]:
    _check_keys(obj, {"scale", "phi_source"}, "h_spec")
    scale = _number(obj, "scale", "h_spec")
    source = obj.get("phi_source", "closed_form")
    if source not in ("closed_form", "volterra"):
        raise ValidationError(f"h_spec.phi_source must be closed_form or volterra, got {source!r}")
    return scale, source


class ResolvedConfig:
    """Validated config plus the library objects it describes."""

    def __init__(self, raw: dict, seed_override: int | None, out_override: str | None):
        _check_keys(raw, _TOP_KEYS, "config")
        self.experiment = _require(raw, "experiment")
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(f"unknown experiment {self.experiment!r}; one of {tuple(EXPERIMENTS)}")
        self.seed = _integer(raw, "seed", "config") if seed_override is None else int(seed_override)
        if self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed}")
        out = raw.get("output_path") if out_override is None else out_override
        if not isinstance(out, str) or not out:
            raise ValidationError("output_path must be a non-empty string (or pass --out)")
        self.output_path = Path(out)
        self.raw = dict(raw)
        self.raw["seed"] = self.seed
        self.raw["output_path"] = str(out)

        exp = self.experiment
        _, need = EXPERIMENTS[exp]
        for key in need:
            _require(raw, key)

        self.marks = parse_marks(raw.get("marks"))
        self.kernel = parse_kernel(raw["kernel"]) if "kernel" in raw else None
        self.horizon = _number(raw, "horizon", "config", required="horizon" in need)
        self.grid = parse_grid(raw["grid"]) if "grid" in raw else None
        self.theta_true = _number(raw, "theta_true", "config", required="theta_true" in need)
        self.replicas = _integer(raw, "replicas", "config", required="replicas" in need, default=1)
        if self.replicas < 1:
            raise ValidationError("replicas must be >= 1")
        self.h_scale, self.phi_source = (
            parse_h_spec(raw["h_spec"]) if "h_spec" in raw else (None, "closed_form")
        )

        intensity_obj = _require(raw, "intensity")
        _check_keys(intensity_obj, {"kind", "base_rate", "theta"}, "intensity")
        self.base_rate = _number(intensity_obj, "base_rate", "intensity")
        if not self.base_rate > 0:
            raise ValidationError(f"base_rate must be positive, got {self.base_rate}")
        self.intensity_kind = intensity_obj.get("kind", "constant")
        self.intensity_theta = _number(intensity_obj, "theta", "intensity", required=False)
        if self.intensity_kind == "scaled-by-phi":
            if exp not in ("simulate", "solve-phi"):  # the others run at the constant base_rate
                raise ValidationError(f"only simulate and solve-phi read a scaled-by-phi intensity, not {exp}")
            if self.kernel is None:
                raise ValidationError("scaled-by-phi intensity needs a kernel to define phi")
            if self.intensity_theta is None:
                raise ValidationError("scaled-by-phi intensity requires theta")
            if self.intensity_theta < 0:
                raise ValidationError(f"intensity theta must be >= 0, got {self.intensity_theta}")
        elif self.intensity_kind != "constant":
            raise ValidationError(f"unknown intensity kind {self.intensity_kind!r}")
        # the ESS is at most the replica count, and equals it only when every weight agrees (h = 0)
        if exp == "verify-girsanov" and self.replicas < MIN_EFFECTIVE_SAMPLE + (self.h_scale != 0):
            raise ValidationError(
                f"{self.replicas} replicas with h_spec.scale {self.h_scale:g} cannot reach the "
                f"effective sample size floor MIN_EFFECTIVE_SAMPLE = {MIN_EFFECTIVE_SAMPLE:g}"
            )

        if self.grid is not None and self.horizon is not None and self.grid[-1] > self.horizon:
            raise ValidationError("grid extends beyond the horizon")
        jumps = 1.0 if self.horizon is None else max(self.base_rate * self.horizon, 1.0)
        # replicas first: an int beyond the float range cannot multiply a float
        if self.replicas > MAX_REPLICA_JUMPS or not self.replicas * jumps <= MAX_REPLICA_JUMPS:
            raise ValidationError(
                f"replicas x expected jump count ({self.replicas} x {jumps:.6g}) exceeds "
                f"the pre-flight cap {MAX_REPLICA_JUMPS:.3g}"
            )

    @cached_property
    def intensity(self) -> IntensitySpec:
        """The config's intensity, built on first use: a phi solve can be heavy."""
        base = IntensitySpec.constant(self.base_rate)
        if self.intensity_kind == "constant":
            return base
        return base.tilted(self.intensity_theta, self.phi())

    def phi(self) -> PhiFunction:
        horizon = self.horizon if self.horizon is not None else float(self.grid[-1])
        with _fp_guard("phi solve"):
            return build_phi(self.phi_source, self.kernel, self.base_rate, self.marks.mean, horizon)


def _summary(cfg: ResolvedConfig, artifacts: list[str], headline: dict, passed: bool) -> dict:
    return {
        "experiment": cfg.experiment,
        "config": cfg.raw,
        "seed": cfg.seed,
        "artifacts": artifacts,
        "headline": headline,
        "passed": passed,
    }


def _run_simulate(cfg: ResolvedConfig) -> dict:
    artifacts = []
    counts = []
    for rows, batch in simulate_replicas(cfg.intensity, cfg.marks, cfg.horizon, cfg.replicas, cfg.seed):
        for i in range(rows.start, rows.stop):
            name = "path.csv" if cfg.replicas == 1 else f"path_{i:04d}.csv"
            batch.row(i - rows.start).to_csv(cfg.output_path / name)
            artifacts.append(name)
        counts.extend(batch.counts.tolist())
    headline = {"mean_count": float(np.mean(counts)), "replicas": cfg.replicas}
    return _summary(cfg, artifacts, headline, True)


def _run_estimate(cfg: ResolvedConfig) -> dict:
    phi = cfg.phi()
    perturbed = cfg.intensity.tilted(cfg.theta_true, phi)
    est = np.empty(cfg.replicas)
    for rows, batch in simulate_replicas(perturbed, cfg.marks, cfg.horizon, cfg.replicas, cfg.seed):
        est[rows] = mle_solve_batch(batch, phi, cfg.intensity, cfg.horizon)[:, 0]
        del batch  # before the next block is simulated: one block in memory at a time
    write_csv(cfg.output_path / "estimates.csv", "replica,theta_hat", enumerate(est))
    headline = {
        "theta_true": cfg.theta_true,
        "mean_theta_hat": float(est.mean()),
        "rmse": float(np.sqrt(np.mean((est - cfg.theta_true) ** 2))),
    }
    return _summary(cfg, ["estimates.csv"], headline, True)


def _run_trajectory(cfg: ResolvedConfig) -> dict:
    phi = cfg.phi()
    path = simulate(cfg.intensity.tilted(cfg.theta_true, phi), cfg.marks, cfg.horizon, cfg.seed)
    trace = trajectory(path, phi, cfg.intensity, cfg.grid)
    trace.to_csv(cfg.output_path / "trace.csv")
    headline = {
        "final_theta_hat": float(trace.theta_hat[-1]),
        "jump_epochs": int(trace.jump_epochs.size),
        "monotonicity_violations": monotonicity_violations(trace),
    }
    return _summary(cfg, ["trace.csv"], headline, True)


def _run_verify_girsanov(cfg: ResolvedConfig) -> dict:
    h = ShiftFunction.scaled_phi(cfg.h_scale, cfg.phi())
    check = GirsanovCheckConfig(
        kernel=cfg.kernel,
        h=h,
        intensity=cfg.intensity,
        marks=cfg.marks,
        eval_times=tuple(float(t) for t in cfg.grid),
        replicas=cfg.replicas,
        seed=cfg.seed,
    )
    report = verify_equality_in_law(check)
    write_json(cfg.output_path / "law_report.json", dict(report.to_dict(), config_echo=cfg.raw))
    headline = {
        "max_abs_mean_diff": max(abs(d) for d in report.mean_diff),
        "max_ks": max(report.ks_stat),
        "effective_sample_size": report.effective_sample_size,
    }
    return _summary(cfg, ["law_report.json"], headline, report.passed)


def _run_consistency(cfg: ResolvedConfig) -> dict:
    phi = cfg.phi()
    report = consistency_experiment(
        ConsistencyConfig(
            intensity=cfg.intensity,
            phi=phi,
            theta_true=cfg.theta_true,
            horizons=tuple(float(t) for t in cfg.grid),
            replicas=cfg.replicas,
            seed=cfg.seed,
            marks=cfg.marks,
        )
    )
    write_json(cfg.output_path / "consistency_report.json", dict(report.to_dict(), config_echo=cfg.raw))
    write_csv(
        cfg.output_path / "consistency_rmse.csv",
        "horizon,mae,rmse",
        zip(report.horizons, report.mae, report.rmse),
    )
    headline = {"rmse": list(report.rmse), "final_rmse": report.rmse[-1]}
    return _summary(cfg, ["consistency_report.json", "consistency_rmse.csv"], headline, report.passed)


def _run_solve_phi(cfg: ResolvedConfig) -> dict:
    with _fp_guard("phi solve or residual check"):
        phi = solve_phi_volterra(cfg.kernel, cfg.intensity, cfg.marks.mean, cfg.grid)
        phi.to_csv(cfg.output_path / "phi.csv")
        # mandatory residual spot check on the advertised span; numerical
        # failure aborts the pipeline
        span = cfg.grid[cfg.grid >= STARTUP_SPAN_FACTOR * cfg.grid[0]]
        if span.size == 0:
            span = cfg.grid[-1:]
        spots = span[np.unique(np.linspace(0, span.size - 1, min(12, span.size)).astype(int))]
        resid = volterra_residuals(phi, cfg.kernel, cfg.intensity, cfg.marks.mean, spots)
    max_resid = float(resid.max())
    if not max_resid <= 2.0 * SOLVER_RTOL:  # also fails a NaN residual
        raise NumericsError(
            f"Volterra residual check failed: max relative residual {max_resid:.3e} "
            f"exceeds 2 x solver tolerance {SOLVER_RTOL}"
        )
    headline = {"max_relative_residual": max_resid, "nodes": int(cfg.grid.size)}
    return _summary(cfg, ["phi.csv"], headline, True)


#: experiment name -> (runner, the config keys it requires)
EXPERIMENTS = {
    "simulate": (_run_simulate, ("intensity", "marks", "horizon")),
    "estimate": (_run_estimate, ("kernel", "intensity", "marks", "horizon", "theta_true", "replicas")),
    "trajectory": (_run_trajectory, ("kernel", "intensity", "marks", "horizon", "grid", "theta_true")),
    "verify-girsanov": (
        _run_verify_girsanov,
        ("kernel", "intensity", "marks", "horizon", "grid", "h_spec", "replicas"),
    ),
    "consistency": (
        _run_consistency,
        ("kernel", "intensity", "marks", "horizon", "grid", "theta_true", "replicas"),
    ),
    "solve-phi": (_run_solve_phi, ("kernel", "intensity", "marks", "grid")),
}

#: the keys a config may carry: the run's own, and every key an experiment requires
_TOP_KEYS = {"experiment", "seed", "output_path"}.union(*(need for _, need in EXPERIMENTS.values()))


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    return raw


def _error_record(exc: Exception) -> str:
    kind = type(exc).__name__
    return dumps_json({"error": {"type": kind, "message": str(exc)}})


def run_command(config_path: str, seed: int | None, out: str | None) -> int:
    try:
        cfg = ResolvedConfig(_load_config(config_path), seed, out)
        cfg.output_path.mkdir(parents=True, exist_ok=True)
        summary = EXPERIMENTS[cfg.experiment][0](cfg)
    except ValidationError as exc:
        sys.stderr.write(_error_record(exc))
        return 1
    except MemoryError as exc:
        record = ValidationError(f"the run needs more memory than is available: {exc}")
        sys.stderr.write(_error_record(record))
        return 1
    except FppError as exc:  # NumericsError, or any other error of the package
        sys.stderr.write(_error_record(exc))
        return 2
    write_json(cfg.output_path / "run_summary.json", summary)
    status = "PASS" if summary["passed"] else "FAIL"
    headline = ", ".join(f"{k}={v}" for k, v in sorted(summary["headline"].items()))
    print(f"{status} {cfg.experiment} seed={cfg.seed} {headline}")
    return 0 if summary["passed"] else 3


def validate_command(config_path: str) -> int:
    try:
        ResolvedConfig(_load_config(config_path), None, None)
    except ValidationError as exc:
        sys.stderr.write(_error_record(exc))
        return 1
    print("ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fpp-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", type=str, default=None, help="override output_path")
    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_command(args.config, args.seed, args.out)
    return validate_command(args.config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
