"""Experiment runner: `fpp-lab run <config.json>` / `fpp-lab validate <config.json>`.

A config is one JSON document describing one experiment.  It carries only
the keys that experiment reads: any other key, anywhere in the document, is
rejected.  Every run writes a `run_summary.json` embedding the fully resolved
config and seed next to the data artifacts, and serialization is canonical
(sorted keys, floats as their shortest round-trip `repr`), so identical
configs produce byte-identical outputs.

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
    drift_estimates,
    monotonicity_violations,
    trajectory,
)
from .girsanov import GirsanovCheckConfig, require_diagonal_degenerate, verify_equality_in_law
from .kernels import KernelSpec
from .phi_solver import PhiFunction, calibration_phi, check_residuals, solve_phi_volterra
from .point_process import IntensitySpec, MarkDistributionSpec, require_tilt, simulate_replicas
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


def _number(obj: dict, key: str, where: str, integer: bool = False):
    """obj[key] as a finite float, or as an int if `integer`; a bool is neither."""
    if key not in obj:
        raise ValidationError(f"missing {key!r} in {where}")
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int if integer else (int, float)):
        raise ValidationError(f"{where}.{key} must be {'an integer' if integer else 'a number'}, got {val!r}")
    if integer:
        return val
    if not abs(val) <= sys.float_info.max:  # JSON reads 1e310 as inf; also rejects nan
        raise ValidationError(f"{where}.{key} must be finite, got {val!r}")
    return float(val)


def _path(val, name: str) -> str:
    """`val` as a file path: a non-empty string without the NUL byte that no file system call takes."""
    if not isinstance(val, str) or not val:
        raise ValidationError(f"{name} must be a non-empty string, got {val!r}")
    if "\0" in val:
        raise ValidationError(f"{name} must not contain a NUL byte, got {val!r}")
    return val


#: config object -> kind -> (the keys the kind reads besides "kind", what it builds from
#: their values); every key but a kernel's "path" is a number.  An intensity builds its
#: constant base and the tilt theta that only a scaled-by-phi intensity takes.
KINDS = {
    "kernel": {
        "indicator": ((), KernelSpec.indicator),
        "exp_shot_noise": (("a",), KernelSpec.exp_shot_noise),
        "fractional": (("H",), KernelSpec.fractional),
        "tabulated": (("path",), KernelSpec.tabulated_from_csv),
    },
    "marks": {
        "unit": ((), MarkDistributionSpec.unit),
        "exponential": (("mean",), MarkDistributionSpec.exponential),
        "lognormal": (("mu", "sigma"), MarkDistributionSpec.lognormal),
    },
    "intensity": {
        "constant": (("base_rate",), lambda rate: (IntensitySpec.constant(rate), None)),
        "scaled-by-phi": (("base_rate", "theta"), lambda rate, theta: (IntensitySpec.constant(rate), theta)),
    },
}
#: the kind of a config object that names none; the others must name one
DEFAULT_KIND = {"intensity": "constant"}


def parse_kind(obj: dict, where: str):
    """What the config's `where` object `obj` describes, built by its kind's entry in KINDS."""
    kinds = KINDS[where]
    _check_keys(obj, {"kind"}.union(*(keys for keys, _ in kinds.values())), where)
    kind = obj.get("kind", DEFAULT_KIND[where]) if where in DEFAULT_KIND else _require(obj, "kind")
    if not isinstance(kind, str) or kind not in kinds:  # a list kind cannot be hashed
        raise ValidationError(f"unknown {where} kind {kind!r}")
    keys, build = kinds[kind]
    _check_keys(obj, {"kind", *keys}, f"{where}({kind})")
    return build(*(
        _path(_require(obj, key), f"{where}.{key}") if key == "path" else _number(obj, key, where) for key in keys
    ))


def parse_grid(obj: dict) -> np.ndarray:
    _check_keys(obj, {"start", "stop", "count"}, "grid")
    start = _number(obj, "start", "grid")
    stop = _number(obj, "stop", "grid")
    count = _number(obj, "count", "grid", integer=True)
    if not (0 < start <= stop) or count < 1 or (count == 1) != (start == stop):
        raise ValidationError("grid requires 0 < start <= stop, count >= 1, and start == stop iff count == 1")
    if count**2 > MAX_GRID_NODES_SQUARED:
        raise ValidationError(
            f"grid.count {count} exceeds the pre-flight cap: count^2 must be <= {MAX_GRID_NODES_SQUARED:.3g}"
        )
    grid = np.linspace(start, stop, count)
    if not np.all(np.diff(grid) > 0):
        raise ValidationError(f"grid nodes repeat after rounding: {count} nodes from {start!r} to {stop!r}")
    return grid


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


def parse_h_spec(obj: dict) -> tuple[float, bool]:
    """The shift's scale, and whether it names phi_source "closed_form", which rejects a tabulated kernel."""
    _check_keys(obj, {"scale", "phi_source"}, "h_spec")
    scale = _number(obj, "scale", "h_spec")
    if obj.get("phi_source", "closed_form") != "closed_form":
        raise ValidationError(f"h_spec.phi_source must be closed_form, got {obj['phi_source']!r}")
    return scale, "phi_source" in obj


class ResolvedConfig:
    """Validated config plus the library objects it describes."""

    def __init__(self, raw: dict, seed_override: int | None, out_override: str | None):
        exp = self.experiment = _require(raw, "experiment")
        if not isinstance(exp, str) or exp not in EXPERIMENTS:
            raise ValidationError(f"unknown experiment {exp!r}; one of {tuple(EXPERIMENTS)}")
        _, need, optional = EXPERIMENTS[exp]
        _check_keys(raw, {"experiment", "seed", "output_path", *need, *optional}, f"{exp} config")
        for key in need:
            _require(raw, key)
        self.seed = _number(raw, "seed", "config", integer=True) if seed_override is None else int(seed_override)
        if self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed}")
        out = _path(raw.get("output_path") if out_override is None else out_override, "output_path (or --out)")
        self.output_path = Path(out)
        self.raw = dict(raw, seed=self.seed, output_path=str(out))

        self.marks = parse_kind(raw["marks"], "marks")
        self.kernel = parse_kind(raw["kernel"], "kernel") if "kernel" in raw else None
        self.horizon = _number(raw, "horizon", "config") if "horizon" in raw else None
        self.grid = parse_grid(raw["grid"]) if "grid" in raw else None
        self.theta_true = _number(raw, "theta_true", "config") if "theta_true" in raw else None
        self.replicas = _number(raw, "replicas", "config", integer=True) if "replicas" in raw else 1
        if self.replicas < 1:
            raise ValidationError("replicas must be >= 1")
        self.h_scale, closed_form = parse_h_spec(raw["h_spec"]) if "h_spec" in raw else (None, False)

        self.base_intensity, self.intensity_theta = parse_kind(raw["intensity"], "intensity")
        if self.intensity_theta is not None:  # a scaled-by-phi intensity
            if exp not in ("simulate", "solve-phi"):  # the others run at the constant base_rate
                raise ValidationError(f"only simulate and solve-phi read a scaled-by-phi intensity, not {exp}")
            if self.kernel is None:
                raise ValidationError("scaled-by-phi intensity needs a kernel to define phi")
            require_tilt(self.intensity_theta)
        elif exp == "simulate" and self.kernel is not None:
            raise ValidationError("simulate reads a kernel only to define phi for a scaled-by-phi intensity")
        if exp in ("estimate", "trajectory"):  # the drift is the tilt of the base by theta_true
            require_tilt(self.theta_true)
        # two checks restated because the library makes them only at run, or not at all: a
        # tabulated kernel under phi_source "closed_form", a key kept only because the bench's
        # law-check config sends it (the library solves a tabulated phi); and the 1-node grid,
        # which the Volterra solve checks inside the solve
        if closed_form and self.kernel.kind == "tabulated":
            raise ValidationError("no closed-form phi for kernel kind 'tabulated'")
        if exp == "solve-phi" and self.grid.size < 2:
            raise ValidationError("grid must be a 1-d array with at least 2 nodes")
        # the library config of the law or consistency check, built here so that validate
        # runs its checks; phi is passed in at run
        self.check = None
        if exp == "verify-girsanov":
            self.check = GirsanovCheckConfig(
                kernel=self.kernel, scale=self.h_scale, intensity=self.base_intensity, marks=self.marks,
                eval_times=self.grid, replicas=self.replicas, seed=self.seed,
            )
            require_diagonal_degenerate(self.kernel)
        elif exp == "consistency":
            self.check = ConsistencyConfig(
                intensity=self.base_intensity, theta_true=self.theta_true, horizons=self.grid,
                replicas=self.replicas, seed=self.seed, marks=self.marks,
            )

        if self.grid is not None and self.horizon is not None and self.grid[-1] > self.horizon:
            raise ValidationError("grid extends beyond the horizon")
        if self.horizon is not None and not self.horizon > 0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        jumps = 1.0 if self.horizon is None else max(self.base_intensity.base_rate * self.horizon, 1.0)
        # replicas first: an int beyond the float range cannot multiply a float
        if self.replicas > MAX_REPLICA_JUMPS or not self.replicas * jumps <= MAX_REPLICA_JUMPS:
            raise ValidationError(
                f"replicas x expected jump count ({self.replicas} x {jumps:.6g}) exceeds "
                f"the pre-flight cap {MAX_REPLICA_JUMPS:.3g}"
            )

    @cached_property
    def intensity(self) -> IntensitySpec:
        """The config's intensity, built on first use: a phi solve can be heavy."""
        if self.intensity_theta is None:
            return self.base_intensity
        return self.base_intensity.tilted(self.intensity_theta, self.phi())

    def phi(self) -> PhiFunction:
        horizon = self.horizon if self.horizon is not None else float(self.grid[-1])
        with _fp_guard("phi solve or residual check"):
            return calibration_phi(self.kernel, self.base_intensity, self.marks.mean, horizon)


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
    est = drift_estimates(
        cfg.intensity, cfg.phi(), cfg.theta_true, cfg.marks, cfg.horizon, [cfg.horizon], cfg.replicas, cfg.seed
    )[0][:, 0]
    write_csv(cfg.output_path / "estimates.csv", "replica,theta_hat", (np.arange(est.size), est))
    headline = {
        "theta_true": cfg.theta_true,
        "mean_theta_hat": float(est.mean()),
        "rmse": float(np.sqrt(np.mean((est - cfg.theta_true) ** 2))),
    }
    return _summary(cfg, ["estimates.csv"], headline, True)


def _run_trajectory(cfg: ResolvedConfig) -> dict:
    trace = trajectory(cfg.intensity, cfg.phi(), cfg.theta_true, cfg.marks, cfg.horizon, cfg.grid, cfg.seed)
    trace.to_csv(cfg.output_path / "trace.csv")
    headline = {
        "final_theta_hat": float(trace.theta_hat[-1]),
        "jump_epochs": int(trace.jump_epochs.size),
        "monotonicity_violations": monotonicity_violations(trace),
    }
    return _summary(cfg, ["trace.csv"], headline, True)


def _run_verify_girsanov(cfg: ResolvedConfig) -> dict:
    report = verify_equality_in_law(cfg.check, cfg.phi())
    write_json(cfg.output_path / "law_report.json", dict(report.to_dict(), config_echo=cfg.raw))
    headline = {
        "max_abs_mean_diff": max(abs(d) for d in report.mean_diff),
        "max_ks": max(report.ks_stat),
        "effective_sample_size": report.effective_sample_size,
    }
    return _summary(cfg, ["law_report.json"], headline, report.passed)


def _run_consistency(cfg: ResolvedConfig) -> dict:
    report = consistency_experiment(cfg.check, cfg.phi())
    write_json(cfg.output_path / "consistency_report.json", dict(report.to_dict(), config_echo=cfg.raw))
    write_csv(
        cfg.output_path / "consistency_rmse.csv",
        "horizon,mae,rmse",
        (report.horizons, report.mae, report.rmse),
    )
    headline = {"rmse": list(report.rmse), "final_rmse": report.rmse[-1]}
    return _summary(cfg, ["consistency_report.json", "consistency_rmse.csv"], headline, report.passed)


def _run_solve_phi(cfg: ResolvedConfig) -> dict:
    with _fp_guard("phi solve or residual check"):
        phi = solve_phi_volterra(cfg.kernel, cfg.intensity, cfg.marks.mean, cfg.grid)
        phi.to_csv(cfg.output_path / "phi.csv")
        max_resid = check_residuals(phi, cfg.kernel, cfg.intensity, cfg.marks.mean, cfg.grid)
    headline = {"max_relative_residual": max_resid, "nodes": int(cfg.grid.size)}
    return _summary(cfg, ["phi.csv"], headline, True)


#: experiment name -> (runner, the config keys it requires, the config keys it may also carry)
EXPERIMENTS = {
    "simulate": (_run_simulate, ("intensity", "marks", "horizon"), ("kernel", "replicas")),
    "estimate": (_run_estimate, ("kernel", "intensity", "marks", "horizon", "theta_true", "replicas"), ()),
    "trajectory": (_run_trajectory, ("kernel", "intensity", "marks", "horizon", "grid", "theta_true"), ()),
    "verify-girsanov": (
        _run_verify_girsanov,
        ("kernel", "intensity", "marks", "horizon", "grid", "h_spec", "replicas"),
        (),
    ),
    "consistency": (
        _run_consistency,
        ("kernel", "intensity", "marks", "horizon", "grid", "theta_true", "replicas"),
        (),
    ),
    "solve-phi": (_run_solve_phi, ("kernel", "intensity", "marks", "grid"), ("horizon",)),
}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # a RecursionError: nested too deeply to decode
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
        try:
            cfg.output_path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot create output_path {cfg.output_path}: {exc}") from exc
        summary = EXPERIMENTS[cfg.experiment][0](cfg)
        write_json(cfg.output_path / "run_summary.json", summary)
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
