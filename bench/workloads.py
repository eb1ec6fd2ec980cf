"""The benchmark's three CLI workloads: configs, output checks, frozen references.

Every workload uses the fractional kernel with H = 0.7, constant rate 1 and
unit marks, and differs in which layers carry the work:

* ``law-check`` (verify-girsanov) is the criterion-5 pipeline: the weighted
  KS bootstrap, then per-replica density and compensated-value calls with
  few jump points each, so per-call overhead dominates.
* ``drift-consistency`` (consistency) thins the phi-scaled rate over 48
  dyadic majorant segments per path and runs one MLE solve per horizon;
  no kernel evaluation, KS test or spline table.
* ``phi-calibration`` (solve-phi) is the O(n^2) Volterra solve: thousands
  of kernel points per call, so point throughput matters; no simulation.

Each check returns a list of problems; an empty list means the run's
artifacts are correct.  Checks look at the numbers, never at a verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: the seed at which headline numbers are compared with REFERENCE
DEFAULT_SEED = 0

H = 0.7
SHIFT_SCALE = 0.3
#: phi_solver advertises its accuracy on nodes >= this multiple of the first grid node
STARTUP_SPAN_FACTOR = 64.0
PHI_GRID = {"start": 0.00125, "stop": 5.0, "count": 4000}
PHI_REL_TOL = 1e-2
REFERENCE_REL_TOL = 1e-9

#: headline numbers written by the program at its first commit, at DEFAULT_SEED;
#: a rewrite that changes results fails here instead of showing as a speed-up
REFERENCE = {
    "law-check": {
        "ks_threshold": [0.05090771191558453, 0.0572528354375844, 0.05580255073164577],
        "mean_weighted": [0.26771113084887377, 0.8743890311963387, 1.4500237646294145],
    },
    "drift-consistency": {
        "rmse": [
            0.3758852975422314,
            0.25966214434470486,
            0.21502239036511112,
            0.19339752743348673,
            0.17628449586684442,
            0.16476771481731292,
            0.15505508785396188,
            0.1467847101115032,
            0.1419979644611572,
            0.13786908154134483,
        ],
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], dict]
    check: Callable[[int | None, Path, int], list[str]]
    #: Hurst index whose spline table is the workload's one-time lazy work, if any
    table_H: float | None


def _base(experiment: str, seed: int) -> dict:
    return {
        "experiment": experiment,
        "kernel": {"kind": "fractional", "H": H},
        "intensity": {"kind": "constant", "base_rate": 1.0},
        "marks": {"kind": "unit"},
        "seed": seed,
    }


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _reference_problems(name: str, report: dict, seed: int) -> list[str]:
    if seed != DEFAULT_SEED:
        return []
    problems = []
    for key, want in REFERENCE[name].items():
        got = report[key]
        if len(got) != len(want) or any(
            _rel_err(g, w) > REFERENCE_REL_TOL for g, w in zip(got, want)
        ):
            problems.append(f"{key} {got} differs from the seed-commit reference {want}")
    return problems


def _numbers(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _numbers(value)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


# -- law-check -------------------------------------------------------------


def law_check_config(seed: int) -> dict:
    cfg = _base("verify-girsanov", seed)
    cfg.update(
        horizon=5.0,
        grid={"start": 1.0, "stop": 5.0, "count": 3},
        h_spec={"scale": SHIFT_SCALE, "phi_source": "closed_form"},
        replicas=2000,
    )
    return cfg


def check_law_check(code: int | None, out: Path, seed: int) -> list[str]:
    # criterion 5 is red by design: exit code 3 with passed=false is expected
    if code not in (0, 3):
        return [f"exit code {code}"]
    report = _read_json(out / "law_report.json")
    problems = []
    fields = {k: v for k, v in report.items() if k != "config_echo"}
    if not all(math.isfinite(v) for v in _numbers(fields)):
        problems.append("law report has a non-finite field")
    # h = c phi with phi calibrated to the same kernel makes the shift exactly c t
    for t, shift in zip(report["eval_times"], report["shift"]):
        if _rel_err(shift, SHIFT_SCALE * t) > 1e-9:
            problems.append(f"shift {shift!r} at t={t} is not {SHIFT_SCALE} t")
    if not abs(report["mean_weight"] - 1.0) <= 4.0 * report["mean_weight_se"]:
        problems.append(
            f"mean weight {report['mean_weight']} is more than 4 SE "
            f"({report['mean_weight_se']}) from 1"
        )
    if not report["effective_sample_size"] >= 100.0:
        problems.append(f"effective sample size {report['effective_sample_size']} < 100")
    return problems + _reference_problems("law-check", report, seed)


# -- drift-consistency -----------------------------------------------------


def drift_consistency_config(seed: int) -> dict:
    cfg = _base("consistency", seed)
    cfg.update(
        horizon=1000.0,
        grid={"start": 50.0, "stop": 1000.0, "count": 10},
        theta_true=1.0,
        replicas=1000,
    )
    return cfg


def check_drift_consistency(code: int | None, out: Path, seed: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    report = _read_json(out / "consistency_report.json")
    problems = []
    if not all(math.isfinite(r) for r in report["rmse"]):
        problems.append(f"non-finite rmse {report['rmse']}")
    for T, mae, rmse in zip(report["horizons"], report["mae"], report["rmse"]):
        if not mae <= rmse:
            problems.append(f"mae {mae} > rmse {rmse} at horizon {T}")
    return problems + _reference_problems("drift-consistency", report, seed)


# -- phi-calibration -------------------------------------------------------


def phi_calibration_config(seed: int) -> dict:
    cfg = _base("solve-phi", seed)  # deterministic: the seed changes nothing
    cfg["grid"] = dict(PHI_GRID)
    return cfg


def _phi_closed_form(s: float) -> float:
    """Gamma(3/2 - H) / Gamma(2 - 2H) s^(1/2 - H), the fractional phi at rate 1."""
    return math.exp(math.lgamma(1.5 - H) - math.lgamma(2.0 - 2.0 * H)) * s ** (0.5 - H)


def check_phi_calibration(code: int | None, out: Path, seed: int) -> list[str]:
    # exit code 0 means the solver's mandatory residual check passed
    if code != 0:
        return [f"exit code {code}"]
    lines = (out / "phi.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "s,phi" or len(lines) != PHI_GRID["count"] + 1:
        return [f"phi.csv has header {lines[0]!r} and {len(lines) - 1} rows"]
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    span_start = STARTUP_SPAN_FACTOR * PHI_GRID["start"]
    worst = max(_rel_err(phi, _phi_closed_form(s)) for s, phi in rows if s >= span_start)
    if not worst <= PHI_REL_TOL:
        return [f"phi is {worst:.3e} relative from the closed form (limit {PHI_REL_TOL})"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("law-check", law_check_config, check_law_check, H),
        Workload("drift-consistency", drift_consistency_config, check_drift_consistency, None),
        Workload("phi-calibration", phi_calibration_config, check_phi_calibration, H),
    )
}
