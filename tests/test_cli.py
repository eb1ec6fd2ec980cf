from __future__ import annotations

import json
import math
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from fpp_lab import (
    IntensitySpec,
    KernelSpec,
    PhiFunction,
    ValidationError,
    cli,
    estimator,
    girsanov,
    point_process,
    volterra_residuals,
)
from fpp_lab.cli import main
from fpp_lab.phi_solver import calibration_phi

from oracles import write_exponential_table


def write_config(tmp_path: Path, name: str, cfg: dict) -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(cfg, indent=1))
    return p


def simulate_config(out: Path, seed: int = 42) -> dict:
    return {
        "experiment": "simulate",
        "intensity": {"kind": "constant", "base_rate": 2.0},
        "marks": {"kind": "exponential", "mean": 1.5},
        "horizon": 20.0,
        "replicas": 2,
        "seed": seed,
        "output_path": str(out),
    }


#: the keys each experiment reads, besides experiment, seed and output_path; simulate
#: also reads a kernel, but only to define phi for a scaled-by-phi intensity
READS = {
    "simulate": {"intensity", "marks", "horizon", "replicas"},
    "estimate": {"kernel", "intensity", "marks", "horizon", "theta_true", "replicas"},
    "trajectory": {"kernel", "intensity", "marks", "horizon", "grid", "theta_true"},
    "verify-girsanov": {"kernel", "intensity", "marks", "horizon", "grid", "h_spec", "replicas"},
    "consistency": {"kernel", "intensity", "marks", "horizon", "grid", "theta_true", "replicas"},
    "solve-phi": {"kernel", "intensity", "marks", "grid", "horizon"},
}


def reads_only(raw: dict) -> dict:
    """`raw` without the keys that its experiment does not read."""
    keep = READS[raw["experiment"]] | {"experiment", "seed", "output_path"}
    if raw["experiment"] == "simulate" and raw["intensity"].get("kind") == "scaled-by-phi":
        keep = keep | {"kernel"}
    return {key: value for key, value in raw.items() if key in keep}


def artifact_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestValidate:
    def test_ok(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", simulate_config(tmp_path / "out"))
        assert main(["validate", str(cfg)]) == 0

    def test_unknown_top_level_key(self, tmp_path, capsys):
        raw = simulate_config(tmp_path / "out")
        raw["surprise"] = 1
        cfg = write_config(tmp_path, "c.json", raw)
        assert main(["validate", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert "surprise" in err["error"]["message"]

    def test_unknown_nested_key(self, tmp_path):
        raw = simulate_config(tmp_path / "out")
        raw["marks"] = {"kind": "unit", "scale": 2}
        cfg = write_config(tmp_path, "c.json", raw)
        assert main(["validate", str(cfg)]) == 1

    def test_missing_required_key(self, tmp_path):
        raw = simulate_config(tmp_path / "out")
        del raw["horizon"]
        cfg = write_config(tmp_path, "c.json", raw)
        assert main(["validate", str(cfg)]) == 1

    def test_unreadable_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "missing.json")]) == 1

    def test_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["validate", str(p)]) == 1

    def test_readme_example(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        cfg = write_config(tmp_path, "readme.json", json.loads(example))
        assert main(["validate", str(cfg)]) == 0

    def test_null_marks(self, tmp_path, capsys):
        # marks is required, and null is not a marks object
        raw = simulate_config(tmp_path / "out")
        raw["marks"] = None
        cfg = write_config(tmp_path, "c.json", raw)
        assert main(["validate", str(cfg)]) == 1
        assert "marks must be a JSON object" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_unknown_experiment(self, tmp_path):
        # a list used to leave as a raw TypeError (unhashable type)
        for experiment in ("frobnicate", ["simulate"]):
            raw = simulate_config(tmp_path / "out")
            raw["experiment"] = experiment
            cfg = write_config(tmp_path, "c.json", raw)
            assert main(["validate", str(cfg)]) == 1


class TestRunSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg1 = write_config(tmp_path, "c1.json", simulate_config(out1))
        cfg2 = write_config(tmp_path, "c2.json", simulate_config(out2))
        assert main(["run", str(cfg1)]) == 0
        assert main(["run", str(cfg2), "--out", str(out2)]) == 0
        a, b = artifact_bytes(out1), artifact_bytes(out2)
        assert set(a) == {"path_0000.csv", "path_0001.csv", "run_summary.json"}
        assert a["path_0000.csv"] == b["path_0000.csv"]
        assert a["path_0001.csv"] == b["path_0001.csv"]

    def test_seed_override_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = write_config(tmp_path, "c.json", simulate_config(out1))
        assert main(["run", str(cfg)]) == 0
        assert main(["run", str(cfg), "--seed", "77", "--out", str(out2)]) == 0
        assert artifact_bytes(out1)["path_0000.csv"] != artifact_bytes(out2)["path_0000.csv"]
        summary = json.loads((out2 / "run_summary.json").read_text())
        assert summary["seed"] == 77
        assert summary["config"]["seed"] == 77

    def test_summary_echoes_config(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "c.json", simulate_config(out))
        assert main(["run", str(cfg)]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["experiment"] == "simulate"
        assert summary["config"]["intensity"]["base_rate"] == 2.0
        assert summary["passed"] is True


@pytest.mark.parametrize("b, m1", [(1.0, 1.0), (2.5, 1.3)])
@pytest.mark.parametrize(
    "kernel",
    [KernelSpec.exp_shot_noise(0.8), KernelSpec.indicator(), KernelSpec.fractional(0.7)],
    ids=["exp_shot_noise", "indicator", "fractional"],
)
def test_closed_form_phi_solves_the_calibration_equation(kernel, b, m1):
    phi = calibration_phi(kernel, IntensitySpec.constant(b), m1, 5.0)
    times = [0.01, 0.5, 1.0, 3.0, 5.0]
    assert volterra_residuals(phi, kernel, IntensitySpec.constant(b), m1, times).max() <= 1e-10


class TestRunExperiments:
    def test_estimate(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "estimate",
                "kernel": {"kind": "indicator"},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 200.0,
                "theta_true": 1.0,
                "replicas": 20,
                "seed": 5,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert abs(summary["headline"]["mean_theta_hat"] - 1.0) < 0.3
        assert (out / "estimates.csv").exists()

    def test_estimate_exp_shot_noise_closed_form(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "estimate",
                "kernel": {"kind": "exp_shot_noise", "a": 0.5},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 50.0,
                "theta_true": 1.0,
                "replicas": 10,
                "seed": 3,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert abs(summary["headline"]["mean_theta_hat"] - 1.0) < 0.3

    def test_trajectory(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "trajectory",
                "kernel": {"kind": "fractional", "H": 0.7},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 10.0,
                "grid": {"start": 0.5, "stop": 10.0, "count": 60},
                "theta_true": 1.0,
                "seed": 9,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["headline"]["monotonicity_violations"] == 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "t,theta_hat,jump_epoch"
        assert len(trace) == 61

    def test_verify_girsanov_degenerate_kernel_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "verify-girsanov",
                "kernel": {"kind": "indicator"},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 5.0,
                "grid": {"start": 1.0, "stop": 5.0, "count": 3},
                "h_spec": {"scale": 0.3, "phi_source": "closed_form"},
                "replicas": 200,
                "seed": 3,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "degenerate" in err["error"]["message"]

    def test_verify_girsanov_statistical_failure_exits_3(self, tmp_path):
        # for h != 0 the reweighted and shifted laws genuinely differ, so the
        # verification reports a statistical failure: exit code 3
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "verify-girsanov",
                "kernel": {"kind": "fractional", "H": 0.7},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 3.0,
                "grid": {"start": 1.0, "stop": 3.0, "count": 2},
                "h_spec": {"scale": 0.2, "phi_source": "closed_form"},
                "replicas": 800,
                "seed": 31,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 3
        report = json.loads((out / "law_report.json").read_text())
        assert report["passed"] is False
        assert report["config_echo"]["experiment"] == "verify-girsanov"

    def test_verify_girsanov_zero_shift_passes(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "verify-girsanov",
                "kernel": {"kind": "fractional", "H": 0.7},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 3.0,
                "grid": {"start": 1.0, "stop": 3.0, "count": 2},
                "h_spec": {"scale": 0.0, "phi_source": "closed_form"},
                "replicas": 400,
                "seed": 31,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 0
        report = json.loads((out / "law_report.json").read_text())
        assert report["passed"] is True

    def test_consistency_pass_and_statistical_failure(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        base = {
            "experiment": "consistency",
            "kernel": {"kind": "indicator"},
            "intensity": {"kind": "constant", "base_rate": 1.0},
            "marks": {"kind": "unit"},
            "theta_true": 1.0,
            "replicas": 80,
            "seed": 12,
        }
        ok = dict(base, horizon=900.0, grid={"start": 100.0, "stop": 900.0, "count": 3}, output_path=str(out1))
        cfg = write_config(tmp_path, "ok.json", ok)
        assert main(["run", str(cfg)]) == 0
        # short horizons leave the RMSE above estimator.RMSE_THRESHOLD: exit 3
        bad = dict(base, horizon=4.0, grid={"start": 2.0, "stop": 4.0, "count": 2}, output_path=str(out2))
        cfg = write_config(tmp_path, "bad.json", bad)
        assert main(["run", str(cfg)]) == 3
        report = json.loads((out2 / "consistency_report.json").read_text())
        assert report["passed"] is False

    def test_consistency_fractional_end_to_end(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "consistency",
                "kernel": {"kind": "fractional", "H": 0.7},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 1000.0,
                "grid": {"start": 50.0, "stop": 1000.0, "count": 3},
                "theta_true": 1.0,
                "replicas": 120,
                "seed": 910_000,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 0
        report = json.loads((out / "consistency_report.json").read_text())
        assert report["passed"] is True
        assert report["rmse"][0] > report["rmse"][1] > report["rmse"][2]
        assert report["hypothesis_note"]["phi2_integral_diverges"] is True
        rows = (out / "consistency_rmse.csv").read_text().splitlines()
        assert rows[0] == "horizon,mae,rmse"
        assert len(rows) == 4

    def test_solve_phi(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "solve-phi",
                "kernel": {"kind": "exp_shot_noise", "a": 1.0},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "grid": {"start": 0.001, "stop": 2.0, "count": 400},
                "seed": 1,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["headline"]["max_relative_residual"] < 1e-3
        phi_lines = (out / "phi.csv").read_text().splitlines()
        assert phi_lines[0] == "s,phi"

    def test_equal_panel_midpoints_exit_2(self, tmp_path, capsys):
        # nodes one to two ulps apart: two panel midpoints round to the same
        # double, and the solve meets a zero diagonal weight (numerical failure)
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "solve-phi",
                "kernel": {"kind": "fractional", "H": 0.7},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "grid": {"start": 1.0000000000000002, "stop": 1.0000000000000007, "count": 3},
                "seed": 1,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "NumericsError"
        assert "singular Volterra system" in err["error"]["message"]

    def test_degenerate_weights_exit_2(self, tmp_path, capsys):
        # an extreme shift collapses the effective sample size: numerical
        # failure, exit code 2, machine-readable error record
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "verify-girsanov",
                "kernel": {"kind": "fractional", "H": 0.7},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 5.0,
                "grid": {"start": 1.0, "stop": 5.0, "count": 2},
                "h_spec": {"scale": 40.0, "phi_source": "closed_form"},
                "replicas": 150,
                "seed": 3,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "NumericsError"

    def test_nan_effective_sample_size_exits_2(self, tmp_path, capsys):
        # h = 1e308 phi overflows: the weights, and with them the ESS, are NaN
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "verify-girsanov",
                "kernel": {"kind": "fractional", "H": 0.7},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 3.0,
                "grid": {"start": 1.0, "stop": 3.0, "count": 2},
                "h_spec": {"scale": 1e308, "phi_source": "closed_form"},
                "replicas": 200,
                "seed": 3,
                "output_path": str(out),
            },
        )
        with np.errstate(all="ignore"):
            assert main(["run", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "NumericsError"
        assert "effective sample size nan" in err["error"]["message"]
        assert not (out / "law_report.json").exists()

    def test_mle_non_convergence_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(estimator, "MAX_NEWTON_STEPS", 1)
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "estimate",
                "kernel": {"kind": "fractional", "H": 0.7},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 20.0,
                "theta_true": 1.0,
                "replicas": 3,
                "seed": 5,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "NumericsError"
        message = r"replica \d+ \(seed \d+\): the drift MLE did not converge at t = 20\.0"
        assert re.match(message, err["error"]["message"])
        assert not (out / "run_summary.json").exists()

    @pytest.mark.parametrize("integral, code", [(1e-100, 0), (1e-310, 2)])
    def test_extreme_mle_roots_exit_through_contract(self, tmp_path, capsys, monkeypatch, integral, code):
        # int phi lambda replaced by a tiny value: the roots are about N_t / integral, found at
        # 1e-100 and past the largest double at 1e-310, where the run exits 2; no warning either way
        monkeypatch.setattr(estimator, "phi_lambda_integral", lambda phi, intensity, t: integral)
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "estimate",
                "kernel": {"kind": "fractional", "H": 0.7},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 20.0,
                "theta_true": 1.0,
                "replicas": 3,
                "seed": 5,
                "output_path": str(out),
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg)]) == code
        err = capsys.readouterr().err
        if code:
            assert json.loads(err)["error"]["type"] == "NumericsError"
        else:
            assert not err
            assert float(json.loads((out / "run_summary.json").read_text())["headline"]["mean_theta_hat"]) > 1e100

    def test_huge_phi_mle_lanes_do_not_overflow(self, tmp_path, capsys):
        # base_rate 1e-160 makes phi about 1e160 at the jumps: sum phi^2 overflowed, and the run
        # printed a numpy overflow warning and exited 2; at 1e-150 it passed
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "estimate",
                "kernel": {"kind": "fractional", "H": 0.7},
                "intensity": {"kind": "constant", "base_rate": 1e-160},
                "marks": {"kind": "unit"},
                "horizon": 10.0,
                "theta_true": 1.0,
                "replicas": 20,
                "seed": 0,
                "output_path": str(out),
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg)]) == 0
        assert not capsys.readouterr().err
        assert abs(json.loads((out / "run_summary.json").read_text())["headline"]["mean_theta_hat"] - 1.0) < 0.3

    def test_mle_lanes_whose_phi_sum_overflows_exit_2(self, tmp_path, capsys):
        # indicator phi = 1 / base_rate is about 1e307, so a lane's sum of phi overflows to
        # inf although each phi is finite: that lane is NaN and the run exits 2, not a traceback
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "estimate",
                "kernel": {"kind": "indicator"},
                "intensity": {"kind": "constant", "base_rate": 1e-307},
                "marks": {"kind": "unit"},
                "horizon": 10.0,
                "theta_true": 1.0,
                "replicas": 20,
                "seed": 0,
                "output_path": str(tmp_path / "o"),
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "NumericsError"
        assert "the drift MLE did not converge" in err["error"]["message"]

    def test_non_finite_tabulated_cell_exits_1(self, tmp_path, capsys):
        # K = e^-(t-s) below the diagonal with one non-finite cell, rejected
        # when the table is loaded, so by `validate` too
        for bad in (math.inf, math.nan):
            rows = ["t,s,value"]
            for t in (0.5, 1.0, 2.0):
                for s in (0.0, 0.5, 1.0, 2.0):
                    value = bad if (t, s) == (1.0, 0.5) else (math.exp(s - t) if s <= t else 0.0)
                    rows.append(f"{t},{s},{value}")
            table = tmp_path / "k.csv"
            table.write_text("\n".join(rows) + "\n")
            out = tmp_path / "o"
            cfg = write_config(
                tmp_path,
                "c.json",
                {
                    "experiment": "solve-phi",
                    "kernel": {"kind": "tabulated", "path": str(table)},
                    "intensity": {"kind": "constant", "base_rate": 1.0},
                    "marks": {"kind": "unit"},
                    "grid": {"start": 0.5, "stop": 2.0, "count": 4},
                    "seed": 1,
                    "output_path": str(out),
                },
            )
            for command in ("validate", "run"):
                assert main([command, str(cfg)]) == 1
                err = json.loads(capsys.readouterr().err)
                assert err["error"]["type"] == "ValidationError"
                assert f"{table} has a non-finite value" in err["error"]["message"]
            assert not out.exists()

    def test_extreme_finite_tabulated_cells_exit_through_contract(self, tmp_path, capsys):
        # 1 to 3 cells of the lattice above set to huge, huge negative or
        # subnormal values: every draw passes (0) or fails with one JSON
        # record, and no overflow warning escapes.  solve-phi only passes or
        # fails as a numerical failure (2).  The first 20 draws also go
        # through the Volterra phi of trajectory and consistency, which is
        # checked: each fails its solve or its residual check (2).  Before
        # the check, two of them leaked overflow warnings from that solve and
        # from the expected jump count of the phi-tilted rate.
        volterra = {"horizon": 2.0, "theta_true": 0.5}
        inputs = [
            ({"experiment": "solve-phi", "grid": {"start": 0.5, "stop": 2.0, "count": 4}}, 400, {0, 2}),
            (
                {"experiment": "trajectory", "grid": {"start": 0.5, "stop": 2.0, "count": 4}, **volterra},
                20,
                {2},
            ),
            (
                {
                    "experiment": "consistency",
                    "grid": {"start": 1.0, "stop": 2.0, "count": 2},
                    "replicas": 20,
                    **volterra,
                },
                20,
                {2},
            ),
        ]
        cells = [(t, s) for t in (0.5, 1.0, 2.0) for s in (0.0, 0.5, 1.0, 2.0)]
        extremes = (1e200, -1e200, 1e308, -1e308, 5e-324)
        table = tmp_path / "k.csv"
        for experiment, draws, expected in inputs:
            cfg = write_config(
                tmp_path,
                "c.json",
                {
                    "kernel": {"kind": "tabulated", "path": str(table)},
                    "intensity": {"kind": "constant", "base_rate": 1.0},
                    "marks": {"kind": "unit"},
                    "seed": 1,
                    "output_path": str(tmp_path / "o"),
                    **experiment,
                },
            )
            rng = np.random.default_rng(0)
            codes = set()
            for _ in range(draws):
                pick = rng.choice(len(cells), size=rng.integers(1, 4), replace=False)
                bad = {cells[i]: extremes[rng.integers(len(extremes))] for i in pick}
                rows = ["t,s,value"]
                for t, s in cells:
                    rows.append(f"{t},{s},{bad.get((t, s), math.exp(s - t) if s <= t else 0.0)!r}")
                table.write_text("\n".join(rows) + "\n")
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = main(["run", str(cfg)])
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3)
                if err:
                    json.loads(err)
                codes.add(code)
            assert codes == expected, experiment["experiment"]

    def test_scaled_intensity_simulate(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "simulate",
                "kernel": {"kind": "fractional", "H": 0.7},
                "intensity": {"kind": "scaled-by-phi", "base_rate": 1.0, "theta": 0.5},
                "marks": {"kind": "unit"},
                "horizon": 10.0,
                "replicas": 1,
                "seed": 8,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 0
        assert (out / "path.csv").exists()


class TestFixedMonteCarloSettings:
    """The law check's KS bootstrap size and level, and the consistency RMSE bound, are fixed."""

    def test_verify_girsanov_thresholds_use_1000_resamples_at_level_001(self, tmp_path, monkeypatch):
        calls, threshold = [], girsanov.ks_bootstrap_threshold

        def spy(*args):
            calls.append(args[4:6])  # (n_boot, level)
            return threshold(*args)

        monkeypatch.setattr(girsanov, "ks_bootstrap_threshold", spy)
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "verify-girsanov",
                "kernel": {"kind": "fractional", "H": 0.7},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 3.0,
                "grid": {"start": 1.0, "stop": 3.0, "count": 3},
                "h_spec": {"scale": 0.0},
                "replicas": 200,
                "seed": 31,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 0
        assert calls == [(1000, 0.01)] * 3  # one threshold per evaluation time

    def test_consistency_report_records_the_015_bound(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "consistency",
                "kernel": {"kind": "indicator"},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 4.0,
                "grid": {"start": 2.0, "stop": 4.0, "count": 2},
                "theta_true": 1.0,
                "replicas": 20,
                "seed": 12,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 3  # short horizons leave the RMSE above the bound
        assert json.loads((out / "consistency_report.json").read_text())["rmse_threshold"] == 0.15


#: 20 replicas at base rate 0.001 on [0, 1]: replica 2 (stream 2) has no jump
ZERO_JUMP = {
    "kernel": {"kind": "indicator"},
    "intensity": {"kind": "constant", "base_rate": 0.001},
    "marks": {"kind": "unit"},
    "horizon": 1.0,
    "theta_true": 1.0,
    "replicas": 20,
    "seed": 0,
}


class TestOneEstimationEngine:
    """estimate, trajectory and consistency draw and solve through `estimator.drift_estimates`."""

    @pytest.mark.parametrize(
        "experiment, extra, replicas",
        [
            ("estimate", {}, 20),
            ("trajectory", {"grid": {"start": 0.5, "stop": 1.0, "count": 2}}, 1),
            ("consistency", {"grid": {"start": 0.5, "stop": 1.0, "count": 2}}, 20),
        ],
        ids=["estimate", "trajectory", "consistency"],
    )
    def test_one_engine_call_per_run(self, tmp_path, monkeypatch, experiment, extra, replicas):
        calls, engine = [], estimator.drift_estimates

        def spy(*args):
            calls.append(args[6])  # replicas
            return engine(*args)

        # cli binds the engine for estimate; trajectory and consistency_experiment look it up in estimator
        monkeypatch.setattr(cli, "drift_estimates", spy)
        monkeypatch.setattr(estimator, "drift_estimates", spy)
        raw = reads_only(dict(ZERO_JUMP, experiment=experiment, output_path=str(tmp_path / "o"), **extra))
        assert main(["run", str(write_config(tmp_path, "c.json", raw))]) in (0, 3)
        assert calls == [replicas]
        assert not hasattr(cli, "mle_solve_batch")

    def test_zero_jump_replica_estimates_zero_in_every_experiment(self, tmp_path, capsys):
        # consistency used to exit 2 on replica 2's zero jumps; now it estimates 0 there, as
        # estimate does, and its short horizons leave the RMSE above the bound: exit 3
        est_out, cons_out = tmp_path / "estimate", tmp_path / "consistency"
        estimate = dict(ZERO_JUMP, experiment="estimate", output_path=str(est_out))
        assert main(["run", str(write_config(tmp_path, "e.json", estimate))]) == 0
        assert "2,0.0" in (est_out / "estimates.csv").read_text().splitlines()
        consistency = dict(
            ZERO_JUMP, experiment="consistency", grid={"start": 0.5, "stop": 1.0, "count": 2}, output_path=str(cons_out)
        )
        capsys.readouterr()
        assert main(["run", str(write_config(tmp_path, "c.json", consistency))]) == 3
        assert "produced zero jumps" not in capsys.readouterr().err
        report = json.loads((cons_out / "consistency_report.json").read_text())
        assert report["passed"] is False
        assert report["rmse"] == [1.1827934730966347, 0.7068950770800431]
        headline = json.loads((est_out / "run_summary.json").read_text())["headline"]
        assert report["rmse"][-1] == headline["rmse"]


class TestPhiFollowsTheKernelKind:
    """phi is the closed form of an analytic kernel, and a checked Volterra solve of a tabulated one."""

    @pytest.mark.parametrize(
        "experiment, artifact",
        [
            ("estimate", "estimates.csv"),
            ("trajectory", "trace.csv"),
            ("consistency", "consistency_report.json"),
            ("simulate", "path_0000.csv"),
        ],
    )
    def test_tabulated_kernel_needs_no_h_spec(self, tmp_path, capsys, experiment, artifact):
        # these exited 1 with "no closed-form phi" unless h_spec named the Volterra source
        out = tmp_path / "out"
        raw = {
            "experiment": experiment,
            "kernel": {"kind": "tabulated", "path": str(write_exponential_table(tmp_path / "k.csv", 20.0, 100))},
            "intensity": {"kind": "constant", "base_rate": 1.0},
            "marks": {"kind": "unit"},
            "horizon": 20.0,
            "grid": {"start": 5.0, "stop": 20.0, "count": 2},
            "theta_true": 0.5,
            "replicas": 20,
            "seed": 0,
            "output_path": str(out),
        }
        if experiment == "simulate":
            raw.update(intensity={"kind": "scaled-by-phi", "base_rate": 1.0, "theta": 0.5}, replicas=2)
        cfg = write_config(tmp_path, "c.json", reads_only(raw))
        assert main(["validate", str(cfg)]) == 0
        assert main(["run", str(cfg)]) == 0
        assert not capsys.readouterr().err
        assert (out / artifact).stat().st_size > 0

    def test_volterra_phi_that_fails_its_check_exits_2(self, tmp_path, capsys):
        # draw 5 of the extreme-cell test: two cells at 1e200 gave a phi whose
        # residual reached 7e192, and trajectory used to exit 0 with it
        table = tmp_path / "k.csv"
        rows = ["t,s,value"]
        for t in (0.5, 1.0, 2.0):
            for s in (0.0, 0.5, 1.0, 2.0):
                value = 1e200 if s == 0.0 and t < 2.0 else (math.exp(s - t) if s <= t else 0.0)
                rows.append(f"{t},{s},{value!r}")
        table.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "experiment": "trajectory",
                "kernel": {"kind": "tabulated", "path": str(table)},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "marks": {"kind": "unit"},
                "horizon": 2.0,
                "grid": {"start": 0.5, "stop": 2.0, "count": 4},
                "theta_true": 0.5,
                "seed": 1,
                "output_path": str(out),
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "NumericsError"
        assert err["message"].startswith("Volterra residual check failed")
        assert not (out / "trace.csv").exists()

    @staticmethod
    def law_config(out: Path, h_spec: dict) -> dict:
        return {
            "experiment": "verify-girsanov",
            "kernel": {"kind": "fractional", "H": 0.7},
            "intensity": {"kind": "constant", "base_rate": 1.0},
            "marks": {"kind": "unit"},
            "horizon": 3.0,
            "grid": {"start": 1.0, "stop": 3.0, "count": 2},
            "h_spec": h_spec,
            "replicas": 400,
            "seed": 3,
            "output_path": str(out),
        }

    def test_closed_form_key_changes_no_byte(self, tmp_path, capsys):
        # the key stays accepted while the benchmark's law-check config carries
        # it; only its own line in the echoed config differs
        out = tmp_path / "out"
        runs = []
        for h_spec in ({"scale": 0.3, "phi_source": "closed_form"}, {"scale": 0.3}):
            cfg = write_config(tmp_path, "c.json", self.law_config(out, h_spec))
            code = main(["run", str(cfg)])
            key_line = rb'\n *"phi_source": "closed_form",'
            files = {name: re.sub(key_line, b"", data) for name, data in artifact_bytes(out).items()}
            runs.append((code, files, capsys.readouterr()))
            shutil.rmtree(out)
        assert runs[0] == runs[1]
        assert runs[0][0] == 3


class TestBadInputExitsThroughContract:
    """Bad input leaves with exit 1 and a JSON error record, never a traceback."""

    def run_invalid(self, tmp_path, capsys, cfg_text: str) -> str:
        cfg = tmp_path / "c.json"
        cfg.write_text(cfg_text)
        assert main(["run", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        return err["error"]["message"]

    @pytest.mark.parametrize("key", ["base_rate", "horizon"])
    def test_overflowing_number(self, tmp_path, capsys, key):
        # JSON reads 1e310 as inf, which passes every "> 0" check
        raw = simulate_config(tmp_path / "out")
        (raw["intensity"] if key == "base_rate" else raw)[key] = "OVERFLOW"
        text = json.dumps(raw).replace('"OVERFLOW"', "1e310")
        assert "finite" in self.run_invalid(tmp_path, capsys, text)

    @pytest.mark.parametrize("experiment", ["simulate", "consistency"])
    def test_expected_jumps_beyond_poisson_range(self, tmp_path, capsys, monkeypatch, experiment):
        # finite, but no Poisson draw takes 2e301 expected jumps (numpy: "lam value too large");
        # the cost cap, lifted here, would reject the config first
        monkeypatch.setattr(cli, "MAX_REPLICA_JUMPS", math.inf)
        raw = simulate_config(tmp_path / "out")
        raw["intensity"]["base_rate"] = 1e300
        if experiment == "consistency":
            raw.update(
                experiment="consistency",
                kernel={"kind": "fractional", "H": 0.7},
                marks={"kind": "unit"},
                grid={"start": 10.0, "stop": 20.0, "count": 2},
                theta_true=1.0,
            )
        assert "expected jump count" in self.run_invalid(tmp_path, capsys, json.dumps(raw))

    def test_expected_jumps_beyond_memory(self, tmp_path, capsys, monkeypatch):
        # 5e16 expected jumps: a Poisson draw takes them, but thinning's uniforms
        # would need 711 PiB, which no address space maps, so nothing is allocated;
        # the cost cap, lifted here, would reject the config first
        monkeypatch.setattr(cli, "MAX_REPLICA_JUMPS", math.inf)
        raw = simulate_config(tmp_path / "out")
        raw["intensity"]["base_rate"] = 1e16
        raw["horizon"] = 5.0
        message = self.run_invalid(tmp_path, capsys, json.dumps(raw))
        assert "more memory than is available" in message and "PiB" in message

    @pytest.mark.parametrize("experiment", ["estimate", "trajectory", "verify-girsanov", "consistency"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_scaled_intensity_rejected_where_ignored(self, tmp_path, capsys, experiment, command):
        # these runs take the base intensity at the constant base_rate: theta was silently ignored
        raw = simulate_config(tmp_path / "out")
        raw.update(
            experiment=experiment,
            kernel={"kind": "fractional", "H": 0.7},
            intensity={"kind": "scaled-by-phi", "base_rate": 1.0, "theta": 5.0},
            marks={"kind": "unit"},
            grid={"start": 10.0, "stop": 20.0, "count": 2},
            theta_true=1.0,
            h_spec={"scale": 0.3, "phi_source": "closed_form"},
            replicas=5,
        )
        cfg = write_config(tmp_path, "c.json", reads_only(raw))
        assert main([command, str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert "only simulate and solve-phi read a scaled-by-phi intensity" in err["error"]["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["consistency", "verify-girsanov"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_replicas_beyond_cost_cap(self, tmp_path, capsys, experiment, command):
        # 10**20 replicas used to leave as a raw "Maximum allowed dimension exceeded"
        raw = simulate_config(tmp_path / "out")
        raw.update(
            experiment=experiment,
            kernel={"kind": "fractional", "H": 0.7},
            marks={"kind": "unit"},
            grid={"start": 10.0, "stop": 20.0, "count": 2},
            theta_true=1.0,
            h_spec={"scale": 0.3, "phi_source": "closed_form"},
            replicas=10**20,
        )
        cfg = write_config(tmp_path, "c.json", reads_only(raw))
        assert main([command, str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert "pre-flight cap" in err["error"]["message"]
        assert not (tmp_path / "out").exists()

    @staticmethod
    def law_config(out: Path, replicas: int, scale: float) -> dict:
        return {
            "experiment": "verify-girsanov",
            "kernel": {"kind": "fractional", "H": 0.7},
            "intensity": {"kind": "constant", "base_rate": 1.0},
            "marks": {"kind": "unit"},
            "horizon": 3.0,
            "grid": {"start": 1.0, "stop": 3.0, "count": 2},
            "h_spec": {"scale": scale},
            "replicas": replicas,
            "seed": 3,
            "output_path": str(out),
        }

    @pytest.mark.parametrize(("replicas", "scale"), [(100, 0.3), (99, 0.0), (1, 0.3)])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_replicas_below_effective_sample_floor(self, tmp_path, capsys, command, replicas, scale):
        # the effective sample size is at most the replica count, and equals it only
        # when every weight agrees: 100 replicas with h != 0 used to simulate and exit 2
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.json", self.law_config(out, replicas, scale))
        assert main([command, str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert "effective sample size floor MIN_EFFECTIVE_SAMPLE = 100" in err["error"]["message"]
        assert not out.exists()

    def test_effective_sample_floor_admits_equal_weights(self, tmp_path):
        # h = 0: every weight is 1 and the effective sample size is the replica count
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.json", self.law_config(out, 100, 0.0))
        assert main(["validate", str(cfg)]) == 0
        assert main(["run", str(cfg)]) == 0
        assert json.loads((out / "law_report.json").read_text())["effective_sample_size"] == 100.0

    @pytest.mark.parametrize(
        "raw",
        [
            {"experiment": "simulate", "intensity": {"kind": "constant", "base_rate": 1e16}, "horizon": 5.0},
            {
                "experiment": "solve-phi",
                "kernel": {"kind": "exp_shot_noise", "a": 1.0},
                "intensity": {"kind": "constant", "base_rate": 1.0},
                "grid": {"start": 0.001, "stop": 2.0, "count": 10**6},
            },
        ],
        ids=["expected-jumps", "grid-nodes"],
    )
    def test_cost_cap_rejects_before_allocating(self, tmp_path, capsys, raw):
        # validate, not run: without the cap these configs would run for hours
        raw = dict(raw, marks={"kind": "unit"}, seed=1, output_path=str(tmp_path / "out"))
        cfg = write_config(tmp_path, "c.json", raw)
        assert main(["validate", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert "pre-flight cap" in err["error"]["message"]

    @pytest.mark.parametrize(
        "rows", ["1,1,0.5\n1,2,abc\n2,1,0.1\n2,2,0.2\n", "1,1,0.5\n1,2\n2,1,0.1\n2,2,0.2\n"],
        ids=["non-numeric-cell", "ragged-row"],
    )
    def test_malformed_tabulated_kernel(self, tmp_path, capsys, rows):
        table = tmp_path / "k.csv"
        table.write_text("t,s,value\n" + rows)
        raw = {
            "experiment": "solve-phi",
            "kernel": {"kind": "tabulated", "path": str(table)},
            "intensity": {"kind": "constant", "base_rate": 1.0},
            "marks": {"kind": "unit"},
            "grid": {"start": 0.5, "stop": 2.0, "count": 4},
            "seed": 1,
            "output_path": str(tmp_path / "out"),
        }
        message = self.run_invalid(tmp_path, capsys, json.dumps(raw))
        assert str(table) in message and "line 3" in message

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("path", ["missing", "directory", "undecodable", 1.5, None, 0])
    def test_unreadable_tabulated_kernel(self, tmp_path, capsys, command, path):
        # 0 used to open file descriptor 0 and read the kernel from stdin
        (tmp_path / "directory").mkdir()
        (tmp_path / "undecodable").write_bytes(b"t,s,value\n\xff\xfe\n")
        if isinstance(path, str):
            path = str(tmp_path / path)
        raw = {
            "experiment": "solve-phi",
            "kernel": {"kind": "tabulated", "path": path},
            "intensity": {"kind": "constant", "base_rate": 1.0},
            "marks": {"kind": "unit"},
            "grid": {"start": 0.5, "stop": 2.0, "count": 4},
            "seed": 1,
            "output_path": str(tmp_path / "out"),
        }
        cfg = write_config(tmp_path, "c.json", raw)
        assert main([command, str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert (path if isinstance(path, str) else "kernel.path") in err["error"]["message"]

    #: config edits that the library rejects only at run (most of them once phi
    #: is built), or that it used to ignore, and the message that validate and
    #: run now both give; "TABLE" stands for a tabulated kernel
    ONE_NODE = {"start": 2.0, "stop": 2.0, "count": 1}
    ROUNDED_REPEATS = {"start": 1.0, "stop": 1.000000000000001, "count": 100}
    ROUNDED_REPEATS_MESSAGE = "grid nodes repeat after rounding: 100 nodes from 1.0 to 1.000000000000001"
    GRID = {"start": 1.0, "stop": 5.0, "count": 3}
    H_SPEC = {"scale": 0.3, "phi_source": "closed_form"}
    NEGATIVE_TILT = {
        "intensity": {"kind": "scaled-by-phi", "base_rate": 1.0, "theta": -1.0},
        "kernel": {"kind": "fractional", "H": 0.7},
    }
    REJECTED_AT_RUN = {
        "verify-girsanov:tabulated": ({"kernel": "TABLE"}, "no closed-form phi for kernel kind 'tabulated'"),
        "verify-girsanov:indicator": (
            {"kernel": {"kind": "indicator"}},
            "equality in law requires a diagonal-degenerate kernel (K(t,t) = 0); got kind 'indicator'",
        ),
        "consistency:one-replica": ({"replicas": 1}, "need at least 2 replicas"),
        "consistency:one-horizon": ({"grid": ONE_NODE}, "horizons must be >= 2 strictly increasing positives"),
        "consistency:zero-theta": ({"theta_true": 0.0}, "theta_true must be positive, got 0.0"),
        "estimate:negative-theta": ({"theta_true": -1.0}, "theta must be >= 0, got -1.0"),
        "trajectory:negative-theta": ({"theta_true": -1.0}, "theta must be >= 0, got -1.0"),
        "simulate:negative-intensity-theta": (NEGATIVE_TILT, "theta must be >= 0, got -1.0"),
        "solve-phi:negative-intensity-theta": (NEGATIVE_TILT, "theta must be >= 0, got -1.0"),
        "solve-phi:one-node": ({"grid": ONE_NODE}, "grid must be a 1-d array with at least 2 nodes"),
        "simulate:zero-horizon": ({"horizon": 0.0}, "horizon must be positive, got 0.0"),
        "estimate:negative-horizon": ({"horizon": -1.0}, "horizon must be positive, got -1.0"),
        "trajectory:repeated-node": (
            {"grid": {"start": 2.0, "stop": 2.0, "count": 2}},
            "grid requires 0 < start <= stop, count >= 1, and start == stop iff count == 1",
        ),
        # 100 nodes from 1 to 1 + 1e-15, about 4.5 ulps, round to 6 distinct values
        "trajectory:rounded-repeats": ({"grid": ROUNDED_REPEATS}, ROUNDED_REPEATS_MESSAGE),
        "consistency:rounded-repeats": ({"grid": ROUNDED_REPEATS}, ROUNDED_REPEATS_MESSAGE),
        # phi follows from the kernel kind: the Volterra source, which both used to accept, is gone
        "verify-girsanov:phi-source-volterra": (
            {"h_spec": {"scale": 0.3, "phi_source": "volterra"}},
            "h_spec.phi_source must be closed_form, got 'volterra'",
        ),
        # each experiment accepts only the keys it reads: these were accepted, echoed and ignored
        "simulate:grid": ({"grid": GRID}, "unknown keys in simulate config: ['grid']"),
        "simulate:theta_true": ({"theta_true": 1.0}, "unknown keys in simulate config: ['theta_true']"),
        "simulate:h_spec": ({"h_spec": H_SPEC}, "unknown keys in simulate config: ['h_spec']"),
        "simulate:constant-rate-kernel": (
            {"kernel": {"kind": "fractional", "H": 0.7}},
            "simulate reads a kernel only to define phi for a scaled-by-phi intensity",
        ),
        "estimate:grid": ({"grid": GRID}, "unknown keys in estimate config: ['grid']"),
        "estimate:h_spec": ({"h_spec": H_SPEC}, "unknown keys in estimate config: ['h_spec']"),
        "trajectory:replicas": ({"replicas": 500}, "unknown keys in trajectory config: ['replicas']"),
        "trajectory:h_spec": ({"h_spec": H_SPEC}, "unknown keys in trajectory config: ['h_spec']"),
        "verify-girsanov:theta_true": ({"theta_true": 1.0}, "unknown keys in verify-girsanov config: ['theta_true']"),
        "consistency:h_spec": ({"h_spec": H_SPEC}, "unknown keys in consistency config: ['h_spec']"),
        "solve-phi:theta_true": ({"theta_true": -5.0}, "unknown keys in solve-phi config: ['theta_true']"),
        "solve-phi:replicas": ({"replicas": 7}, "unknown keys in solve-phi config: ['replicas']"),
        "solve-phi:h_spec": ({"h_spec": {"scale": 99.0}}, "unknown keys in solve-phi config: ['h_spec']"),
        "estimate:constant-rate-theta": (
            {"intensity": {"kind": "constant", "base_rate": 1.0, "theta": 5.0}},
            "unknown keys in intensity(constant): ['theta']",
        ),
    }

    @pytest.mark.parametrize("case", list(REJECTED_AT_RUN))
    def test_run_rejects_nothing_that_validate_passes(self, tmp_path, capsys, monkeypatch, case):
        # each used to validate and then fail at run, most of them after phi was built
        table = tmp_path / "k.csv"
        table.write_text("t,s,value\n1,1,0\n1,2,0\n2,1,0.5\n2,2,0\n")
        edit, message = self.REJECTED_AT_RUN[case]
        raw = {
            "experiment": case.split(":")[0],
            "kernel": {"kind": "fractional", "H": 0.7},
            "intensity": {"kind": "constant", "base_rate": 1.0},
            "marks": {"kind": "unit"},
            "horizon": 5.0,
            "grid": self.GRID,
            "theta_true": 1.0,
            "h_spec": self.H_SPEC,
            "replicas": 200,
            "seed": 1,
            "output_path": str(tmp_path / "out"),
        }
        raw = dict(reads_only(raw), **edit)
        if raw.get("kernel") == "TABLE":
            raw["kernel"] = {"kind": "tabulated", "path": str(table)}
        cfg = write_config(tmp_path, "c.json", raw)
        monkeypatch.setattr(cli, "calibration_phi", lambda *args: pytest.fail("phi built for a rejected config"))
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == {"type": "ValidationError", "message": message}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        ("experiment", "library_config"),
        [("verify-girsanov", girsanov.GirsanovCheckConfig), ("consistency", estimator.ConsistencyConfig)],
    )
    def test_validate_builds_the_library_config(self, tmp_path, capsys, monkeypatch, experiment, library_config):
        # the library config's own checks are the ones validate and run give, before phi is built
        def reject(config):
            raise ValidationError(f"sentinel from {type(config).__name__}")

        monkeypatch.setattr(library_config, "__post_init__", reject)
        monkeypatch.setattr(cli, "calibration_phi", lambda *args: pytest.fail("phi built for a rejected config"))
        raw = {
            "experiment": experiment,
            "kernel": {"kind": "fractional", "H": 0.7},
            "intensity": {"kind": "constant", "base_rate": 1.0},
            "marks": {"kind": "unit"},
            "horizon": 5.0,
            "grid": self.GRID,
            "theta_true": 1.0,
            "h_spec": self.H_SPEC,
            "replicas": 200,
            "seed": 1,
            "output_path": str(tmp_path / "out"),
        }
        cfg = write_config(tmp_path, "c.json", reads_only(raw))
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == {"type": "ValidationError", "message": f"sentinel from {library_config.__name__}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["estimate", "trajectory", "simulate"])
    def test_tilt_rule_has_one_home(self, tmp_path, capsys, monkeypatch, experiment):
        # theta >= 0 of a tilt, theta_true's or a scaled-by-phi intensity's, is point_process.require_tilt's
        def reject(theta):
            raise ValidationError("sentinel from require_tilt")

        monkeypatch.setattr(cli, "require_tilt", reject)
        monkeypatch.setattr(point_process, "require_tilt", reject)
        monkeypatch.setattr(cli, "calibration_phi", lambda *args: pytest.fail("phi built for a rejected config"))
        tilt = {"kind": "scaled-by-phi", "base_rate": 1.0, "theta": 0.5}
        raw = {
            "experiment": experiment,
            "kernel": {"kind": "fractional", "H": 0.7},
            "intensity": tilt if experiment == "simulate" else {"kind": "constant", "base_rate": 1.0},
            "marks": {"kind": "unit"},
            "horizon": 5.0,
            "grid": self.GRID,
            "theta_true": 1.0,
            "replicas": 2,
            "seed": 1,
            "output_path": str(tmp_path / "out"),
        }
        cfg = write_config(tmp_path, "c.json", reads_only(raw))
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == {"type": "ValidationError", "message": "sentinel from require_tilt"}
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValidationError, match="sentinel from require_tilt"):
            IntensitySpec.constant(1.0).tilted(-1.0, PhiFunction.constant(1.0))
