from __future__ import annotations

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from fpp_lab import IntensitySpec, KernelSpec, cli, estimator, volterra_residuals
from fpp_lab.cli import main


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

    def test_unknown_experiment(self, tmp_path):
        raw = simulate_config(tmp_path / "out")
        raw["experiment"] = "frobnicate"
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
    phi = cli.build_phi("closed_form", kernel, b, m1, 5.0)
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
                "h_spec": {"scale": 1.0, "phi_source": "closed_form"},
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
                "h_spec": {"scale": 1.0, "phi_source": "closed_form"},
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
            "h_spec": {"scale": 1.0, "phi_source": "closed_form"},
            "replicas": 80,
            "seed": 12,
        }
        ok = dict(base, horizon=900.0, grid={"start": 100.0, "stop": 900.0, "count": 3}, output_path=str(out1))
        cfg = write_config(tmp_path, "ok.json", ok)
        assert main(["run", str(cfg)]) == 0
        # short horizons leave the RMSE above the default threshold: exit 3
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
        # through the Volterra phi of trajectory and consistency; two of them
        # leaked overflow warnings from that solve and from the expected jump
        # count of the phi-tilted rate.
        volterra = {"h_spec": {"scale": 0.5, "phi_source": "volterra"}, "horizon": 2.0, "theta_true": 0.5}
        inputs = [
            ({"experiment": "solve-phi", "grid": {"start": 0.5, "stop": 2.0, "count": 4}}, 400, {0, 2}),
            (
                {"experiment": "trajectory", "grid": {"start": 0.5, "stop": 2.0, "count": 4}, **volterra},
                20,
                {0, 1, 2},
            ),
            (
                {
                    "experiment": "consistency",
                    "grid": {"start": 1.0, "stop": 2.0, "count": 2},
                    "replicas": 20,
                    **volterra,
                },
                20,
                {1, 2, 3},
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
                "h_spec": {"scale": 0.5, "phi_source": "closed_form"},
                "replicas": 1,
                "seed": 8,
                "output_path": str(out),
            },
        )
        assert main(["run", str(cfg)]) == 0
        assert (out / "path.csv").exists()


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
        cfg = write_config(tmp_path, "c.json", raw)
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
        cfg = write_config(tmp_path, "c.json", raw)
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
            "h_spec": {"scale": scale, "phi_source": "volterra"},
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
