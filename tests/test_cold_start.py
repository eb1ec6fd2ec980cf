"""Cold start: importing the package, a drift-MLE run, the fractional kernel's
F table, a closed-form-phi verify-girsanov run, and the solve-phi run and the
tabulated-kernel estimate run that solve for a Volterra phi (and check it by
quadrature) load no scipy submodule.

The check runs in a fresh interpreter: pytest's `filterwarnings` setting
imports `scipy.integrate` when the test session starts.  A scan of the
package's syntax tree checks that `special_functions.hyp2f1` is the one
function that imports scipy, another that no package code calls a one-row
twin of a batched layer, and a third that the CLI names none of the phi
solver's numerics.

The `fpp-lab` console script that `pyproject.toml` declares runs in a fresh
process as well, once per command on a valid and on a rejected config, so
the entry point and the exit status it hands the shell are checked too.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fpp_lab

from oracles import write_exponential_table

# evaluated in both processes; the subprocess runs it after the checks above it
PROBES = """
import numpy as np
from fpp_lab import KernelSpec, kernel_eval_at
from fpp_lab.kernels import singular_quad_0_to_t
from fpp_lab.special_functions import hyp2f1

values = [
    kernel_eval_at(KernelSpec.fractional(0.7), 2.0, np.array([1e-16, 0.1, 1.0, 1.9])).tolist(),
    hyp2f1(0.2, -0.2, 1.2, -3.0),
    singular_quad_0_to_t(lambda s: s**-0.2, 1.5, 0.2),
]
"""

SCRIPT = """
import contextlib, io, json, sys, tempfile
from pathlib import Path

SCIPY = ("scipy.special", "scipy.integrate", "scipy.interpolate")
loaded = {}
import fpp_lab
loaded["import fpp_lab"] = [m for m in SCIPY if m in sys.modules]
import fpp_lab.cli
loaded["import fpp_lab.cli"] = [m for m in SCIPY if m in sys.modules]
with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "c.json"
    cfg.write_text(json.dumps({
        "experiment": "consistency",
        "kernel": {"kind": "fractional", "H": 0.7},
        "intensity": {"kind": "constant", "base_rate": 1.0},
        "marks": {"kind": "unit"},
        "horizon": 50.0,
        "grid": {"start": 10.0, "stop": 50.0, "count": 2},
        "theta_true": 1.0,
        "replicas": 20,
        "seed": 5,
        "output_path": str(Path(tmp) / "out"),
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        code = fpp_lab.cli.main(["run", str(cfg)])
    loaded["consistency run"] = [m for m in SCIPY if m in sys.modules]
    assert (Path(tmp) / "out" / "consistency_report.json").exists(), code
"""


def run_fresh(script: str, *args: str, code: int = 0) -> subprocess.CompletedProcess:
    """Run `script` with `args` in a fresh interpreter that imports `fpp_lab` from this checkout.

    The process must exit with status `code`.
    """
    src = str(Path(fpp_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    return proc


def entry_point() -> tuple[str, str]:
    """(module, function) of the `fpp-lab` console script that pyproject.toml declares."""
    # read with a regex: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^fpp-lab\s*=\s*"([\w.]+):(\w+)"\s*$', text, re.M)
    assert match, "pyproject.toml declares no fpp-lab console script"
    return match.group(1), match.group(2)


# what pip's wrapper script does: main() reads sys.argv, and its return value is the exit status
CONSOLE_SCRIPT = """
import importlib, sys
module, function, *argv = sys.argv[1:]
sys.argv = ["fpp-lab", *argv]
sys.exit(getattr(importlib.import_module(module), function)())
"""

#: a valid solve-phi config, a negative tilt of a scaled-by-phi intensity, and a config text nested too
#: deeply to decode (the recursion limit is the fresh process's), with the errors they exit 1 on
ENTRY_POINT_CASES = {
    "solve-phi": (
        {
            "experiment": "solve-phi",
            "intensity": {"kind": "constant", "base_rate": 1.0},
            "grid": {"start": 0.01, "stop": 2.0, "count": 200},
        },
        None,
    ),
    "negative-tilt": (
        {
            "experiment": "simulate",
            "intensity": {"kind": "scaled-by-phi", "base_rate": 1.0, "theta": -1.0},
            "horizon": 5.0,
        },
        {"type": "ValidationError", "message": "theta must be >= 0, got -1.0"},
    ),
    "deep-nesting": (
        "[" * 100_000,
        {
            "type": "ValidationError",
            "message": "config {config} is not valid JSON: maximum recursion depth exceeded while decoding a JSON "
            "array from a unicode string",
        },
    ),
}


@pytest.mark.parametrize("case", list(ENTRY_POINT_CASES))
def test_console_script_exit_status(tmp_path, case):
    # every CLI case is pinned in test_cli.py through cli.main(argv); this runs the
    # declared entry point itself, with no argv, in a fresh process per command
    edit, error = ENTRY_POINT_CASES[case]
    out = tmp_path / "out"
    if not isinstance(edit, str):
        cfg = dict(edit, kernel={"kind": "fractional", "H": 0.7}, marks={"kind": "unit"}, seed=0, output_path=str(out))
        edit = json.dumps(cfg)
    path = tmp_path / "c.json"
    path.write_text(edit)
    module, function = entry_point()
    for command in ("validate", "run"):
        proc = run_fresh(CONSOLE_SCRIPT, module, function, command, str(path), code=1 if error else 0)
        if error:
            assert json.loads(proc.stderr) == {"error": dict(error, message=error["message"].format(config=path))}
            assert not out.exists()
    if not error:
        assert (out / "phi.csv").stat().st_size > 0


def test_scipy_loads_on_first_use():
    tail = "print(json.dumps({'loaded': loaded, 'values': repr(values)}))"
    proc = run_fresh("\n".join([SCRIPT, PROBES, tail]))
    result = json.loads(proc.stdout)
    assert result["loaded"] == {"import fpp_lab": [], "import fpp_lab.cli": [], "consistency run": []}
    scope: dict = {}
    exec(PROBES, scope)
    assert result["values"] == repr(scope["values"])


FRACTIONAL_SCRIPT = """
import contextlib, io, json, sys, tempfile
from pathlib import Path

import numpy as np

SCIPY = ("scipy.special", "scipy.integrate", "scipy.interpolate")
loaded = {}
import fpp_lab
import fpp_lab.cli
from fpp_lab import KernelSpec, kernel_eval_at

spec = KernelSpec.fractional(0.7)
kernel_eval_at(spec, 1.0, np.array([0.5]))
kernel_eval_at(spec, 2.0, np.linspace(1e-3, 1.99, 500))
loaded["in-table row"] = [m for m in SCIPY if m in sys.modules]
kernel_eval_at(spec, 2.0, np.array([1e-3, 0.5, 1.9, 2.5]))
loaded["masked row"] = [m for m in SCIPY if m in sys.modules]
with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "c.json"
    cfg.write_text(json.dumps({
        "experiment": "verify-girsanov",
        "kernel": {"kind": "fractional", "H": 0.7},
        "intensity": {"kind": "constant", "base_rate": 1.0},
        "marks": {"kind": "unit"},
        "horizon": 3.0,
        "grid": {"start": 1.0, "stop": 3.0, "count": 2},
        "h_spec": {"scale": 0.3, "phi_source": "closed_form"},
        "replicas": 400,
        "seed": 5,
        "output_path": str(Path(tmp) / "out"),
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        code = fpp_lab.cli.main(["run", str(cfg)])
    loaded["verify-girsanov run"] = [m for m in SCIPY if m in sys.modules]
    assert (Path(tmp) / "out" / "law_report.json").exists(), code
print(json.dumps(loaded))
"""


def test_fractional_table_and_closed_form_law_check_load_no_scipy():
    # the Hermite table is numpy only: an in-table row, a masked row with a
    # point above the diagonal and a closed-form-phi verify-girsanov run
    # (whose integrals are closed forms) never reach for scipy
    proc = run_fresh(FRACTIONAL_SCRIPT)
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "in-table row": [], "masked row": [], "verify-girsanov run": []
    }


#: "TABLE" stands for a tabulated exponential kernel, the one kind whose phi is a Volterra solve
QUADRATURE_CONFIGS = {
    "solve-phi": {"grid": {"start": 0.01, "stop": 2.0, "count": 200}},
    "estimate": {"kernel": "TABLE", "horizon": 5.0, "theta_true": 1.0, "replicas": 20},
}

QUADRATURE_SCRIPT = """
import contextlib, io, json, sys, tempfile
from pathlib import Path

SCIPY = ("scipy.special", "scipy.integrate", "scipy.interpolate")
import fpp_lab.cli

cfg = dict({
    "kernel": {"kind": "fractional", "H": 0.7},
    "intensity": {"kind": "constant", "base_rate": 1.0},
    "marks": {"kind": "unit"},
    "seed": 3,
}, **json.loads(sys.argv[1]))
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "c.json"
    path.write_text(json.dumps(dict(cfg, output_path=str(Path(tmp) / "out"))))
    with contextlib.redirect_stdout(io.StringIO()):
        code = fpp_lab.cli.main(["run", str(path)])
    artifacts = sorted(p.name for p in (Path(tmp) / "out").iterdir())
print(json.dumps({"code": code, "loaded": [m for m in SCIPY if m in sys.modules], "artifacts": artifacts}))
"""


@pytest.mark.parametrize("experiment, artifact", [("solve-phi", "phi.csv"), ("estimate", "estimates.csv")])
def test_volterra_phi_runs_load_no_scipy(tmp_path, experiment, artifact):
    # the residual check that follows each solve is a quadrature of
    # K phi lambda.  Each runs in its own fresh interpreter.
    cfg = dict(QUADRATURE_CONFIGS[experiment], experiment=experiment)
    if cfg.get("kernel") == "TABLE":
        cfg["kernel"] = {"kind": "tabulated", "path": str(write_exponential_table(tmp_path / "k.csv", 5.0, 100))}
    result = json.loads(run_fresh(QUADRATURE_SCRIPT, json.dumps(cfg)).stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["loaded"] == []
    assert artifact in result["artifacts"]


def scipy_imports() -> set[tuple[str, str]]:
    """(module, innermost enclosing function) of every import of scipy in the package source."""
    found = set()
    for path in sorted(Path(fpp_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk is breadth-first, so an inner function's name overwrites an outer one's
        scope = {node: fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.add((path.stem, scope.get(node, "<module>")))
    return found


def test_only_hyp2f1_imports_scipy():
    # read from the syntax tree, so an import on a path no test runs counts too
    assert scipy_imports() == {("special_functions", "hyp2f1")}


#: the one-row forms of the batched layers, kept for the tests until they move into tests/
ONE_ROW_TWINS = {"simulate", "log_density", "eval_filtered", "eval_compensated", "mle_solve", "kernel_eval"}


def one_row_twin_calls() -> set[tuple[str, str]]:
    """(module, called name) of every call of a one-row twin in the package source."""
    found = set()
    for path in sorted(Path(fpp_lab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in ONE_ROW_TWINS:
                    found.add((path.stem, name))
    return found


def test_no_package_code_calls_a_one_row_twin():
    # every path of an experiment runs on the batched layers
    assert one_row_twin_calls() == set()


#: the phi solver's numerics; the CLI reaches them only through `calibration_phi` and `check_residuals`
PHI_SOLVER_NUMERICS = {"STARTUP_SPAN_FACTOR", "SOLVER_RTOL", "power_grid", "phi_fractional", "volterra_residuals"}


def test_cli_names_none_of_the_phi_solvers_numerics():
    tree = ast.parse((Path(fpp_lab.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
    assert named & PHI_SOLVER_NUMERICS == set()
