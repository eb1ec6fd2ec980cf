"""Cold start: importing the package and a drift-MLE run load no scipy submodule.

The check runs in a fresh interpreter: pytest's `filterwarnings` setting
imports `scipy.integrate` when the test session starts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import fpp_lab

# evaluated in both processes; the subprocess runs it after the checks above it
PROBES = """
import numpy as np
from fpp_lab import KernelSpec, kernel_eval_at
from fpp_lab.kernels import singular_quad_0_to_t
from fpp_lab.special_functions import Hyp2F1Params, hyp2f1

values = [
    kernel_eval_at(KernelSpec.fractional(0.7), 2.0, np.array([1e-16, 0.1, 1.0, 1.9])).tolist(),
    hyp2f1(Hyp2F1Params(0.2, -0.2, 1.2, -3.0)),
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
        "h_spec": {"scale": 1.0, "phi_source": "closed_form"},
        "replicas": 20,
        "seed": 5,
        "output_path": str(Path(tmp) / "out"),
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        code = fpp_lab.cli.main(["run", str(cfg)])
    loaded["consistency run"] = [m for m in SCIPY if m in sys.modules]
    assert (Path(tmp) / "out" / "consistency_report.json").exists(), code
"""


def test_scipy_loads_on_first_use():
    src = str(Path(fpp_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    tail = "print(json.dumps({'loaded': loaded, 'values': repr(values)}))"
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join([SCRIPT, PROBES, tail])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == {"import fpp_lab": [], "import fpp_lab.cli": [], "consistency run": []}
    scope: dict = {}
    exec(PROBES, scope)
    assert result["values"] == repr(scope["values"])
