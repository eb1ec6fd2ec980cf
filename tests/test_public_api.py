"""The package exports its batched API and nothing that only the tests call.

Code that only tests use lives in `tests/oracles.py`; these checks fail if
a name exported by `fpp_lab` stops resolving, or if a moved name comes
back into its old module.
"""

from __future__ import annotations

import importlib
import inspect

import fpp_lab
from fpp_lab.estimator import monotonicity_violations
from fpp_lab.phi_solver import power_grid

# module -> names that moved to tests/oracles.py
MOVED = {
    "filtered_process": ["PathOnGrid", "eval_filtered_on_grid", "sample_on_grid", "eval_observed"],
    "girsanov": ["density", "shifted_compensated"],
    "kernels": ["diagonal_class", "CONTINUOUS", "CADLAG", "IRREGULAR"],
    "phi_solver": ["uniform_grid"],
    "estimator": ["score", "_phi_at_jumps"],
    "special_functions": ["ln_gamma"],
}
# (module, class, method) that moved to tests/oracles.py as free functions
MOVED_METHODS = [
    ("girsanov", "ShiftFunction", "constant"),
    ("girsanov", "ShiftFunction", "witness"),
    ("phi_solver", "PhiFunction", "from_csv"),
    ("point_process", "MarkedPath", "from_csv"),
]


def test_every_exported_name_resolves():
    assert len(set(fpp_lab.__all__)) == len(fpp_lab.__all__)
    missing = [name for name in fpp_lab.__all__ if not hasattr(fpp_lab, name)]
    assert not missing, f"fpp_lab.__all__ names attributes fpp_lab lacks: {missing}"


def test_moved_names_left_the_package():
    still = [
        f"{module}.{name}"
        for module, names in MOVED.items()
        for name in names
        if hasattr(importlib.import_module(f"fpp_lab.{module}"), name) or hasattr(fpp_lab, name)
    ]
    still += [
        f"{module}.{cls}.{name}"
        for module, cls, name in MOVED_METHODS
        if hasattr(getattr(importlib.import_module(f"fpp_lab.{module}"), cls), name)
    ]
    assert not still, f"moved to tests/oracles.py but still in fpp_lab: {still}"


def test_benchmark_only_names_are_not_exported():
    # special_functions keeps hyp2f1 for the benchmark tracer only
    special = importlib.import_module("fpp_lab.special_functions")
    for name in ("hyp2f1", "Hyp2F1Params"):
        assert hasattr(special, name)
        assert name not in fpp_lab.__all__ and not hasattr(fpp_lab, name)


def test_one_value_knobs_are_gone():
    assert list(inspect.signature(power_grid).parameters) == ["stop", "count"]
    assert list(inspect.signature(monotonicity_violations).parameters) == ["trace"]
