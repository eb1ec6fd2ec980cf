"""Fuzz of `fpp-lab validate`: extreme numbers exit 0, or 1 with a JSON record, never a traceback."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fpp_lab.cli import main

# together these templates carry every numeric config field
TEMPLATES = [
    {
        "experiment": "consistency",
        "kernel": {"kind": "fractional", "H": 0.7},
        "intensity": {"kind": "scaled-by-phi", "base_rate": 1.0, "theta": 0.5},
        "marks": {"kind": "lognormal", "mu": 0.0, "sigma": 0.5},
        "horizon": 20.0,
        "grid": {"start": 1.0, "stop": 20.0, "count": 3},
        "theta_true": 1.0,
        "h_spec": {"scale": 0.3, "phi_source": "closed_form"},
        "replicas": 10,
        "seed": 1,
        "output_path": "unused",
    },
    {
        "experiment": "verify-girsanov",
        "kernel": {"kind": "exp_shot_noise", "a": 1.0},
        "intensity": {"kind": "constant", "base_rate": 2.0},
        "marks": {"kind": "exponential", "mean": 1.5},
        "horizon": 5.0,
        "grid": {"start": 1.0, "stop": 5.0, "count": 2},
        "h_spec": {"scale": 0.2},
        "replicas": 100,
        "seed": 2,
        "output_path": "unused",
    },
    {
        "experiment": "solve-phi",
        "kernel": {"kind": "indicator"},
        "intensity": {"kind": "constant", "base_rate": 1.0},
        "marks": {"kind": "unit"},
        "grid": {"start": 0.01, "stop": 2.0, "count": 100},
        "seed": 3,
        "output_path": "unused",
    },
]


def _numeric_fields(obj: dict, prefix: tuple = ()) -> list[tuple]:
    fields = []
    for key, value in obj.items():
        if isinstance(value, dict):
            fields += _numeric_fields(value, prefix + (key,))
        elif isinstance(value, (int, float)):
            fields.append(prefix + (key,))
    return fields


EXTREMES = st.sampled_from(
    [0, 0.0, -0.0, -1, -1.5, -1e308, 1e-308, 5e-324, 1e308, 10**20, -(10**20), 2**63, 10**400, -(10**400)]
)


@st.composite
def configs(draw):
    template = draw(st.sampled_from(TEMPLATES))
    raw = json.loads(json.dumps(template))
    paths = draw(st.lists(st.sampled_from(_numeric_fields(template)), min_size=1, max_size=4, unique=True))
    for path in paths:
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(EXTREMES | st.floats(allow_nan=False, allow_infinity=False))
    return raw


@settings(max_examples=300, deadline=None)
@given(raw=configs())
def test_validate_exits_through_contract(raw):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.json"
        cfg.write_text(json.dumps(raw))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", str(cfg)])
    if code == 0:
        assert out.getvalue() == "ok\n"
    else:
        assert code == 1
        assert json.loads(err.getvalue())["error"]["type"] == "ValidationError"
