"""Fuzz of `fpp-lab validate`: extreme numbers, and values of the wrong type anywhere, exit 0, or 1 with
a JSON record, never a traceback."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fpp_lab.cli import EXPERIMENTS, KINDS, main

# together these templates carry every numeric config field; "TABLE" stands for a tabulated kernel's table
TEMPLATES = [
    {
        "experiment": "consistency",
        "kernel": {"kind": "exp_shot_noise", "a": 1.0},
        "intensity": {"kind": "constant", "base_rate": 1.0},
        "marks": {"kind": "lognormal", "mu": 0.0, "sigma": 0.5},
        "horizon": 20.0,
        "grid": {"start": 1.0, "stop": 20.0, "count": 3},
        "theta_true": 1.0,
        "replicas": 10,
        "seed": 1,
        "output_path": "unused",
    },
    {
        "experiment": "verify-girsanov",
        "kernel": {"kind": "fractional", "H": 0.7},
        "intensity": {"kind": "constant", "base_rate": 2.0},
        "marks": {"kind": "exponential", "mean": 1.5},
        "horizon": 5.0,
        "grid": {"start": 1.0, "stop": 5.0, "count": 2},
        "h_spec": {"scale": 0.2},
        "replicas": 200,
        "seed": 2,
        "output_path": "unused",
    },
    {
        "experiment": "solve-phi",
        "kernel": {"kind": "indicator"},
        "intensity": {"kind": "scaled-by-phi", "base_rate": 1.0, "theta": 0.5},
        "marks": {"kind": "unit"},
        "grid": {"start": 0.01, "stop": 2.0, "count": 100},
        "seed": 3,
        "output_path": "unused",
    },
    {
        "experiment": "estimate",
        "kernel": {"kind": "tabulated", "path": "TABLE"},
        "intensity": {"base_rate": 1.5},
        "marks": {"kind": "unit"},
        "horizon": 2.0,
        "theta_true": 1.0,
        "replicas": 5,
        "seed": 4,
        "output_path": "unused",
    },
]


def _paths(obj: dict, prefix: tuple = ()) -> list[tuple]:
    """(key path, value) of every value in `obj`, an object's and those of its members alike."""
    paths = []
    for key, value in obj.items():
        paths.append((prefix + (key,), value))
        if isinstance(value, dict):
            paths += _paths(value, prefix + (key,))
    return paths


def _replace(raw: dict, path: tuple, value) -> None:
    """Set the value at `path`, unless an earlier replacement took away an object on the way."""
    node = raw
    for key in path[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
    if isinstance(node, dict):
        node[path[-1]] = value


EXTREMES = st.sampled_from(
    [0, 0.0, -0.0, -1, -1.5, -1e308, 1e-308, 5e-324, 1e308, 10**20, -(10**20), 2**63, 10**400, -(10**400)]
)


@st.composite
def configs(draw):
    template = draw(st.sampled_from(TEMPLATES))
    raw = json.loads(json.dumps(template))
    numeric = [path for path, value in _paths(template) if isinstance(value, (int, float))]
    for path in draw(st.lists(st.sampled_from(numeric), min_size=1, max_size=4, unique=True)):
        _replace(raw, path, draw(EXTREMES | st.floats(allow_nan=False, allow_infinity=False)))
    return raw


#: every kind and experiment name, so that a replaced kind or experiment can name another one
NAMES = [kind for kinds in KINDS.values() for kind in kinds] + list(EXPERIMENTS)
WRONG_TYPES = (
    st.none()
    | st.just(True)
    | st.text(max_size=4)
    | st.sampled_from(NAMES)
    | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.sampled_from(["kind", "a", "x"]), st.integers(), max_size=2)
)


@st.composite
def structural_configs(draw):
    """A template with up to 3 values anywhere, a kind or the experiment too, replaced by another type."""
    template = draw(st.sampled_from(TEMPLATES))
    raw = json.loads(json.dumps(template))
    paths = [path for path, _ in _paths(template)]
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True)):
        _replace(raw, path, draw(WRONG_TYPES))
    return raw


def validate(raw: dict) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `fpp-lab validate` on `raw`."""
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "k.csv"
        table.write_text("t,s,value\n1,1,0\n1,2,0\n2,1,0.5\n2,2,0\n")
        cfg = Path(tmp) / "c.json"
        cfg.write_text(json.dumps(raw).replace('"TABLE"', json.dumps(str(table))))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", str(cfg)])
    return code, out.getvalue(), err.getvalue()


def exits_through_contract(raw: dict) -> None:
    code, out, err = validate(raw)
    if code == 0:
        assert out == "ok\n"
    else:
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ValidationError"


@settings(max_examples=300, deadline=None)
@given(raw=configs())
def test_validate_exits_through_contract(raw):
    exits_through_contract(raw)


@settings(max_examples=100, deadline=None)
@given(raw=structural_configs())
def test_validate_exits_through_contract_on_wrong_types(raw):
    exits_through_contract(raw)


def test_every_template_validates():
    # a template that exits 1 unperturbed would make every draw from it exit 1 too,
    # and the fuzz above would pass without reaching a single numeric check
    for template in TEMPLATES:
        assert validate(template)[0] == 0, template["experiment"]
