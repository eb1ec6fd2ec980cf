"""Artifacts round-trip: every value written reads back as the same value."""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpp_lab.errors import ValidationError
from fpp_lab.serialize import CSV_CHUNK_ROWS, dumps_json, read_csv, write_csv, write_json

FLOATS = [
    0.0,
    -0.0,
    0.7,
    1.0,
    -2.5,
    1e300,
    -1.7976931348623157e308,
    2.2250738585072014e-308,  # smallest normal
    1e-310,  # subnormal
    5e-324,  # smallest subnormal
    -5e-324,
    math.pi,
    math.inf,
    -math.inf,
    math.nan,
]


def same_double(a: float, b: float) -> bool:
    """Equal as doubles: NaN matches NaN, and 0.0 does not match -0.0."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def same_value(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and same_double(got, want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(same_value, got, want))
    if isinstance(want, dict):
        if not (isinstance(got, dict) and got.keys() == want.keys()):
            return False
        return all(same_value(got[k], want[k]) for k in want)
    return type(got) is type(want) and got == want


class TestJson:
    @pytest.mark.parametrize("x", FLOATS, ids=repr)
    def test_floats_round_trip(self, x):
        assert same_value(json.loads(dumps_json(x)), x)
        assert same_value(json.loads(dumps_json({"v": [x]})), {"v": [x]})

    def test_non_finite_values_are_valid_json(self):
        text = dumps_json([math.nan, math.inf, -math.inf])
        assert "NaN" in text and "Infinity" in text and "-Infinity" in text
        assert same_value(json.loads(text), [math.nan, math.inf, -math.inf])

    def test_scalars_and_containers_round_trip(self):
        obj = {
            "int": 3,
            "big": 2**70,
            "neg": -1,
            "true": True,
            "false": False,
            "none": None,
            "text": "K(t,s) ≤ 1, \"quoted\"\n",
            "empty_list": [],
            "empty_dict": {},
            "tuple": (1, 2.5),
            "nested": {"b": [[], [{}], [1.0, {"c": [0.1, -0.0]}]], "a": None},
        }
        want = dict(obj, tuple=[1, 2.5])
        assert same_value(json.loads(dumps_json(obj)), want)

    def test_numpy_values_become_plain(self):
        obj = {
            "f64": np.float64(0.1),
            "f32": np.float32(0.1),
            "i64": np.int64(-7),
            "u8": np.uint8(255),
            "bool": np.bool_(True),
            "nan": np.float64("nan"),
            "array": np.array([1.5, np.inf, 5e-324]),
            "matrix": np.arange(6).reshape(2, 3),
            "empty": np.zeros(0),
            "zero_d": np.array(2.0),
        }
        want = {
            "f64": 0.1,
            "f32": float(np.float32(0.1)),
            "i64": -7,
            "u8": 255,
            "bool": True,
            "nan": math.nan,
            "array": [1.5, math.inf, 5e-324],
            "matrix": [[0, 1, 2], [3, 4, 5]],
            "empty": [],
            "zero_d": 2.0,
        }
        assert same_value(json.loads(dumps_json(obj)), want)

    def test_layout(self):
        text = dumps_json({"b": [1.0, {}], "a": {"y": [], "x": 0.7}})
        assert text == (
            "{\n"
            '  "a": {\n'
            '    "x": 0.7,\n'
            '    "y": []\n'
            "  },\n"
            '  "b": [\n'
            "    1.0,\n"
            "    {}\n"
            "  ]\n"
            "}\n"
        )

    @pytest.mark.parametrize("bad", [{1, 2}, object(), {"k": b"bytes"}], ids=["set", "object", "bytes"])
    def test_unsupported_type_raises(self, bad):
        with pytest.raises(ValidationError, match="cannot serialize"):
            dumps_json(bad)

    def test_write_json_reads_back(self, tmp_path):
        obj = {"x": [0.1, math.nan, -0.0], "n": np.int64(4)}
        write_json(tmp_path / "a.json", obj)
        got = json.loads((tmp_path / "a.json").read_text(encoding="utf-8"))
        assert same_value(got, {"x": [0.1, math.nan, -0.0], "n": 4})


class TestCsv:
    def test_values_round_trip(self, tmp_path):
        path = tmp_path / "v.csv"
        xs = np.array(FLOATS)
        write_csv(path, "i,x", (range(xs.size), xs))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[:3] == ["i,x", "0,0.0", "1,-0.0"]
        arr = read_csv(path, "i,x")
        assert arr[:, 0].tolist() == list(range(len(FLOATS)))
        assert all(map(same_double, arr[:, 1].tolist(), FLOATS))

    def test_bytes_equal_cell_by_cell_writer(self, tmp_path):
        # one repr pass per column and one join per file: the bytes of the
        # writer that formatted cell by cell, floats by repr and the rest by str
        x = np.array(FLOATS)
        columns = (np.arange(x.size), x, x[::-1].tolist(), (np.arange(x.size) % 3 == 0).astype(int))
        path = tmp_path / "c.csv"
        write_csv(path, "i,a,b,f", columns)
        rows = (",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) for row in zip(*columns))
        assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in ("i,a,b,f", *rows))
        write_csv(path, "i,a", (np.empty(0, dtype=int), np.empty(0)))
        assert path.read_text(encoding="utf-8") == "i,a\n"

    @pytest.mark.parametrize("rows", [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 7])
    def test_chunk_boundaries(self, tmp_path, rows):
        # the rows go out CSV_CHUNK_ROWS at a time: every row once, in order
        x = np.random.default_rng(3).standard_normal(rows)
        path = tmp_path / "c.csv"
        write_csv(path, "i,x", (np.arange(rows), x))
        want = "".join(f"{i},{v!r}\n" for i, v in enumerate(x.tolist()))
        assert path.read_text(encoding="utf-8") == "i,x\n" + want

    def test_columns_of_unequal_length_are_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="differ in length"):
            write_csv(tmp_path / "c.csv", "a,b", ([1.0, 2.0], [1.0]))
        assert not (tmp_path / "c.csv").exists()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(), st.floats(width=32), st.integers(-(2**63), 2**63 - 1)),
            max_size=20,
        )
    )
    def test_drawn_doubles_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        columns = ([np.float64(a) for a, _, _ in rows], [float(b) for _, b, _ in rows], [n for _, _, n in rows])
        write_csv(path, "a,b,n", columns)
        arr = read_csv(path, "a,b,n")
        assert arr.shape == (len(rows), 3)
        for got, (a, b, n) in zip(arr.tolist(), rows):
            assert same_double(got[0], a) and same_double(got[1], b) and got[2] == float(n)
