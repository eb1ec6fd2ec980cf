"""Deterministic serialization helpers.

All artifacts are written through these functions so that two runs with the
same config and seed produce byte-identical files.  Floats are rendered with
17 significant digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

import numpy as np

from .errors import ValidationError


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits (exact double round-trip)."""
    if x != x:
        return "nan"
    if x in (float("inf"), float("-inf")):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _encode(obj: Any, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValidationError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{pad_in}{json.dumps(key)}: {_encode(obj[key], indent, level + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad_in}{_encode(v, indent, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    # numpy scalars and arrays come through here
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return _encode(obj.item(), indent, level)
    if hasattr(obj, "tolist"):
        return _encode(obj.tolist(), indent, level)
    raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_json(obj: Any, indent: int = 2) -> str:
    """Canonical JSON: sorted keys, 17-significant-digit floats, trailing newline."""
    return _encode(obj, indent, 0) + "\n"


def write_json(path, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj))


def write_csv(path, header: str, rows: Iterable[tuple]) -> None:
    """Write rows of floats under a one-line header, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt_float(v) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def read_csv(path, expected_header: str) -> np.ndarray:
    """Rows of floats under a one-line header, as an (rows, fields) array.

    Blank lines are skipped.  Raises ValidationError, naming the file, when
    it cannot be read, and naming the line too for a wrong header, a row
    with the wrong number of fields or a cell that is not a number.
    """
    fields = expected_header.count(",") + 1
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != expected_header:
                raise ValidationError(
                    f"bad CSV header in {path}: expected {expected_header!r}, got {header!r}"
                )
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                if len(cells) != fields:
                    raise ValidationError(f"{path} line {lineno}: expected {fields} fields in {line!r}")
                try:
                    rows.append([float(tok) for tok in cells])
                except ValueError:
                    raise ValidationError(f"{path} line {lineno}: non-numeric cell in {line!r}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read CSV file {path}: {exc}") from exc
    return np.array(rows, dtype=float).reshape(-1, fields)
