"""Deterministic serialization helpers.

All artifacts are written through these functions so that two runs with the
same config and seed produce byte-identical files.  Floats are written as
their shortest round-trip `repr`, which reads back to the same double; a
non-finite JSON value is `NaN`, `Infinity` or `-Infinity`, as Python's
`json` module reads and writes it.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

import numpy as np

from .errors import ValidationError


def _plain(obj: Any) -> Any:
    """numpy scalars and arrays as Python values; anything else is an error."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_json(obj: Any) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False, default=_plain) + "\n"


def write_json(path, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj))


#: rows formatted per write, so that a file of any length needs memory for this many rows only
CSV_CHUNK_ROWS = 1024


def write_csv(path, header: str, columns: Sequence) -> None:
    """Write equal-length columns under a one-line header, row i of the file holding cell i of each.

    The rows go out in chunks of CSV_CHUNK_ROWS: each column's slice is
    `.tolist()` once, so its cells are Python floats and ints, written as
    their `repr` (a float's shortest round-trip form), and each chunk is
    joined and written in one piece.
    """
    cols = [np.asarray(c) for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValidationError(f"CSV columns under {header!r} differ in length")
    rows = len(cols[0]) if cols else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, rows, CSV_CHUNK_ROWS):
            cells = (map(repr, c[lo : lo + CSV_CHUNK_ROWS].tolist()) for c in cols)
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


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
