"""Every test the `numpy-floor` CI job names still exists.

That job runs a list of `tests/<file>.py[::Name]` IDs on the lowest numpy
that `pyproject.toml` admits; a file or class renamed in `tests/` would
break that job only.  The workflow is read as text and each test file as a
syntax tree, so nothing is imported.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def numpy_floor_ids() -> list[str]:
    text = WORKFLOW.read_text(encoding="utf-8")
    job = re.search(r"^  numpy-floor:\n(.*?)(?=^  \S|\Z)", text, re.M | re.S)
    assert job, f"no numpy-floor job in {WORKFLOW}"
    return re.findall(r"tests/[\w/]+\.py(?:::\w+)?", job.group(1))


def top_level_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {node.name for node in tree.body if isinstance(node, defs)}


def test_every_numpy_floor_test_resolves():
    ids = numpy_floor_ids()
    assert len(ids) >= 6
    missing = []
    for test_id in ids:
        file, _, name = test_id.partition("::")
        path = ROOT / file
        if not path.is_file() or (name and name not in top_level_names(path)):
            missing.append(test_id)
    assert not missing, f"the numpy-floor job names tests that no longer exist: {missing}"
