"""Every function the benchmark tracer wraps still exists.

`bench/run.py --trace 1` wraps each `(module, name)` of `bench/tracing.py`'s
`TARGETS`; a target deleted or renamed in `fpp_lab` would break that run
only.  The list is read from the file's syntax tree, so neither the bench
module nor its imports are executed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(ast.literal_eval(e.elts[0]), ast.literal_eval(e.elts[1])) for e in node.value.elts]
    raise AssertionError(f"no TARGETS list in {TRACING}")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert len(targets) >= 10
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"fpp_lab.{module}"), name, None))
    ]
    assert not missing, f"bench/tracing.py traces names fpp_lab no longer has: {missing}"
