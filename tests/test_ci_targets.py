"""Every test the `numpy-floor` CI job names still exists, and the `tests`
job has one console-script step.

That job runs a list of `tests/<file>.py[::Name]` IDs on the lowest numpy
that `pyproject.toml` admits; a file or class renamed in `tests/` would
break that job only.  A CLI case belongs in `tests/test_cli.py`, which runs
it through `cli.main`, not in a workflow step: one step runs the installed
`fpp-lab` script.  The workflow is read as text and each test file as a
syntax tree, so nothing is imported.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def job_text(name: str) -> str:
    """The lines of the workflow's job `name`."""
    text = WORKFLOW.read_text(encoding="utf-8")
    job = re.search(rf"^  {re.escape(name)}:\n(.*?)(?=^  \S|\Z)", text, re.M | re.S)
    assert job, f"no {name} job in {WORKFLOW}"
    return job.group(1)


def numpy_floor_ids() -> list[str]:
    return re.findall(r"tests/[\w/]+\.py(?:::\w+)?", job_text("numpy-floor"))


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


def console_script_steps() -> list[str]:
    """The names of the `tests` job's steps that invoke the `fpp-lab` script, comments aside."""
    steps = re.split(r"^      - ", job_text("tests"), flags=re.M)[1:]
    code = ["\n".join(line for line in step.splitlines() if not line.lstrip().startswith("#")) for step in steps]
    return [step.splitlines()[0] for step, text in zip(steps, code) if re.search(r"(?<![\w-])fpp-lab\s+\S", text)]


def test_one_console_script_step():
    # five such steps once took 124 of the workflow's 206 lines
    steps = console_script_steps()
    assert len(steps) == 1, f"a CLI case goes into tests/test_cli.py, not a workflow step: {steps}"
