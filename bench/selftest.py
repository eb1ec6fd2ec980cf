"""Self-test of the benchmark's output checks: a corrupted artifact must count as failed.

    python3 bench/selftest.py

Run it from the repository root.  For each case it makes one clean run and
one run whose artifact is corrupted after the CLI wrote it, through the
same ClosedLoop the benchmark uses, at the default seed so the frozen
reference values are compared too.  Exits 0 when every clean run passes
and every corrupted run is counted in fail_ratio.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import OUT, SRC, ClosedLoop
from workloads import DEFAULT_SEED, WORKLOADS


def _edit_json(name: str, edit):
    def corrupt(out: Path) -> None:
        path = out / name
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")

    return corrupt


def _perturb_ks_threshold(doc):
    doc["ks_threshold"][1] *= 1.0 + 1e-6


def _shift_off_identity(doc):
    doc["shift"][2] *= 1.0 + 1e-6


def _mae_above_rmse(doc):
    doc["mae"][4] = doc["rmse"][4] * 1.01


def _scale_phi_csv(out: Path) -> None:
    path = out / "phi.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    scaled = [f"{s},{float(v) * 1.05!r}" for s, v in (row.split(",") for row in rows)]
    path.write_text("\n".join([header, *scaled]) + "\n", encoding="utf-8")


CASES = [
    ("law-check", "ks_threshold perturbed by 1e-6", _edit_json("law_report.json", _perturb_ks_threshold)),
    ("law-check", "shift moved off 0.3 t", _edit_json("law_report.json", _shift_off_identity)),
    ("drift-consistency", "mae above rmse", _edit_json("consistency_report.json", _mae_above_rmse)),
    ("phi-calibration", "phi.csv scaled by 1.05", _scale_phi_csv),
]


def main() -> int:
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    bad = 0
    for name, label, corrupt in CASES:
        workdir = OUT / f"selftest-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        try:
            loop = ClosedLoop(WORKLOADS[name], DEFAULT_SEED, workdir)
            loop.run()
            clean_failed = loop.failed
            loop.run(corrupt=corrupt)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ok = clean_failed == 0 and loop.failed == 1
        bad += not ok
        print(
            f"{'ok  ' if ok else 'FAIL'} {name}: {label}: fail_ratio "
            f"{loop.failed / loop.attempted:.2g} ({loop.failed} of {loop.attempted}; expected 1 of 2)"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
