"""fpp-lab benchmark: one CLI workload run in a closed loop.

    python3 bench/run.py --workload law-check --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports fpp_lab from ``src/``.  One
client in one process calls ``fpp_lab.cli.main(["run", config, "--out",
dir])`` back to back, with no replica threads, and checks every run's
artifacts.  A warm-up run is checked but left out of ``run_s``.
``setup_s`` is measured in fresh interpreters: ``import fpp_lab`` plus the
workload's one-time lazy work (the per-H spline table of the fractional
kernel).

With ``--trace 0`` the last line of stdout reports the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics,
from spans recorded around calls into each fpp_lab module (see
``tracing.py``), and the spans go to ``.bench_out/``.  Runs whose output
check failed are counted in ``failed`` out of ``attempted``; their ratio
is the fail_ratio printed above the last line.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh interpreters per run for setup_s
SETUP_REPEATS = 5

SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
import fpp_lab
imported = time.perf_counter()
if sys.argv[1] != "none":
    import numpy as np
    fpp_lab.kernel_eval_at(fpp_lab.KernelSpec.fractional(float(sys.argv[1])), 1.0, np.array([0.5]))
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "table_s": done - imported, "module": fpp_lab.__file__}))
"""


class ClosedLoop:
    """Back-to-back CLI runs of one workload config; every run's artifacts are checked."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(workload.config(seed)), encoding="utf-8")
        self.out_dir = workdir / "out"
        self.attempted = 0
        self.failed = 0
        self.artifact_bytes = 0

    def run(self, corrupt=None) -> float:
        """One checked CLI run; returns its wall time.

        ``corrupt``, if given, edits the artifacts before the check (the
        self-test uses it).  A failed check is counted, not raised.
        """
        from fpp_lab import cli

        shutil.rmtree(self.out_dir, ignore_errors=True)
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = cli.main(["run", str(self.config_path), "--out", str(self.out_dir)])
        except Exception:  # a raw traceback breaks the exit-code contract: count it
            code = None
            sink.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.artifact_bytes = sum(p.stat().st_size for p in self.out_dir.glob("*") if p.is_file())
        if corrupt is not None:
            corrupt(self.out_dir)
        try:
            problems = self.workload.check(code, self.out_dir, self.seed)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable artifacts: {exc!r}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            print(
                f"run {self.attempted} of {self.workload.name} failed its output check: "
                + "; ".join(problems) + "\n" + sink.getvalue(),
                file=sys.stderr,
            )
        return elapsed


def measure_setup(table_H) -> list[dict]:
    """import_s and table_s from fresh interpreters importing src/fpp_lab."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("FPP_LAB_THREADS", None)
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, "none" if table_H is None else repr(table_H)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        if not Path(sample["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"setup probe imported fpp_lab from {sample['module']}, not {SRC}")
        samples.append(sample)
    return samples


def environment() -> dict:
    import numpy
    import scipy

    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = proc.stdout.strip() or commit
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "FPP_LAB_THREADS": "unset (replicas run serially)",
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed_loop(seconds: float, step) -> None:
    """Call step() back to back, at least once, while the next call should end within `seconds`."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "fpp_lab" / "__init__.py").is_file():
        print(f"fpp_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    os.environ.pop("FPP_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    import fpp_lab

    if not Path(fpp_lab.__file__).resolve().is_relative_to(SRC):
        print(f"imported fpp_lab from {fpp_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = environment()
    setup = measure_setup(workload.table_H)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        loop = ClosedLoop(workload, args.seed, workdir)
        loop.run()  # warm-up: builds lazy tables, checked but not timed
        untraced, traced = [], []
        tracer = Tracer()
        if args.trace:

            def step():
                untraced.append(loop.run())
                with tracer.traced_run():
                    traced.append(loop.run())

            timed_loop(args.seconds, step)
        else:
            timed_loop(args.seconds, lambda: untraced.append(loop.run()))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_q = quartiles(untraced)
    values = {
        "run_s": run_q[1],
        "setup_s": statistics.median(s["import_s"] + s["table_s"] for s in setup),
        "peak_rss_mb": peak_rss_mb,
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "setup.table_s": statistics.median(s["table_s"] for s in setup),
    }

    print(f"workload {workload.name}  seed {args.seed}  closed loop: 1 client, 1 process, runs back to back")
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"run_s        {run_q[1]:.4f} s   median of {len(untraced)} warm runs "
        f"(quartiles {run_q[0]:.4f} .. {run_q[2]:.4f}); warm-up run excluded"
    )
    print(
        f"setup_s      {values['setup_s']:.4f} s   median of {len(setup)} fresh interpreters "
        f"(import {values['setup.import_s']:.4f} s + table {values['setup.table_s']:.4f} s)"
    )
    if not args.trace:
        print(f"peak_rss_mb  {peak_rss_mb:.1f} MB  peak resident set of this process")
    print(
        f"fail_ratio   {loop.failed / loop.attempted:.4g}     "
        f"{loop.failed} of {loop.attempted} runs failed the output check"
    )

    if args.trace:
        per_run = tracer.run_totals()
        for name in {key for row in per_run for key in row}:
            values[name] = statistics.median(row[name] for row in per_run)
        values["io.artifact_bytes"] = loop.artifact_bytes
        traced_run_s = statistics.median(traced)
        values["trace.overhead_ratio"] = traced_run_s / run_q[1] - 1.0
        print(f"traced run_s {traced_run_s:.4f} s   median of {len(traced)} traced runs")
        print_cross_check(values)
        path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write(path, {"workload": workload.name, "seed": args.seed, "env": env})
        print(f"spans        {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        section = spec["per_layer"]
    else:
        section = spec["end_to_end"]

    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in section},
    }
    print(json.dumps(result))
    return 0


def print_cross_check(values: dict) -> None:
    """Traced figures comparable with the hand-made profile in ROADMAP.md."""
    run = values.get("cli.run_command.incl_s", 0.0)
    rows = [
        ("ks_bootstrap_threshold share of the run", "weighted_ks.ks_bootstrap_threshold.incl_s", run, 1.0, ""),
        ("simulate per path", "point_process.simulate.incl_s", values.get("point_process.simulate.calls"), 1e6, " us"),
        ("mle_solve per call", "estimator.mle_solve.incl_s", values.get("estimator.mle_solve.calls"), 1e6, " us"),
    ]
    for label, key, base, scale, unit in rows:
        if base and values.get(key):
            print(f"cross-check  {label}: {values[key] / base * scale:.4g}{unit}")


if __name__ == "__main__":
    sys.exit(main())
