"""Regenerate the frozen blocked-residual oracle table.

For each case of `tests/test_phi_solver.py::TestBlockedResiduals` (kernel,
grid, rate 1.5, m1 0.8) a row holds the Volterra phi solved on the case
grid (its values; its nodes are the grid's panel midpoints) and
int_0^t K(t,s) phi(s) lambda(s) ds at the case's five times.  The
integrals come from scalar `kernel_eval` times phi and lambda, split at
every phi node and a tabulated kernel's s-nodes (the kinks) and integrated
piece by piece by adaptive `scipy.integrate.quad` at relative tolerance
1e-13; the oracle shares no code with the package's quadrature.  The test
checks that the rows' inputs equal its own cases.  Run from the repository
root (about 10 s):

    PYTHONPATH=src python tests/data/make_blocked_oracle.py > tests/data/blocked_oracle.json
"""

import json
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from fpp_lab import IntensitySpec, kernel_eval, solve_phi_volterra  # noqa: E402
from test_phi_solver import BLOCKED_CASES, BLOCKED_M1, BLOCKED_RATE, blocked_case, blocked_times  # noqa: E402


def oracle_integrals(phi, kernel, intensity, times) -> list[float]:
    cuts = np.concatenate([phi.nodes, kernel.table_s if kernel.kind == "tabulated" else []])
    out = []
    for t in times:
        edges = np.unique(np.concatenate([[0.0, t], cuts[(cuts > 0.0) & (cuts < t)]]))

        def f(s, t=t):
            return kernel_eval(kernel, t, s) * phi(s) * float(intensity.rate_at(s))

        out.append(sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in zip(edges[:-1], edges[1:])))
    return out


def main():
    rows = []
    intensity = IntensitySpec.constant(BLOCKED_RATE)
    for case, (kernel_spec, grid_spec) in BLOCKED_CASES.items():
        kernel, grid = blocked_case(case)
        phi = solve_phi_volterra(kernel, intensity, BLOCKED_M1, grid)
        rows.append({
            "case": case, "kernel": kernel_spec, "grid": grid_spec, "rate": BLOCKED_RATE, "m1": BLOCKED_M1,
            "values": phi.values.tolist(),
            "integrals": oracle_integrals(phi, kernel, intensity, blocked_times(phi, grid)),
        })
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
