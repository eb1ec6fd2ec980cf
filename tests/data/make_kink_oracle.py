"""Regenerate the frozen kink oracle table.

Each row is b int_0^t K_H(t, s) phi(s) ds for the fractional kernel K_H and
a grid phi with a kink at every node (linear between nodes, clamped outside
them), computed by 25-digit mpmath quadrature split at the kinks.  The
cases are those of
`tests/test_kernels.py::TestKernelPhiLambdaIntegral::test_grid_phi_with_interior_kinks_matches_mpmath`,
which checks that the rows' inputs equal its own.  Run from the repository
root (about 10 s):

    python tests/data/make_kink_oracle.py > tests/data/kink_oracle.json
"""

import json

import mpmath
import numpy as np

NODES = {
    "one-kink": [0.0, 1.0, 10.0],
    "two-kinks": [0.0, 2.0, 4.0, 10.0],
    "kink-just-before-t": [0.0, 1.0, 2.0, 3.0, 4.0, 4.999, 10.0],
    "kinks-near-0": [0.001, 0.002, 1.0, 10.0],
}
HS = (0.55, 0.7, 0.9)
TIMES = (1.5, 4.5, 5.0)
RATE = 1.3


def phi_values(nodes) -> np.ndarray:
    """The grid phi's values at its nodes: a kink at every node."""
    return 1.0 + 0.5 * np.sin(3.0 * np.arange(len(nodes)))


def integral(nodes: np.ndarray, values: np.ndarray, H: float, t: float):
    with mpmath.workdps(25):
        h = mpmath.mpf(H)

        def integrand(s):
            k = (t - s) ** (h - 0.5) * mpmath.hyp2f1(h - 0.5, 0.5 - h, h + 0.5, 1 - t / s) / mpmath.gamma(h + 0.5)
            i = min(max(int(np.searchsorted(nodes, float(s))) - 1, 0), nodes.size - 2)
            lo, hi, v0, v1 = (mpmath.mpf(x) for x in (nodes[i], nodes[i + 1], values[i], values[i + 1]))
            w = min(max((s - lo) / (hi - lo), 0), 1)  # clamped outside the nodes
            return k * (v0 + (v1 - v0) * w)

        value = RATE * mpmath.quad(integrand, [0.0, *nodes[(nodes > 0.0) & (nodes < t)], t])
        return mpmath.nstr(value, 25)


def main():
    rows = []
    for case, nodes in NODES.items():
        values = phi_values(nodes)
        for H in HS:
            for t in TIMES:
                rows.append({
                    "case": case, "nodes": nodes, "values": values.tolist(), "H": H, "b": RATE, "t": t,
                    "integral": integral(np.array(nodes), values, H, t),
                })
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
