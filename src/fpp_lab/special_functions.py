"""The Gauss hypergeometric function F(a, b, c, z), as `scipy.special.hyp2f1`.

`hyp2f1` is the package's one use of scipy: the scalar `kernels.kernel_eval`
of the fractional kernel takes F(H-1/2, 1/2-H, H+1/2, z <= 0) from it inside
the F table's range.  It imports `scipy.special` inside the function, so
that no run that does not call it loads scipy.  The module is not exported
from `fpp_lab`; the benchmark tracer (`bench/tracing.py`) wraps `hyp2f1` by
name.  The test suite checks it against a frozen mpmath table, the Pfaff
transformation plus the Gauss series, and 30-digit mpmath.
"""


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """F(a, b, c, z) by `scipy.special.hyp2f1`."""
    import scipy.special

    return float(scipy.special.hyp2f1(a, b, c, z))
