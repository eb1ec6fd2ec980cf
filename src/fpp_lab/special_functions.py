"""The Gauss hypergeometric function F(a, b, c, z), kept as a benchmark target.

Nothing in the package calls `hyp2f1`: the fractional kernel's scalar
path calls `scipy.special.hyp2f1` directly inside its table range
(`kernels._fractional_f`), and the Gamma
factors are `math.lgamma` and `math.gamma`.  The module stays because the
benchmark tracer (`bench/tracing.py`) wraps `hyp2f1` by name; it is not
exported from `fpp_lab`.

F(a, b, c, z) is `scipy.special.hyp2f1`.  `hyp2f1` accepts the domain of
the Euler representation

    F(a,b,c,z) = Gamma(c) / (Gamma(b) Gamma(c-b)) *
                 int_0^1 u^(b-1) (1-u)^(c-b-1) (1-z*u)^(-a) du,

valid for c > b > 0: F is symmetric in (a, b), so a parameter set passes
when either ordering of (a, b) is admissible.  The fractional-kernel set
(a, b, c) = (H-1/2, 1/2-H, H+1/2) with H in (1/2, 1) passes through the
swapped ordering.

The test suite checks `hyp2f1` against three independent references: a
frozen mpmath table, the Pfaff transformation plus the Gauss series, and
30-digit mpmath over the fractional-kernel range (bound 1e-14 relative,
about 1e-15 measured).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class Hyp2F1Params:
    """Arguments of the Gauss hypergeometric function F(a, b, c, z).

    The artifact only needs z <= 0 (from z = 1 - t/s with s <= t) plus
    test points in [0, 1); z >= 1 is rejected.
    """

    a: float
    b: float
    c: float
    z: float

    def __post_init__(self):
        if self.c <= 0 and float(self.c) == int(self.c):
            raise ValidationError(f"c must not be a non-positive integer, got c={self.c}")
        if not self.z < 1.0:
            raise ValidationError(f"z must satisfy z < 1, got z={self.z}")


def _admissible_ordering(a: float, b: float, c: float) -> tuple[float, float] | None:
    """Return (exponent_param, integration_param) with c > b' > 0, or None."""
    for aa, bb in ((a, b), (b, a)):
        if bb > 0 and c - bb > 0:
            return aa, bb
    return None


def hyp2f1(p: Hyp2F1Params) -> float:
    """Evaluate F(a, b, c, z) by `scipy.special.hyp2f1`.

    Raises ValidationError if neither (a, b) ordering admits the Euler
    representation (c > b > 0).
    """
    if _admissible_ordering(p.a, p.b, p.c) is None:
        raise ValidationError(
            f"no admissible Euler ordering for (a={p.a}, b={p.b}, c={p.c}): "
            "need c > b > 0 for one of the symmetric orderings"
        )
    import scipy.special

    return float(scipy.special.hyp2f1(p.a, p.b, p.c, p.z))
