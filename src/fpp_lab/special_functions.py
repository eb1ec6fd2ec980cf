"""Gamma and Gauss hypergeometric functions for the fractional kernel.

The hypergeometric function F(a, b, c, z) is evaluated from its Euler
integral representation

    F(a,b,c,z) = Gamma(c) / (Gamma(b) Gamma(c-b)) *
                 int_0^1 u^(b-1) (1-u)^(c-b-1) (1-z*u)^(-a) du,

valid for c > b > 0.  F is symmetric in (a, b), so the pair is reordered
internally to reach an admissible (c > b > 0) form; this is what makes the
fractional-kernel parameter set (a, b, c) = (H-1/2, 1/2-H, H+1/2) with
H in (1/2, 1) evaluable, since the printed ordering has b < 0.

For 0 < b < 1 the integrand has an integrable endpoint singularity
u^(b-1); the substitution u = v^(1/b) maps u^(b-1) du to dv / b exactly
and leaves a bounded smooth integrand, which adaptive quadrature then
resolves to near machine precision.

The test suite cross-validates this path against an independent one, the
Pfaff transformation plus the Gauss series, kept there as an oracle.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import NumericsError, ValidationError

#: absolute tolerance contract for hyp2f1 over the fractional-kernel range
HYP2F1_ATOL = 1e-9


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    Backed by the platform lgamma (a standard minimax implementation),
    which exceeds the 1e-12 relative-accuracy contract on [0.05, 50].
    """
    if not x > 0:
        raise ValidationError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


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
    """Evaluate F(a, b, c, z) by adaptive quadrature of the Euler integral.

    Raises ValidationError if neither (a, b) ordering admits the Euler
    representation, and NumericsError if the quadrature error estimate
    exceeds the 1e-9 absolute tolerance.
    """
    ordering = _admissible_ordering(p.a, p.b, p.c)
    if ordering is None:
        raise ValidationError(
            f"no admissible Euler ordering for (a={p.a}, b={p.b}, c={p.c}): "
            "need c > b > 0 for one of the symmetric orderings"
        )
    aa, bb = ordering
    c, z = p.c, p.z
    log_pref = ln_gamma(c) - ln_gamma(bb) - ln_gamma(c - bb)
    cb1 = c - bb - 1.0

    if bb < 1.0:
        # u = v^(1/bb) removes the u^(bb-1) endpoint singularity exactly
        pw = 1.0 / bb

        def integrand(v: float) -> float:
            u = v**pw
            return (1.0 - u) ** cb1 * (1.0 - z * u) ** (-aa) / bb

    else:

        def integrand(u: float) -> float:
            return u ** (bb - 1.0) * (1.0 - u) ** cb1 * (1.0 - z * u) ** (-aa)

    val, err = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    pref = math.exp(log_pref)
    # 1e-9 absolute inside the contracted range; beyond it (|F| large, e.g.
    # z far below -1e6) double precision only supports a relative bound
    tol = max(HYP2F1_ATOL, abs(pref * val) * 1e-12)
    if pref * err > tol:
        raise NumericsError(
            f"hyp2f1 quadrature error estimate {pref * err:.2e} exceeds {tol:.2e}"
            f" at (a={p.a}, b={p.b}, c={p.c}, z={p.z})"
        )
    return pref * val
