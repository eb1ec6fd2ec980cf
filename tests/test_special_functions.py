from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpp_lab import NumericsError, ValidationError
from fpp_lab.special_functions import Hyp2F1Params, hyp2f1

from oracles import ln_gamma

# precomputed with mpmath (dps=30)
LN_GAMMA_TABLE = {
    0.05: 2.9688792010517308,
    0.5: 0.57236494292470009,
    12.3: 18.238983407092242,
    50.0: 144.56574394634489,
}


def hyp2f1_series(p: Hyp2F1Params, tol: float = 1e-14, max_terms: int = 500_000) -> float:
    """Oracle for `hyp2f1`: the Pfaff transformation plus the Gauss series.

    For z < 0, F(a,b,c,z) = (1-z)^(-a) F(a, c-b, c, w) with w = z/(z-1) in
    [0, 1), where the series converges; for 0 <= z < 1 the series is summed
    directly.  An evaluation path independent of `hyp2f1`'s scipy routine.
    """
    a, b, c, z = p.a, p.b, p.c, p.z
    if a == 0.0 or b == 0.0:
        return 1.0  # every series term beyond n=0 carries the factor (0)_n
    if z < 0.0:
        w = z / (z - 1.0)
        pref = (1.0 - z) ** (-a)
        aa, bb = a, c - b
    else:
        w, pref, aa, bb = z, 1.0, a, b
    term = 1.0
    total = 1.0
    for n in range(max_terms):
        term *= (aa + n) * (bb + n) / ((c + n) * (n + 1.0)) * w
        total += term
        if abs(term) <= tol * abs(total):
            return pref * total
    raise NumericsError(
        f"hyp2f1 series did not converge in {max_terms} terms at "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


# independent quadrature oracle value (see tests/data/make_oracle.py)
F_02_M02_07_M3 = 1.1065934725904679


class TestLnGamma:
    def test_identity_cases(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-12)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)

    def test_reference_table(self):
        for x, want in LN_GAMMA_TABLE.items():
            assert ln_gamma(x) == pytest.approx(want, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValidationError):
            ln_gamma(0.0)
        with pytest.raises(ValidationError):
            ln_gamma(-2.5)

    @given(st.floats(min_value=0.05, max_value=49.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, x):
        # Gamma(x+1) = x Gamma(x)
        assert ln_gamma(x + 1.0) == pytest.approx(ln_gamma(x) + math.log(x), rel=1e-11, abs=1e-11)


class TestParams:
    def test_rejects_nonpositive_integer_c(self):
        with pytest.raises(ValidationError):
            Hyp2F1Params(0.1, 0.2, 0.0, -1.0)
        with pytest.raises(ValidationError):
            Hyp2F1Params(0.1, 0.2, -3.0, -1.0)

    def test_rejects_z_at_or_above_one(self):
        with pytest.raises(ValidationError):
            Hyp2F1Params(0.1, 0.2, 0.9, 1.0)
        with pytest.raises(ValidationError):
            Hyp2F1Params(0.1, 0.2, 0.9, 2.0)


class TestHyp2F1:
    def test_value_at_zero_is_one(self):
        assert hyp2f1(Hyp2F1Params(0.3, 0.4, 1.5, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_log_identity(self):
        # F(1, 1, 2, z) = -ln(1-z)/z
        got = hyp2f1(Hyp2F1Params(1.0, 1.0, 2.0, 0.5))
        assert got == pytest.approx(2.0 * math.log(2.0), abs=1e-10)

    def test_frozen_oracle_point(self):
        got = hyp2f1(Hyp2F1Params(0.2, -0.2, 0.7, -3.0))
        assert got == pytest.approx(F_02_M02_07_M3, abs=1e-9)

    def test_oracle_table(self, hyp2f1_oracle):
        worst = 0.0
        for row in hyp2f1_oracle:
            got = hyp2f1(Hyp2F1Params(row["a"], row["b"], row["c"], row["z"]))
            worst = max(worst, abs(got - row["f"]))
        assert worst <= 1e-8

    def test_zero_parameter_gives_one(self):
        # series path is exactly 1, scipy path to 1e-12
        p = Hyp2F1Params(0.0, 0.35, 1.2, -7.5)
        assert hyp2f1_series(p) == 1.0
        assert hyp2f1(p) == pytest.approx(1.0, abs=1e-12)

    def test_inadmissible_orderings_raise(self):
        with pytest.raises(ValidationError):
            hyp2f1(Hyp2F1Params(0.0, -0.2, 0.5, -1.0))  # b' in {0, -0.2}: no Euler path

    @given(
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=-5.0, max_value=0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetry_in_a_b(self, a, b, z):
        c = 1.7  # c > max(a, b): both orderings admissible
        va = hyp2f1(Hyp2F1Params(a, b, c, z))
        vb = hyp2f1(Hyp2F1Params(b, a, c, z))
        assert va == pytest.approx(vb, abs=1e-9)

    def test_series_agrees_with_quadrature(self):
        rng = np.random.default_rng(314159)
        worst = 0.0
        for _ in range(100):
            H = rng.uniform(0.55, 0.95)
            z = -rng.uniform(0.0, 100.0)
            p = Hyp2F1Params(H - 0.5, 0.5 - H, H + 0.5, z)
            worst = max(worst, abs(hyp2f1(p) - hyp2f1_series(p)))
        assert worst <= 1e-8

    @pytest.mark.parametrize("H", [0.5001, 0.55, 0.7, 0.9, 0.99])
    def test_fractional_range_matches_mpmath(self, H):
        # z = 1 - e^x over the kernel's range x = ln(t/s), against 30 digits
        a, b, c = H - 0.5, 0.5 - H, H + 0.5
        x = np.append(np.linspace(0.0, 40.0, 81), math.log(1e15))
        worst = 0.0
        with mpmath.workdps(30):
            for z in -np.expm1(x):
                got = hyp2f1(Hyp2F1Params(a, b, c, float(z)))
                worst = max(worst, float(abs(got / mpmath.hyp2f1(a, b, c, z) - 1)))
        assert worst <= 1e-14

    def test_series_nonconvergence_raises(self):
        with pytest.raises(NumericsError):
            hyp2f1_series(Hyp2F1Params(0.2, -0.2, 0.7, -1e6), max_terms=50)
