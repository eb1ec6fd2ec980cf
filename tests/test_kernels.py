from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.special
from scipy.integrate import quad

from fpp_lab import (
    IntensitySpec,
    KernelSpec,
    NumericsError,
    PhiFunction,
    ValidationError,
    kernel_eval,
    kernel_eval_at,
    kernel_lambda_integral,
    phi_fractional,
    power_grid,
)
from fpp_lab import kernels
from fpp_lab.kernels import QUAD_ATOL, QUAD_RTOL, kernel_phi_lambda_integral, singular_quad_0_to_t
from fpp_lab.phi_solver import residual_spots
from fpp_lab.special_functions import hyp2f1

from oracles import diagonal_class, fractional_row_modf, ln_gamma, scipy_quad_0_to_t, uniform_grid

# frozen oracle values (mpmath, cross-checked against the quadrature oracle)
K_07_2_1 = 1.1196796529762092
K_05001_2_1 = 1.0000577232320612
INT_K07_T1 = 0.97019142810441948  # int_0^1 K_{0.7}(1, s) ds, refine-until-stable oracle

# grid phis with a kink at every node, and 25-digit integrals of b K_H(t, .) phi
# against them, frozen by tests/data/make_kink_oracle.py
KINK_NODES = {
    "one-kink": [0.0, 1.0, 10.0],
    "two-kinks": [0.0, 2.0, 4.0, 10.0],
    "kink-just-before-t": [0.0, 1.0, 2.0, 3.0, 4.0, 4.999, 10.0],
    "kinks-near-0": [0.001, 0.002, 1.0, 10.0],
}
KINK_HS, KINK_TIMES, KINK_RATE = (0.55, 0.7, 0.9), (1.5, 4.5, 5.0), 1.3
KINK_ORACLE = {
    (row["case"], row["H"], row["t"]): row
    for row in json.loads((Path(__file__).parent / "data" / "kink_oracle.json").read_text(encoding="utf-8"))
}


def kink_phi_values(nodes) -> np.ndarray:
    return 1.0 + 0.5 * np.sin(3.0 * np.arange(len(nodes)))  # a kink at every node


def exp_table_kernel(a=1.0, t_max=4.0, n=240) -> KernelSpec:
    # store the smooth continuation across the diagonal; evaluation forces
    # 0 for s > t anyway, and bilinear interpolation stays accurate near it
    tg = np.linspace(0.01, t_max, n)
    sg = np.linspace(0.005, t_max, n)
    vals = np.exp(-a * (tg[:, None] - sg[None, :]))
    return KernelSpec.tabulated(tg, sg, vals)


class TestConstruction:
    def test_fractional_requires_h_in_range(self):
        for H in (0.5, 1.0, 0.3, 1.2):
            with pytest.raises(ValidationError):
                KernelSpec.fractional(H)

    def test_exp_requires_positive_decay(self):
        with pytest.raises(ValidationError):
            KernelSpec.exp_shot_noise(0.0)

    def test_degeneracy_flags(self):
        assert KernelSpec.fractional(0.7).diagonal_degenerate
        assert not KernelSpec.indicator().diagonal_degenerate
        assert not KernelSpec.exp_shot_noise(1.0).diagonal_degenerate
        tg = np.linspace(0.1, 2.0, 20)
        assert KernelSpec.tabulated(tg, tg, np.tril(np.ones((20, 20)), -1)).diagonal_degenerate
        assert not exp_table_kernel().diagonal_degenerate
        vals = np.zeros((20, 20))
        vals[3, 5] = np.inf  # non-finite tables are irregular, not degenerate
        assert not KernelSpec.tabulated(tg, tg, vals).diagonal_degenerate

    def test_inconsistent_flags_rejected(self):
        # the flag is derived from the kind (and a table), so no spec can contradict it
        with pytest.raises(TypeError):
            KernelSpec(kind="indicator", diagonal_degenerate=True)
        with pytest.raises(TypeError):
            KernelSpec(kind="fractional", H=0.7, diagonal_degenerate=False)


class TestEval:
    def test_indicator(self):
        k = KernelSpec.indicator()
        assert kernel_eval(k, 2.0, 1.0) == 1.0
        assert kernel_eval(k, 2.0, 2.0) == 1.0
        assert kernel_eval(k, 2.0, 2.5) == 0.0

    def test_exp(self):
        k = KernelSpec.exp_shot_noise(1.5)
        assert kernel_eval(k, 3.0, 1.0) == pytest.approx(math.exp(-3.0), rel=1e-14)

    def test_fractional_frozen_value(self):
        k = KernelSpec.fractional(0.7)
        assert kernel_eval(k, 2.0, 1.0) == pytest.approx(K_07_2_1, abs=1e-8)

    def test_fractional_near_half_limit(self):
        # K tends to the indicator kernel as H -> 1/2
        k = KernelSpec.fractional(0.5001)
        assert abs(kernel_eval(k, 2.0, 1.0) - 1.0) < 5e-3
        assert kernel_eval(k, 2.0, 1.0) == pytest.approx(K_05001_2_1, abs=1e-8)

    def test_fractional_diagonal_is_zero(self):
        assert kernel_eval(KernelSpec.fractional(0.8), 1.5, 1.5) == 0.0

    def test_fractional_matches_gamma_f_assembly(self):
        # definition consistency against the special-functions module
        rng = np.random.default_rng(5150)
        for _ in range(40):
            H = rng.uniform(0.55, 0.95)
            t = rng.uniform(0.2, 5.0)
            s = rng.uniform(1e-4, 1.0) * t
            spec = KernelSpec.fractional(H)
            f = hyp2f1(H - 0.5, 0.5 - H, H + 0.5, 1.0 - t / s)
            want = (t - s) ** (H - 0.5) * f / math.exp(ln_gamma(H + 0.5))
            assert kernel_eval(spec, t, s) == pytest.approx(want, abs=1e-10)

    def test_fractional_positive_below_diagonal(self):
        rng = np.random.default_rng(61)
        for H in (0.55, 0.7, 0.9):
            spec = KernelSpec.fractional(H)
            t = rng.uniform(0.5, 4.0, 50)
            s = t * rng.uniform(1e-5, 0.999, 50)
            vals = np.array([kernel_eval(spec, ti, si) for ti, si in zip(t, s)])
            assert np.all(vals > 0)

    def test_domain_errors(self):
        k = KernelSpec.fractional(0.7)
        with pytest.raises(ValidationError):
            kernel_eval(k, 2.0, 0.0)
        with pytest.raises(ValidationError):
            kernel_eval(k, 0.0, 1.0)
        with pytest.raises(ValidationError):
            kernel_eval(k, 2.0, -1.0)

    @pytest.mark.parametrize("H", [0.5001, 0.55, 0.7, 0.9, 0.99])
    def test_fractional_matches_mpmath(self, H):
        # s = e^-x at t = 1 over the kernel's range x = ln(t/s), against 30 digits
        x = np.append(np.linspace(0.0, 40.0, 81)[1:], math.log(1e15))
        spec = KernelSpec.fractional(H)
        worst = 0.0
        with mpmath.workdps(30):
            for s in np.exp(-x):
                f = mpmath.hyp2f1(H - 0.5, 0.5 - H, H + 0.5, 1 - 1 / mpmath.mpf(s))
                want = (1 - mpmath.mpf(s)) ** (H - 0.5) * f / mpmath.gamma(H + 0.5)
                worst = max(worst, float(abs(kernel_eval(spec, 1.0, float(s)) / want - 1)))
        assert worst <= 1e-14

    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    def test_fractional_where_t_over_s_overflows(self, H):
        # s so far below t = 5 that t / s overflows: K is finite (about
        # s^(1/2-H)), comes without a warning, and is within 1e-12 of 30
        # digits; in a row with such points the others keep their values
        spec = KernelSpec.fractional(H)
        s = np.array([1e-320, 1e-310])
        others = np.array([1e-20, 1.0, 6.0])  # beyond the table, inside it, above the diagonal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = [kernel_eval(spec, 5.0, float(v)) for v in s]
            row = kernel_eval_at(spec, 5.0, np.concatenate([s, others]))
            alone = [kernel_eval_at(spec, 5.0, [v])[0] for v in others]
        with mpmath.workdps(30):
            for v, got in zip(s, points):
                sv = mpmath.mpf(float(v))
                f = mpmath.hyp2f1(H - 0.5, 0.5 - H, H + 0.5, 1 - 5 / sv)
                want = (5 - sv) ** (H - 0.5) * f / mpmath.gamma(H + 0.5)
                assert float(abs(got / want - 1)) <= 1e-12
        np.testing.assert_array_equal(row, points + alone)

    @given(st.floats(min_value=0.01, max_value=10.0), st.floats(min_value=1.01, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_triangular_property(self, t, factor):
        s = t * factor  # s > t
        for spec in (KernelSpec.indicator(), KernelSpec.exp_shot_noise(1.0), KernelSpec.fractional(0.7)):
            assert kernel_eval(spec, t, s) == 0.0


class TestVectorizedEval:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(777)
        for H in (0.55, 0.7, 0.9):
            spec = KernelSpec.fractional(H)
            t = 3.7
            s = np.concatenate([t * rng.uniform(1e-6, 1.0, 300), [t], t * rng.uniform(1.001, 2.0, 10)])
            vec = kernel_eval_at(spec, t, s)
            ref = np.array([kernel_eval(spec, t, si) for si in s])
            assert np.abs(vec - ref).max() <= 1e-8

    def test_beyond_table_falls_back(self):
        spec = KernelSpec.fractional(0.7)
        s = np.array([1e-15])  # ln(t/s) > 32: direct F branch
        vec = kernel_eval_at(spec, 1.0, s)
        ref = kernel_eval(spec, 1.0, 1e-15)
        assert vec[0] == pytest.approx(ref, abs=1e-10)
        # several beyond-table points in one call, between in-table ones
        s = np.array([0.5, 1e-15, 1e-3, 1e-17, 1e-20])
        for H in (0.55, 0.7, 0.9):
            spec = KernelSpec.fractional(H)
            vec = kernel_eval_at(spec, 1.0, s)
            far = s < 1e-14
            assert np.array_equal(vec[far], [kernel_eval(spec, 1.0, si) for si in s[far]])

    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    def test_mask_free_row_equals_masked_row(self, H):
        # a row wholly below the diagonal and inside the table (a Volterra
        # solve row) is evaluated without masks; a point on the diagonal, one
        # above it and one beyond the table send the same row through the
        # masked path, which must give every shared point the same float
        spec, t = KernelSpec.fractional(H), 3.7
        grid = power_grid(t, 2000)
        rng = np.random.default_rng(12)
        row = np.concatenate([0.5 * (np.concatenate(([0.0], grid[:-1])) + grid), t * rng.uniform(1e-13, 1.0, 500)])
        extra = np.array([t, 1.5 * t, t * math.exp(-33.0)])
        free = kernel_eval_at(spec, t, row)
        masked = kernel_eval_at(spec, t, np.concatenate([row, extra]))
        assert np.array_equal(masked[: row.size], free)
        assert masked[-3] == masked[-2] == 0.0
        assert masked[-1] == kernel_eval(spec, t, extra[-1])

    @pytest.mark.parametrize("kind", ["indicator", "exp_shot_noise", "fractional", "tabulated"])
    def test_nan_points_are_rejected(self, kind):
        spec = {
            "indicator": KernelSpec.indicator(),
            "exp_shot_noise": KernelSpec.exp_shot_noise(1.0),
            "fractional": KernelSpec.fractional(0.7),
            "tabulated": exp_table_kernel(),
        }[kind]
        for s in ([np.nan, 0.5], [0.5, np.nan], [np.nan]):
            with pytest.raises(ValidationError, match="s > 0"):
                kernel_eval_at(spec, 1.0, np.array(s))

    def test_exp_and_indicator(self):
        s = np.array([0.5, 1.0, 2.0, 3.0])
        out = kernel_eval_at(KernelSpec.indicator(), 2.0, s)
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0, 0.0])
        out = kernel_eval_at(KernelSpec.exp_shot_noise(1.0), 2.0, s)
        assert out[3] == 0.0 and out[1] == pytest.approx(math.exp(-1.0))


TABLE_HS = [0.5001, 0.55, 0.7, 0.9, 0.99]


class TestFractionalTable:
    @pytest.mark.parametrize("H", TABLE_HS)
    def test_midpoints_match_scalar_path(self, H):
        # a cubic Hermite interpolant errs most halfway between its nodes
        spec, t = KernelSpec.fractional(H), 2.0
        x = (np.arange(kernels._F_TABLE_NODES - 1) + 0.5) / kernels._F_TABLE_INV_H
        s = t * np.exp(-x)
        vec = kernel_eval_at(spec, t, s)
        ref = np.array([kernel_eval(spec, t, si) for si in s])
        assert np.abs(vec / ref - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("H", TABLE_HS)
    def test_series_nodes_match_hyp2f1(self, H):
        x = np.arange(kernels._F_TABLE_NODES) / kernels._F_TABLE_INV_H
        f, _ = kernels._fractional_f_series(H, x)
        ref = scipy.special.hyp2f1(H - 0.5, 0.5 - H, H + 0.5, -np.expm1(x))
        assert np.abs(f / ref - 1.0).max() <= 1e-14
        # both table ends are valid indices and return the node values
        ends = kernels._fractional_table_f(H, np.array([0.0, kernels._F_TABLE_XMAX]))
        assert np.array_equal(ends, f[[0, -1]])

    @pytest.mark.parametrize("H", [0.55, 0.99])
    def test_series_derivative_matches_mpmath(self, H):
        # both sides of the switch between the two series at x = ln 2
        ln2 = math.log(2.0)
        x = np.array([0.0, 0.3, ln2, np.nextafter(ln2, 1.0), 0.7, 5.0, 32.0])
        _, df = kernels._fractional_f_series(H, x)

        def f(v):
            return mpmath.hyp2f1(H - 0.5, 0.5 - H, H + 0.5, 1 - mpmath.exp(v))

        with mpmath.workdps(30):
            want = np.array([float(mpmath.diff(f, mpmath.mpf(float(v)))) for v in x])
        np.testing.assert_allclose(df, want, rtol=1e-13)

    @pytest.mark.parametrize("H", TABLE_HS)
    def test_series_past_the_table_matches_mpmath(self, H):
        # points beyond the table (x = ln(t/s) > 32) take the series itself,
        # up to x = 700, just below where t / s overflows
        x = np.array([33.0, 40.0, 100.0, 300.0, 700.0])
        f, _ = kernels._fractional_f_series(H, x)
        with mpmath.workdps(30):
            want = [mpmath.hyp2f1(H - 0.5, 0.5 - H, H + 0.5, 1 - mpmath.exp(mpmath.mpf(float(v)))) for v in x]
            worst = max(float(abs(got / w - 1)) for got, w in zip(f, want))
        assert worst <= 1e-14


class TestLeanRow:
    """The in-place table row gives the floats of the `np.modf`, out-of-place row."""

    @pytest.mark.parametrize("H", TABLE_HS)
    @pytest.mark.parametrize("grid", ["power", "bench"])
    def test_every_solve_row_equals_modf_row(self, H, grid):
        # the rows of solve_phi_volterra: the panel midpoints below each node
        nodes = power_grid(5.0, 2000) if grid == "power" else uniform_grid(0.00125, 5.0, 4000)
        bounds = np.concatenate(([0.0], nodes))
        mids = 0.5 * (bounds[:-1] + bounds[1:])
        spec = KernelSpec.fractional(H)
        for i, t in enumerate(nodes):
            row = mids[: i + 1]
            assert np.array_equal(kernel_eval_at(spec, t, row), fractional_row_modf(H, t, row))

    @pytest.mark.parametrize("H", [0.55, 0.9])
    def test_ratio_test_keeps_rows_inside_the_table(self, H):
        # t <= s _F_TABLE_RATIO, the one test before `_fractional_row` in
        # kernel_eval_at and in the Volterra solve, leaves ln(t / s) at or
        # below the table's last node even at the largest t it admits, where
        # the row still gives the floats of the `np.modf` row
        s = np.geomspace(1e-300, 1e290, 2001)
        t = s * kernels._F_TABLE_RATIO
        assert np.log(t / s).max() <= kernels._F_TABLE_XMAX
        for ti, si in zip(t.tolist(), s.tolist()):
            row = np.array([si, 0.5 * (si + ti), np.nextafter(ti, 0.0)])
            assert np.array_equal(kernels._fractional_row(H, ti, row), fractional_row_modf(H, ti, row))
        # one step past it, kernel_eval_at leaves the lean row and still gives its floats
        far = np.nextafter(t[1000], math.inf)
        row = np.array([s[1000], 1.0])
        got = kernel_eval_at(KernelSpec.fractional(H), far, row)
        assert np.array_equal(got[1:], fractional_row_modf(H, far, row[1:]))


class TestDiagonalClass:
    def test_analytic_kinds(self):
        assert diagonal_class(KernelSpec.fractional(0.7)) == "continuous_paths"
        assert diagonal_class(KernelSpec.indicator()) == "cadlag_paths"
        assert diagonal_class(KernelSpec.exp_shot_noise(1.0)) == "cadlag_paths"

    def test_tabulated(self):
        assert diagonal_class(exp_table_kernel()) == "cadlag_paths"
        tg = np.linspace(0.1, 2.0, 20)
        vals = np.zeros((20, 20))
        assert diagonal_class(KernelSpec.tabulated(tg, tg, vals)) == "continuous_paths"
        vals = np.ones((20, 20))
        vals[3, 3] = np.inf
        assert diagonal_class(KernelSpec.tabulated(tg, tg, vals)) == "irregular"


class TestKernelLambdaIntegral:
    def test_indicator(self):
        got = kernel_lambda_integral(KernelSpec.indicator(), IntensitySpec.constant(2.0), 3.0)
        assert got == pytest.approx(6.0, rel=1e-12)

    def test_exp_closed_form(self):
        got = kernel_lambda_integral(KernelSpec.exp_shot_noise(1.0), IntensitySpec.constant(1.0), 1.0)
        assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_fractional_against_composite_oracle(self):
        got = kernel_lambda_integral(KernelSpec.fractional(0.7), IntensitySpec.constant(1.0), 1.0)
        assert got == pytest.approx(INT_K07_T1, rel=1e-7)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValidationError):
            kernel_lambda_integral(KernelSpec.indicator(), IntensitySpec.constant(1.0), 0.0)


def scalar_quad_0_to_t(f, t, origin_exponent):
    """int_0^t f(s) ds for scalar f with f(s) ~ s^(-origin_exponent) near 0.

    Adaptive `quad` over s = t v^p, p = 1/(1 - e), at relative tolerance
    1e-9: the package's quadrature before it became vectorized tanh-sinh,
    kept as an oracle that shares no code with it.
    """
    p = 1.0 / (1.0 - origin_exponent) if origin_exponent > 0.0 else 1.0

    def g(v):
        return f(t * v**p) * t * p * v ** (p - 1.0)

    return quad(g, 0.0, 1.0, epsabs=1e-12, epsrel=1e-9, limit=200)


def oracle_kernel_phi_lambda(kernel, intensity, t, phi=None):
    """int_0^t K(t,s) phi(s) lambda(s) ds by the quadrature the closed forms replace.

    Scalar `kernel_eval` times phi and lambda through `scalar_quad_0_to_t`
    with the summed origin exponents, as `kernel_lambda_integral` and
    `kernel_shift_lambda_integral` computed every fractional-kernel integral
    before the closed forms.
    """
    e = kernel.origin_exponent + intensity.origin_exponent
    if phi is not None:
        e += phi.origin_exponent

    def f(s):
        p = 1.0 if phi is None else float(phi(s))
        return kernel_eval(kernel, t, s) * p * float(intensity.rate_at(s))

    val, err = scalar_quad_0_to_t(f, t, e)
    assert err <= 1e-8 * abs(val)
    return val


class TestKernelPhiLambdaIntegral:
    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    def test_fractional_closed_forms_match_quadrature(self, H):
        kernel, inten = KernelSpec.fractional(H), IntensitySpec.constant(2.5)
        phi = phi_fractional(H, 1.7)
        for t in (1.0, 3.0, 5.0, 1000.0):
            want = oracle_kernel_phi_lambda(kernel, inten, t)
            assert kernel_phi_lambda_integral(t, inten, kernel) == pytest.approx(want, rel=1e-12)
            want = oracle_kernel_phi_lambda(kernel, inten, t, phi)
            assert kernel_phi_lambda_integral(t, inten, kernel, phi) == pytest.approx(want, rel=1e-12)

    def test_fractional_closed_form_matches_frozen_oracle(self):
        got = kernel_phi_lambda_integral(1.0, IntensitySpec.constant(1.0), KernelSpec.fractional(0.7))
        assert got == pytest.approx(INT_K07_T1, rel=1e-15)

    def test_indicator_kernel_with_phi_is_the_phi_integral(self):
        # K = 1 below the diagonal: the closed form b int_0^t phi, no quadrature
        kernel, inten = KernelSpec.indicator(), IntensitySpec.constant(1.3)
        rng = np.random.default_rng(4)
        nodes = np.linspace(0.0, 3.0, 300)
        grid = PhiFunction(kind="grid", nodes=nodes, values=rng.uniform(0.5, 2.0, nodes.size))
        for phi in (grid, phi_fractional(0.7, 1.7)):
            for t in (0.4, 1.9, 3.0, 4.5):
                want = kernels._checked_quad(t, inten, kernel, phi)
                assert kernel_phi_lambda_integral(t, inten, kernel, phi) == pytest.approx(want, rel=1e-12)
                assert kernel_phi_lambda_integral(t, inten, kernel, phi) == 1.3 * phi.integral(t)

    def test_phi_scaled_rate_matches_quadrature(self):
        # table kernel values and the rate's own origin exponent
        kernel = KernelSpec.fractional(0.7)
        inten = IntensitySpec.constant(1.5).tilted(0.5, phi_fractional(0.7, 1.5))
        for t in (0.5, 2.0, 5.0):
            got = kernel_lambda_integral(kernel, inten, t)
            assert got == pytest.approx(oracle_kernel_phi_lambda(kernel, inten, t), rel=1e-8)

    def test_coarse_grid_phi_matches_closed_form(self):
        # a constant grid phi has no kink: one tanh-sinh piece over [0, t]
        kernel, inten = KernelSpec.fractional(0.7), IntensitySpec.constant(2.5)
        for t in (0.5, 2.0, 5.0):
            got = kernel_phi_lambda_integral(t, inten, kernel, PhiFunction.constant(0.4))
            want = 0.4 * kernel_phi_lambda_integral(t, inten, kernel)
            assert got == pytest.approx(want, rel=1e-10)

    def test_frozen_kink_oracle_inputs_are_the_cases(self):
        # a changed case cannot meet a stale frozen value
        assert {(row["case"], row["H"], row["t"]) for row in KINK_ORACLE.values()} == {
            (case, H, t) for case in KINK_NODES for H in KINK_HS for t in KINK_TIMES
        }
        for row in KINK_ORACLE.values():
            assert row["nodes"] == KINK_NODES[row["case"]] and row["b"] == KINK_RATE
            assert row["values"] == kink_phi_values(row["nodes"]).tolist()

    @pytest.mark.parametrize("H", KINK_HS)
    @pytest.mark.parametrize("case", list(KINK_NODES))
    def test_grid_phi_with_interior_kinks_matches_mpmath(self, case, H):
        # a kink piece that holds the diagonal singularity (t - s)^(H - 1/2),
        # or lies next to it or to the origin, against 25 digits split at the
        # kinks (frozen by tests/data/make_kink_oracle.py)
        nodes = np.array(KINK_NODES[case])
        phi = PhiFunction(kind="grid", nodes=nodes, values=kink_phi_values(nodes))
        for t in KINK_TIMES:
            got = kernel_phi_lambda_integral(t, IntensitySpec.constant(KINK_RATE), KernelSpec.fractional(H), phi)
            with mpmath.workdps(25):
                assert abs(got / mpmath.mpf(KINK_ORACLE[case, H, t]["integral"]) - 1) <= 1e-8, t

    def test_non_converging_quadrature_raises(self, monkeypatch):
        real = kernels.singular_quad_0_to_t
        monkeypatch.setattr(kernels, "singular_quad_0_to_t", lambda *args: (real(*args)[0], math.inf))
        phi, inten = rough_phi_rate()
        with pytest.raises(NumericsError):
            kernel_phi_lambda_integral(2.0, inten, phi=phi)

    def test_rough_grid_phi_in_the_rate_matches_per_piece_oracle(self):
        # thousands of kinks, one vectorized rule over the pieces between them;
        # phi (1 + phi) is quadratic on each piece, so 3-point Gauss is exact there
        phi, inten = rough_phi_rate()
        x, w = np.polynomial.legendre.leggauss(3)
        a, b = phi.nodes[:-1, None], phi.nodes[1:, None]
        s = (0.5 * (b - a) * x + 0.5 * (a + b)).ravel()
        want = np.sum(0.5 * (b - a) * w * (phi(s) * (1.0 + phi(s))).reshape(a.size, 3))
        assert kernel_phi_lambda_integral(2.0, inten, phi=phi) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "kernel", [KernelSpec.exp_shot_noise(0.8), KernelSpec.fractional(0.7)], ids=["exp_shot_noise", "fractional"]
    )
    def test_kink_of_the_rate_phi_inside_the_interval(self, kernel):
        # an affine grid phi clamps at its last node, s = 10: a kink of the
        # rate that one rule over [0, t] failed to converge across
        affine = PhiFunction(kind="grid", nodes=np.array([0.0, 10.0]), values=np.array([0.5, 2.0]))
        inten = IntensitySpec.constant(1.0).tilted(1.0, affine)
        for t in np.linspace(9.0, 12.0, 61):
            got = kernel_lambda_integral(kernel, inten, float(t))

            def f(s):
                return kernel_eval(kernel, t, s) * float(inten.rate_at(s))

            pieces = [(0.0, t)] if t <= 10.0 else [(0.0, 10.0), (10.0, t)]
            want = sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0] for lo, hi in pieces)
            assert got == pytest.approx(want, rel=1e-9), t


def rough_phi_rate() -> tuple[PhiFunction, IntensitySpec]:
    """A grid phi on 4001 random nodes, and the rate it scales."""
    nodes = np.linspace(0.0, 2.0, 4001)
    values = np.random.default_rng(5).uniform(0.0, 1.0, nodes.size)
    phi = PhiFunction(kind="grid", nodes=nodes, values=values)
    return phi, IntensitySpec.constant(1.0).tilted(1.0, phi)


class TestSingularQuad:
    @pytest.mark.parametrize(
        "H, grid",
        [
            (0.7, uniform_grid(0.00125, 5.0, 4000)),  # the phi-calibration solve
            (0.55, power_grid(5.0, 400)),
            (0.9, power_grid(5.0, 400)),
        ],
    )
    def test_residual_stubs_match_scalar_quad(self, H, grid):
        # the residual check's stub: int of K(t, .) from 0 to the first panel
        # midpoint, at the nodes the check evaluates
        kernel = KernelSpec.fractional(H)
        stub, e = 0.5 * grid[0], kernel.origin_exponent
        for t in residual_spots(grid):
            got, err = singular_quad_0_to_t(lambda s: kernel_eval_at(kernel, t, s), stub, e)
            want, _ = scalar_quad_0_to_t(lambda s: kernel_eval_at(kernel, t, np.array([s]))[0], stub, e)
            assert err <= max(1e-8 * abs(got), QUAD_ATOL)
            assert got == pytest.approx(want, rel=1e-12)

    def test_underflowing_abscissae_add_zero(self):
        # the rule places abscissae down to v ~ 4e-308, where s = t v^p is 0
        # (p = 5) or subnormal (p ~ 1, t = 0.1); the integrand never sees
        # such an s: the kernel rejects s = 0, and t / s overflows
        seen = []

        def f(s):
            seen.append(s.min())
            return s**-0.8

        val, err = singular_quad_0_to_t(f, 1.0, 0.8)
        assert val == pytest.approx(5.0, rel=1e-12) and err <= 1e-9 * val
        kernel = KernelSpec.fractional(0.5001)

        def k(s):
            seen.append(s.min())
            return kernel_eval_at(kernel, 1.0, s)

        val, err = singular_quad_0_to_t(k, 0.1, kernel.origin_exponent)
        assert val > 0 and err <= 1e-8 * val
        assert min(seen) >= np.finfo(float).tiny

    def test_non_converging_rule_reports_inf_error(self, monkeypatch):
        real = kernels.singular_quad_0_to_t
        val, err = singular_quad_0_to_t(lambda s: np.sin(1e7 * s) ** 2, 1.0, 0.0)
        assert math.isfinite(val) and err == math.inf
        # the check names t, the value and the error estimate
        monkeypatch.setattr(kernels, "singular_quad_0_to_t", lambda *args: (real(*args)[0], math.inf))
        phi, inten = rough_phi_rate()
        message = r"did not converge at t=2\.0: value \d\.\d{6}e[+-]\d+, error estimate inf"
        with pytest.raises(NumericsError, match=message):
            kernel_phi_lambda_integral(2.0, inten, phi=phi)


def quad_cases() -> dict:
    """Integrands (f, t, origin exponent, breaks) for the tanh-sinh oracle comparison."""
    k55, k5001 = KernelSpec.fractional(0.55), KernelSpec.fractional(0.5001)
    cases = {f"s^-{e}": (lambda s, e=e: s**-e, 1.5, e, ()) for e in (0.2, 0.45, 0.9)}
    # the last piece touches t, where K(t, .) has a (t - s)^0.05 cusp, or f diverges
    cases["kernel-piece-at-t"] = (lambda s: kernel_eval_at(k55, 2.0, s), 2.0, 0.05, (1.0, 1.9))
    cases["singular-at-t"] = (lambda s: (1.5 - s) ** -0.3, 1.5, 0.0, (1.4,))
    # five tanh-sinh pieces and one Gauss piece [0.5, 0.6]; kinks at 0.5, 0.6 and 1.2
    breaks = (0.001, 0.5, 0.6, 1.2, 1.49)
    cases["several-pieces"] = (
        lambda s: s**-0.45 * (1.0 + np.abs(s - 0.5)) + np.abs(s - 0.6) * np.abs(s - 1.2), 1.5, 0.45, breaks
    )
    # abscissae down to v ~ 4e-308, where s = v^5 underflows, and s subnormal at p ~ 1
    cases["underflow-p5"] = (lambda s: s**-0.8, 1.0, 0.8, ())
    cases["underflow-subnormal"] = (lambda s: kernel_eval_at(k5001, 1.0, s), 0.1, k5001.origin_exponent, ())
    return cases


class TestTanhSinhRule:
    @pytest.mark.parametrize("case", list(quad_cases()))
    def test_matches_scipy_tanhsinh(self, case):
        f, t, e, breaks = quad_cases()[case]
        got, err = singular_quad_0_to_t(f, t, e, np.array(breaks))
        want, want_err = scipy_quad_0_to_t(f, t, e, np.array(breaks))
        bound = max(QUAD_ATOL, QUAD_RTOL * abs(want))
        assert abs(got - want) <= bound
        assert err <= bound and want_err <= bound
        # the same error estimate: its outermost-term part (Bailey's d4) dominates in every case
        assert err == pytest.approx(want_err, rel=1e-6, abs=0.0)

    def test_non_converging_integrand_reports_inf(self):
        calls = []

        def f(s):
            calls.append(s.size)
            return np.sin(1e7 * s) ** 2

        val, err = singular_quad_0_to_t(f, 1.0, 0.0)
        assert math.isfinite(val) and err == math.inf
        # one integrand call per level, levels 2 to 10, and no other
        assert len(calls) == 9
        assert scipy_quad_0_to_t(f, 1.0, 0.0)[1] == math.inf

    @pytest.mark.parametrize("case", list(quad_cases()))
    def test_integrand_called_at_most_once_per_level(self, case):
        f, t, e, breaks = quad_cases()[case]
        calls = []

        def counted(s):
            calls.append(s.size)
            return f(s)

        singular_quad_0_to_t(counted, t, e, np.array(breaks))
        gauss_blocks = 1 if case == "several-pieces" else 0
        assert len(calls) <= 9 + gauss_blocks


class TestTabulated:
    def test_bilinear_accuracy(self):
        k = exp_table_kernel()
        exact = KernelSpec.exp_shot_noise(1.0)
        rng = np.random.default_rng(8)
        for _ in range(100):
            t = rng.uniform(0.2, 3.8)
            s = rng.uniform(0.05, t)
            assert kernel_eval(k, t, s) == pytest.approx(kernel_eval(exact, t, s), abs=5e-4)

    def test_lambda_integral_exact_between_s_nodes(self):
        # at fixed t the table is linear in s between its s-nodes and clamped
        # below the first, so the trapezoid rule on the nodes is exact
        k, inten = exp_table_kernel(), IntensitySpec.constant(1.5)
        for t in (0.7, 2.3, 3.95):
            s = np.concatenate((k.table_s[k.table_s < t], [t]))
            ks = kernel_eval_at(k, t, s)
            want = 1.5 * (s[0] * ks[0] + np.sum(np.diff(s) * 0.5 * (ks[1:] + ks[:-1])))
            assert kernel_lambda_integral(k, inten, t) == pytest.approx(want, rel=1e-12)

    def test_zero_above_diagonal(self):
        k = exp_table_kernel()
        assert kernel_eval(k, 1.0, 1.5) == 0.0

    def test_batched_equals_scalar(self):
        # kernel_eval_at must give kernel_eval's float for every point, also
        # on table nodes, clamped outside the table, on and above the diagonal
        rng = np.random.default_rng(3)
        tg = np.linspace(0.5, 3.0, 11)
        sg = np.linspace(0.25, 2.5, 13)
        k = KernelSpec.tabulated(tg, sg, rng.uniform(-1.0, 2.0, (tg.size, sg.size)))
        for t in (*tg[[0, 4, -1]], 0.1, 1.37, 5.0):
            s = np.concatenate([sg, tg, [0.01, 0.2, 0.9, t, 2.6, 4.0, t * 1.5], rng.uniform(0.01, 6.0, 40)])
            want = np.array([kernel_eval(k, t, si) for si in s])
            got = kernel_eval_at(k, t, s)
            assert np.array_equal(got, want), t
            assert np.all(got[s > t] == 0.0)

    def test_csv_round_trip(self, tmp_path):
        tg = np.array([0.5, 1.0, 2.0])
        sg = np.array([0.25, 0.75, 1.5])
        vals = np.arange(9, dtype=float).reshape(3, 3)
        f = tmp_path / "k.csv"
        with open(f, "w") as fh:
            fh.write("t,s,value\n")
            for i, t in enumerate(tg):
                for j, s in enumerate(sg):
                    fh.write(f"{t},{s},{vals[i, j]}\n")
        k = KernelSpec.tabulated_from_csv(f)
        np.testing.assert_array_equal(k.table_values, vals)

    def test_incomplete_lattice_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("t,s,value\n1,1,0.5\n1,2,0.25\n2,1,0.1\n")
        with pytest.raises(ValidationError):
            KernelSpec.tabulated_from_csv(f)
