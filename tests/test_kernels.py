from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fpp_lab.kernels import QUAD_ATOL, kernel_phi_lambda_integral, singular_quad_0_to_t
from fpp_lab.phi_solver import STARTUP_SPAN_FACTOR
from fpp_lab.special_functions import Hyp2F1Params, hyp2f1

from oracles import diagonal_class, ln_gamma, uniform_grid

# frozen oracle values (mpmath, cross-checked against the quadrature oracle)
K_07_2_1 = 1.1196796529762092
K_05001_2_1 = 1.0000577232320612
INT_K07_T1 = 0.97019142810441948  # int_0^1 K_{0.7}(1, s) ds, refine-until-stable oracle


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

    def test_inconsistent_flags_rejected(self):
        with pytest.raises(ValidationError):
            KernelSpec(kind="indicator", diagonal_degenerate=True)
        with pytest.raises(ValidationError):
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
            f = hyp2f1(Hyp2F1Params(H - 0.5, 0.5 - H, H + 0.5, 1.0 - t / s))
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

    def test_exp_and_indicator(self):
        s = np.array([0.5, 1.0, 2.0, 3.0])
        out = kernel_eval_at(KernelSpec.indicator(), 2.0, s)
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0, 0.0])
        out = kernel_eval_at(KernelSpec.exp_shot_noise(1.0), 2.0, s)
        assert out[3] == 0.0 and out[1] == pytest.approx(math.exp(-1.0))


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

    def test_phi_scaled_rate_matches_quadrature(self):
        # spline kernel values and the rate's own origin exponent
        kernel = KernelSpec.fractional(0.7)
        inten = IntensitySpec.scaled_by_phi(1.5, 0.5, phi_fractional(0.7, 1.5))
        for t in (0.5, 2.0, 5.0):
            got = kernel_lambda_integral(kernel, inten, t)
            assert got == pytest.approx(oracle_kernel_phi_lambda(kernel, inten, t), rel=1e-8)

    def test_coarse_grid_phi_matches_closed_form(self):
        # a constant grid phi has no kink, so no Gauss panel meets the
        # kernel's (t - s)^(H - 1/2) behaviour at the diagonal
        kernel, inten = KernelSpec.fractional(0.7), IntensitySpec.constant(2.5)
        for t in (0.5, 2.0, 5.0):
            got = kernel_phi_lambda_integral(t, inten, kernel, PhiFunction.constant(0.4))
            want = 0.4 * kernel_phi_lambda_integral(t, inten, kernel)
            assert got == pytest.approx(want, rel=1e-10)

    def test_non_converging_quadrature_raises(self):
        # a rough grid phi scaling the rate: quadrature of phi * lambda
        # cannot resolve thousands of kinks
        nodes = np.linspace(0.0, 2.0, 4001)
        values = np.random.default_rng(5).uniform(0.0, 1.0, nodes.size)
        phi = PhiFunction(kind="grid", nodes=nodes, values=values)
        inten = IntensitySpec.scaled_by_phi(1.0, 1.0, phi)
        with pytest.raises(NumericsError):
            kernel_phi_lambda_integral(2.0, inten, phi=phi)


def cli_spots(grid):
    """The residual nodes `fpp-lab run` checks for a solve on `grid`."""
    span = grid[grid >= STARTUP_SPAN_FACTOR * grid[0]]
    return span[np.unique(np.linspace(0, span.size - 1, min(12, span.size)).astype(int))]


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
        # midpoint, at the nodes the CLI checks
        kernel = KernelSpec.fractional(H)
        stub, e = 0.5 * grid[0], kernel.origin_exponent
        for t in cli_spots(grid):
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

    def test_non_converging_rule_reports_inf_error(self):
        val, err = singular_quad_0_to_t(lambda s: np.sin(1e7 * s) ** 2, 1.0, 0.0)
        assert math.isfinite(val) and err == math.inf
        nodes = np.linspace(0.0, 2.0, 4001)
        values = np.random.default_rng(5).uniform(0.0, 1.0, nodes.size)
        phi = PhiFunction(kind="grid", nodes=nodes, values=values)
        inten = IntensitySpec.scaled_by_phi(1.0, 1.0, phi)
        message = r"did not converge at t=2\.0: value \d\.\d{6}e[+-]\d+, error estimate inf"
        with pytest.raises(NumericsError, match=message):
            kernel_phi_lambda_integral(2.0, inten, phi=phi)


class TestTabulated:
    def test_bilinear_accuracy(self):
        k = exp_table_kernel()
        exact = KernelSpec.exp_shot_noise(1.0)
        rng = np.random.default_rng(8)
        for _ in range(100):
            t = rng.uniform(0.2, 3.8)
            s = rng.uniform(0.05, t)
            assert kernel_eval(k, t, s) == pytest.approx(kernel_eval(exact, t, s), abs=5e-4)

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
