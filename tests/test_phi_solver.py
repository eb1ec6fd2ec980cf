from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fpp_lab import (
    IntensitySpec,
    KernelSpec,
    NumericsError,
    PhiFunction,
    ValidationError,
    phi_fractional,
    phi_lambda_integral,
    power_grid,
    solve_phi_volterra,
    volterra_residuals,
)
from fpp_lab.kernels import PANEL_BLOCK, kernel_eval, kernel_phi_lambda_integral

from oracles import phi_from_csv, uniform_grid

# gamma-function oracle values (mpmath)
PHI_1_H07_LAM2 = 0.3908930209156764
RATIO_4_TO_1 = 0.75785828325519904  # 4^(-1/5)


def oracle_integrals(phi, kernel, intensity, nodes):
    """int_0^t K(t,s) phi(s) lambda(s) ds at each node t by adaptive `quad`.

    Scalar `kernel_eval` times phi and lambda, split at every phi node and a
    tabulated kernel's s-nodes (the kinks) and integrated piece by piece at
    relative tolerance 1e-13; shares no code with the package's quadrature.
    """
    cuts = np.concatenate([phi.nodes, kernel.table_s if kernel.kind == "tabulated" else []])
    out = []
    for t in nodes:
        edges = np.unique(np.concatenate([[0.0, t], cuts[(cuts > 0.0) & (cuts < t)]]))

        def f(s, t=t):
            return kernel_eval(kernel, t, s) * phi(s) * float(intensity.rate_at(s))

        out.append(sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in zip(edges[:-1], edges[1:])))
    return np.array(out)


class TestClosedForm:
    def test_domain(self):
        for H in (0.5, 1.0, 0.2):
            with pytest.raises(ValidationError):
                phi_fractional(H, 1.0)
        with pytest.raises(ValidationError):
            phi_fractional(0.7, 0.0)

    def test_frozen_value(self):
        phi = phi_fractional(0.7, 2.0)
        assert phi(1.0) == pytest.approx(PHI_1_H07_LAM2, rel=1e-12)

    def test_power_law_ratio(self):
        phi = phi_fractional(0.7, 1.0)
        assert phi(4.0) / phi(1.0) == pytest.approx(RATIO_4_TO_1, rel=1e-12)

    def test_near_half_limit_is_inverse_rate(self):
        phi = phi_fractional(0.5001, 1.0)
        for s in (0.5, 1.0, 2.0):
            assert phi(s) == pytest.approx(1.0, abs=5e-3)

    def test_requires_positive_argument(self):
        with pytest.raises(ValidationError):
            phi_fractional(0.7, 1.0)(0.0)

    def test_integral_closed_form(self):
        phi = phi_fractional(0.7, 2.0)
        t = 3.0
        want = phi.coefficient / 2.0 * t**0.8 / 0.8
        assert phi.integral(t) == pytest.approx(want, rel=1e-12)

    def test_sup_on_decreasing(self):
        phi = phi_fractional(0.7, 1.0)
        assert phi.sup_on(1.0, 2.0) == phi(1.0)
        assert math.isinf(phi.sup_on(0.0, 1.0))


class TestGridPhi:
    def test_interpolation_and_clamping(self):
        phi = PhiFunction(kind="grid", nodes=np.array([1.0, 2.0]), values=np.array([2.0, 4.0]))
        assert phi(1.5) == pytest.approx(3.0)
        assert phi(0.5) == 2.0  # clamped below
        assert phi(3.0) == 4.0  # clamped above

    def test_integral_piecewise_exact(self):
        phi = PhiFunction(kind="grid", nodes=np.array([1.0, 2.0]), values=np.array([2.0, 4.0]))
        # clamp on [0,1]: 2; trapezoid on [1,2]: 3; clamp on [2,3]: 4
        assert phi.integral(3.0) == pytest.approx(9.0, rel=1e-14)
        assert phi.integral(1.5) == pytest.approx(2.0 + 0.5 * (2.0 + 3.0) / 2.0, rel=1e-14)
        assert phi.integral(0.0) == 0.0

    def test_sup_on(self):
        phi = PhiFunction(kind="grid", nodes=np.array([0.0, 1.0, 2.0]), values=np.array([1.0, 5.0, 0.5]))
        assert phi.sup_on(0.2, 1.8) == 5.0
        assert phi.sup_on(1.5, 2.0) == pytest.approx(phi(1.5))

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            PhiFunction(kind="grid", nodes=np.array([0.0, 1.0]), values=np.array([1.0, -0.1]))

    def test_csv_round_trip(self, tmp_path):
        phi = PhiFunction(kind="grid", nodes=np.array([0.5, 1.5]), values=np.array([1.25, 2.5]))
        f = tmp_path / "phi.csv"
        phi.to_csv(f)
        again = phi_from_csv(f)
        np.testing.assert_array_equal(phi.nodes, again.nodes)
        np.testing.assert_array_equal(phi.values, again.values)

    def test_constant(self):
        phi = PhiFunction.constant(2.5)
        assert phi(0.1) == 2.5 and phi(100.0) == 2.5
        assert phi.integral(4.0) == pytest.approx(10.0)


class TestVolterraSolver:
    def test_indicator_exact_at_machine_precision(self):
        phi = solve_phi_volterra(
            KernelSpec.indicator(), IntensitySpec.constant(2.0), 1.0, uniform_grid(0.01, 5.0, 500)
        )
        assert np.abs(phi.values - 0.5).max() <= 1e-12

    def test_exp_kernel_affine_solution(self):
        # m1 int_0^t e^(-a(t-s)) phi(s) lam ds = t is solved by phi = (1 + a s)/(lam m1)
        a, lam, m1 = 1.0, 1.0, 1.0
        phi = solve_phi_volterra(
            KernelSpec.exp_shot_noise(a), IntensitySpec.constant(lam), m1, uniform_grid(1e-3, 2.0, 500)
        )
        exact = (1.0 + a * phi.nodes) / (lam * m1)
        assert (np.abs(phi.values - exact) / exact).max() <= 5e-6

    def test_exp_kernel_nonunit_params(self):
        a, lam, m1 = 2.0, 1.5, 2.0
        phi = solve_phi_volterra(
            KernelSpec.exp_shot_noise(a), IntensitySpec.constant(lam), m1, uniform_grid(1e-3, 2.0, 800)
        )
        exact = (1.0 + a * phi.nodes) / (lam * m1)
        assert (np.abs(phi.values - exact) / exact).max() <= 5e-6

    @pytest.mark.parametrize("H", [0.55, 0.6, 0.7, 0.8, 0.9])
    def test_fractional_matches_closed_form(self, H):
        lam = 1.0
        grid = power_grid(5.0, 800)
        phi = solve_phi_volterra(KernelSpec.fractional(H), IntensitySpec.constant(lam), 1.0, grid)
        exact = phi_fractional(H, lam)
        sel = phi.nodes >= 0.01  # on the span of downstream interest
        rel = np.abs(phi.values[sel] - exact(phi.nodes[sel])) / exact(phi.nodes[sel])
        assert rel.max() <= 2e-2

    def test_residuals_within_advertised_tolerance(self):
        from fpp_lab.phi_solver import SOLVER_RTOL, STARTUP_SPAN_FACTOR

        kernel = KernelSpec.fractional(0.7)
        inten = IntensitySpec.constant(1.0)
        grid = power_grid(3.0, 240)
        phi = solve_phi_volterra(kernel, inten, 1.0, grid)
        nodes = grid[grid >= STARTUP_SPAN_FACTOR * grid[0]]
        assert nodes.size > 200  # the advertised span covers nearly the whole grid
        resid = volterra_residuals(phi, kernel, inten, 1.0, nodes)
        assert resid.max() <= 2.0 * SOLVER_RTOL

    @pytest.mark.parametrize(
        "H, rate, stop",
        [(0.55, 1.3, 0.1), (0.9, 0.1, 0.01), (0.9, 0.1, 0.1), (0.9, 1.3, 0.01), (0.9, 1.3, 0.1)],
    )
    def test_small_stub_integrals_pass_their_check(self, H, rate, stop):
        # grids from 1e-6 put residual stub integrals near 1e-5, where an
        # error estimate of a few 1e-13 is converged; the quadrature's
        # absolute tolerance and its check's floor must be the same number
        from fpp_lab.phi_solver import STARTUP_SPAN_FACTOR

        kernel, inten = KernelSpec.fractional(H), IntensitySpec.constant(rate)
        grid = uniform_grid(1e-6, stop, 1500)
        phi = solve_phi_volterra(kernel, inten, 1.0, grid)
        span = grid[grid >= STARTUP_SPAN_FACTOR * grid[0]]
        spots = span[np.unique(np.linspace(0, span.size - 1, 12).astype(int))]
        assert np.all(np.isfinite(volterra_residuals(phi, kernel, inten, 1.0, spots)))

    def test_residuals_shrink_under_refinement(self):
        inten = IntensitySpec.constant(1.0)
        for kernel, mk_grid in (
            (KernelSpec.exp_shot_noise(1.0), lambda n: uniform_grid(1e-3, 2.0, n)),
            (KernelSpec.fractional(0.7), lambda n: power_grid(3.0, n)),
        ):
            r_coarse = volterra_residuals(
                solve_phi_volterra(kernel, inten, 1.0, mk_grid(60)), kernel, inten, 1.0,
                np.array([0.5, 1.5, 2.0]),
            ).max()
            r_fine = volterra_residuals(
                solve_phi_volterra(kernel, inten, 1.0, mk_grid(120)), kernel, inten, 1.0,
                np.array([0.5, 1.5, 2.0]),
            ).max()
            assert r_fine < r_coarse
        # indicator is exact at both resolutions
        r = volterra_residuals(
            solve_phi_volterra(KernelSpec.indicator(), inten, 1.0, uniform_grid(0.01, 2.0, 60)),
            KernelSpec.indicator(), inten, 1.0, np.array([0.5, 1.5, 2.0]),
        )
        assert r.max() <= 1e-9

    def test_tabulated_kernel_round_trip(self):
        # externally supplied exp-kernel table reproduces the affine solution;
        # the table stores the smooth continuation so bilinear interpolation
        # stays accurate next to the diagonal
        a = 1.0
        tg = np.linspace(0.005, 2.0, 400)
        sg = np.linspace(0.0025, 2.0, 400)
        vals = np.exp(-a * (tg[:, None] - sg[None, :]))
        kernel = KernelSpec.tabulated(tg, sg, vals)
        phi = solve_phi_volterra(kernel, IntensitySpec.constant(1.0), 1.0, uniform_grid(0.01, 1.9, 300))
        exact = 1.0 + a * phi.nodes
        assert (np.abs(phi.values - exact) / exact).max() <= 5e-3

    def test_singular_system_detected(self):
        # a kernel that vanishes on a band below the diagonal has zero diagonal weights
        tg = np.linspace(0.01, 2.0, 50)
        sg = np.linspace(0.005, 2.0, 50)
        vals = np.where(sg[None, :] < 0.5 * tg[:, None], 1.0, 0.0)
        kernel = KernelSpec.tabulated(tg, sg, vals)
        with pytest.raises(NumericsError):
            solve_phi_volterra(kernel, IntensitySpec.constant(1.0), 1.0, uniform_grid(0.1, 1.9, 60))

    def test_non_finite_solution_detected(self):
        # an infinite table cell, as `KernelSpec.tabulated` accepts, makes phi non-finite
        tg = np.array([0.5, 1.0, 2.0])
        sg = np.array([0.0, 0.5, 1.0, 2.0])
        vals = np.where(sg[None, :] <= tg[:, None], np.exp(sg[None, :] - tg[:, None]), 0.0)
        vals[1, 1] = np.inf
        kernel = KernelSpec.tabulated(tg, sg, vals)
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="not finite"):
            solve_phi_volterra(kernel, IntensitySpec.constant(1.0), 1.0, uniform_grid(0.5, 2.0, 4))

    def test_grid_validation(self):
        k = KernelSpec.indicator()
        inten = IntensitySpec.constant(1.0)
        with pytest.raises(ValidationError):
            solve_phi_volterra(k, inten, 1.0, np.array([0.0, 1.0]))  # starts at 0
        with pytest.raises(ValidationError):
            solve_phi_volterra(k, inten, 1.0, np.array([1.0, 0.5]))  # not increasing
        with pytest.raises(ValidationError):
            solve_phi_volterra(k, inten, 0.0, np.array([0.5, 1.0]))  # bad m1


class TestRateFreeSolve:
    """The solve finds psi = phi lambda, which does not depend on the rate, and returns psi / lambda."""

    def test_tilted_solve_is_the_rate_one_solve_over_the_rate(self):
        kernel, grid = KernelSpec.fractional(0.7), power_grid(5.0, 400)
        tilted = IntensitySpec.scaled_by_phi(1.0, 2.0, phi_fractional(0.7, 1.0))
        psi = solve_phi_volterra(kernel, IntensitySpec.constant(1.0), 1.0, grid)
        phi = solve_phi_volterra(kernel, tilted, 1.0, grid)
        assert np.array_equal(phi.nodes, psi.nodes)
        assert np.array_equal(phi.values, psi.values / tilted.rate_at(psi.nodes))

    def test_closed_form_over_the_rate_met_to_the_constant_rate_error(self):
        # psi = Gamma(3/2 - H) / Gamma(2 - 2H) s^(1/2 - H) / m1 under every rate;
        # on the benchmark's grid, over the span the solver advertises
        from fpp_lab.phi_solver import STARTUP_SPAN_FACTOR

        H, m1 = 0.7, 1.0
        kernel, grid = KernelSpec.fractional(H), np.linspace(0.00125, 5.0, 4000)
        psi = phi_fractional(H, m1)

        def error(intensity):
            phi = solve_phi_volterra(kernel, intensity, m1, grid)
            s = phi.nodes[phi.nodes >= STARTUP_SPAN_FACTOR * grid[0]]
            exact = psi(s) / intensity.rate_at(s)
            return np.abs(phi.values[-s.size :] / exact - 1.0).max()

        constant = error(IntensitySpec.constant(1.0))
        assert constant == pytest.approx(1.285e-3, abs=5e-7)
        assert error(IntensitySpec.scaled_by_phi(1.0, 2.0, psi)) == pytest.approx(constant, rel=1e-9)


def _tabulated_exp_kernel():
    tg = np.linspace(0.005, 2.0, 400)
    sg = np.linspace(0.0025, 2.0, 400)
    return KernelSpec.tabulated(tg, sg, np.exp(-(tg[:, None] - sg[None, :])))


class TestBlockedResiduals:
    # every grid's pieces span several blocks of Gauss pieces
    @pytest.mark.parametrize(
        "kernel, grid",
        [
            (KernelSpec.fractional(0.7), uniform_grid(0.005, 3.0, 600)),
            (KernelSpec.fractional(0.9), power_grid(3.0, 600)),
            (KernelSpec.exp_shot_noise(1.3), uniform_grid(1e-3, 2.0, 520)),
            (KernelSpec.indicator(), uniform_grid(0.01, 2.0, 300)),
            (_tabulated_exp_kernel(), uniform_grid(0.01, 1.9, 300)),
        ],
        ids=["fractional-0.7", "fractional-0.9", "exp", "indicator", "tabulated"],
    )
    def test_equals_per_panel_oracle(self, kernel, grid):
        inten, m1 = IntensitySpec.constant(1.5), 0.8
        phi = solve_phi_volterra(kernel, inten, m1, grid)
        assert phi.nodes.size - 1 > PANEL_BLOCK and (phi.nodes.size - 1) % PANEL_BLOCK != 0
        nodes = np.array([
            0.5 * phi.nodes[0],  # stub only
            phi.nodes[PANEL_BLOCK + 3],  # on a node
            0.5 * (grid[-3] + grid[-2]),
            phi.nodes[-1],
            1.25 * phi.nodes[-1],  # clamped extension
        ])
        got = np.array([kernel_phi_lambda_integral(float(t), inten, kernel, phi) for t in nodes])
        np.testing.assert_allclose(got, oracle_integrals(phi, kernel, inten, nodes), rtol=1e-10, atol=0.0)
        assert np.array_equal(volterra_residuals(phi, kernel, inten, m1, nodes), np.abs(m1 * got - nodes) / nodes)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_nodes_rejected(self, bad):
        kernel, inten = KernelSpec.fractional(0.7), IntensitySpec.constant(1.0)
        grid_phi = solve_phi_volterra(kernel, inten, 1.0, power_grid(2.0, 40))
        for phi in (grid_phi, phi_fractional(0.7, 1.0)):
            with pytest.raises(ValidationError):
                volterra_residuals(phi, kernel, inten, 1.0, np.array([1.0, bad]))


class TestPhiLambdaIntegral:
    def test_constant_intensity_closed_form(self):
        phi = phi_fractional(0.7, 1.0)
        inten = IntensitySpec.constant(1.0)
        t = 2.0
        want = phi.coefficient * t**0.8 / 0.8
        assert phi_lambda_integral(phi, inten, t) == pytest.approx(want, rel=1e-12)

    def test_scaled_intensity_quadrature(self):
        # lambda(s) = lam (1 + theta phi(s)) with phi = the same fractional phi:
        # int phi lambda = lam (int phi + theta int phi^2), both closed forms
        H, lam, theta = 0.7, 1.0, 0.5
        phi = phi_fractional(H, lam)
        inten = IntensitySpec.scaled_by_phi(lam, theta, phi)
        t = 2.0
        c = phi.coefficient
        want = lam * (
            c / lam * t ** (1.5 - H) / (1.5 - H)
            + theta * (c / lam) ** 2 * t ** (2.0 - 2.0 * H) / (2.0 - 2.0 * H)
        )
        assert phi_lambda_integral(phi, inten, t) == pytest.approx(want, rel=1e-8)

    def test_zero_time(self):
        assert phi_lambda_integral(phi_fractional(0.7, 1.0), IntensitySpec.constant(1.0), 0.0) == 0.0


class TestIntegralProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=3, max_size=8, unique=True),
        st.floats(min_value=0.0, max_value=12.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_integral_matches_dense_riemann(self, raw_nodes, t):
        nodes = np.sort(np.asarray(raw_nodes))
        rng = np.random.default_rng(int(nodes.sum() * 1000) % 2**31)
        values = rng.uniform(0.0, 3.0, nodes.size)
        phi = PhiFunction(kind="grid", nodes=nodes, values=values)
        got = phi.integral(t)
        s = np.linspace(0.0, max(t, 1e-9), 20001)
        from scipy.integrate import trapezoid

        riemann = trapezoid(np.interp(s, nodes, values), s) if t > 0 else 0.0
        assert got == pytest.approx(riemann, rel=2e-4, abs=2e-4)

    @given(st.floats(min_value=0.01, max_value=5.0), st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_integral_additivity(self, t1, dt):
        phi = phi_fractional(0.7, 1.3)
        lo, hi = min(t1, t1 + dt), t1 + dt
        assert phi.integral(hi) >= phi.integral(lo) - 1e-12  # nondecreasing


class TestGrids:
    def test_power_grid_shape(self):
        g = power_grid(5.0, 100)
        assert g.size == 100 and g[-1] == pytest.approx(5.0) and g[0] > 0
        assert np.all(np.diff(g) > 0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            power_grid(-1.0, 10)
        with pytest.raises(ValidationError):
            uniform_grid(0.0, 1.0, 10)
