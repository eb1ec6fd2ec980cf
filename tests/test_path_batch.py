"""The batched path engine against the per-replica code it replaced.

The oracles below are the per-replica implementations of `simulate`,
`eval_filtered` and `log_density` as they stood before the replica loops
moved to `PathBatch`, and the per-path form of the MLE's monotone Newton
iteration from theta = 0; the batched layers must reproduce them path by
path.
"""

from __future__ import annotations

import math
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpp_lab import (
    ConsistencyConfig,
    GirsanovCheckConfig,
    IntensitySpec,
    KernelSpec,
    MarkDistributionSpec,
    MarkedPath,
    PathBatch,
    PhiFunction,
    ValidationError,
    consistency_experiment,
    eval_compensated_batch,
    kernel_lambda_integral,
    log_density_batch,
    mle_solve_batch,
    phi_fractional,
    phi_lambda_integral,
    replica_blocks,
    simulate,
    simulate_batch,
    simulate_replicas,
    verify_equality_in_law,
    verify_tilted_law,
)
from fpp_lab import estimator, point_process
from fpp_lab.estimator import MAX_NEWTON_STEPS, THETA_TOL
from fpp_lab.girsanov import _compare_laws, _shifts
from fpp_lab.kernels import kernel_eval_at
from fpp_lab.point_process import SKIPPED_MASS_TOL

# -- oracles: the per-replica code -----------------------------------------


def oracle_majorant(intensity, horizon):
    if intensity.kind == "constant":
        return ((0.0, horizon, intensity.base_rate),)
    lo = horizon
    for _ in range(200):
        lo *= 0.5
        mass = intensity.base_rate * (lo + intensity.theta * intensity.phi_ref.integral(lo))
        if mass < SKIPPED_MASS_TOL:
            break
    n_levels = max(int(math.ceil(math.log2(horizon / lo))), 1)
    bounds = horizon * 0.5 ** np.arange(n_levels, -1, -1.0)
    return tuple((a, b, intensity.max_rate_on(a, b)) for a, b in zip(bounds[:-1], bounds[1:]))


def oracle_simulate(intensity, marks, horizon, seed):
    """Thinning segment by segment: count, sorted times, acceptance, marks last."""
    rng = np.random.default_rng(seed)
    kept = []
    for a, b, lam_max in oracle_majorant(intensity, float(horizon)):
        n = rng.poisson(lam_max * (b - a))
        if n == 0:
            continue
        t = np.sort(rng.uniform(a, b, n))
        accept = rng.uniform(0.0, 1.0, n) * lam_max < intensity.rate_at(t)
        if np.any(accept):
            kept.append(t[accept])
    times = np.concatenate(kept) if kept else np.empty(0)
    return MarkedPath(times, marks.sample(rng, times.size), horizon)


def oracle_filtered_terms(path, kernel, t):
    k = int(np.searchsorted(path.jump_times, t, side="right"))
    if t == 0 or k == 0:
        return np.empty(0), np.empty(0)
    return path.marks[:k], kernel_eval_at(kernel, t, path.jump_times[:k])


def oracle_eval_compensated(path, kernel, compensator, t):
    """The compensated value given m1 int_0^t K lambda, which depends on t alone."""
    if t == 0:
        return 0.0
    z, kv = oracle_filtered_terms(path, kernel, t)
    filtered = float(np.dot(z, kv)) if z.size else 0.0
    return filtered - compensator


def compensators(kernel, intensity, m1, times):
    return [m1 * kernel_lambda_integral(kernel, intensity, t) if t > 0 else 0.0 for t in times]


def oracle_log_terms(path, scale, phi, intensity, t):
    k = int(np.searchsorted(path.jump_times, t, side="right"))
    hv = scale * np.asarray(phi(path.jump_times[:k]), dtype=float) if k else np.empty(0)
    return np.log1p(hv), scale * phi_lambda_integral(phi, intensity, t)


def oracle_log_density(path, scale, phi, intensity, t):
    logs, integral = oracle_log_terms(path, scale, phi, intensity, t)
    return float(logs.sum()) - integral


def oracle_mle_solve(path, phi, intensity, t):
    """The exact root theta of S(theta) = sum phi_j / (1 + theta phi_j) = integral, or 0 if S(0) <= integral.

    phi_j are the float values of phi at the path's jumps up to t and
    integral is the float `phi_lambda_integral`, the library's own inputs;
    the root of those floats is found in mpmath at 50 digits and then rounded
    once.  A float Newton iteration from theta = 0 on the reciprocal score
    1/S - 1/integral, which is increasing and concave in theta, gives the
    start, and Newton steps on the same function in mpmath polish it.  (The
    float iterate alone missed a root near 1.9e-4 by 9.1e-13 relative, where
    the library was within 1.1e-13.)
    """
    k = int(np.searchsorted(path.jump_times, t, side="right"))
    pv = np.asarray(phi(path.jump_times[:k]), dtype=float) if k else np.empty(0)
    integral = phi_lambda_integral(phi, intensity, t)
    with mpmath.workdps(50):
        exact = [mpmath.mpf(float(v)) for v in pv]
        target = mpmath.mpf(integral)
        if mpmath.fsum(exact) <= target:
            return 0.0
        theta = mpmath.mpf(_float_newton_start(pv, integral))
        for _ in range(MAX_NEWTON_STEPS):
            ratio = [v / (1 + theta * v) for v in exact]
            s = mpmath.fsum(ratio)
            # -(1/S - 1/integral) / (1/S)', with (1/S)' = sum ratio^2 / S^2
            step = s * (s - target) / (target * mpmath.fsum(r * r for r in ratio))
            theta += step
            if abs(step) <= 1e-20 * abs(theta):  # Newton converges quadratically: the error left is near step^2
                return float(theta)
    raise AssertionError("the oracle did not converge")


def _float_newton_start(pv, integral):
    """Float Newton from theta = 0 on 1/S - 1/integral, stopping at or past the root."""
    s0 = float(pv.sum())
    theta = 0.0
    for _ in range(MAX_NEWTON_STEPS):
        ratio = pv / (1.0 + theta * pv)
        s = float(ratio.sum())
        g = s - integral
        if g <= 0.0:
            return theta
        step = s * g / (integral * float(np.square(ratio).sum()))
        theta += step
        if abs(step) <= THETA_TOL and abs(g) <= 1e-11 * max(1.0, s0):
            return theta
    raise AssertionError("the float start did not converge")


# -- strategies ------------------------------------------------------------

PHI = phi_fractional(0.7, 1.0)


def intensity_of(kind: str, rate: float, theta: float) -> IntensitySpec:
    if kind == "constant":
        return IntensitySpec.constant(rate)
    if kind == "fractional-phi":
        return IntensitySpec.constant(rate).tilted(theta, phi_fractional(0.7, rate))
    affine = PhiFunction(kind="grid", nodes=np.array([0.0, 10.0]), values=np.array([0.5, 2.0]))
    return IntensitySpec.constant(rate).tilted(theta, affine)


MARKS = {
    "unit": MarkDistributionSpec.unit(),
    "exponential": MarkDistributionSpec.exponential(1.3),
    "lognormal": MarkDistributionSpec.lognormal(0.2, 0.7),
}

paths = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["constant", "fractional-phi", "grid-phi"]),
        "rate": st.sampled_from([1e-3, 0.4, 1.0, 2.5]),  # 1e-3 gives zero-jump rows
        "theta": st.floats(0.0, 2.0),
        "marks": st.sampled_from(sorted(MARKS)),
        "horizon": st.floats(0.5, 12.0),
        "replicas": st.integers(1, 9),
        "seed": st.integers(0, 2**31),
    }
)


def batch_and_paths(p):
    intensity = intensity_of(p["kind"], p["rate"], p["theta"])
    marks = MARKS[p["marks"]]
    seeds = range(p["seed"], p["seed"] + p["replicas"])
    batch = simulate_batch(intensity, marks, p["horizon"], seeds)
    oracle = [oracle_simulate(intensity, marks, p["horizon"], s) for s in seeds]
    return intensity, marks, batch, oracle


class TestSimulateBatch:
    @settings(max_examples=60, deadline=None)
    @given(paths)
    def test_rows_equal_per_seed_thinning(self, p):
        _, _, batch, oracle = batch_and_paths(p)
        assert batch.replicas == p["replicas"]
        assert batch.jump_times.size == sum(path.count for path in oracle)
        for i, want in enumerate(oracle):
            got = batch.row(i)
            assert np.array_equal(got.jump_times, want.jump_times)
            assert np.array_equal(got.marks, want.marks)
            assert batch.describe(i) == f"replica {i} (seed {p['seed'] + i})"

    @pytest.mark.parametrize("horizon", [1.0, 50.0, 1000.0])
    @pytest.mark.parametrize("theta", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    def test_drift_regime_rows_equal_per_seed_thinning(self, H, theta, horizon):
        # the consistency run's tilted rate: dozens of small-mean segments, then means of 10 and more
        tilted = IntensitySpec.constant(1.0).tilted(theta, phi_fractional(H, 1.0))
        seed = int(1000 * H + 10 * theta + horizon)
        for name, marks in MARKS.items():
            batch = simulate_batch(tilted, marks, horizon, range(seed, seed + 3))
            for i in range(3):
                want = oracle_simulate(tilted, marks, horizon, seed + i)
                assert batch.row(i).jump_times.tobytes() == want.jump_times.tobytes()
                assert batch.row(i).marks.tobytes() == want.marks.tobytes()

    def test_zero_jump_rows_and_one_row(self):
        inten = IntensitySpec.constant(1e-3)
        batch = simulate_batch(inten, MARKS["lognormal"], 1.0, range(40, 52), first_replica=7)
        assert (batch.counts == 0).sum() >= 11
        for i in range(batch.replicas):
            want = oracle_simulate(inten, MARKS["lognormal"], 1.0, 40 + i)
            assert np.array_equal(batch.row(i).jump_times, want.jump_times)
        one = simulate_batch(inten, MARKS["lognormal"], 1.0, [40])
        assert one.replicas == 1 and one.offsets.tolist() == [0, 0]
        assert simulate_batch(inten, MARKS["lognormal"], 1.0, []).replicas == 0
        assert batch.describe(3) == "replica 10 (seed 43)"

    def test_validation(self):
        t = np.array([0.5, 1.0, 0.2, 0.7])
        z = np.ones(4)
        PathBatch(t, z, np.array([0, 2, 2, 4]), 1.0)  # rows restart, an empty row between
        bad = [
            (t, z, np.array([0, 3, 4]), 1.0),  # decreasing inside a row
            (t, z, np.array([0, 2, 5]), 1.0),  # offsets beyond the jumps
            (t, z, np.array([0, 3, 2, 4]), 1.0),  # offsets decreasing
            (t, z, np.array([0, 2, 4]), 0.9),  # a jump beyond the horizon
            (t, -z, np.array([0, 2, 4]), 1.0),  # negative marks
            (t, z[:3], np.array([0, 2, 4]), 1.0),  # marks shorter than times
        ]
        for args in bad:
            with pytest.raises(ValidationError):
                PathBatch(*args)
        with pytest.raises(ValidationError):
            PathBatch(t, z, np.array([0, 2, 4]), 1.0, seeds=np.array([1, 2, 3]))


class TestReplicaBlocks:
    @pytest.mark.parametrize("replicas,jumps", [(1, 5.0), (2000, 5.0), (1000, 1250.0), (7, 1e9), (10, 0.0)])
    def test_blocks_cover_replicas_in_order(self, replicas, jumps):
        blocks = list(replica_blocks(replicas, jumps))
        assert blocks[0].start == 0 and blocks[-1].stop == replicas
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        size = blocks[0].stop - blocks[0].start
        assert size == max(1, min(replicas, int(point_process.JUMP_BLOCK // max(jumps, 1.0))))
        assert all(0 < b.stop - b.start <= size for b in blocks)


class TestSimulateReplicas:
    def test_blocks_hold_the_per_seed_paths(self, monkeypatch):
        # 2.5 expected jumps per replica and 10 per block: blocks of 4, 4 and a short 2
        monkeypatch.setattr(point_process, "JUMP_BLOCK", 10)
        inten, marks = IntensitySpec.constant(1.25), MARKS["exponential"]
        blocks = list(simulate_replicas(inten, marks, 2.0, 10, 70))
        assert [(rows.start, rows.stop) for rows, _ in blocks] == [(0, 4), (4, 8), (8, 10)]
        for rows, batch in blocks:
            assert batch.replicas == rows.stop - rows.start and batch.first_replica == rows.start
            assert batch.seeds.tolist() == list(range(70 + rows.start, 70 + rows.stop))
            for j, i in enumerate(range(rows.start, rows.stop)):
                want = simulate(inten, marks, 2.0, 70 + i)
                assert np.array_equal(batch.row(j).jump_times, want.jump_times)
                assert np.array_equal(batch.row(j).marks, want.marks)
                assert batch.describe(j) == f"replica {i} (seed {70 + i})"

    def test_keeps_no_yielded_batch(self):
        blocks = simulate_replicas(IntensitySpec.constant(2.0), MARKS["unit"], 5.0, 30, 1)
        _, batch = next(blocks)
        ref = weakref.ref(batch)
        del batch
        assert ref() is None

    def test_preflight_rejects_before_drawing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(point_process, "simulate_batch", lambda *args: drawn.append(args))
        blocks = simulate_replicas(IntensitySpec.constant(1e300), MARKS["unit"], 5.0, 3, 0)
        with pytest.raises(ValidationError, match="expected jump count"):
            next(blocks)
        assert drawn == []


class TestBatchedLayers:
    @settings(max_examples=40, deadline=None)
    @given(paths, st.sampled_from(["fractional", "exp_shot_noise", "indicator"]))
    @example(  # the compensator's rule once failed across the affine phi's kink at s = 10
        {
            "kind": "grid-phi",
            "rate": 0.001,
            "theta": 1.0,
            "marks": "exponential",
            "horizon": 10.4765625,
            "replicas": 1,
            "seed": 0,
        },
        "exp_shot_noise",
    )
    def test_compensated_values(self, p, kernel_kind):
        kernel = {
            "fractional": KernelSpec.fractional(0.7),
            "exp_shot_noise": KernelSpec.exp_shot_noise(0.8),
            "indicator": KernelSpec.indicator(),
        }[kernel_kind]
        intensity, marks, batch, oracle = batch_and_paths(p)
        times = (0.0, 0.3 * p["horizon"], p["horizon"])
        for t, compensator in zip(times, compensators(kernel, intensity, marks.mean, times)):
            got = eval_compensated_batch(batch, kernel, intensity, marks.mean, t)
            for i, path in enumerate(oracle):
                want = oracle_eval_compensated(path, kernel, compensator, t)
                z, kv = oracle_filtered_terms(path, kernel, t)
                if p["marks"] == "unit" and z.size < 16:
                    # bincount adds left to right; so does BLAS ddot below 16
                    # terms, and a unit mark makes its fused multiply-add exact
                    assert got[i] == want
                else:
                    assert abs(got[i] - want) <= 1e-14 * (np.dot(z, kv) + 1.0)

    @settings(max_examples=40, deadline=None)
    @given(paths, st.floats(0.0, 1.5))
    def test_log_densities(self, p, scale):
        intensity, _, batch, oracle = batch_and_paths(p)
        for t in (0.5 * p["horizon"], p["horizon"]):
            got = log_density_batch(batch, scale, PHI, intensity, t)
            for i, path in enumerate(oracle):
                logs, integral = oracle_log_terms(path, scale, PHI, intensity, t)
                want = oracle_log_density(path, scale, PHI, intensity, t)
                assert abs(got[i] - want) <= 1e-14 * (np.abs(logs).sum() + abs(integral))

    @settings(max_examples=40, deadline=None)
    @given(paths, st.sampled_from(["fractional", "constant"]))
    @example(  # one jump by t = 0.99999 and a root near 1e-5, which plain Newton missed by 1e-11 relative
        {
            "kind": "constant",
            "rate": 0.4,
            "theta": 0.0,
            "marks": "exponential",
            "horizon": 0.99999,
            "replicas": 1,
            "seed": 4,
        },
        "constant",
    )
    @example(  # 5 jumps by t = horizon and a root near 1.9e-4, which the float oracle missed by 9.1e-13 relative
        {
            "kind": "fractional-phi",
            "rate": 0.001,
            "theta": 1.5,
            "marks": "exponential",
            "horizon": 4.650963530970591,
            "replicas": 1,
            "seed": 19715777,
        },
        "fractional",
    )
    def test_mle(self, p, phi_kind):
        phi = PHI if phi_kind == "fractional" else PhiFunction.constant(1.0)
        base = IntensitySpec.constant(1.0)
        _, _, batch, oracle = batch_and_paths(p)
        times = p["horizon"] * np.array([0.1, 0.35, 0.6, 1.0])
        got, counts = mle_solve_batch(batch, phi, base, times)
        for i, path in enumerate(oracle):
            assert counts[i].tolist() == np.searchsorted(path.jump_times, times, side="right").tolist()
            for k, t in enumerate(times):
                want = oracle_mle_solve(path, phi, base, t)
                assert abs(got[i, k] - want) <= 1e-12 * abs(want)

    def test_mle_over_drift_paths_blocked(self, monkeypatch):
        # lanes split into many blocks, one lane alone in some of them
        monkeypatch.setattr(estimator, "JUMP_BLOCK", 500)
        perturbed = IntensitySpec.constant(1.0).tilted(1.0, PHI)
        base = IntensitySpec.constant(1.0)
        times = np.array([5.0, 60.0, 150.0, 400.0])
        batch = simulate_batch(perturbed, MARKS["unit"], 400.0, range(300, 317))
        got, _ = mle_solve_batch(batch, PHI, base, times)
        for i in range(batch.replicas):
            for k, t in enumerate(times):
                want = oracle_mle_solve(batch.row(i), PHI, base, t)
                assert abs(got[i, k] - want) <= 1e-12 * abs(want)


def oracle_law_samples(cfg, scale, phi, tilted=None):
    """(logw, x, y) by the per-replica loop under the shift h = scale * phi; y is None without a tilted intensity."""
    horizon = max(cfg.eval_times)
    comp = compensators(cfg.kernel, cfg.intensity, cfg.marks.mean, cfg.eval_times)
    logw, x, y = [], [], []
    for i in range(cfg.replicas):
        path = oracle_simulate(cfg.intensity, cfg.marks, horizon, cfg.seed + i)
        logw.append(oracle_log_density(path, scale, phi, cfg.intensity, horizon))
        x.append([oracle_eval_compensated(path, cfg.kernel, c, t) for t, c in zip(cfg.eval_times, comp)])
        if tilted is not None:
            ref = oracle_simulate(tilted, cfg.marks, horizon, cfg.seed + cfg.replicas + i)
            y.append([oracle_eval_compensated(ref, cfg.kernel, c, t) for t, c in zip(cfg.eval_times, comp)])
    return np.array(logw), np.array(x), (np.array(y) if tilted is not None else None)


def assert_reports_close(got, want):
    for key, value in want.to_dict().items():
        for a, b in zip(np.ravel(got.to_dict()[key]), np.ravel(value)):
            if isinstance(b, (float, np.floating)):
                assert abs(a - b) <= 1e-12 * abs(b) + 1e-15, key
            else:
                assert a == b, key


class TestReplicaLoops:
    """The experiments' blocked loops against the per-replica loop, over several blocks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 2000 expected jumps per block: 1 001 law-check replicas make blocks of
        # 400, 400 and 201 (329, 329, 329 and 14 at the tilted rate)
        monkeypatch.setattr(point_process, "JUMP_BLOCK", 2000)
        monkeypatch.setattr(estimator, "JUMP_BLOCK", 2000)

    def law_config(self, replicas=1001):
        return GirsanovCheckConfig(
            kernel=KernelSpec.fractional(0.7),
            scale=0.3,
            intensity=IntensitySpec.constant(1.0),
            marks=MarkDistributionSpec.unit(),
            eval_times=(1.0, 3.0, 5.0),
            replicas=replicas,
            seed=123,
        )

    def test_equality_in_law(self):
        cfg = self.law_config()
        logw, x, _ = oracle_law_samples(cfg, cfg.scale, PHI)
        want = _compare_laws(cfg, _shifts(cfg, PHI), logw, x, x - np.array(_shifts(cfg, PHI)))
        assert_reports_close(verify_equality_in_law(cfg, PHI), want)

    def test_tilted_law(self):
        cfg = self.law_config()
        tilted = IntensitySpec.constant(1.0).tilted(cfg.scale, PHI)
        logw, x, y = oracle_law_samples(cfg, cfg.scale, PHI, tilted)
        want = _compare_laws(cfg, _shifts(cfg, PHI), logw, x, y)
        assert_reports_close(verify_tilted_law(cfg, PHI), want)

    def test_consistency(self):
        cfg = ConsistencyConfig(
            intensity=IntensitySpec.constant(1.0),
            theta_true=1.0,
            horizons=(20.0, 45.0, 80.0),
            replicas=37,  # 112.5 expected jumps per replica: blocks of 17, 17 and 3
            seed=51,
            marks=MarkDistributionSpec.unit(),
        )
        perturbed = IntensitySpec.constant(1.0).tilted(1.0, PHI)
        paths = [oracle_simulate(perturbed, cfg.marks, 80.0, cfg.seed + i) for i in range(cfg.replicas)]
        est = np.array([[oracle_mle_solve(p, PHI, cfg.intensity, t) for t in cfg.horizons] for p in paths])
        report = consistency_experiment(cfg, PHI)
        rmse = np.sqrt(np.square(est - 1.0).mean(axis=0))
        mae = np.abs(est - 1.0).mean(axis=0)
        assert np.allclose(report.rmse, rmse, rtol=1e-12, atol=0)
        assert np.allclose(report.mae, mae, rtol=1e-12, atol=0)
