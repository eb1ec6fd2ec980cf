"""Marked Poisson process simulation and intensity bookkeeping.

The process has intensity measure lambda(s) ds eta(dz) with eta a
probability law on the positive reals, so a realization is a strictly
increasing sequence of jump times with i.i.d. positive marks attached.
Simulation uses thinning against a piecewise-constant majorant of the
rate; for phi-scaled intensities, whose rate diverges at the origin like
s^(1/2-H), the majorant is built on dyadic segments refined toward zero
until the expected count in the uncovered stub is below 1e-9.

`simulate_batch` is the one sampler: it draws one path per seed into a
`PathBatch`, the jumps of many replicas in flat arrays with CSR offsets,
and `simulate` is its one-row form.  Each seed's stream is the one that a
`Generator.poisson` and a `Generator.random` call per majorant segment
consume; the leading segments of mean below 10, whose counts numpy draws
by multiplying uniforms, are read from one block of uniforms per seed
(`_small_mean_draws`), with the same draws.  Replica loops take their
paths from `simulate_replicas`, the one place that maps replica i to its
seed, in blocks, so that each layer above makes one vectorized call per
block instead of one per replica.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import NumericsError, ValidationError
from .serialize import write_csv

if TYPE_CHECKING:  # pragma: no cover
    from .phi_solver import PhiFunction

#: expected number of jumps tolerated in the uncovered stub near t = 0
SKIPPED_MASS_TOL = 1e-9

#: expected jumps per block of replicas in the batched replica loops, and
#: (lane, jump) terms per block of the lane-wise MLE; fixed so that the
#: per-block arrays, and with them peak memory, stay small however many
#: replicas a run asks for (the counterpart of kernels.PANEL_BLOCK; on the
#: drift-consistency benchmark 2**16 added 7.7 MB to the peak RSS, 2**14 cost
#: a quarter of the run time in per-block overhead)
JUMP_BLOCK = 2**15

#: pre-flight cap on replicas x max(Lambda(horizon), 1) at the intensity drawn at: more than
#: 100x the largest run in the tests and the benchmark (1000 replicas x 1000 expected jumps)
MAX_REPLICA_JUMPS = 1e9

#: the largest mean `numpy.random.Generator.poisson` accepts
POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)
#: `Generator.poisson` draws a mean below this by the multiplication method
POISSON_MULT_MAX = 10.0


@dataclass(frozen=True)
class MarkDistributionSpec:
    """Law of the marks: unit, exponential, or lognormal, all positive.

    ``mean`` always holds the analytic first moment m1 = int z eta(dz).
    """

    kind: str
    mean: float
    mu: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("unit", "exponential", "lognormal"):
            raise ValidationError(f"unknown mark distribution kind {self.kind!r}")
        if not self.mean > 0:
            raise ValidationError(f"mark mean must be positive, got {self.mean}")

    @classmethod
    def unit(cls) -> "MarkDistributionSpec":
        return cls(kind="unit", mean=1.0)

    @classmethod
    def exponential(cls, mean: float) -> "MarkDistributionSpec":
        return cls(kind="exponential", mean=float(mean))

    @classmethod
    def lognormal(cls, mu: float, sigma: float) -> "MarkDistributionSpec":
        if sigma < 0:
            raise ValidationError(f"lognormal sigma must be >= 0, got {sigma}")
        log_mean = mu + 0.5 * sigma * sigma
        if not log_mean <= math.log(np.finfo(float).max):
            raise ValidationError(f"lognormal mean exp(mu + sigma^2/2) overflows for mu={mu}, sigma={sigma}")
        mean = math.exp(log_mean)
        return cls(kind="lognormal", mean=mean, mu=mu, sigma=sigma)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "unit":
            return np.ones(n)
        if self.kind == "exponential":
            return rng.exponential(self.mean, n)
        return rng.lognormal(self.mu, self.sigma, n)


def require_tilt(theta: float) -> None:
    """Raise ValidationError unless theta >= 0, the rule of a tilt (1 + theta phi) lambda; needs no phi."""
    if theta < 0:
        raise ValidationError(f"theta must be >= 0, got {theta}")


def require_times(times, name: str, at_least: int, horizon: float | None = None) -> np.ndarray:
    """`times` as a float array; raises ValidationError unless it is 1-d and holds at least
    `at_least` (>= 1) finite, strictly increasing, positive times, none past `horizon`."""
    t = np.asarray(times, dtype=float)
    if not (
        t.ndim == 1 and t.size >= at_least and t[0] > 0 and t[-1] < math.inf
        and (horizon is None or t[-1] <= horizon) and np.all(np.diff(t) > 0)
    ):
        past = "" if horizon is None else f" up to the horizon {horizon}"
        raise ValidationError(f"{name} must be >= {at_least} strictly increasing finite positive times{past}")
    return t


@dataclass(frozen=True)
class IntensitySpec:
    """Deterministic rate lambda(s): constant, or base_rate * (1 + theta*phi(s))."""

    kind: str
    base_rate: float
    theta: float = 0.0
    phi_ref: "PhiFunction | None" = None

    def __post_init__(self):
        if self.kind not in ("constant", "scaled-by-phi"):
            raise ValidationError(f"unknown intensity kind {self.kind!r}")
        if not self.base_rate > 0:
            raise ValidationError(f"base_rate must be positive, got {self.base_rate}")
        if self.kind == "scaled-by-phi":
            require_tilt(self.theta)
            if self.phi_ref is None:
                raise ValidationError("scaled-by-phi intensity requires phi_ref")

    @classmethod
    def constant(cls, base_rate: float) -> "IntensitySpec":
        return cls(kind="constant", base_rate=float(base_rate))

    def tilted(self, theta: float, phi: "PhiFunction") -> "IntensitySpec":
        """(1 + theta phi) lambda, the one constructor of a tilt; only a constant base has one."""
        if self.kind != "constant":
            raise ValidationError(f"the intensity tilt requires a constant base intensity; got kind {self.kind!r}")
        return IntensitySpec("scaled-by-phi", self.base_rate, float(theta), phi)

    @property
    def origin_exponent(self) -> float:
        """e with lambda(s) = O(s^(-e)) near 0: phi_ref's exponent for phi-scaled rates."""
        return self.phi_ref.origin_exponent if self.kind == "scaled-by-phi" else 0.0

    def rate_at(self, s):
        """lambda(s); accepts scalars or arrays."""
        if self.kind == "constant":
            return np.full(np.shape(s), self.base_rate)
        return self.base_rate * (1.0 + self.theta * self.phi_ref(s))

    def max_rate_on(self, a: float, b: float) -> float:
        """A finite upper bound of a phi-scaled lambda on [a, b], used by thinning."""
        sup_phi = self.phi_ref.sup_on(a, b)
        bound = self.base_rate * (1.0 + self.theta * sup_phi)
        if not math.isfinite(bound):
            raise NumericsError(f"lambda_max cannot be established on [{a}, {b}]")
        return bound


@dataclass(frozen=True)
class MarkedPath:
    """One realization: sorted jump times with marks, on [0, horizon].

    The arrays are validated, as the one-row `PathBatch` of the path, unless
    ``check`` is false, which the constructors whose input is valid by
    construction pass.
    """

    jump_times: np.ndarray
    marks: np.ndarray
    horizon: float
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        t = np.asarray(self.jump_times, dtype=float)
        z = np.asarray(self.marks, dtype=float)
        object.__setattr__(self, "jump_times", t)
        object.__setattr__(self, "marks", z)
        if check:
            PathBatch(t, z, [0, t.size], self.horizon)

    @property
    def count(self) -> int:
        return int(self.jump_times.size)

    def to_csv(self, path) -> None:
        write_csv(path, "t,z", (self.jump_times, self.marks))


@dataclass(frozen=True)
class PathBatch:
    """Paths of several replicas in CSR layout, on a common [0, horizon].

    Row i holds ``jump_times[offsets[i]:offsets[i + 1]]`` with the marks at
    the same positions.  ``seeds`` (if known) gives each row's seed and
    ``first_replica`` the replica number of row 0, so errors can name the
    replica that reproduces them.  The arrays are validated unless
    ``check`` is false; this is the one validation of path arrays, which
    `MarkedPath` runs on its one-row batch.
    """

    jump_times: np.ndarray
    marks: np.ndarray
    offsets: np.ndarray
    horizon: float
    seeds: np.ndarray | None = None
    first_replica: int = 0
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        t = np.asarray(self.jump_times, dtype=float)
        z = np.asarray(self.marks, dtype=float)
        off = np.asarray(self.offsets, dtype=np.intp)
        object.__setattr__(self, "jump_times", t)
        object.__setattr__(self, "marks", z)
        object.__setattr__(self, "offsets", off)
        if not check:
            return
        if t.shape != z.shape or t.ndim != 1:
            raise ValidationError("jump_times and marks must be 1-d arrays of equal length")
        if off.ndim != 1 or off.size < 2 or off[0] != 0 or off[-1] != t.size or np.any(np.diff(off) < 0):
            raise ValidationError("offsets must run nondecreasing from 0 to the number of jumps")
        if not self.horizon > 0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        if self.seeds is not None and np.size(self.seeds) != off.size - 1:
            raise ValidationError("need one seed per row")
        if t.size:
            if not (t.min() > 0 and t.max() <= self.horizon):
                raise ValidationError("jump times must lie in (0, horizon]")
            row_start = np.zeros(t.size, dtype=bool)
            row_start[off[:-1][off[:-1] < t.size]] = True
            if not np.all((np.diff(t) > 0) | row_start[1:]):
                raise ValidationError("jump times must be strictly increasing within a row")
            if not np.all(z > 0):
                raise ValidationError("marks must be positive")

    @classmethod
    def from_path(cls, path: MarkedPath) -> "PathBatch":
        """The one-row batch of a path."""
        return cls(path.jump_times, path.marks, np.array([0, path.count]), path.horizon, check=False)

    @property
    def replicas(self) -> int:
        return self.offsets.size - 1

    @property
    def counts(self) -> np.ndarray:
        """Jumps per row."""
        return self.offsets[1:] - self.offsets[:-1]

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of every jump, the index that `np.bincount` reduces by."""
        return np.repeat(np.arange(self.replicas), self.counts)

    def row(self, i: int) -> MarkedPath:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return MarkedPath(self.jump_times[lo:hi], self.marks[lo:hi], self.horizon, check=False)

    def check_time(self, t: float) -> None:
        """Raise ValidationError unless 0 <= t <= horizon, the times the rows are defined at."""
        if not 0 <= t <= self.horizon:
            raise ValidationError(f"t={t} outside [0, horizon={self.horizon}]")

    def describe(self, i: int) -> str:
        """'replica <n> (seed <s>)' for row i, for error messages."""
        name = f"replica {self.first_replica + i}"
        return name if self.seeds is None else f"{name} (seed {int(self.seeds[i])})"


@lru_cache(maxsize=64)
def _thinning_majorant(intensity: IntensitySpec, horizon: float) -> tuple:
    """(rows a, b - a, lambda_max; means lambda_max (b - a); floors; block) of the majorant's segments.

    Constant rate needs a single segment.  Phi-scaled rates get dyadic
    segments refined toward 0 until the expected count below the first
    boundary is negligible; that stub is then skipped.  ``floors`` holds
    exp(-mean) of the leading run of segments with 0 < mean <
    POISSON_MULT_MAX when that run has at least 2 segments (else it is
    empty), and ``block`` the uniforms `_small_mean_draws` draws for them at
    first: the run's expected use plus 5 standard deviations of its count.
    The segments depend only on (intensity, horizon), so they are built once
    and shared by every path simulated with them.  Raises ValidationError
    before any segment is built when `expected_jumps` rejects the horizon,
    and after when a segment's mean is beyond what a Poisson draw accepts.
    """
    expected_jumps(intensity, horizon)
    if intensity.kind == "constant":
        segments = [(0.0, horizon, intensity.base_rate)]
    else:
        lo = horizon
        for _ in range(200):
            lo *= 0.5
            if integrated_intensity(intensity, lo) < SKIPPED_MASS_TOL:
                break
        else:  # pragma: no cover - phi with non-integrable origin would fail earlier
            raise NumericsError("could not refine thinning segments near t = 0")
        n_levels = max(int(math.ceil(math.log2(horizon / lo))), 1)
        bounds = horizon * 0.5 ** np.arange(n_levels, -1, -1.0)
        segments = [(a, b, intensity.max_rate_on(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]
    a, b, lam = (np.array(col, dtype=float) for col in zip(*segments))
    means = lam * (b - a)
    if not means.max() <= POISSON_MEAN_MAX:
        raise ValidationError(f"thinning majorant on [0, {horizon}] is beyond what a Poisson draw accepts")
    segments = np.stack([a, b - a, lam])
    segments.setflags(write=False)  # shared by every caller of the cache
    means = tuple(means.tolist())
    lead = next((k for k, m in enumerate(means) if not 0.0 < m < POISSON_MULT_MAX), len(means))
    # one segment keeps its one `poisson` call: replaying it measured slower
    floors = tuple(math.exp(-m) for m in means[:lead]) if lead >= 2 else ()
    mass = sum(means[: len(floors)])
    block = len(floors) + 3 * math.ceil(mass + 5.0 * math.sqrt(mass) + 1.0)
    return segments, means, floors, block


def _small_mean_draws(rng: np.random.Generator, floors: tuple, block: int) -> list:
    """(segment, count n, uniforms) of the segments whose exp(-mean) is in ``floors``, for n > 0.

    numpy draws a Poisson count of mean below POISSON_MULT_MAX by the
    multiplication method: it multiplies uniforms until the running product
    is no longer above exp(-mean), so a count n takes n + 1 uniforms.  Each
    segment then takes 2 n uniforms, its times and acceptance draws.  This
    replays that on one `rng.random(block)` block, doubled whenever it runs
    out, and returns each segment's 2 n uniforms as a view of the block.
    The generator is then stepped back over the uniforms not used, so the
    draws, and the stream after them, are those of a `poisson` and a
    `random(2 n)` call per segment.
    """
    u = rng.random(block)
    while True:
        vals, drawn, pos = u.tolist(), [], 0
        try:
            for k, floor in enumerate(floors):
                prod = vals[pos]
                pos += 1
                n = 0
                while prod > floor:
                    n += 1
                    prod *= vals[pos]
                    pos += 1
                if n:
                    drawn.append((k, n, u[pos : pos + 2 * n]))
                    pos += 2 * n
        except IndexError:  # the block ran out within a count
            pos = math.inf
        if pos <= u.size:  # else it ran out within times or acceptance draws
            break
        u = np.concatenate((u, rng.random(u.size)))
    if pos < u.size:
        rng.bit_generator.advance(2**128 - (u.size - pos))  # back over the unused uniforms
    return drawn


def expected_jumps(intensity: IntensitySpec, horizon: float, replicas: int = 1) -> float:
    """Lambda(horizon), the expected jump count of one path.

    Raises ValidationError when it is not finite or beyond the largest mean
    `Generator.poisson` accepts, where thinning could not draw it, or when
    replicas x max(Lambda(horizon), 1) exceeds MAX_REPLICA_JUMPS.
    """
    with np.errstate(over="ignore"):  # an overflowed mass is rejected below
        mass = integrated_intensity(intensity, horizon)
    if not mass <= POISSON_MEAN_MAX:
        raise ValidationError(
            f"expected jump count {mass:.6g} on [0, {horizon}] is beyond what a Poisson "
            f"draw accepts ({POISSON_MEAN_MAX:.6g})"
        )
    jumps = max(mass, 1.0)
    # replicas first: an int beyond the float range cannot multiply a float
    if replicas > MAX_REPLICA_JUMPS or not replicas * jumps <= MAX_REPLICA_JUMPS:
        raise ValidationError(
            f"replicas x expected jump count ({replicas} x {jumps:.6g}) exceeds "
            f"the pre-flight cap {MAX_REPLICA_JUMPS:.3g}"
        )
    return mass


def replica_blocks(replicas: int, jumps_per_replica: float) -> Iterator[slice]:
    """Consecutive replica slices of about JUMP_BLOCK expected jumps each (at least one replica)."""
    size = max(1, int(JUMP_BLOCK // max(jumps_per_replica, 1.0)))
    for lo in range(0, replicas, size):
        yield slice(lo, min(lo + size, replicas))


def simulate_batch(
    intensity: IntensitySpec,
    marks: MarkDistributionSpec,
    horizon: float,
    seeds,
    first_replica: int = 0,
) -> PathBatch:
    """Draw one path per seed by thinning; row i is the path of the stream seeds[i].

    Each row has its own PCG64 stream, consumed in time order: per majorant
    segment a Poisson count n, then n uniform times and n uniform acceptance
    draws (one `random(2 n)` call gives both, bit for bit the draws of
    `uniform(a, b, n)` then `uniform(0, 1, n)`), and the marks last.  The
    leading run of segments with mean below POISSON_MULT_MAX, when it has
    at least 2 segments, is read from one block of uniforms by
    `_small_mean_draws`, which replays numpy's multiplication method for
    the counts and leaves the generator where those calls would; the later
    segments make the `poisson` and `random` calls themselves.  Each
    non-empty (row, segment) group repeats its segment's (a, b - a,
    lambda_max) over its candidates, which build their times a + (b - a) u
    and thresholds u lambda_max in place; the acceptance
    test u lambda_max < lambda(t) is one `rate_at` call on the candidates
    of all rows.  Candidates of consecutive segments lie in consecutive
    intervals, so sorting a row's candidates at once pairs each acceptance
    draw with the time a per-segment sort would give it.  The marks are
    drawn for every candidate and each row keeps the first ones it needs;
    the samplers draw value by value and nothing is drawn after them, so the
    kept marks are those a draw of the exact count gives.
    """
    if not horizon > 0:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    seeds = [int(s) for s in seeds]
    segments, means, floors, block = _thinning_majorant(intensity, float(horizon))
    later = list(enumerate(means))[len(floors) :]
    # each list starts with an empty piece: one concatenate then takes any number of pieces
    time_draws, accept_draws, mark_draws = [np.empty(0)], [np.empty(0)], [np.empty(0)]
    group_n, group_seg, candidates = [], [], []  # per non-empty (row, segment); per row
    for seed in seeds:
        rng = np.random.default_rng(seed)
        drawn = _small_mean_draws(rng, floors, block) if floors else []
        for k, mean in later:
            n = rng.poisson(mean)
            if n:
                drawn.append((k, n, rng.random(2 * n)))
        c = 0
        for k, n, u in drawn:
            time_draws.append(u[:n])
            accept_draws.append(u[n:])
            group_n.append(n)
            group_seg.append(k)
            c += n
        if marks.kind != "unit":  # unit marks draw nothing
            mark_draws.append(marks.sample(rng, c))
        candidates.append(c)
    # one (3, N) array and no index array: as three 1-d arrays, a warm drift-consistency run
    # took ~25 000 minor page faults instead of ~5, as glibc's mmap threshold follows the
    # largest freed block
    a, width, lam = np.repeat(segments[:, group_seg], group_n, axis=1)
    t = np.concatenate(time_draws)
    t *= width
    t += a
    del a, width
    ends = np.cumsum(candidates, dtype=np.intp)
    lo = 0
    for hi in ends.tolist():
        t[lo:hi].sort()
        lo = hi
    threshold = np.concatenate(accept_draws)
    threshold *= lam
    del lam, time_draws, accept_draws
    accept = threshold < intensity.rate_at(t)
    del threshold
    kept = np.flatnonzero(accept)
    del accept
    times = t[kept]
    offsets = np.concatenate(([0], np.searchsorted(kept, ends)))
    if marks.kind == "unit":
        z = np.ones(times.size)
    else:
        keep = np.arange(t.size) < np.repeat(offsets[1:] - offsets[:-1] + ends - candidates, candidates)
        z = np.concatenate(mark_draws)[keep]
    return PathBatch(times, z, offsets, float(horizon), np.array(seeds), first_replica, check=False)


def simulate_replicas(
    intensity: IntensitySpec,
    marks: MarkDistributionSpec,
    horizon: float,
    replicas: int,
    seed: int,
) -> Iterator[tuple[slice, PathBatch]]:
    """(rows, batch) blocks of about JUMP_BLOCK expected jumps holding replicas 0, ..., replicas - 1.

    Replica i draws from the stream `seed + i`.  `expected_jumps` rejects the
    run, MAX_REPLICA_JUMPS counted at this intensity, before anything is drawn.  No batch is kept after it is yielded, so
    a caller that drops each one holds one block in memory at a time.
    """
    for rows in replica_blocks(replicas, expected_jumps(intensity, horizon, replicas)):
        seeds = range(seed + rows.start, seed + rows.stop)
        yield rows, simulate_batch(intensity, marks, horizon, seeds, rows.start)


def simulate(
    intensity: IntensitySpec,
    marks: MarkDistributionSpec,
    horizon: float,
    seed: int,
) -> MarkedPath:
    """Draw one path of the marked point process by thinning: one row of `simulate_batch`."""
    return simulate_batch(intensity, marks, horizon, [seed]).row(0)


def integrated_intensity(intensity: IntensitySpec, t: float) -> float:
    """int_0^t lambda(s) ds, analytically for both supported intensity kinds."""
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    if intensity.kind == "constant":
        return intensity.base_rate * t
    return intensity.base_rate * (t + intensity.theta * intensity.phi_ref.integral(t))
