"""Gillespie simulation, empirical measure/flow pairs, rare-event estimators.

RNG discipline (documented so seeds are portable): the bit generator is
numpy's counter-based Philox (identifier "numpy-philox4x64"), keyed through
SeedSequence. A trajectory reads its stream in blocks of uniforms and
consumes them in a fixed order: one for each exponential holding time via
inverse CDF -log1p(-u)/r(x), then one for the jump target by upper-bound
search on the cumulative rate row; the final censored holding time consumes
its uniform but no target. A block is one array of uniforms whose even
columns are turned into the holding-time exponentials -log1p(-u) in place
(numpy's log1p); both the single-path recorder and the batch kernel read
those same values. A path that outruns its block continues from the same
stream at counter start/4, start being the uniforms drawn so far, so the
path does not depend on the block size. An estimator's first chunk draws
blocks sized by T max r; each later chunk sizes them by the longest path of
the chunk before.

A stream is fixed by its 128-bit Philox key alone, the key
Philox(SeedSequence(entropy)) takes: SeedSequence(entropy).generate_state(2,
np.uint64). simulate keys its path with SeedSequence(seed); batch
estimators key sample i with SeedSequence((master_seed, horizon_index, i)).
The estimators compute the keys of a whole chunk at once with numpy uint32
arithmetic, a copy of SeedSequence's hash (stable across numpy versions by
NEP 19), and fill the chunk's rows from one Philox whose state is reset to
each row's key. Samples advance in chunks, in lockstep; every sample is a
pure function of its key, so results do not depend on chunk size and merges
are order-independent. Seeds and stream indices are non-negative integers,
and an estimate draws at most 2**32 samples (one 32-bit word of sample
index).
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import (
    ChainSpec,
    Flow,
    ProbabilityMeasure,
    VertexFunction,
    _require_same_chain,
    _tilted_rates,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ValidationError


RNG_ALGORITHM = "numpy-philox4x64"

# Samples advanced together by the batch kernel, fewer where one chunk's
# first block of uniforms, occupation times and jump counts would pass
# _BLOCK_DOUBLES eight-byte numbers, so an estimate peaks a little above
# 8 * _BLOCK_DOUBLES bytes.
_CHUNK = 4096
_BLOCK_DOUBLES = 1 << 22


def _sim_arrays(chain: ChainSpec):
    cached = getattr(chain, "_sim_arrays_cache", None)
    if cached is None:
        # per-row cumulative rates: rows of equal out-degree d stacked into a
        # (rows, d) array and summed along axis 1, which adds in the order
        # of a per-row cumsum, so the sums are the same bit for bit
        starts = chain.row_offsets[:-1]
        degree = np.diff(chain.row_offsets)
        cum = np.empty(chain.n_edges)
        for d in np.unique(degree):
            ids = starts[degree == d][:, None] + np.arange(d)
            cum[ids] = np.cumsum(chain.edge_rates[ids], axis=1)
        cached = (chain.row_offsets, cum, chain.edge_dst, chain.exit_rates)
        chain._sim_arrays_cache = cached
    return cached


# largest lam = T max r, the mean jump count that bounds a path's: a path
# near it already takes seconds and a block of 2 * 10^7 uniforms (160 MB)
_MAX_MEAN_JUMPS = 1e7


def _block_len(chain: ChainSpec, horizon: float) -> int:
    """Uniforms per block, a multiple of 4: two per jump out to four standard
    deviations of Poisson(lam), lam = T max r, plus 8. By uniformization a
    path's jump count is stochastically below that Poisson count. Raises
    ValidationError when lam is above _MAX_MEAN_JUMPS or not finite."""
    lam = horizon * float(chain.exit_rates.max())
    if not lam <= _MAX_MEAN_JUMPS:
        raise ValidationError(
            f"horizon * max exit rate = {lam:g} is above the limit of "
            f"{_MAX_MEAN_JUMPS:g} mean jumps per path"
        )
    return 4 * math.ceil((2.0 * (lam + 4.0 * math.sqrt(lam)) + 8.0) / 4.0)


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _entropy_words(n: int) -> list:
    """SeedSequence's words for a non-negative int: little-endian 32-bit
    words, [0] for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _sample_keys(seed: int, stream: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, 2) uint64 Philox keys; row i - lo is
    SeedSequence((seed, stream, i)).generate_state(2, np.uint64), computed
    for all rows at once. Needs hi <= 2**32, one word of sample index."""
    n = hi - lo
    entropy = [np.full(n, w, dtype=np.uint32)
               for w in _entropy_words(seed) + _entropy_words(stream)]
    entropy.append(np.arange(lo, hi, dtype=np.uint32))
    const = _INIT_A

    def hashmix(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        v = v * np.uint32(const)
        return v ^ (v >> _XSHIFT)

    def mix(x, y):
        r = _MIX_MULT_L * x - _MIX_MULT_R * y
        return r ^ (r >> _XSHIFT)

    # the 4-word pool: entropy (zero-padded), cross-mixed, then any entropy
    # beyond four words mixed into every pool word
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state: four 32-bit words, read as two little-endian uint64
    const = _INIT_B
    state = np.empty((n, 4), dtype=np.uint32)
    for k in range(4):
        v = pool[k] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        v = v * np.uint32(const)
        state[:, k] = v ^ (v >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _draw(keys: np.ndarray, n_u: int, start: int = 0) -> np.ndarray:
    """Uniforms start .. start + n_u of the stream of each (m, 2) Philox key
    row, one row each, with the even columns turned into the holding-time
    exponentials -log1p(-u) in place: the block's jump k reads its holding
    time from column 2k and its target uniform from column 2k + 1.

    One Philox serves every row: its state is reset to the row's key with
    counter start/4 and an empty buffer, the state a fresh Philox with that
    key reaches after start uniforms (four per counter step), so start is a
    multiple of 4. Plain lists in the state dict make the reset about twice
    as fast as the numpy arrays the state getter returns."""
    u = np.empty((len(keys), n_u))
    bitgen = np.random.Philox(0)  # its key is replaced row by row
    gen = np.random.Generator(bitgen)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [start // 4, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for row, key in zip(u, keys.tolist()):
        state["state"]["key"] = key
        bitgen.state = state
        gen.random(out=row)
    # out= on the strided view: no block-sized temporary
    hold = u[:, 0::2]
    np.negative(hold, out=hold)
    np.log1p(hold, out=hold)
    np.negative(hold, out=hold)
    return u


def _paths(chain: ChainSpec, x0_ix: int, horizon: float, keys, n_u=None):
    """(occ, counts) of one path per (m, 2) key row, one row each; all live
    rows take jump k at once. Rows that outrun their block of n_u uniforms,
    a multiple of 4, continue with the next block of the same streams, so
    every row is a pure function of its key."""
    row_offsets, cum, edge_dst, exit_rates = _sim_arrays(chain)
    n_u = n_u or _block_len(chain, horizon)
    m, n, n_edges = len(keys), chain.n_states, chain.n_edges
    # flat, so a jump scatters through one index, rows * n + x or
    # rows * n_edges + e: about half the cost of 2-D fancy indexing
    occ = np.zeros(m * n)
    counts = np.zeros(m * n_edges, dtype=np.int64)
    rows = np.arange(m)
    x = np.full(m, x0_ix, dtype=np.int64)
    t = np.zeros(m)
    # upper bound of u*r among a row's first d - 1 cumulative rates: the
    # first edge whose cumulative rate exceeds it, else the row's last edge
    search_steps = int(np.diff(row_offsets).max() - 1).bit_length()
    start = 0
    while rows.size:
        u = _draw(keys[rows], n_u, start)
        start += n_u
        block = np.arange(rows.size)  # each live row's row of u
        at_occ, at_counts = rows * n, rows * n_edges
        for k in range(0, n_u, 2):
            r = exit_rates[x]
            dt = u[block, k] / r
            t_next = t + dt
            end = t_next >= horizon
            if end.any():
                occ[at_occ[end] + x[end]] += horizon - t[end]
                live = ~end
                rows, block, at_occ, at_counts, x, dt, t_next, r = (
                    rows[live], block[live], at_occ[live], at_counts[live],
                    x[live], dt[live], t_next[live], r[live],
                )
                if rows.size == 0:
                    break
            occ[at_occ + x] += dt
            t = t_next
            lo = row_offsets[x]
            if search_steps:
                v = u[block, k + 1] * r
                hi = row_offsets[x + 1] - 1
                for _ in range(search_steps):
                    mid = (lo + hi) >> 1
                    right = (lo < hi) & (cum[mid] <= v)
                    lo = np.where(right, mid + 1, lo)
                    hi = np.where(right, hi, mid)
            counts[at_counts + lo] += 1
            x = edge_dst[lo]
    return occ.reshape(m, n), counts.reshape(m, n_edges)


def _record(chain: ChainSpec, x0_ix: int, horizon: float, key, n_u=None):
    """One path with its jump record, (times, dests, edges, occ, counts).

    The scalar twin of _paths: same blocks, same holding-time exponentials,
    same arithmetic, so occ and counts equal the batch row for the same key
    bit for bit."""
    row_offsets, cum, edge_dst, exit_rates = (
        a.tolist() for a in _sim_arrays(chain)
    )
    n_u = n_u or _block_len(chain, horizon)
    t = 0.0
    x = x0_ix
    occ = [0.0] * chain.n_states
    times, dests, edges = [], [], []
    start = 0
    while True:
        u = _draw(np.reshape(key, (1, 2)), n_u, start)[0].tolist()
        start += n_u
        for h, w in zip(u[0::2], u[1::2]):
            r = exit_rates[x]
            dt = h / r
            if t + dt >= horizon:
                occ[x] += horizon - t
                edges = np.array(edges, dtype=np.int64)
                return (
                    np.array(times, dtype=np.float64),
                    np.array(dests, dtype=np.int64),
                    edges,
                    np.array(occ),
                    np.bincount(edges, minlength=chain.n_edges),
                )
            occ[x] += dt
            t += dt
            e = bisect_right(cum, w * r, row_offsets[x], row_offsets[x + 1] - 1)
            x = edge_dst[e]
            times.append(t)
            dests.append(x)
            edges.append(e)


@dataclass(frozen=True)
class Trajectory:
    """Jump times (strictly increasing in (0, horizon)), destinations and
    edge ids in chain order, plus the RNG provenance."""

    chain: ChainSpec
    x0_index: int
    horizon: float
    times: np.ndarray
    dests: np.ndarray
    edge_ids: np.ndarray
    rng: dict

    def __post_init__(self):
        t = self.times
        if len(t) and not (
            np.all(np.diff(t) > 0) and t[0] > 0 and t[-1] < self.horizon
        ):
            raise ValidationError("jump times must be strictly increasing in (0, T)")

    @property
    def n_jumps(self) -> int:
        return len(self.times)

    @property
    def x0(self):
        return self.chain.states[self.x0_index]

    @property
    def final_index(self) -> int:
        return int(self.dests[-1]) if len(self.dests) else self.x0_index

    def occupation_times(self) -> np.ndarray:
        return _occupation(self, self.n_jumps, self.horizon)


def _occupation(traj: Trajectory, k: int, t_end: float) -> np.ndarray:
    """Time spent in each state up to t_end by the path's first k jumps: the
    states x0, dests[:k] held between the ends 0, times[:k], t_end."""
    seq = np.concatenate([[traj.x0_index], traj.dests[:k]]).astype(np.int64)
    bounds = np.concatenate([[0.0], traj.times[:k], [t_end]])
    return np.bincount(seq, weights=np.diff(bounds), minlength=traj.chain.n_states)


def _checked_horizon(horizon) -> float:
    if isinstance(horizon, bool) or not isinstance(horizon, numbers.Real):
        raise ValidationError(f"horizon must be a real number, got {horizon!r}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValidationError(f"horizon must be positive and finite, got {horizon}")
    return float(horizon)


def _checked_int(value, what: str, least: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValidationError(f"{what} must be a {kind} integer, got {value!r}")
    return int(value)


def _checked_samples(samples) -> int:
    samples = _checked_int(samples, "samples", least=1)
    if samples > 1 << 32:
        raise ValidationError(f"at most 2**32 samples, got {samples}")
    return samples


def simulate(chain: ChainSpec, x0, horizon: float, seed: int) -> Trajectory:
    """Gillespie path started at x0, bit-for-bit reproducible from the seed."""
    horizon = _checked_horizon(horizon)
    seed = _checked_int(seed, "seed")
    x0_ix = chain.state_index(x0)
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    times, dests, edges, _, _ = _record(chain, x0_ix, horizon, key)
    return Trajectory(
        chain, x0_ix, horizon, times, dests, edges,
        {"algorithm": RNG_ALGORITHM, "seed": seed},
    )


@dataclass(frozen=True)
class EmpiricalPair:
    """Occupation fractions and jump flow of one trajectory. counts are the
    raw integer jump counts; flow = counts / horizon."""

    measure: ProbabilityMeasure
    flow: Flow
    counts: np.ndarray
    horizon: float
    x0_index: int
    final_index: int


def _pair(traj: Trajectory, occ, jumps: int, t_end: float, final_index: int):
    """EmpiricalPair of occupation times occ and of traj's first `jumps`
    jumps, over the time t_end."""
    chain = traj.chain
    counts = np.bincount(
        traj.edge_ids[:jumps], minlength=chain.n_edges
    ).astype(np.int64)
    return EmpiricalPair(
        ProbabilityMeasure(chain, occ / occ.sum()),
        Flow(chain, counts / t_end),
        counts,
        t_end,
        traj.x0_index,
        final_index,
    )


def empirical_pair(traj: Trajectory) -> EmpiricalPair:
    """mu_T and Q_T. T * div(Q_T) telescopes to delta_{X_0} - delta_{X_T},
    exactly at the integer-count level."""
    return _pair(
        traj, traj.occupation_times(), traj.n_jumps, traj.horizon, traj.final_index
    )


def closed_empirical_pair(traj: Trajectory) -> EmpiricalPair:
    """Empirical pair of the path truncated at its last visit to X_0, so the
    flow is an exact circulation and feeds joint_rate directly. Falls back to
    (point mass, zero flow) over the horizon if the path never returns."""
    returns = np.flatnonzero(traj.dests == traj.x0_index)
    if len(returns):  # keep the jumps up to the last return, j included
        j = int(returns[-1])
        t_close, jumps = float(traj.times[j]), j + 1
    else:  # X_0 held up to the horizon, no jump
        j, t_close, jumps = 0, traj.horizon, 0
    return _pair(traj, _occupation(traj, j, t_close), jumps, t_close, traj.x0_index)


def tilted_chain(
    chain: ChainSpec,
    g: VertexFunction,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ChainSpec:
    """Rates r(y,z) e^{g(z)-g(y)}: same edges, same states, tilted weights."""
    _require_same_chain(chain, g, "vertex function")
    dg = g.values[chain.edge_dst] - g.values[chain.edge_src]
    tilted = _tilted_rates(chain, dg, tolerances)
    return ChainSpec._from_edges(chain.states, chain.edge_src, chain.edge_dst, tilted)


def _log_weights(chain: ChainSpec, tilted: ChainSpec, g: VertexFunction, occ, counts):
    """log dP/dP~ back to chain of paths run on tilted = tilted_chain(chain,
    g), one per row of occupation times occ and jump counts counts:
    sum_e counts (g(y) - g(z)) + sum_x occ (r~(x) - r(x)), each summed along
    the row."""
    jump = g.values[chain.edge_src] - g.values[chain.edge_dst]
    gap = tilted.exit_rates - chain.exit_rates
    return (counts * jump).sum(axis=1) + (occ * gap).sum(axis=1)


@dataclass(frozen=True)
class HalfSpaceEvent:
    """Intersection of half-spaces sum_x c(x) mu(x) >= theta on measures."""

    chain: ChainSpec
    conditions: tuple  # ((coefficients array, theta), ...)

    @classmethod
    def occupancy_at_least(cls, chain: ChainSpec, state, theta: float):
        return cls.from_terms(chain, ((state, 1.0),), theta)

    @classmethod
    def from_terms(cls, chain: ChainSpec, terms: Sequence, theta: float):
        """terms: (state, coefficient) pairs for one half-space, whose
        numbers must be finite: a NaN would make the event never hold."""
        acc = [0.0] * chain.n_states  # Python floats: inf - inf is a quiet nan
        for state, coef in terms:
            acc[chain.state_index(state)] += float(coef)
        c, theta = np.array(acc), float(theta)
        if not (np.isfinite(c).all() and math.isfinite(theta)):
            raise ValidationError(f"half-space {c.tolist()} >= {theta} must be finite")
        return cls(chain, ((c, theta),))

    def intersect(self, other: "HalfSpaceEvent") -> "HalfSpaceEvent":
        return HalfSpaceEvent(self.chain, self.conditions + other.conditions)

    def satisfied(self, measure_values: np.ndarray):
        """Whether every half-space holds; measure_values is one measure, or
        a stack of measures (one per row) for a boolean per row. Each row is
        judged by the same arithmetic whatever the stack's size."""
        ok = np.ones(np.shape(measure_values)[:-1], dtype=bool)
        for c, theta in self.conditions:
            ok &= (measure_values * c).sum(axis=-1) >= theta
        return ok[()]

    def describe(self) -> list:
        out = []
        for c, theta in self.conditions:
            terms = [
                f"{w:g}*{self.chain.states[i]}"
                for i, w in enumerate(c)
                if w != 0.0
            ]
            out.append(" + ".join(terms) + f" >= {theta:g}")
        return out


@dataclass(frozen=True)
class EventEstimate:
    p_hat: float
    stderr: float
    samples: int
    hits: int
    horizon: float


def estimate_event_probability(
    chain: ChainSpec,
    event: HalfSpaceEvent,
    horizon: float,
    samples: int,
    seed: int,
    x0=None,
    tilt: VertexFunction | None = None,
    stream: int = 0,
) -> EventEstimate:
    """P(mu_T in event) by direct simulation, or importance sampling when a
    tilting potential is given (weights e^{log dP/dP~} under the tilted chain)."""
    horizon = _checked_horizon(horizon)
    seed = _checked_int(seed, "seed")
    stream = _checked_int(stream, "stream")
    samples = _checked_samples(samples)
    x0_ix = chain.state_index(x0 if x0 is not None else chain.states[0])
    sim_chain = chain if tilt is None else tilted_chain(chain, tilt)
    max_u = _block_len(sim_chain, horizon)
    row_size = max_u + chain.n_states + chain.n_edges
    chunk = max(1, min(_CHUNK, _BLOCK_DOUBLES // row_size))
    weights = np.zeros(samples)  # per sample, 0.0 outside the event
    hits = 0
    n_u = max_u
    for lo in range(0, samples, chunk):
        hi = min(lo + chunk, samples)
        keys = _sample_keys(seed, stream, lo, hi)
        occ, counts = _paths(sim_chain, x0_ix, horizon, keys, n_u)
        # the next chunk's block: the uniforms this chunk's longest path
        # read, 2 jumps + 1, rounded up to a multiple of 4; a longer path
        # continues its stream, so the estimate does not change
        most_jumps = int(counts.sum(axis=1).max())
        n_u = min(max_u, 4 * math.ceil((2 * most_jumps + 2) / 4))
        inside = event.satisfied(occ / occ.sum(axis=1, keepdims=True))
        hits += int(inside.sum())
        if tilt is None:
            weights[lo:hi] = inside
        else:
            log_w = _log_weights(chain, sim_chain, tilt, occ[inside], counts[inside])
            weights[lo:hi][inside] = np.exp(log_w)
    total = float(weights.sum())
    total_sq = float((weights * weights).sum())
    p_hat = total / samples
    # sample standard error of the mean; reduces to binomial for unit weights
    var = max(total_sq / samples - p_hat * p_hat, 0.0)
    stderr = math.sqrt(var / samples)
    return EventEstimate(p_hat, stderr, samples, hits, horizon)


@dataclass(frozen=True)
class SlopeEstimate:
    """Per-horizon decay estimates and the 1/T-extrapolated LDP slope."""

    horizons: tuple
    probabilities: tuple
    stderrs: tuple
    per_horizon_slopes: tuple  # None where no hits were observed
    slope: float | None
    slope_stderr: float | None
    intercept_over_t: float | None
    lower_bounds: dict  # horizon -> slope lower bound for zero-hit horizons
    samples: int
    rng: dict


def estimate_ldp_slope(
    chain: ChainSpec,
    event: HalfSpaceEvent,
    horizons: Sequence[float],
    samples: int,
    seed: int,
    x0=None,
) -> SlopeEstimate:
    """-log P(mu_T in event)/T per horizon, extrapolated linearly in 1/T.

    Weighted least squares with delta-method binomial errors; horizons with
    zero hits are excluded from the fit and reported as one-sided bounds
    (95% rule of three). Every horizon is checked before any is simulated,
    and no two may be equal. slope, slope_stderr and intercept_over_t are
    None when fewer than two horizons have hits, or when those horizons are
    too close for the fit to separate: a singular normal matrix or a slope
    variance that is not positive.

    slope_stderr is the sampling error of the fit only; it leaves out the
    bias of the 1/T extrapolation, which can be several times larger. On the
    unit 2-state chain with mu(1) >= 0.6, horizons (50, 100, 200, 400) and
    20 000 samples, seeds 0 to 49 gave slopes above the exact rate by
    +21 % on average (sd 4.2 %), about six times slope_stderr."""
    try:
        horizons = tuple(map(_checked_horizon, horizons))
    except TypeError:  # not iterable
        raise ValidationError(f"horizons must be a sequence, got {horizons!r}") from None
    seed = _checked_int(seed, "seed")
    samples = _checked_samples(samples)
    if len(horizons) == 0:
        raise ValidationError("need at least one horizon")
    if len(set(horizons)) < len(horizons):
        raise ValidationError(f"horizons must be distinct, got {horizons}")
    # every horizon's paths within the jump limit, checked before any runs
    _block_len(chain, max(horizons))
    probs, errs, slopes = [], [], []
    bounds = {}
    for t_idx, T in enumerate(horizons):
        est = estimate_event_probability(
            chain, event, T, samples, seed, x0=x0, stream=t_idx
        )
        probs.append(est.p_hat)
        errs.append(est.stderr)
        if est.p_hat > 0.0:
            slopes.append(-math.log(est.p_hat) / T)
        else:
            slopes.append(None)
            bounds[T] = -math.log(3.0 / samples) / T

    usable = [
        (T, s, e / (T * p))
        for T, s, p, e in zip(horizons, slopes, probs, errs)
        if s is not None
    ]
    slope = slope_se = intercept = None
    if len(usable) >= 2:
        X = np.array([[1.0, 1.0 / T] for T, _, _ in usable])
        y = np.array([s for _, s, _ in usable])
        w = np.array([1.0 / max(se, 1e-12) ** 2 for _, _, se in usable])
        XtW = X.T * w
        try:
            cov = np.linalg.inv(XtW @ X)
        except np.linalg.LinAlgError:  # singular: the horizons are too close
            cov = None
        if cov is not None and 0.0 < cov[0, 0] < math.inf:
            beta = cov @ (XtW @ y)
            slope = float(beta[0])
            intercept = float(beta[1])
            slope_se = float(math.sqrt(cov[0, 0]))
    return SlopeEstimate(
        horizons,
        tuple(probs),
        tuple(errs),
        tuple(slopes),
        slope,
        slope_se,
        intercept,
        bounds,
        samples,
        {"algorithm": RNG_ALGORITHM, "seed": seed},
    )
