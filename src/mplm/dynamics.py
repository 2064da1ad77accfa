"""Binary time series from intermittent interval maps and a renewal chain.

Three generators are provided:

* the interval map ``x -> x + x**(1+s) (mod 1)`` with an indifferent
  fixed point at 0 (``simulate_mp``),
* its piecewise-linear counterpart on a countable partition whose cell
  lengths decay like ``(k+1)**-gamma`` (``simulate_lbp``),
* a countdown Markov chain on the nonnegative integers whose excursion
  lengths have the same tail (``simulate_markov``).

Each has a batch form that returns one (reps, n) float64 row per seed, and
the single-series function returns row 0 of a one-seed batch, an (n,)
array.  The two maps also have a partial-sum form (``mp_partial_sums``,
``lbp_partial_sums``) that returns the sum of each row over its own length;
it runs the same orbit loop over rows of every length at once and stores no
series.

All three emit 0/1 observations: the maps through the indicator of an
open subinterval of [0, 1], the chain through ``1 - indicator(state == 0)``.
Orbits linger near the indifferent fixed point, which produces the long
laminar runs of zeros characteristic of intermittency.  The parameters are
linked by ``gamma = 1 + 1/s``: matched values give matched autocovariance
decay.

Everything is a pure function of its arguments; series are reproducible
bit for bit from (seed, parameters).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._seeds import stream_uniforms
from ._zeta import tail_sum, zeta_value

# Consecutive identical iterates before a laminar-freeze diagnostic fires.
STALL_LIMIT = 10_000
# Time steps per block of the orbit buffer in ``_iterate_map``.
_STEP_BUFFER = 256

# The n**-gamma terms tabulated for the lbp cells and the chain's two CDFs;
# ``_invert_tail`` inverts the tails beyond them analytically.
_TABLE_TERMS = 100_000
# The chain's first prefix of draws, in expected jumps to length n.
_CHAIN_PREFIX = 1.25
# Uniform draws per chunk of chain rows: the L2-sized bound of
# ``estimators.CHUNK_VALUES``.
_CHAIN_CHUNK_DRAWS = 1 << 15
# Equal buckets of [0, 1) in the guide table of the jump-size CDF.
_GUIDE_BUCKETS = 1 << 12


class StallWarning(RuntimeWarning):
    """An orbit stopped moving at 64-bit resolution near the fixed point."""


def equivalent_gamma(s: float) -> float:
    """Tail exponent of the matched piecewise-linear / chain model."""
    _require_s(s)
    return 1.0 + 1.0 / s


def _require_s(s: float) -> None:
    if not np.isfinite(s) or s <= 0:
        raise ValueError(f"s must be a positive finite real, got {s}")


def _require_gamma(gamma: float) -> None:
    if not np.isfinite(gamma) or gamma <= 2.0:
        raise ValueError(
            f"gamma must be a finite real > 2 (stationary law undefined otherwise), got {gamma}"
        )


def _require_run(n: int, burn_in: int) -> None:
    if n < 1:
        raise ValueError(f"series length must be >= 1, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn-in must be >= 0, got {burn_in}")


def _require_unit(x: float) -> None:
    if not np.isfinite(x) or x < 0.0 or x > 1.0:
        raise ValueError(f"state must lie in [0, 1], got {x}")


@dataclass(frozen=True)
class ObservableSpec:
    """Indicator of the open interval (lo, hi)."""

    lo: float = 0.1
    hi: float = 0.9

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ValueError(f"need 0 <= lo < hi <= 1, got ({self.lo}, {self.hi})")

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def indicate(self, x: np.ndarray) -> np.ndarray:
        return ((x > self.lo) & (x < self.hi)).astype(np.float64)


# ---------------------------------------------------------------------------
# Smooth map
# ---------------------------------------------------------------------------


def mp_step(s: float, x: float) -> float:
    """One application of x -> x + x**(1+s) (mod 1).

    The step ``simulate_mp_batch`` takes (numpy's power), applied to one state.
    """
    _require_s(s)
    _require_unit(x)
    y = np.empty(1)
    _mp_stepper(s)(np.array([x]), y)
    return float(y[0])


def _orbit_blocks(step, x0: np.ndarray, lengths: np.ndarray, burn_in: int):
    """The one orbit loop: step a vector of states, yielding the recorded ones.

    Row r starts at ``x0[r]`` and records states ``burn_in .. burn_in +
    lengths[r] - 1``; the lengths are non-increasing, so the rows still
    recording are the first w.  ``step(x, out)`` writes the successors of
    the states x into ``out``, a row of the time-major orbit buffer.  A
    buffer holds at most ``_STEP_BUFFER`` steps and ends at every row's last
    state; it yields ``(first, states)``, a (steps, w) view of its recorded
    states from state ``burn_in + first`` on, valid until the next yield,
    and the rows it ends then leave.  State t + 1 of a row depends on its
    state t alone, so a row's states are a bit-identical function of its
    start point and the parameters, whatever the batch width.

    ``StallWarning`` fires once per call when a row repeats one state for
    ``STALL_LIMIT`` consecutive steps within its own ``burn_in +
    lengths[r]`` states.  The step is deterministic, so a repeated state
    repeats for ever: the row stalls exactly when its state ``burn_in +
    lengths[r] - STALL_LIMIT`` equals the one before it.
    """
    buf = np.empty((_STEP_BUFFER + 1, x0.size))
    buf[0] = x0
    ends = burn_in + lengths - 1  # each row's last state
    stall_at = ends + 1 - STALL_LIMIT  # non-increasing, as the lengths are
    t, w, first_unrecorded = 0, x0.size, burn_in
    states = list(buf)
    while w:
        end = int(ends[w - 1])  # the last state of the shortest recording row
        # buf[0] is state t; the buffer holds states t .. t + k
        k = min(_STEP_BUFFER, end - t)
        for i in range(k):
            step(states[i], states[i + 1])
        if t < stall_at[0] and stall_at[w - 1] <= t + k:
            rows = np.flatnonzero((t < stall_at[:w]) & (stall_at[:w] <= t + k))
            at = stall_at[rows] - t  # the buffer row of each stall state
            if np.any(buf[at, rows] == buf[at - 1, rows]):
                warnings.warn(
                    f"orbit numerically frozen: {STALL_LIMIT} consecutive identical "
                    "iterates (laminar excursion below 64-bit resolution)",
                    StallWarning,
                    stacklevel=4,
                )
                stall_at[:] = 0  # once per call
        if first_unrecorded <= t + k:
            yield first_unrecorded - burn_in, buf[first_unrecorded - t:k + 1, :w]
            first_unrecorded = t + k + 1
        if end <= t + k:  # the rows whose last state this is leave
            w = int(np.count_nonzero(ends > end))
            if not w:
                return
            states = list(buf[:, :w])
        buf[0, :w] = buf[k, :w]
        t += k


def _iterate_map(step, x0: np.ndarray, n: int, burn_in: int,
                 observable: ObservableSpec) -> np.ndarray:
    """The observable of each row's states ``burn_in .. burn_in + n - 1``, a (reps, n) array."""
    out = np.empty((x0.size, n))
    for first, states in _orbit_blocks(step, x0, np.full(x0.size, n), burn_in):
        out[:, first:first + len(states)] = observable.indicate(states).T
    return out


def _orbit_sums(step, lengths, seeds, burn_in: int, observable: ObservableSpec) -> np.ndarray:
    """Per seed, the observable summed over its states ``burn_in .. burn_in + lengths[r] - 1``.

    The rows step longest first in one loop; no series is stored.
    """
    lengths = np.array(lengths, dtype=np.int64, ndmin=1)
    if lengths.size != len(seeds):
        raise ValueError(f"need one length per seed, got {lengths.size} for {len(seeds)} seeds")
    _require_run(lengths.min(initial=1), burn_in)
    order = np.argsort(-lengths, kind="stable")
    x0 = stream_uniforms(seeds, 1)[order, 0]
    sums = np.zeros(lengths.size)
    for _, states in _orbit_blocks(step, x0, lengths[order], burn_in):
        sums[:states.shape[1]] += observable.indicate(states).sum(axis=0)
    out = np.empty_like(sums)
    out[order] = sums
    return out


def _mp_stepper(s: float):
    """The smooth map as a step ``(x, out)`` of a state array."""
    e = 1.0 + s

    def step(x, y):
        np.power(x, e, out=y)
        y += x
        y -= y > 1.0  # the wrap, as y - 1.0 or y - 0.0

    return step


def simulate_mp_batch(s: float, n: int, seeds, burn_in: int = 10_000,
                      observable: ObservableSpec = ObservableSpec()) -> np.ndarray:
    """Simulate one smooth-map series per seed; returns a (reps, n) array.

    Row r is bit-identical to ``simulate_mp(s, n, seeds[r], ...)``: each
    replication owns its stream and only the start point is random.
    """
    _require_s(s)
    _require_run(n, burn_in)
    x0 = stream_uniforms(seeds, 1)[:, 0]
    return _iterate_map(_mp_stepper(s), x0, n, burn_in, observable)


def mp_partial_sums(s: float, lengths, seeds, burn_in: int = 10_000,
                    observable: ObservableSpec = ObservableSpec()) -> np.ndarray:
    """The partial sum S_{lengths[r]} of each seed's smooth-map series; returns a (reps,) array.

    Entry r equals ``simulate_mp_batch(s, lengths[r], [seeds[r]], ...).sum()``,
    from one orbit loop over all rows that stores no series.
    """
    _require_s(s)
    return _orbit_sums(_mp_stepper(s), lengths, seeds, burn_in, observable)


def simulate_mp(s: float, n: int, seed: int, burn_in: int = 10_000,
                observable: ObservableSpec = ObservableSpec()) -> np.ndarray:
    """Iterate the smooth map from a uniform start and record the indicator.

    The start point is drawn uniformly on (0, 1) from the seeded stream,
    ``burn_in`` iterations are discarded, and the next ``n`` states are
    mapped through the observable.  Values s >= 1 are accepted (the orbit
    is still well defined even though no invariant probability exists).
    Returns the (n,) float64 0/1 row 0 of the one-seed batch.
    """
    return simulate_mp_batch(s, n, [seed], burn_in, observable)[0]


# ---------------------------------------------------------------------------
# Piecewise-linear map
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _lbp_branch_table(gamma: float):
    """The affine branches of the map, indexed by search position in ``lefts[1:]``; zeta(gamma).

    The partition's boundaries are c[j] = 1 - (1**-gamma + ... + j**-gamma)
    / zeta(gamma); cell k is (c[k+1], c[k]].  ``lefts`` is 0.0 and then
    c[K..1] ascending, so position i in 1..K-1 is cell K - i with left
    endpoint ``lefts[i]``, right endpoint ``right[i]`` and slope
    ``slope[i]``; ``lefts`` and ``right`` are views of one array.  Position
    K is cell 0, carried onto (0, 1) as ``0 + zeta(gamma) * (x - c[1])``.
    States below c[K] are handled analytically.
    """
    z = zeta_value(gamma)
    terms = np.arange(1, _TABLE_TERMS + 1, dtype=np.float64) ** (-gamma)
    bounds = np.maximum(1.0 - np.cumsum(terms) / z, 0.0)
    ends = np.concatenate(([0.0], bounds[::-1], [0.0]))
    k = np.arange(_TABLE_TERMS, 0, -1)
    slope = np.append(((k + 1.0) / k) ** gamma, z)
    ends.setflags(write=False)
    slope.setflags(write=False)
    return ends[:-1], ends[1:], slope, z


def _lbp_deep_step(gamma: float, z: float, x: float) -> float:
    """The map at x == 0 or in a cell k >= K below the table; z = zeta(gamma)."""
    if x == 0.0:
        return 0.0
    # the k with tail(k+1) < x * z <= tail(k)
    k = _invert_tail(lambda j: tail_sum(gamma, j + 1), np.nextafter(x * z, 0.0), _TABLE_TERMS)
    left, right = tail_sum(gamma, k + 1) / z, tail_sum(gamma, k) / z
    # Python's float power: numpy's differs from it in the last bit for some k
    return right + ((k + 1.0) / k) ** gamma * (x - left)


def _lbp_stepper(gamma: float):
    """The map as a step ``(x, out)`` of a state array, from the cached branch table."""
    lefts, right, slope, z = _lbp_branch_table(gamma)
    edges = lefts[1:]

    def step(x, y):
        # methods and "clip" (i is in range) skip the wrappers and the
        # buffered out of "raise", which cost more than 20-50 rows of work
        i = edges.searchsorted(x, side="left")
        # right[i] + slope[i] * (x - lefts[i]), one gather per table
        lefts.take(i, out=y, mode="clip")
        np.subtract(x, y, out=y)
        y *= slope.take(i)
        y += right.take(i)
        # position 0 is x == 0 or a cell below the table
        if np.count_nonzero(i) < i.size:
            for r in np.flatnonzero(i == 0):
                y[r] = _lbp_deep_step(gamma, z, float(x[r]))

    return step


def lbp_step(gamma: float, x: float) -> float:
    """One application of the piecewise-linear map.

    Cell k >= 1 is carried affinely onto cell k-1 with slope
    ``((k+1)/k)**gamma``; the rightmost cell is carried onto (0, 1) with
    slope ``zeta(gamma)``, continuously, so the map fixes 1.  This is the
    step ``simulate_lbp_batch`` takes, applied to one state.
    """
    _require_gamma(gamma)
    _require_unit(x)
    y = np.empty(1)
    _lbp_stepper(gamma)(np.array([x]), y)
    return float(y[0])


def simulate_lbp_batch(gamma: float, n: int, seeds, burn_in: int = 10_000,
                       observable: ObservableSpec = ObservableSpec()) -> np.ndarray:
    """Piecewise-linear analogue of ``simulate_mp_batch``."""
    _require_gamma(gamma)
    _require_run(n, burn_in)
    x0 = stream_uniforms(seeds, 1)[:, 0]
    return _iterate_map(_lbp_stepper(gamma), x0, n, burn_in, observable)


def lbp_partial_sums(gamma: float, lengths, seeds, burn_in: int = 10_000,
                     observable: ObservableSpec = ObservableSpec()) -> np.ndarray:
    """Piecewise-linear analogue of ``mp_partial_sums``."""
    _require_gamma(gamma)
    return _orbit_sums(_lbp_stepper(gamma), lengths, seeds, burn_in, observable)


def simulate_lbp(gamma: float, n: int, seed: int, burn_in: int = 10_000,
                 observable: ObservableSpec = ObservableSpec()) -> np.ndarray:
    """Simulate the piecewise-linear map with the uniform-start protocol; an (n,) row."""
    return simulate_lbp_batch(gamma, n, [seed], burn_in, observable)[0]


# ---------------------------------------------------------------------------
# Countdown chain
# ---------------------------------------------------------------------------


def markov_stationary(gamma: float, k: int) -> float:
    """Stationary probability of state k for the countdown chain.

    From state 0 the chain jumps to n with probability
    ``(n+1)**-gamma / zeta(gamma)`` and otherwise counts down by one.
    Renewal theory gives pi(k) proportional to the jump tail
    ``sum_{n>=k} (n+1)**-gamma``; normalizing over k yields
    ``pi(k) = tail / zeta(gamma-1)``.
    """
    _require_gamma(gamma)
    if k < 0:
        raise ValueError(f"state index must be >= 0, got {k}")
    return tail_sum(gamma, k) / zeta_value(gamma - 1.0)


@lru_cache(maxsize=32)
def _chain_tables(gamma: float):
    """The jump-size CDF, its guide, zeta(gamma) and the stationary CDF.

    The jump CDF is F[i] = P(jump size <= i) and the stationary one P(state
    <= i), for i = 0.._TABLE_TERMS-1.  A draw u in bucket [b/M, (b+1)/M) of
    [0, 1) has its search position ``searchsorted(F, u)`` between those of
    b/M and (b+1)/M.  Where the two agree, ``guide[b]`` holds that
    position; where an entry of F falls inside the bucket, it holds -1.
    """
    terms = np.arange(1, _TABLE_TERMS + 1, dtype=np.float64) ** (-gamma)
    z = zeta_value(gamma)
    jump_cdf = np.cumsum(terms / z)
    edges = np.searchsorted(jump_cdf, np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS, side="left")
    guide = np.where(edges[:-1] == edges[1:], edges[:-1], -1)
    # suffix[k] = sum over n = k+1.._TABLE_TERMS of n**-gamma; summing
    # backwards avoids the cancellation of zeta - partial_sum
    suffix = np.cumsum(terms[::-1])[::-1]
    pi = (suffix + tail_sum(gamma, _TABLE_TERMS)) / zeta_value(gamma - 1.0)
    stationary_cdf = np.cumsum(pi)
    for table in (jump_cdf, guide, stationary_cdf):
        table.setflags(write=False)
    return jump_cdf, guide, z, stationary_cdf


def _invert_tail(eval_tail, target: float, start: int, stop=np.inf) -> int:
    # smallest k >= start with eval_tail(k) <= target (eval_tail decreasing),
    # or stop if that k is larger: the search never evaluates far beyond stop
    lo, hi = start, start
    while eval_tail(hi) > target:
        if hi >= stop:
            return stop
        lo = hi
        hi = 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eval_tail(mid) > target:
            lo = mid
        else:
            hi = mid
    return min(stop, hi if eval_tail(lo) > target else lo)


def _stationary_tail_mass(gamma: float, k: int) -> float:
    # P(state > k) = [tail(gamma-1, k+1) - (k+1) tail(gamma, k+1)] / zeta(gamma-1)
    return (tail_sum(gamma - 1.0, k + 1) - (k + 1) * tail_sum(gamma, k + 1)) / zeta_value(gamma - 1.0)


def _chain_zeros(gamma: float, n: int, u: np.ndarray, last=None) -> np.ndarray:
    """Zero positions cumsum([first, m_1, m_2, ...]) of each row of draws u.

    ``u[:, 0]`` picks the stationary start, ``u[:, i]`` the step m_i, one
    more than a jump size, by inverse CDF; draws beyond the tables are
    inverted analytically, so neither heavy tail is truncated.  The start
    and the steps are clipped at n, which moves no position below n, keeps
    them in int64 (near gamma = 2 a stationary state can exceed 2**63) and
    stops the inversion before its tail sums overflow.  Given ``last``
    zero positions, every draw is a step and the positions go on from them.
    """
    jump_cdf, guide, z, stationary_cdf = _chain_tables(gamma)
    # each draw as a step, searchsorted(jump_cdf, u) by the guide; u * M is exact, M = 2**12
    steps = guide[(u * _GUIDE_BUCKETS).astype(np.intp)].astype(np.int64, copy=False)
    undecided = steps < 0
    steps[undecided] = np.searchsorted(jump_cdf, u[undecided], side="left")
    steps += 1
    if steps.max() > _TABLE_TERMS:  # rare, and the max costs less than the search
        for r, i in zip(*np.nonzero(steps > _TABLE_TERMS)):
            steps[r, i] = _invert_tail(lambda k: tail_sum(gamma, k),
                                       (1.0 - u[r, i]) * z, _TABLE_TERMS, n)
    if last is None:
        steps[:, 0] = np.searchsorted(stationary_cdf, u[:, 0], side="left")
        for r in np.flatnonzero(steps[:, 0] >= _TABLE_TERMS):
            steps[r, 0] = _invert_tail(lambda j: _stationary_tail_mass(gamma, j),
                                       1.0 - u[r, 0], _TABLE_TERMS, n)
    else:
        steps[:, 0] += last
    return np.cumsum(steps, axis=1, out=steps)


def simulate_markov_batch(gamma: float, n: int, seeds) -> np.ndarray:
    """Simulate one stationary countdown-chain path per seed; returns a (reps, n) array.

    Row r is bit-identical to ``simulate_markov(gamma, n, seeds[r])``.  A
    row's stream is one forward sequence of uniforms, the first for the
    start state and one per jump, so its zeros do not depend on how the
    draws are chunked.  Every row draws a prefix of ``_CHAIN_PREFIX``
    times the expected number of jumps; a row whose zeros end before
    n - 1 goes on with the next draws of its stream, as many as it has
    drawn so far, from its last zero, so no uniform is drawn twice.  Rows
    run in chunks of at most ``_CHAIN_CHUNK_DRAWS`` draws.
    """
    _require_gamma(gamma)
    _require_run(n, 0)
    out = np.ones((len(seeds), n))
    mean_cycle = zeta_value(gamma - 1.0) / zeta_value(gamma)
    count = 1 + max(64, int(_CHAIN_PREFIX * (n - 1) / mean_cycle) + 8)
    rows, start, last = np.arange(len(seeds)), 0, None
    while rows.size:
        short = []
        per_chunk = max(1, _CHAIN_CHUNK_DRAWS // count)
        for lo in range(0, rows.size, per_chunk):
            chunk = rows[lo:lo + per_chunk]
            u = stream_uniforms([seeds[r] for r in chunk], count, start)
            zeros = _chain_zeros(gamma, n, u, None if last is None else last[lo:lo + per_chunk])
            flat = zeros + (chunk * n)[:, None]
            out.reshape(-1)[flat[zeros < n]] = 0.0
            going_on = zeros[:, -1] < n - 1
            short.append((chunk[going_on], zeros[going_on, -1]))
        rows, last = map(np.concatenate, zip(*short))
        start += count
        count = start
    return out


def simulate_markov(gamma: float, n: int, seed: int) -> np.ndarray:
    """Stationary countdown-chain path, reported as 0/1 observations.

    The initial state is drawn from the stationary law; afterwards the
    chain counts down deterministically and redraws a jump size whenever
    it hits 0.  The output is 0 exactly at the visits to state 0, so it
    consists of maximal 1-blocks separated by single zeros (with empty
    blocks allowed when the chain jumps straight back to 0).  Returns an
    (n,) float64 row.
    """
    return simulate_markov_batch(gamma, n, [seed])[0]
