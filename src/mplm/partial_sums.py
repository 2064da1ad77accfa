"""Exact finite-N variance of partial sums, and its growth exponent.

For a stationary series with autocovariances gamma(j),

    Var(S_N) = N gamma(0) + 2 sum_{j=1}^{N-1} (N - j) gamma(j),

which ``var_partial_sum`` evaluates directly.  When gamma(j) decays like
j**-u with u in (0, 1) the variance grows like N**(2-u);
``scaling_exponent`` measures that growth from simulated replications.
For the intermittent map this exponent is 3 - 1/s.  Its generators return
the partial sum S_N of each replication, not the series: the map
generators step every (length, replication) row in one orbit loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeds import derive_seeds, stream_uniforms
from .dynamics import ObservableSpec, equivalent_gamma, lbp_partial_sums, mp_partial_sums
# perfbench/tracer.py wraps partial_sums.simulate_mp_batch and perfbench/selfcheck.py
# looks it up, so the name stays importable here; no generator calls it
from .dynamics import simulate_mp_batch  # noqa: F401
from .estimators import ols_slope


def var_partial_sum(acv, n: int) -> float:
    """Variance of the length-n partial sum from autocovariances 0..n-1."""
    values = np.asarray(getattr(acv, "values", acv), dtype=np.float64)
    if n < 1:
        raise ValueError(f"partial-sum length must be >= 1, got {n}")
    if values.size < n:
        raise ValueError(f"need autocovariances for lags 0..{n - 1}, got {values.size}")
    j = np.arange(1, n)
    return float(n * values[0] + 2.0 * np.sum((n - j) * values[1:n]))


@dataclass(frozen=True, eq=False)
class ScalingFit:
    """Fitted log Var(S_N) vs log N line over a grid of lengths."""

    exponent: float
    intercept: float
    grid: np.ndarray
    variances: np.ndarray


def mp_generator(observable: ObservableSpec = ObservableSpec(), burn_in: int = 10_000):
    """Partial-sum generator for the smooth map, for use with ``scaling_exponent``."""

    def gen(s, lengths, seeds):
        return mp_partial_sums(s, lengths, seeds, burn_in, observable)

    return gen


def lbp_generator(observable: ObservableSpec = ObservableSpec(), burn_in: int = 10_000):
    """Partial-sum generator for the piecewise-linear map (parameter gamma = 1 + 1/s)."""

    def gen(s, lengths, seeds):
        return lbp_partial_sums(equivalent_gamma(s), lengths, seeds, burn_in, observable)

    return gen


def bernoulli_generator(p: float = 0.5):
    """Sums of independent 0/1 draws; the s argument is ignored.  Var(S_N) = N p(1-p).

    Each group of equal lengths takes one draw of its streams.
    """

    def gen(s, lengths, seeds):
        lengths = np.asarray(lengths)
        sums = np.empty(lengths.size)
        for n in np.unique(lengths):
            rows = np.flatnonzero(lengths == n)
            sums[rows] = (stream_uniforms([seeds[r] for r in rows], int(n)) < p).sum(axis=1)
        return sums

    return gen


def scaling_exponent(generator, s: float, grid, reps: int, seed: int) -> ScalingFit:
    """Across-replication Var(S_N) over a grid of lengths, fitted in log-log.

    ``generator(s, lengths, seeds)`` must return the partial sum
    S_{lengths[r]} of a series for each ``seeds[r]``; it is called once,
    for every (length, replication) row.  Each row gets its own derived
    stream, so the fit is reproducible from the base seed.
    """
    sizes = np.asarray(sorted(int(n) for n in grid))
    if sizes.size < 4 or sizes[0] < 1 or np.any(np.diff(sizes) <= 0):
        raise ValueError("grid must contain at least 4 strictly increasing lengths >= 1")
    if reps < 50:
        raise ValueError(f"need at least 50 replications, got {reps}")
    seeds = [key for n in sizes for key in derive_seeds(seed, "scaling", s, int(n), count=reps)]
    sums = generator(s, np.repeat(sizes, reps), seeds).reshape(sizes.size, reps)
    variances = sums.var(axis=1, ddof=1)
    if np.any(variances <= 0.0):
        raise ValueError("partial-sum variance vanished on the grid; series degenerate")
    slope, intercept = ols_slope(np.log(sizes), np.log(variances))
    return ScalingFit(slope, intercept, sizes, variances)
