"""Exact finite-N variance of partial sums, and its growth exponent.

For a stationary series with autocovariances gamma(j),

    Var(S_N) = N gamma(0) + 2 sum_{j=1}^{N-1} (N - j) gamma(j),

which ``var_partial_sum`` evaluates directly.  When gamma(j) decays like
j**-u with u in (0, 1) the variance grows like N**(2-u);
``scaling_exponent`` measures that growth from simulated replications.
For the intermittent map this exponent is 3 - 1/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeds import derive_seeds, stream_uniforms
from .dynamics import ObservableSpec, simulate_lbp_batch, simulate_mp_batch
from .estimators import ols_slope
from .spectral import AcvEstimate


def var_partial_sum(acv, n: int) -> float:
    """Variance of the length-n partial sum from autocovariances 0..n-1."""
    values = acv.values if isinstance(acv, AcvEstimate) else np.asarray(acv, dtype=np.float64)
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
    """Batch generator for the smooth map, for use with ``scaling_exponent``."""

    def gen(s, n, seeds):
        return simulate_mp_batch(s, n, seeds, burn_in, observable)

    return gen


def lbp_generator(observable: ObservableSpec = ObservableSpec(), burn_in: int = 10_000):
    """Batch generator for the piecewise-linear map (parameter gamma = 1 + 1/s)."""

    def gen(s, n, seeds):
        return simulate_lbp_batch(1.0 + 1.0 / s, n, seeds, burn_in, observable)

    return gen


def bernoulli_generator(p: float = 0.5):
    """Independent 0/1 draws; the s argument is ignored.  Var(S_N) = N p(1-p)."""

    def gen(s, n, seeds):
        return (stream_uniforms(seeds, n) < p).astype(np.float64)

    return gen


def scaling_exponent(generator, s: float, grid, reps: int, seed: int) -> ScalingFit:
    """Across-replication Var(S_N) over a grid of lengths, fitted in log-log.

    ``generator(s, n, seeds)`` must return a (len(seeds), n) array of
    observations; each (length, replication) pair gets its own derived
    stream, so the fit is reproducible from the base seed.
    """
    sizes = np.asarray(sorted(int(n) for n in grid))
    if sizes.size < 4 or np.any(np.diff(sizes) <= 0):
        raise ValueError("grid must contain at least 4 strictly increasing lengths")
    if reps < 50:
        raise ValueError(f"need at least 50 replications, got {reps}")
    variances = np.empty(sizes.size)
    for i, n in enumerate(sizes):
        seeds = derive_seeds(seed, "scaling", s, int(n), count=reps)
        rows = generator(s, int(n), seeds)
        sums = rows.sum(axis=1)
        variances[i] = sums.var(ddof=1)
    if np.any(variances <= 0.0):
        raise ValueError("partial-sum variance vanished on the grid; series degenerate")
    slope, intercept = ols_slope(np.log(sizes), np.log(variances))
    return ScalingFit(slope, intercept, sizes, variances)
