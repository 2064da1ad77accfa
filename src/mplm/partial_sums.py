"""The growth exponent of the variance of partial sums.

For a stationary series with autocovariances gamma(j),

    Var(S_N) = N gamma(0) + 2 sum_{j=1}^{N-1} (N - j) gamma(j).

When gamma(j) decays like j**-u with u in (0, 1) the variance grows like
N**(2-u); ``scaling_exponent`` measures that growth from simulated
replications.  For the intermittent map this exponent is 3 - 1/s.  Its
generator is any ``(s, lengths, seeds) -> sums`` function that returns the
partial sum S_N of each replication, not the series, e.g.
``functools.partial(mplm.dynamics.mp_partial_sums, burn_in=...)``, which
steps every (length, replication) row in one orbit loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeds import derive_seeds
# perfbench/tracer.py wraps partial_sums.simulate_mp_batch and perfbench/selfcheck.py
# looks it up, so the name stays importable here; nothing here calls it
from .dynamics import simulate_mp_batch  # noqa: F401
from .estimators import ols_slope
from .spectral import _as_index


@dataclass(frozen=True, eq=False)
class ScalingFit:
    """Fitted log Var(S_N) vs log N line over a grid of lengths."""

    exponent: float
    intercept: float
    grid: np.ndarray
    variances: np.ndarray


def scaling_exponent(generator, s: float, grid, reps: int, seed: int) -> ScalingFit:
    """Across-replication Var(S_N) over a grid of lengths, fitted in log-log.

    ``generator(s, lengths, seeds)`` must return the partial sum
    S_{lengths[r]} of a series for each ``seeds[r]``, as
    ``functools.partial(mplm.dynamics.mp_partial_sums, burn_in=...)``
    does; it is called once, for every (length, replication) row.  Each
    row gets its own derived stream, so the fit is reproducible from the
    base seed.
    """
    sizes = np.asarray(sorted(_as_index(n, "grid length") for n in grid))
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
