"""Power-series sums n**-g: totals and tails.

``zeta_value`` follows a direct-summation scheme: add the first 10**6
terms and close with the integral tail M**(1-g)/(g-1).  For g > 2 the
absolute error is below 1e-12, comfortably inside the documented 1e-10
target, and no special-function dependency is needed.

Deep tails required by the heavy-tailed samplers cannot be reached by
subtracting partial sums from the total without cancellation, so
``tail_sum`` uses an Euler-Maclaurin expansion that stays accurate for
arbitrary truncation points.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_DIRECT_TERMS = 1_000_000
_EM_START = 64  # Euler-Maclaurin is applied from indices >= this
# Most terms of the head summed from one array: 2**16 keeps the temporaries
# near 1 MB, where all 10**6 terms at once took 15 MB, at the same speed.
_HEAD_PIECE = 1 << 16


def _require_exponent(g: float, minimum: float) -> None:
    if not np.isfinite(g) or g <= minimum:
        raise ValueError(f"exponent must be a finite real > {minimum}, got {g}")


@lru_cache(maxsize=128)
def zeta_value(g: float) -> float:
    """Sum of n**-g over n >= 1, by truncated series plus corrected tail.

    The tail beyond 10**6 terms is the integral plus Euler-Maclaurin
    corrections, which keeps exponents just above 1 (needed for the
    chain's stationary normalization) at full accuracy too.
    """
    _require_exponent(g, 1.0)
    return _head_sum(g, 1, _DIRECT_TERMS + 1) + _em_tail(g, float(_DIRECT_TERMS + 1))


def _head_sum(g: float, lo: int, hi: int) -> float:
    """Sum of n**-g over lo <= n < hi, bit for bit ``np.sum`` of one array of the terms:
    a range over ``_HEAD_PIECE`` splits where numpy's pairwise sum splits an
    array, at half its length rounded down to a multiple of 8."""
    count = hi - lo
    if count <= _HEAD_PIECE:
        return float(np.sum(np.arange(lo, hi, dtype=np.float64) ** (-g)))
    half = count // 2 - count // 2 % 8
    return _head_sum(g, lo, lo + half) + _head_sum(g, lo + half, hi)


def _em_tail(g: float, a: float) -> float:
    # sum_{n>=a} n**-g for a >= _EM_START; error O(a**-(g+7))
    return (
        a ** (1.0 - g) / (g - 1.0)
        + 0.5 * a**-g
        + g * a ** (-g - 1.0) / 12.0
        - g * (g + 1.0) * (g + 2.0) * a ** (-g - 3.0) / 720.0
        + g * (g + 1.0) * (g + 2.0) * (g + 3.0) * (g + 4.0) * a ** (-g - 5.0) / 30240.0
    )


def tail_sum(g: float, m: int) -> float:
    """Sum of n**-g over n > m, accurate for any m >= 0."""
    _require_exponent(g, 1.0)
    if m < 0:
        raise ValueError(f"truncation point must be >= 0, got {m}")
    a = m + 1
    if a < _EM_START:
        n = np.arange(a, _EM_START, dtype=np.float64)
        return float(np.sum(n ** (-g))) + _em_tail(g, float(_EM_START))
    return _em_tail(g, float(a))
