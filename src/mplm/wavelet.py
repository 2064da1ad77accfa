"""Haar and Mexican-hat wavelet coefficients and the per-level variance ladder.

Coefficients of a length-(2**m) series are

    w[j, k] = 2**(j/2) * sum_t x_t psi(2**j * (t / N) - k),

for levels j = 0..m-1 and translations k = 0..2**j - 1: time is rescaled to
[0, 1), so level j probes blocks of 2**(m-j) consecutive samples.  The Haar
path is a block-sum pyramid; the Mexican hat is evaluated on its effective
support |u| <= 8 with strided windows.  Both agree with the direct summation
of the defining formula, which is kept available as a slow oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spectral import series_values

MEXHAT_SUPPORT = 8.0  # |psi| < 1e-12 beyond this


class TruncationWarning(UserWarning):
    """Series length was cut down to a power of two."""


class WaveletBasis(str, Enum):
    HAAR = "haar"
    MEXICAN_HAT = "mexhat"


@dataclass(frozen=True, eq=False)
class WaveletLadder:
    """Per-level mean squared coefficients R_hat(j), j = 4..m-1."""

    levels: np.ndarray
    values: np.ndarray
    m: int


def psi(basis: WaveletBasis, u):
    """Mother wavelet at u.

    haar:   +1 on [0, 1/2), -1 on [1/2, 1), 0 elsewhere
    mexhat: (1 - u^2) exp(-u^2 / 2), taken as 0 beyond |u| = 8
    """
    basis = WaveletBasis(basis)
    us = np.asarray(u, dtype=np.float64)
    if np.any(~np.isfinite(us)):
        raise ValueError("wavelet argument must be finite")
    if basis is WaveletBasis.HAAR:
        out = np.where((us >= 0.0) & (us < 0.5), 1.0,
                       np.where((us >= 0.5) & (us < 1.0), -1.0, 0.0))
    else:
        out = np.where(np.abs(us) <= MEXHAT_SUPPORT,
                       (1.0 - us**2) * np.exp(-0.5 * us**2), 0.0)
    if np.ndim(u) == 0:
        return float(out)
    return out


def _pow2_values(series) -> tuple[np.ndarray, int]:
    x = series_values(series)
    m = int(np.floor(np.log2(x.size)))
    keep = 1 << m
    if keep != x.size:
        warnings.warn(
            f"series length {x.size} is not a power of two; using the first {keep} samples",
            TruncationWarning,
            stacklevel=3,
        )
        x = x[:keep]
    return x, m


def _fast_coefficients(x: np.ndarray, m: int, basis: WaveletBasis, levels):
    """Yield the coefficient array of each level in ``levels``."""
    if basis is WaveletBasis.HAAR:
        # one pyramid of pairwise sums serves every level: sums[i] holds the
        # sums over blocks of 2**i samples, and a level-j coefficient is the
        # difference of adjacent half-block sums
        sums = [x]
        for _ in range(1, m):
            sums.append(sums[-1][0::2] + sums[-1][1::2])
        for j in levels:
            half = sums[m - j - 1]
            yield 2.0 ** (0.5 * j) * (half[0::2] - half[1::2])
        return
    for j in map(int, levels):
        step = 1 << (m - j)  # samples per unit shift of the rescaled argument
        halfwidth = int(MEXHAT_SUPPORT) * step
        offsets = np.arange(-halfwidth, halfwidth + 1)
        kernel = psi(WaveletBasis.MEXICAN_HAT, offsets / step)
        padded = np.concatenate([np.zeros(halfwidth), x, np.zeros(halfwidth)])
        windows = np.lib.stride_tricks.sliding_window_view(padded, offsets.size)[::step]
        yield 2.0 ** (0.5 * j) * (windows @ kernel)


def _coefficients_direct(x: np.ndarray, basis: WaveletBasis, j: int) -> np.ndarray:
    # literal evaluation of the defining sum; quadratic cost, oracle use only
    n = x.size
    grid = (1 << j) * (np.arange(n) / n)
    out = np.empty(1 << j)
    for k in range(1 << j):
        out[k] = np.sum(x * psi(basis, grid - k))
    return 2.0 ** (0.5 * j) * out


def wavelet_coefficients(series, basis: WaveletBasis, j: int,
                         centered: bool = True, method: str = "fast") -> np.ndarray:
    """Level-j coefficients w[j, 0..2**j - 1].

    The series is truncated to the largest power of two with a diagnostic
    if needed, and mean-centered by default.  ``method="direct"`` evaluates
    the defining sum term by term instead of the fast path.
    """
    basis = WaveletBasis(basis)
    x, m = _pow2_values(series)
    if not 0 <= j < m:
        raise ValueError(f"level must satisfy 0 <= j <= {m - 1}, got {j}")
    if centered:
        x = x - x.mean()
    if method == "direct":
        return _coefficients_direct(x, basis, j)
    if method != "fast":
        raise ValueError(f"method must be 'fast' or 'direct', got {method!r}")
    return next(_fast_coefficients(x, m, basis, [j]))


def sample_R(series, basis: WaveletBasis) -> WaveletLadder:
    """Mean squared coefficient per level, R_hat(j) for j = 4..m-1.

    The series is mean-centered first.  Needs at least 2**6 samples so the
    ladder has two or more levels.
    """
    basis = WaveletBasis(basis)
    x, m = _pow2_values(series)
    if m < 6:
        raise ValueError(f"need a series of at least 64 samples, got {x.size}")
    levels = np.arange(4, m)
    values = [np.mean(w**2) for w in _fast_coefficients(x - x.mean(), m, basis, levels)]
    return WaveletLadder(levels, np.array(values), m)
