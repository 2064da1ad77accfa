"""Haar and Mexican-hat wavelet coefficients and the per-level variance ladder.

Coefficients of a length-(2**m) series are

    w[j, k] = 2**(j/2) * sum_t x_t psi(2**j * (t / N) - k),

for levels j = 0..m-1 and translations k = 0..2**j - 1: time is rescaled to
[0, 1), so level j probes blocks of 2**(m-j) consecutive samples.  The fast
paths work on every row of a (rows, N) array at once.  The Haar path is a
block-sum pyramid over the rows; the Mexican hat is evaluated on its
effective support |u| <= 8 by one matrix product per row and level: each
level lays its window of one zero-padded copy out in rows of 2**(m-j)
samples, times the kernel cut into 17 rows of that length (the last holds
the last tap), and the product, written into rows one entry longer, is
reshaped so that each of its diagonals lines up in a column.  The product
keeps the shape of a single series on purpose: stacking the rows into one
larger product hands it to the BLAS threads, and a second thread then
spins between calls.  Both paths agree with the direct summation of the
defining formula, which ``_coefficients_direct`` keeps as a test oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .spectral import _centred, series_rows, series_values

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


def _require_ladder_length(n: int) -> None:
    """A ladder of two or more levels, j = 4 and 5, needs 2**6 samples."""
    if n < 64:
        raise ValueError(f"need a series of at least 64 samples, got {n}")


def _pow2_rows(x: np.ndarray) -> tuple[np.ndarray, int]:
    """The rows cut to the largest power-of-two length 2**m, and m."""
    m = int(np.floor(np.log2(x.shape[1])))
    keep = 1 << m
    if keep != x.shape[1]:
        warnings.warn(
            f"series length {x.shape[1]} is not a power of two; using the first {keep} samples",
            TruncationWarning,
            stacklevel=3,
        )
        x = x[:, :keep]
    return x, m


@lru_cache(maxsize=32)
def _mexhat_taps(step: int) -> np.ndarray:
    """psi at the offsets -8*step..8*step in units of 1/step, as a (17, step) table.

    Row r holds taps r*step..(r+1)*step - 1; row 16 holds the last tap and
    zeros (read-only).
    """
    halfwidth = int(MEXHAT_SUPPORT) * step
    taps = np.zeros((2 * int(MEXHAT_SUPPORT) + 1, step))
    taps.flat[:2 * halfwidth + 1] = psi(WaveletBasis.MEXICAN_HAT,
                                        np.arange(-halfwidth, halfwidth + 1) / step)
    taps.setflags(write=False)
    return taps


def _fast_coefficients(x: np.ndarray, m: int, basis: WaveletBasis, levels):
    """Yield the (rows, 2**j) coefficient array of each level j in ``levels``."""
    if basis is WaveletBasis.HAAR:
        # one pyramid of pairwise sums serves every level: sums[i] holds the
        # sums over blocks of 2**i samples, and a level-j coefficient is the
        # difference of adjacent half-block sums; the pyramid stops at the
        # blocks of the coarsest level asked for
        sums = [x]
        for _ in range(m - 1 - min(levels)):
            sums.append(sums[-1][:, 0::2] + sums[-1][:, 1::2])
        for j in levels:
            half = sums[m - j - 1]
            yield 2.0 ** (0.5 * j) * (half[:, 0::2] - half[:, 1::2])
        return
    # coefficient k is sum_i padded[k*step + i] * kernel[i] over 16*step + 1
    # taps; with the padded series in rows of step samples and the taps in
    # the 17 rows of ``_mexhat_taps``, taps r*step..(r+1)*step - 1 give entry
    # (r, k + r) of one matrix product; written into rows one entry longer,
    # those entries sit count + 18 apart, so a plain reshape lines up each
    # diagonal in a column; one copy padded for the coarsest level holds
    # every level's window
    rows = 2 * int(MEXHAT_SUPPORT) + 1
    n = x.shape[1]
    widest = int(MEXHAT_SUPPORT) << (m - min(levels))
    padded = np.zeros((x.shape[0], n + 2 * widest))
    padded[:, widest:widest + n] = x
    for j in map(int, levels):
        step = 1 << (m - j)  # samples per unit shift of the rescaled argument
        count = 1 << j
        halfwidth = int(MEXHAT_SUPPORT) * step
        taps = _mexhat_taps(step)
        width = count + rows - 1  # blocks of the level's window
        blocks = padded[:, widest - halfwidth:widest + n + halfwidth].reshape(
            x.shape[0], width, step)
        flat = np.empty(rows * (width + 2))
        product = flat[:rows * (width + 1)].reshape(rows, width + 1)[:, :width]
        diagonals = flat.reshape(rows, width + 2)[:, :count]
        w = np.empty((x.shape[0], count))
        for coefficients, series_blocks in zip(w, blocks):
            np.matmul(taps, series_blocks.T, out=product)  # one series per product (see above)
            diagonals.sum(axis=0, out=coefficients)
        yield 2.0 ** (0.5 * j) * w


def _coefficients_direct(x: np.ndarray, basis: WaveletBasis, j: int) -> np.ndarray:
    # literal evaluation of the defining sum; quadratic cost, oracle use only
    n = x.size
    grid = (1 << j) * (np.arange(n) / n)
    out = np.empty(1 << j)
    for k in range(1 << j):
        out[k] = np.sum(x * psi(basis, grid - k))
    return 2.0 ** (0.5 * j) * out


def wavelet_coefficients(series, basis: WaveletBasis, j: int,
                         centered: bool = True) -> np.ndarray:
    """Level-j coefficients w[j, 0..2**j - 1].

    The series is truncated to the largest power of two with a diagnostic
    if needed, and mean-centered by default.
    """
    basis = WaveletBasis(basis)
    x, m = _pow2_rows(series_values(series)[None])
    if not 0 <= j < m:
        raise ValueError(f"level must satisfy 0 <= j <= {m - 1}, got {j}")
    return next(_fast_coefficients(_centred(x) if centered else x, m, basis, [j]))[0]


def ladder_rows(rows, basis: WaveletBasis) -> tuple[np.ndarray, np.ndarray]:
    """Levels j = 4..m-1, and R_hat(j) of each row of a (rows, N) array.

    Each row is mean-centered first; a length that is not a power of two is
    cut to the largest power of two below it, with one TruncationWarning.
    Needs at least 2**6 samples so the ladder has two or more levels.
    Returns the levels and an array of shape (rows, levels).
    """
    basis = WaveletBasis(basis)
    x = series_rows(rows)
    _require_ladder_length(x.shape[1])
    x, m = _pow2_rows(x)
    levels = np.arange(4, m)
    x = _centred(x)
    values = np.empty((x.shape[0], levels.size))
    for i, w in enumerate(_fast_coefficients(x, m, basis, levels.tolist())):
        values[:, i] = (w**2).sum(axis=1) / w.shape[1]  # the mean square, as ``mean`` forms it
    return levels, values


def sample_R(series, basis: WaveletBasis) -> WaveletLadder:
    """Mean squared coefficient per level, R_hat(j) for j = 4..m-1.

    The ladder of one series: row 0 of ``ladder_rows``.
    """
    levels, values = ladder_rows(series_values(series)[None], basis)
    return WaveletLadder(levels, values[0], int(levels[-1]) + 1)
