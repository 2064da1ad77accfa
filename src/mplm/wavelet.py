"""Haar and Mexican-hat wavelet coefficients and the per-level variance ladder.

Coefficients of a length-(2**m) series are

    w[j, k] = 2**(j/2) * sum_t x_t psi(2**j * (t / N) - k),

for levels j = 0..m-1 and translations k = 0..2**j - 1: time is rescaled to
[0, 1), so level j probes blocks of 2**(m-j) consecutive samples.  The fast
paths work on every row of a (rows, N) array at once.  The Haar path is a
block-sum pyramid over the rows; the Mexican hat is evaluated on its
effective support |u| <= 8, with matrix products of one row each, in one
of two shapes chosen by the level's step of 2**(m-j) samples.  A coarse
level (step above ``FINE_STEP``, 16, or fewer than 16 coefficients)
multiplies the kernel, cut into 17 rows of step taps, by the row's own
blocks of step samples, and sums the product's diagonals; the zero blocks
beyond the series are never formed.  A fine level takes 16 coefficients
per product row, from windows of 32 steps of a lightly padded copy, so
nothing is written per tap.  A row's
products keep the shape of a single series: one stacked product over all
rows per level ran 4-5 times slower per row, and a row of a batch equals
the row alone, bit for bit.  A single-series product is not kept off the
BLAS threads, though.  On 2 vCPUs with numpy 2.4's OpenBLAS, every
product of N <= 16384 runs on one thread, and at N = 32768 those of
j = 7..10 run on two (process CPU / wall 1.8-2.0 over 300 calls of one
level, from sleeping workers) and the rest on one.  Capping each product at 2**18 multiply-adds, the size below
which OpenBLAS keeps one thread, stopped the second thread but slowed the
old N = 32768 ladder from 1.23 to 1.42 ms, so the threads stay: they buy
wall time at the cost of CPU time.  Both paths agree with the direct
summation of the defining formula, which the tests keep as an oracle.
"""

from __future__ import annotations

import warnings
from enum import Enum
from functools import lru_cache

import numpy as np

from .spectral import _as_index, _centred, series_rows, series_values

MEXHAT_SUPPORT = 8.0  # |psi| < 1e-12 beyond this


class TruncationWarning(UserWarning):
    """Series length was cut down to a power of two."""


class WaveletBasis(str, Enum):
    HAAR = "haar"
    MEXICAN_HAT = "mexhat"


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


# A Mexican-hat level of at most FINE_STEP samples per unit shift takes 16
# coefficients per product row, a coarser one a coefficient per column.  On
# a 2-vCPU Xeon VM (numpy 2.4.6, OpenBLAS), best of 200 one-row levels in ms,
# per column / per row: step 16 0.029 / 0.025 at N = 8192, 0.038 / 0.026 at
# 16384, 0.069 / 0.043 at 32768; step 2 0.072 / 0.019, 0.14 / 0.030, 0.34 /
# 0.053; steps 32 and 64 tie within 15%; step 128 0.042 / 0.056 at 32768.
FINE_STEP = 16


@lru_cache(maxsize=32)
def _mexhat_taps(step: int) -> np.ndarray:
    """psi at the offsets -8*step..8*step in units of 1/step, as a (17, step) table.

    Row r holds taps r*step..(r+1)*step - 1; row 16 holds the last tap and
    zeros (read-only).
    """
    halfwidth = int(MEXHAT_SUPPORT) * step
    taps = psi(WaveletBasis.MEXICAN_HAT, np.arange(-halfwidth, halfwidth + step) / step)
    taps = taps.reshape(-1, step)
    taps.setflags(write=False)
    return taps


@lru_cache(maxsize=32)
def _mexhat_block_taps(step: int) -> np.ndarray:
    """psi(i / step - g - 8) at row i < 32*step, column g < 16, as (2, 16*step, 16) (read-only)."""
    span = 2 * int(MEXHAT_SUPPORT)
    offsets = np.arange(2 * span * step)[:, None] / step - np.arange(span) - span // 2
    taps = psi(WaveletBasis.MEXICAN_HAT, offsets).reshape(2, span * step, span)
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
    # coefficient k is sum_i x[(k - 8)*step + i] * kernel[i], x zero outside
    # the series.  Coarse: taps r*step..(r+1)*step - 1 times block b of the
    # series give entry (r, b + 8) of a zeroed 17 x (count + 16) product (its
    # outer columns stand for zero blocks); written into rows one entry
    # longer, entries (r, k + r) sit count + 18 apart, so a plain reshape
    # lines up each diagonal in a column.  Fine: coefficients 16q..16q+15
    # read blocks q and q + 1 of 16*step samples of a padded copy.
    span = 2 * int(MEXHAT_SUPPORT)  # unit shifts the kernel covers
    n = x.shape[1]
    pad = span // 2 * FINE_STEP
    padded = np.zeros((x.shape[0], n + 2 * pad))
    padded[:, pad:pad + n] = x
    for j in levels:
        step, count = n >> j, 1 << j  # step: samples per unit shift of the rescaled argument
        if step <= FINE_STEP and count >= span:
            table = _mexhat_block_taps(step)
            blocks = padded[:, pad - span // 2 * step:pad + n + span // 2 * step].reshape(
                x.shape[0], count // span + 1, span * step)
            w = np.empty((x.shape[0], count // span, span))
            for coefficients, series_blocks in zip(w, blocks):  # one series per product (see above)
                np.matmul(series_blocks[:-1], table[0], out=coefficients)
                coefficients += series_blocks[1:] @ table[1]
        else:
            taps = _mexhat_taps(step)
            flat = np.zeros((span + 1) * (count + span + 2))
            product = flat[:(span + 1) * (count + span + 1)].reshape(span + 1, -1)[
                :, span // 2:span // 2 + count]
            diagonals = flat.reshape(span + 1, -1)[:, :count]
            w = np.empty((x.shape[0], count))
            for coefficients, series in zip(w, x):
                np.matmul(taps, series.reshape(count, step).T, out=product)
                diagonals.sum(axis=0, out=coefficients)
        yield 2.0 ** (0.5 * j) * w.reshape(x.shape[0], count)


def wavelet_coefficients(series, basis: WaveletBasis, j: int) -> np.ndarray:
    """Level-j coefficients w[j, 0..2**j - 1] of the mean-centred series.

    The series is truncated to the largest power of two with a diagnostic
    if needed.
    """
    basis = WaveletBasis(basis)
    x, m = _pow2_rows(series_values(series)[None])
    j = _as_index(j, "level")
    if not 0 <= j < m:
        raise ValueError(f"level must satisfy 0 <= j <= {m - 1}, got {j}")
    return next(_fast_coefficients(_centred(x), m, basis, [j]))[0]


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


def sample_R(series, basis: WaveletBasis) -> tuple[np.ndarray, np.ndarray]:
    """Levels j = 4..m-1 and the mean squared coefficient R_hat(j) of each.

    The ladder of one series: row 0 of ``ladder_rows``.
    """
    levels, values = ladder_rows(series_values(series)[None], basis)
    return levels, values[0]
