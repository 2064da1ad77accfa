"""Sample autocovariance, periodogram, and lag-window smoothed spectra.

The periodogram is normalized as ``|sum_t x_t exp(-i w t)|**2 / (4 pi^2 N)``
and evaluated on the Fourier grid ``w_h = 2 pi h / N`` for h = 1..N (the
h = N ordinate aliases frequency zero).  The constant in front shifts
log-regression intercepts only, never slopes, so exponent estimates do not
depend on it.

Smoothed estimates weight the sample autocovariances with a Parzen or
cosine-bell (Tukey-Hanning) lag window before the cosine sum; the cosine
bell can produce negative ordinates, which downstream log-regressions clamp
and count.

``periodogram_band``, ``lag_window_band`` and ``lag_window_gaps`` compute a
band of the grid for every row of a (rows, N) array at once, and return
(rows, ...) arrays: a few ordinates from a product with a cached table of
cosines and sines, a wider band from one real-input FFT per row sliced to
it.  ``periodogram`` is one series' band over h = 1..N-1 plus the h = N
alias, and ``smoothed_periodogram`` the transform route over h = 1..N.  The
gap between the smoothed spectrum at frequency 0 and at w_j is formed
directly as (1/pi) sum_{k=1..m} c_k (1 - cos(w_j k)), with c_k the weighted
autocovariances and 1 - cos(w_j k) = 2 sin(w_j k / 2)**2, so it keeps its
relative precision where the two ordinates nearly agree.

The autocovariances behind the lag-window spectra come from a dot product
per lag while there are fewer than ``LAG_LIMIT`` (cos2 from N = 4096: 0.23
ms instead of 1.0-1.5 per row at N = 30000), from transforms of
``BLOCK_FFT``-sample blocks for a long series (cos1 from N = 16384: 0.65-0.85
ms instead of 1.2-1.6 at N = 32768), or from one transform of the whole
series (parzen, sp); the comment above ``LAG_LIMIT`` has the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided


def series_values(series) -> np.ndarray:
    """A 1-d array-like as a nonempty float64 array."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("expected a nonempty 1-d series")
    return x


def series_rows(rows) -> np.ndarray:
    """A (rows, N) float array, with one 1-d series taken as a single row."""
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim == 1:
        x = x[None]
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError("expected a nonempty series or (rows, N) array")
    return x


def _centred(x: np.ndarray) -> np.ndarray:
    """Each row minus its own mean (the row sum over N, as ``mean`` forms it)."""
    return x - x.sum(axis=1, keepdims=True) / x.shape[1]


@dataclass(frozen=True)
class LagWindowSpec:
    """Lag window family plus truncation point m (weights w(k/m), k = 0..m)."""

    kind: str
    m: int

    _KINDS = ("parzen", "cosbell")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"window kind must be one of {self._KINDS}, got {self.kind!r}")
        if self.m < 1:
            raise ValueError(f"truncation point must be >= 1, got {self.m}")


def default_truncation(n: int) -> int:
    """Default lag-window truncation point m = floor(N**0.9)."""
    return int(math.floor(n**0.9 + 1e-9))


@lru_cache(maxsize=64)
def _fft_length(target: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= target, a length numpy's FFT does fast."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _power(re, im, n: int):
    """Periodogram ordinates |sum_t x_t exp(-i w t)|**2 / (4 pi^2 N) from a transform."""
    return (re**2 + im**2) / (4.0 * np.pi**2 * n)


def _lag_half(c: np.ndarray, n: int) -> np.ndarray:
    """(1/2pi) [c_0 + 2 sum_k c_k cos(w_h k)] at h = 0..n//2, from a length-n rfft per row."""
    f = np.fft.rfft(c, n=n, axis=-1)
    return (2.0 * f.real - c[..., :1]) / (2.0 * np.pi)


# Lags 0..m of a length-N row take a dot product per lag while m < LAG_LIMIT,
# 8 (m + 1)**2 <= N and N >= 2 BLOCK_FFT; transforms of BLOCK_FFT samples
# while 2 (m + 1) <= BLOCK_FFT and N >= 8 BLOCK_FFT; else one transform of
# length >= N + m + 1.  Measured per row on a 2-vCPU Xeon VM (numpy 2.4.6),
# best of 60-100 alternating runs, one transform against the route taken:
# cos2 (m = N**0.3) 0.09-0.14 / 0.05-0.11 ms at N = 4096, 1.0-1.5 / 0.23 at
# 30000; cos1 (m = N**0.5) 0.38-0.40 / 0.29 at 16384, 1.19-1.64 / 0.65-0.85
# at 32768.  The one transform ties or wins below: dot products at
# N = 1000-2000 (0.03-0.07 / 0.05-0.08 ms), blocks at N = 10000-14000.
LAG_LIMIT = 64
BLOCK_FFT = 2048


def _acv_rows(x: np.ndarray, m: int) -> np.ndarray:
    """gamma_hat(0..m) of each row of x (see ``sample_acv``), shape (rows, m + 1)."""
    rows, n = x.shape
    direct = 2 * BLOCK_FFT <= n and m < LAG_LIMIT and 8 * (m + 1) ** 2 <= n
    if not direct and not (2 * (m + 1) <= BLOCK_FFT and 8 * BLOCK_FFT <= n):
        nfft = _fft_length(n + m + 1)
        f = np.fft.rfft(_centred(x), n=nfft, axis=1)
        return np.fft.irfft(f.real**2 + f.imag**2, n=nfft, axis=1)[:, :m + 1] / n
    binary = ((x == 0.0) | (x == 1.0)).all(axis=1) & (n <= 1 << 17)
    y = x if binary.all() else np.where(binary[:, None], x, _centred(x))
    if direct:
        sums = np.hstack([y[:, None, :n - k] @ y[:, k:, None] for k in range(m + 1)])[..., 0]
    else:
        # each block of `size` samples against the size + m samples from its
        # start: t + k < size + m < BLOCK_FFT, so no lag wraps around
        size = BLOCK_FFT - m - 1
        blocks = -(-n // size)
        padded = np.zeros((rows, blocks * size + m))
        padded[:, :n] = y
        s0, s1 = padded.strides
        heads = padded[:, :blocks * size].reshape(rows, blocks, size)
        spans = as_strided(padded, (rows, blocks, size + m), (s0, size * s1, s1), writeable=False)
        cross = np.fft.rfft(heads, n=BLOCK_FFT).conj() * np.fft.rfft(spans, n=BLOCK_FFT)
        sums = np.fft.irfft(cross.sum(axis=1), n=BLOCK_FFT)[:, :m + 1]
    out = sums / n
    if binary.any():
        p = np.rint(sums[binary])  # exact lag sums; P_0 is the number of ones S
        edges = np.zeros_like(p)  # ones among the first k and the last k samples
        edges[:, 1:] = np.cumsum(x[binary, :m] + x[binary, n - m:][:, ::-1], axis=1)
        s = p[:, :1]
        out[binary] = (n * n * p + s * (n * (edges - s) - np.arange(m + 1) * s)) / n**3
    return out


def sample_acv(series, max_lag: int) -> np.ndarray:
    """Biased sample autocovariance gamma_hat(0..max_lag), shape (max_lag + 1,).

    gamma_hat(h) = (1/N) sum_{t<N-h} (x_t - xbar)(x_{t+h} - xbar).  The 1/N
    divisor keeps the sequence nonnegative definite, which the lag-window
    spectra rely on.

    The sums take the cheapest route (see ``LAG_LIMIT``): a dot product per
    lag, short transforms of blocks of the series, or one transform of the
    centred series zero-padded to L >= N + max_lag + 1, the smallest
    2**a * 3**b * 5**c (circular lag h adds lag L - h, zero as L - h >= N).
    The first two sum a 0/1 series of N <= 2**17 uncentred: its lag sums P_h
    are exact integers, and with S ones in all and E_h among the first and
    last h samples, N**3 gamma_hat(h) = N**2 P_h + S (N (E_h - S) - h S) is
    an integer below 2**53, so gamma_hat(h) comes out correctly rounded.
    """
    x = series_values(series)
    n = x.size
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must satisfy 0 <= max_lag < {n}, got {max_lag}")
    return _acv_rows(x[None], max_lag)[0]


def periodogram(series) -> np.ndarray:
    """Raw periodogram ordinates at w_h = 2 pi h / N, h = 1..N, shape (N,).

    ``periodogram_band`` over h = 1..N-1, plus the h = N alias of frequency
    0: |sum_t x_t|**2 / (4 pi^2 N).  Subtracting the sample mean changes the
    transform at h = 0 alone, so the band is the same either way.
    """
    x = series_values(series)
    n = x.size
    if n < 2:
        raise ValueError("periodogram needs at least 2 observations")
    return np.append(periodogram_band(x[None], np.arange(1, n))[0], _power(x.sum(), 0.0, n))


def lag_window_weight(spec: LagWindowSpec, x):
    """Window weight w(x) for x in [0, 1].

    parzen:  1 - 6x^2 + 6x^3 on [0, 1/2], 2(1-x)^3 on (1/2, 1]
    cosbell: (1 + cos(pi x)) / 2
    """
    xs = np.asarray(x, dtype=np.float64)
    if np.any(~np.isfinite(xs)) or np.any(xs < 0.0) or np.any(xs > 1.0):
        raise ValueError("window argument must lie in [0, 1]")
    if spec.kind == "parzen":
        w = np.where(xs <= 0.5, 1.0 - 6.0 * xs**2 + 6.0 * xs**3, 2.0 * (1.0 - xs) ** 3)
    else:
        w = 0.5 * (1.0 + np.cos(np.pi * xs))
    if np.ndim(x) == 0:
        return float(w)
    return w


@lru_cache(maxsize=32)
def _window_weights(spec: LagWindowSpec) -> np.ndarray:
    weights = lag_window_weight(spec, np.arange(spec.m + 1) / spec.m)
    weights.flags.writeable = False
    return weights


def _weighted_acv(x: np.ndarray, spec: LagWindowSpec) -> np.ndarray:
    """Weighted autocovariances c_k = w(k/m) gamma_hat(k), k = 0..m, of each row of x."""
    n = x.shape[1]
    if spec.m >= n:
        raise ValueError(f"truncation point must be < series length, got m={spec.m}, n={n}")
    return _window_weights(spec) * _acv_rows(x, spec.m)


def smoothed_periodogram(series, spec: LagWindowSpec) -> np.ndarray:
    """Lag-window smoothed spectral estimate on the same grid as ``periodogram``, shape (N,).

    Ordinates may dip below zero for the cosine-bell window; they are
    returned as computed, and log-based consumers clamp them with a
    diagnostic count.
    """
    x = series_values(series)
    n = x.size
    h = np.arange(1, n + 1)  # h and n - h share an ordinate; h = n aliases h = 0
    return _lag_half(_weighted_acv(x[None], spec), n)[0, np.minimum(h, n - h)]


# A band is read off a product with a cached trigonometric table while the
# table holds at most PRODUCT_LIMIT * N entries, and off one length-N
# real-input FFT above that.  Measured on a 2-vCPU Xeon VM (numpy 2.4.6,
# OpenBLAS) at N = 30000, with the table in cache: an rfft took 0.42-0.47
# ms, a product with a table of 8N entries 0.06 ms, one of 32N 0.22 ms;
# with the caches evicted first: rfft 0.55-0.89 ms, 8N 0.24 ms, 32N 0.42 ms.
# 8 keeps a clear margin either way.  A table also holds at most
# TABLE_LIMIT entries (1 MB), so the three table caches below keep at most
# 3 * 8 * 1 MB whatever N is: a larger band takes the FFT, and a row of
# ``lag_window_gaps`` wider than that is built for the call alone.  At
# N = 8192..32768 the cos1 and cos2 bands (about N entries) and p's single
# index (2N) take the product, parzen's band (about 60N) and perio's the FFT.
PRODUCT_LIMIT = 8
TABLE_LIMIT = 1 << 17


def _max_table(n: int) -> int:
    """Most entries a table may hold for a length-n series."""
    return min(PRODUCT_LIMIT * n, TABLE_LIMIT)


def _row_products(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """x @ table.T as one matrix-vector product per row.

    A product over many rows at once may sum in another order than a
    single row's does, and a band ordinate next to a zero of the spectrum
    or a near-zero slope (with its r_squared) is sensitive to that; one
    product per row gives each row the same values whatever batch it is in.
    """
    return (x[:, None, :] @ table.T)[:, 0, :]


def _fourier_indices(indices, n: int) -> np.ndarray:
    h = np.asarray(indices, dtype=np.int64).reshape(-1)
    if h.size < 1 or h.min() < 1 or h.max() >= n:
        raise ValueError(f"Fourier indices must lie in [1, {n}), got {h.tolist()}")
    return h


@lru_cache(maxsize=8)
def _dft_table(n: int, indices: tuple[int, ...]) -> np.ndarray:
    """cos(w_h t) rows, then sin(w_h t) rows, for each h and t = 0..n-1.

    Phases are reduced mod n in integers first, so each angle is exact
    before the one rounding of 2 pi / n.
    """
    phase = (2.0 * np.pi / n) * (np.outer(indices, np.arange(n)) % n)
    table = np.concatenate([np.cos(phase), np.sin(phase)])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _cosine_table(n: int, g: int, m: int) -> np.ndarray:
    """cos(w_h k) for h = 1..g (rows) and k = 1..m (columns)."""
    phase = (2.0 * np.pi / n) * (np.outer(np.arange(1, g + 1), np.arange(1, m + 1)) % n)
    table = np.cos(phase)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _half_angle_table(n: int, indices: tuple[int, ...], m: int) -> np.ndarray:
    """1 - cos(w_j k) = 2 sin(pi j k / n)**2 for each j (rows) and k = 1..m."""
    phase = (np.pi / n) * (np.outer(indices, np.arange(1, m + 1)) % n)
    table = 2.0 * np.sin(phase) ** 2
    table.flags.writeable = False
    return table


def periodogram_band(x, indices) -> np.ndarray:
    """Centred periodogram of each row of x at the Fourier indices h, each in [1, N).

    Row r equals ``periodogram(x[r])[h - 1]``; the result has shape
    (rows, len(h)).  Read off one product of the centred rows with a cached
    (2 * len(h), N) table of cosines and sines while that table fits
    (``_max_table``), else off one rfft per row at min(h, N - h).
    """
    n = x.shape[1]
    h = _fourier_indices(indices, n)
    xc = _centred(x)
    if 2 * h.size * n <= _max_table(n):
        f = _row_products(xc, _dft_table(n, tuple(h.tolist())))
        return _power(f[:, :h.size], f[:, h.size:], n)
    f = np.fft.rfft(xc, axis=1)[:, np.minimum(h, n - h)]
    return _power(f.real, f.imag, n)


def lag_window_band(x, spec: LagWindowSpec, g: int) -> np.ndarray:
    """Lag-window spectrum of each row of x at h = 1..g, shape (rows, g).

    Row r equals ``smoothed_periodogram(x[r], spec)[:g]``:
    (c_0 + 2 sum_{k=1..m} c_k cos(w_h k)) / 2 pi comes from a cached (g, m)
    cosine table while that table fits (``_max_table``), else from one
    length-N rfft of c per row sliced to the band.
    """
    n = x.shape[1]
    if not 1 <= g < n:
        raise ValueError(f"band size must lie in [1, {n}), got {g}")
    c = _weighted_acv(x, spec)
    if g * spec.m <= _max_table(n):
        cosine_sums = _row_products(c[:, 1:], _cosine_table(n, g, spec.m))
        return (c[:, :1] + 2.0 * cosine_sums) / (2.0 * np.pi)
    h = np.arange(1, g + 1)
    return _lag_half(c, n)[:, np.minimum(h, n - h)]


def lag_window_gaps(x, spec: LagWindowSpec, indices) -> tuple[np.ndarray, np.ndarray]:
    """Lag-window spectrum of each row of x at frequency 0, and its drop f(0) - f(w_j) at each j.

    Shapes (rows,) and (rows, len(j)).  f(0) = (c_0 + 2 sum_k c_k) / 2 pi,
    and the drop is formed directly as (1/pi) sum_{k=1..m} c_k (1 - cos(w_j k))
    from a cached table of 2 sin(w_j k / 2)**2, in blocks of as many table
    rows as ``_max_table`` allows (one uncached row at a time when a single
    row does not fit).  Subtracting two computed ordinates instead would
    cancel when they nearly agree, as they do next to frequency 0.
    """
    n = x.shape[1]
    j = _fourier_indices(indices, n)
    c = _weighted_acv(x, spec)
    origin = (c[:, 0] + 2.0 * c[:, 1:].sum(axis=1)) / (2.0 * np.pi)
    per_block = _max_table(n) // spec.m
    table = _half_angle_table if per_block else _half_angle_table.__wrapped__
    step = max(1, per_block)
    drops = [_row_products(c[:, 1:], table(n, tuple(j[i:i + step].tolist()), spec.m))
             for i in range(0, j.size, step)]
    return origin, np.concatenate(drops, axis=1) / np.pi
