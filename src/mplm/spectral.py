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

``periodogram_band`` and ``lag_window_band`` compute a band of the grid for
every row of a (rows, N) array at once, and return (rows, ...) arrays: a few
ordinates from a product with a cached table of cosines and sines, a wider
band from one real-input FFT per row sliced to it.  ``periodogram`` is one
series' band over h = 1..N-1 plus the h = N alias, and
``smoothed_periodogram`` the transform route over h = 1..N.
``lag_window_gaps`` gives each row's smoothed spectrum at frequency 0 and
its gap to the one index j that ``sp`` reads, formed directly as
(1/pi) sum_{k=1..m} c_k (1 - cos(w_j k)) so that it keeps its relative
precision where the two ordinates nearly agree: both are linear forms in
the autocovariances c_k, read off the power of one forward transform per
row with a cached table, with no autocovariance or inverse transform.

The autocovariances behind the other lag-window spectra take one of two
routes per row: a 0/1 row sums its lags exactly by popcounts of its packed
bits while the truncation point is below ``POPCOUNT_LIMIT`` (cos1 and
cos2), and every other row, or a larger truncation point (parzen from
N = 475), takes one transform pair of the whole centred series; the comment
above ``POPCOUNT_LIMIT`` has the measurements.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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


def _as_index(value, name: str) -> int:
    """A size or index as an int, by ``operator.index``: 2.5, and 2.0 too, raise ``ValueError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        if _as_index(self.m, "truncation point") < 1:
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


def _lag_half(c: np.ndarray, n: int, index: np.ndarray) -> np.ndarray:
    """(1/2pi) [c_0 + 2 sum_k c_k cos(w_h k)] at h = index (0..n//2), by a length-n rfft."""
    f = np.fft.rfft(c, n=n, axis=-1)[..., index]
    return (2.0 * f.real - c[..., :1]) / (2.0 * np.pi)


# Lags 0..m of a 0/1 row of N <= 2**17 samples are popcounts while
# m < POPCOUNT_LIMIT; other rows, and larger m, take one transform of length
# >= N + m + 1.  Measured on a 2-vCPU Xeon VM (numpy 2.4.6), best of
# alternating runs, popcount / transform in ms per call on the 2**15 // N
# rows ``estimate_batch`` takes at once: at m = 255, 0.50-0.56 / 1.3-1.7 for
# one row of 30000, 0.60-0.67 / 0.73-1.27 for 4 of 8192, 1.1-1.2 / 1.0-1.5
# for 32 of 1000, where m = 320 ties (1.5-1.6 / 1.6); cos2 (m = 22) 0.11 /
# 1.1 and cos1 (m = 173) 0.51 / 1.1 at N = 30000.  The transform wins on
# short rows: one row of 1000 at m = 255 0.11 / 0.06, 128 rows of 256 at
# m = 63 0.84 / 0.71.
POPCOUNT_LIMIT = 256


def _lag_sums(x: np.ndarray, m: int) -> np.ndarray:
    """P_k = sum_t x_t x_{t+k}, k = 0..m, of each 0/1 row of x as exact integers.

    Rows are packed into little-endian 64-bit words; bit t of a row sits in
    word t // 64, so lag k = 64 q + r pairs each word with the row shifted
    down by r bits and then by q words, and P_k counts the ones they share.
    """
    rows, n = x.shape
    words = -(-n // 64)
    packed = np.zeros((rows, 8 * (words + m // 64 + 1)), np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(x != 0.0, axis=1, bitorder="little")
    w = packed.view("<u8")
    r = np.arange(min(m + 1, 64), dtype=np.uint64)[:, None]
    shifted = (w[:, None, :-1] >> r) | ((w[:, None, 1:] << np.uint64(1)) << (63 - r))
    head = w[:, None, :words]
    sums = [np.bitwise_count(head & shifted[..., q:q + words]).sum(axis=-1)
            for q in range(m // 64 + 1)]
    return np.concatenate(sums, axis=1)[:, :m + 1]


def _padded_transform(x: np.ndarray, m: int) -> tuple[np.ndarray, int]:
    """rfft of each centred row of x zero-padded to L = ``_fft_length(N + m + 1)``, and L."""
    nfft = _fft_length(x.shape[1] + m + 1)
    return np.fft.rfft(_centred(x), n=nfft, axis=1), nfft


def _transform_acv(x: np.ndarray, m: int) -> np.ndarray:
    """gamma_hat(0..m) of each row of x as irfft(|X|**2) / N, with |X|**2 written into X.

    irfft takes a complex input as it is, and would convert a real one first.
    """
    f, nfft = _padded_transform(x, m)
    np.add(f.real**2, f.imag**2, out=f.real)
    f.imag = 0.0
    return np.fft.irfft(f, n=nfft, axis=1)[:, :m + 1] / x.shape[1]


def _acv_rows(x: np.ndarray, m: int) -> np.ndarray:
    """gamma_hat(0..m) of each row of x (see ``sample_acv``), shape (rows, m + 1)."""
    rows, n = x.shape
    if m >= POPCOUNT_LIMIT or n > 1 << 17:
        return _transform_acv(x, m)
    binary = ((x == 0.0) | (x == 1.0)).all(axis=1)
    out = np.empty((rows, m + 1))
    if not binary.all():
        out[~binary] = _transform_acv(x[~binary], m)
    if binary.any():
        ones = x[binary]
        p = _lag_sums(ones, m).astype(np.float64)  # P_0 is the number of ones S
        edges = np.zeros_like(p)  # ones among the first k and the last k samples
        edges[:, 1:] = np.cumsum(ones[:, :m] + ones[:, n - m:][:, ::-1], axis=1)
        s = p[:, :1]
        out[binary] = (n * n * p + s * (n * (edges - s) - np.arange(m + 1) * s)) / n**3
    return out


def sample_acv(series, max_lag: int) -> np.ndarray:
    """Biased sample autocovariance gamma_hat(0..max_lag), shape (max_lag + 1,).

    gamma_hat(h) = (1/N) sum_{t<N-h} (x_t - xbar)(x_{t+h} - xbar).  The 1/N
    divisor keeps the sequence nonnegative definite, which the lag-window
    spectra rely on.

    A 0/1 series of N <= 2**17 with max_lag < ``POPCOUNT_LIMIT`` sums its
    lags uncentred, by popcounts: its lag sums P_h are exact integers, and
    with S ones in all and E_h among the first and last h samples,
    N**3 gamma_hat(h) = N**2 P_h + S (N (E_h - S) - h S) is an integer below
    2**53, so gamma_hat(h) comes out correctly rounded.  Any other series
    takes one transform of the centred series zero-padded to
    L >= N + max_lag + 1, the smallest 2**a * 3**b * 5**c (circular lag h
    adds lag L - h, zero as L - h >= N).
    """
    x = series_values(series)
    n = x.size
    max_lag = _as_index(max_lag, "max_lag")
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
    return _lag_half(_weighted_acv(x[None], spec), n, np.minimum(h, n - h))[0]


# A band is read off a product with a cached trigonometric table while the
# table holds at most PRODUCT_LIMIT * N entries, and off one length-N
# real-input FFT above that.  Measured on a 2-vCPU Xeon VM (numpy 2.4.6,
# OpenBLAS) at N = 30000, with the table in cache: an rfft took 0.42-0.47
# ms, a product with a table of 8N entries 0.06 ms, one of 32N 0.22 ms;
# with the caches evicted first: rfft 0.55-0.89 ms, 8N 0.24 ms, 32N 0.42 ms.
# 8 keeps a clear margin either way.  A table also holds at most
# TABLE_LIMIT entries (1 MB), so the three table caches below keep at most
# 3 * 8 * 1 MB whatever N is: a larger band takes the FFT, and larger gap
# forms are built per call.  At N = 8192..32768 the cos1 and cos2 bands
# (about N entries) and p's index (2N) take the product, parzen's band (60N)
# and perio's the FFT, and sp's forms (about 2N) are cached, up to N = 64954.
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
def _gap_forms(n: int, spec: LagWindowSpec, j: int) -> np.ndarray:
    """Rows B of f(0), of the drop f(0) - f(w_j) and of its rounding, shape (3, L // 2 + 1).

    A lag form sum_k a_k gamma_hat(k) is sum_nu |X(nu)|**2 B(nu), X the
    ``_padded_transform`` of the row and B the real part of the length-L rfft
    of a_0..a_m times mu / (N L), mu the Hermitian multiplicity (1 at nu = 0
    and at L / 2, else 2).  f(0) has a_k = w_k / 2 pi, doubled for k >= 1,
    the drop a_k = w_k 2 sin(pi j k / N)**2 / pi.  The third row,
    |B| + mu sum_k |a_k| / (N L) of the drop, bounds its rounding: the
    product's, near each term, and the two transforms', about u log2 L of
    their largest entry across all of |X|**2 (sum mu |X|**2 = N L gamma_hat(0)).
    """
    nfft = _fft_length(n + spec.m + 1)
    k = np.arange(spec.m + 1)
    weights = _window_weights(spec) / np.pi
    lags = np.stack([np.where(k > 0, weights, weights / 2.0),
                     weights * 2.0 * np.sin((np.pi / n) * ((j * k) % n)) ** 2])
    forms = np.fft.rfft(lags, n=nfft, axis=1).real
    nu = np.arange(forms.shape[1])
    multiplicity = (2.0 - (2 * nu % nfft == 0)) / (n * nfft)
    table = np.concatenate([forms * multiplicity,
                            (np.abs(forms[1:]) + np.abs(lags[1]).sum()) * multiplicity])
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
    h = np.asarray(indices).reshape(-1)
    if h.dtype.kind not in "iu" or h.size < 1 or h.min() < 1 or h.max() >= n:
        raise ValueError(f"Fourier indices must be integers in [1, {n}), got {h.tolist()}")
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
    g = _as_index(g, "band size")
    if not 1 <= g < n:
        raise ValueError(f"band size must lie in [1, {n}), got {g}")
    c = _weighted_acv(x, spec)
    if g * spec.m <= _max_table(n):
        cosine_sums = _row_products(c[:, 1:], _cosine_table(n, g, spec.m))
        return (c[:, :1] + 2.0 * cosine_sums) / (2.0 * np.pi)
    h = np.arange(1, g + 1)
    return _lag_half(c, n, np.minimum(h, n - h))


def lag_window_gaps(x, spec: LagWindowSpec, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lag-window spectrum of each row of x at frequency 0, its drop f(0) - f(w_j) and condition.

    Each of shape (rows,).  f(0) = (c_0 + 2 sum_k c_k) / 2 pi, and the drop
    (1/pi) sum_{k=1..m} c_k 2 sin(w_j k / 2)**2 is formed directly, not as
    the difference of two ordinates, which cancels when they nearly agree.
    Both come from one forward transform per row times a table of forms
    (``_gap_forms``), cached while it fits (``_max_table``) and built for the
    call alone above that.  The condition, the third form over |drop|, is
    the drop's rounding in units of about u log2 L, u the unit roundoff.
    """
    n = x.shape[1]
    j = _as_index(j, "Fourier index")
    if not 1 <= j < n:
        raise ValueError(f"Fourier index must be an integer in [1, {n}), got {j}")
    if spec.m >= n:
        raise ValueError(f"truncation point must be < series length, got m={spec.m}, n={n}")
    f, nfft = _padded_transform(x, spec.m)
    forms = _gap_forms if 3 * (nfft // 2 + 1) <= _max_table(n) else _gap_forms.__wrapped__
    origin, gaps, rounding = _row_products(f.real**2 + f.imag**2, forms(n, spec, j)).T
    with np.errstate(divide="ignore", invalid="ignore"):
        return origin, gaps, rounding / np.abs(gaps)
