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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def series_values(series) -> np.ndarray:
    """Accept a BinarySeries or any 1-d array-like."""
    values = getattr(series, "values", series)
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("expected a nonempty 1-d series")
    return x


@dataclass(frozen=True, eq=False)
class AcvEstimate:
    """Sample autocovariances gamma_hat(0..max_lag) with the 1/N divisor."""

    values: np.ndarray
    n: int

    @property
    def max_lag(self) -> int:
        return self.values.size - 1

    def autocorrelation(self) -> np.ndarray:
        """rho_hat(h) = gamma_hat(h) / gamma_hat(0); undefined for constants."""
        if self.values[0] == 0.0:
            raise ValueError("autocorrelation undefined: zero sample variance")
        return self.values / self.values[0]


@dataclass(frozen=True, eq=False)
class Periodogram:
    """Ordinates on the Fourier grid w_h = 2 pi h / N, h = 1..N."""

    freqs: np.ndarray
    ordinates: np.ndarray
    kind: str = "raw"  # "raw" or "smoothed"
    window: str | None = None
    truncation: int | None = None

    @property
    def n(self) -> int:
        return self.freqs.size

    def zero_frequency_ordinate(self) -> float:
        """Value at frequency 0, read off the h = N alias."""
        return float(self.ordinates[-1])


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


def sample_acv(series, max_lag: int) -> AcvEstimate:
    """Biased sample autocovariance up to max_lag.

    gamma_hat(h) = (1/N) sum_{t<N-h} (x_t - xbar)(x_{t+h} - xbar).  The 1/N
    divisor keeps the sequence nonnegative definite, which the lag-window
    spectra rely on.
    """
    x = series_values(series)
    n = x.size
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must satisfy 0 <= max_lag < {n}, got {max_lag}")
    xc = x - x.mean()
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(xc, n=nfft)
    acov = np.fft.irfft(f * np.conj(f), n=nfft)[: max_lag + 1] / n
    return AcvEstimate(acov, n)


def periodogram(series, centered: bool = False) -> Periodogram:
    """Raw periodogram on the full Fourier grid.

    ``centered`` subtracts the sample mean first, which zeroes the aliased
    frequency-0 ordinate and changes nothing else on the grid.
    """
    x = series_values(series)
    n = x.size
    if n < 2:
        raise ValueError("periodogram needs at least 2 observations")
    if centered:
        x = x - x.mean()
    f = np.fft.fft(x)
    power = (f.real**2 + f.imag**2) / (4.0 * np.pi**2 * n)
    ordinates = np.concatenate([power[1:], power[:1]])
    freqs = 2.0 * np.pi * np.arange(1, n + 1) / n
    return Periodogram(freqs, ordinates, kind="raw")


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


def _window_weights(spec: LagWindowSpec) -> np.ndarray:
    return lag_window_weight(spec, np.arange(spec.m + 1) / spec.m)


def lag_weighted_spectrum(acv: AcvEstimate, weights: np.ndarray, n: int) -> np.ndarray:
    """Spectrum ordinates (h = 1..n) from weighted autocovariances.

    Computes (1/2pi) [c_0 + 2 sum_k c_k cos(w_h k)] with c_k = w_k *
    gamma_hat(k), via one length-n FFT.
    """
    m = weights.size - 1
    if m >= n:
        raise ValueError(f"need truncation point < series length, got m={m}, n={n}")
    if acv.max_lag < m:
        raise ValueError("autocovariance estimate does not cover the window")
    c = weights * acv.values[: m + 1]
    padded = np.zeros(n)
    padded[: m + 1] = c
    f = np.fft.fft(padded)
    vals = (2.0 * f.real - c[0]) / (2.0 * np.pi)
    return np.concatenate([vals[1:], vals[:1]])


def smoothed_periodogram(series, spec: LagWindowSpec) -> Periodogram:
    """Lag-window smoothed spectral estimate on the same grid as ``periodogram``.

    Ordinates may dip below zero for the cosine-bell window; they are
    returned as computed, and log-based consumers clamp them with a
    diagnostic count.
    """
    x = series_values(series)
    n = x.size
    if spec.m >= n:
        raise ValueError(f"truncation point must be < series length, got m={spec.m}, n={n}")
    acv = sample_acv(x, spec.m)
    ordinates = lag_weighted_spectrum(acv, _window_weights(spec), n)
    freqs = 2.0 * np.pi * np.arange(1, n + 1) / n
    return Periodogram(freqs, ordinates, kind="smoothed", window=spec.kind, truncation=spec.m)
