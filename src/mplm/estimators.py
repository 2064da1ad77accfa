"""Estimators of the intermittency exponent from one binary series.

Long-dependence methods (s in (0.5, 1), where the spectrum blows up like
``w**(1/s - 2)`` at the origin):

* perio          log-periodogram regression over the lowest N**0.5 frequencies
* parzen         same regression on a Parzen lag-window smoothed spectrum
* cos1 / cos2    cosine-bell smoothing, regression bands N**0.5 and N**0.7
* varmp          growth of the variance of block sums, one block size
* vpmp           variance plot: block-mean variance against block size
* wmp-haar,
  wmp-mexhat     log-linear decay of the wavelet variance ladder

Not-so-long methods (s in (0, 0.5), spectrum Hoelder-continuous at 0 with
exponent 1/s - 2):

* p              local log-regularity of the raw periodogram at frequency 0
* sp             same with a Parzen-smoothed spectrum

Slope-type estimates invert ``s = 1/(slope + 2)``; block and wavelet methods
go through the memory parameter ``d = 1 - 1/(2s)``.  Estimators never raise
on pathological draws: they return a flagged invalid result that Monte Carlo
harnesses count and exclude.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import (LagWindowSpec, default_truncation, periodogram, series_values,
                       smoothed_periodogram)
from .wavelet import WaveletBasis, WaveletLadder, sample_R

ORDINATE_FLOOR = 1e-15  # clamp for nonpositive ordinates ahead of logs
LADDER_FLOOR = 1e-300


@dataclass(frozen=True)
class RegressionBand:
    """Low-frequency regression band: the lowest floor(N**alpha) ordinates."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"band exponent must lie in (0, 1), got {self.alpha}")

    def size(self, n: int) -> int:
        return int(math.floor(n**self.alpha + 1e-9))


@dataclass(eq=False)
class EstimateResult:
    method: str
    s_hat: float
    slope: float | None
    points_used: int
    diagnostics: dict = field(default_factory=dict)
    valid: bool = True
    reason: str | None = None


def _invalid(method: str, reason: str, points_used: int = 0,
             slope: float | None = None, **diagnostics) -> EstimateResult:
    return EstimateResult(method, float("nan"), slope, points_used,
                          dict(diagnostics), valid=False, reason=reason)


def memory_from_s(s: float) -> float:
    """Fractional memory parameter d = 1 - 1/(2s)."""
    return 1.0 - 1.0 / (2.0 * s)


def s_from_memory(d: float) -> float:
    """Inverse of ``memory_from_s``: s = 1 / (2(1 - d))."""
    return 1.0 / (2.0 * (1.0 - d))


def ols_slope(xs, ys) -> tuple[float, float]:
    """Least-squares slope and intercept of ys on xs."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two or more paired points")
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("regression abscissae are all equal")
    slope = float(xc @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    return slope, intercept


def _r_squared(xs, ys, slope, intercept) -> float:
    resid = ys - (slope * xs + intercept)
    total = float(np.sum((ys - ys.mean()) ** 2))
    if total == 0.0:
        return 1.0
    return 1.0 - float(resid @ resid) / total


def _safe_log(values: np.ndarray, floor: float) -> tuple[np.ndarray, int]:
    clipped = np.maximum(values, floor)
    return np.log(clipped), int(np.sum(values < floor))


def s_from_spectral_ordinates(ordinates: np.ndarray, method: str = "perio") -> EstimateResult:
    """Slope of log-ordinates on log-index over a low-frequency band.

    ``ordinates[j-1]`` is the value at the j-th Fourier frequency; the
    regression runs over all of them (callers slice the band).  Inverts
    s = 1/(slope + 2); slopes at or below -2 are flagged invalid.
    """
    ords = np.asarray(ordinates, dtype=np.float64)
    g = ords.size
    logs, clamped = _safe_log(ords, ORDINATE_FLOOR)
    xs = np.log(np.arange(1, g + 1, dtype=np.float64))
    slope, intercept = ols_slope(xs, logs)
    diagnostics = {
        "clamped_ordinates": clamped,
        "r_squared": _r_squared(xs, logs, slope, intercept),
        "intercept": intercept,
    }
    if slope <= -2.0:
        return _invalid(method, f"regression slope {slope:.6g} <= -2 cannot be inverted",
                        points_used=g, slope=slope, **diagnostics)
    return EstimateResult(method, 1.0 / (slope + 2.0), slope, g, diagnostics)


def _band_estimate(series, method: str, band: RegressionBand, window: str | None = None,
                   truncation: int | None = None) -> EstimateResult:
    # log-regression over the band of the raw periodogram (window None) or of
    # a lag-window spectrum; default truncation floor(N**0.9) for parzen and
    # floor(N**(1 - alpha)) for the cosine bell
    x = series_values(series)
    n = x.size
    if n < 16:
        raise ValueError(f"need at least 16 observations, got {n}")
    if window is None:
        spectrum = periodogram(x, centered=True)
    else:
        if truncation is None:
            truncation = (default_truncation(n) if window == "parzen" else
                          max(2, int(math.floor(n ** (1.0 - band.alpha) + 1e-9))))
        spectrum = smoothed_periodogram(x, LagWindowSpec(window, truncation))
    result = s_from_spectral_ordinates(spectrum.ordinates[:band.size(n)], method)
    result.diagnostics["band_alpha"] = band.alpha
    if window is not None:
        result.diagnostics["truncation"] = truncation
    return result


def perio_estimate(series, band: RegressionBand = RegressionBand(0.5)) -> EstimateResult:
    """Log-periodogram regression estimate of s."""
    return _band_estimate(series, "perio", band)


def parzen_estimate(series, band: RegressionBand = RegressionBand(0.5),
                    truncation: int | None = None) -> EstimateResult:
    """Log-regression on the Parzen-smoothed spectrum, m = floor(N**0.9)."""
    return _band_estimate(series, "parzen", band, "parzen", truncation)


def cos_estimate(series, band: RegressionBand,
                 truncation: int | None = None, method: str | None = None) -> EstimateResult:
    """Log-regression on the cosine-bell smoothed spectrum.

    Band exponents 0.5 and 0.7 are the conventional cos1 / cos2 variants.
    The default truncation is floor(N**(1 - alpha)): the smoothing kernel
    then spans about as many Fourier bins as the regression band holds,
    which is the pairing that keeps the band-wide regression stable.
    """
    if method is None:
        method = "cos1" if band.alpha < 0.6 else "cos2"
    return _band_estimate(series, method, band, "cosbell", truncation)


def varmp_from_block_variance(vhat: float, block_length: int,
                              method: str = "varmp") -> EstimateResult:
    """Invert the block-sum variance law Var ~ L**(3 - 1/s)."""
    if not np.isfinite(vhat) or vhat <= 0.0:
        return _invalid(method, "block-sum variance is zero or undefined")
    denom = 3.0 - math.log(vhat) / math.log(block_length)
    if denom <= 0.0:
        return _invalid(method, f"variance growth exponent {3.0 - denom:.6g} >= 3")
    return EstimateResult(method, 1.0 / denom, math.log(vhat) / math.log(block_length), 1,
                          {"block_length": block_length, "block_variance": vhat})


def varmp_estimate(series, block_exponent: float = 0.7) -> EstimateResult:
    """Variance of disjoint block sums at a single block length N**theta."""
    x = series_values(series)
    n = x.size
    if not 0.0 < block_exponent < 1.0:
        raise ValueError(f"block exponent must lie in (0, 1), got {block_exponent}")
    ell = int(math.floor(n**block_exponent + 1e-9))
    blocks = n // ell
    if ell < 2 or blocks < 8:
        raise ValueError(
            f"series too short for 8 disjoint blocks of length {ell} (n={n})")
    sums = x[: blocks * ell].reshape(blocks, ell).sum(axis=1)
    vhat = float(sums.var(ddof=1))
    result = varmp_from_block_variance(vhat, ell)
    result.diagnostics["blocks"] = blocks
    result.points_used = blocks
    return result


def default_block_grid(n: int, sizes: int = 10) -> np.ndarray:
    """Geometric grid of block lengths between N**0.3 and N**0.7."""
    lo = max(2, int(math.floor(n**0.3 + 1e-9)))
    hi = max(lo + sizes, int(math.floor(n**0.7 + 1e-9)))
    grid = np.unique(np.floor(np.exp(np.linspace(math.log(lo), math.log(hi), sizes))).astype(int))
    return grid[n // grid >= 8]


def vpmp_from_variances(sizes, variances, method: str = "vpmp") -> EstimateResult:
    """Variance-plot inversion: slope beta -> d = (beta+1)/2 -> s."""
    k = np.asarray(sizes, dtype=np.float64)
    v = np.asarray(variances, dtype=np.float64)
    if np.any(v <= 0.0) or np.any(~np.isfinite(v)):
        return _invalid(method, "degenerate block-mean variance", points_used=k.size)
    slope, intercept = ols_slope(np.log(k), np.log(v))
    d = 0.5 * (slope + 1.0)
    diagnostics = {"memory_d": d, "intercept": intercept}
    if d >= 1.0:
        return _invalid(method, f"memory parameter estimate {d:.6g} >= 1",
                        points_used=k.size, slope=slope, **diagnostics)
    return EstimateResult(method, s_from_memory(d), slope, int(k.size), diagnostics)


def vpmp_estimate(series, block_sizes=None) -> EstimateResult:
    """Variance plot over a geometric grid of block lengths."""
    x = series_values(series)
    n = x.size
    grid = np.asarray(block_sizes, dtype=int) if block_sizes is not None else default_block_grid(n)
    if grid.size < 4:
        raise ValueError(f"need at least 4 block sizes, got {grid.size}")
    if np.any(n // grid < 8):
        raise ValueError("every block size must allow 8 disjoint blocks")
    variances = np.empty(grid.size)
    for i, k in enumerate(grid):
        blocks = n // k
        means = x[: blocks * k].reshape(blocks, k).mean(axis=1)
        variances[i] = means.var(ddof=1)
    result = vpmp_from_variances(grid, variances)
    result.diagnostics["block_grid"] = grid.tolist()
    return result


def wmp_from_ladder(ladder: WaveletLadder, method: str = "wmp-haar") -> EstimateResult:
    """Closed-form wavelet estimate from a variance ladder.

    With x_j the centered values of log(2**(-2j)) over the ladder levels,
    returns sum(x^2) / (2 (sum(x^2) - sum(x * log R_hat))), which equals
    1/(2(1-d)) for d the least-squares slope of log R_hat on log(2**(-2j)).
    """
    xs = -2.0 * ladder.levels.astype(np.float64) * math.log(2.0)
    xs = xs - xs.mean()
    logs, floored = _safe_log(ladder.values, LADDER_FLOOR)
    sxx = float(xs @ xs)
    sxy = float(xs @ logs)
    denom = 2.0 * (sxx - sxy)
    diagnostics = {"floored_levels": floored, "memory_d": sxy / sxx,
                   "levels": ladder.levels.tolist()}
    if denom <= 0.0:
        return _invalid(method, f"memory parameter estimate {sxy / sxx:.6g} >= 1",
                        points_used=ladder.levels.size, slope=sxy / sxx, **diagnostics)
    return EstimateResult(method, sxx / denom, sxy / sxx, int(ladder.levels.size), diagnostics)


def wmp_estimate(series, basis: WaveletBasis = WaveletBasis.HAAR) -> EstimateResult:
    """Wavelet variance-ladder estimate of s (valid for s >= 1 as well)."""
    basis = WaveletBasis(basis)
    ladder = sample_R(series, basis)
    return wmp_from_ladder(ladder, f"wmp-{basis.value}")


def holder_from_ordinates(origin_value: float, ordinate: float, freq: float) -> tuple[float, bool]:
    """Local regularity exponent a = log|I(0) - I(w)| / log(w)."""
    gap = abs(origin_value - ordinate)
    if gap == 0.0:
        return float("nan"), False
    return math.log(gap) / math.log(freq), True


def holder_estimate(series, smoothing: str = "none", freq_index: int = 1,
                    average_count: int | None = None) -> EstimateResult:
    """Regularity of the spectrum at frequency zero, inverted to s.

    The series is mean-centered, so the raw periodogram vanishes at
    frequency zero and the gap |I(0) - I(w_j)| reduces to I(w_j);
    ``smoothing="parzen"`` replaces the periodogram by the smoothed
    spectrum, whose frequency-0 ordinate is genuinely nonzero.  Uses the
    single Fourier index ``freq_index`` by default; ``average_count=J``
    instead averages the estimate over j = 1..J.
    """
    if smoothing not in ("none", "parzen"):
        raise ValueError(f"smoothing must be 'none' or 'parzen', got {smoothing!r}")
    x = series_values(series)
    n = x.size
    if not 1 <= freq_index < n // 2:
        raise ValueError(f"frequency index must lie in [1, {n // 2}), got {freq_index}")
    method = "p" if smoothing == "none" else "sp"
    # both spectra center the series themselves
    if smoothing == "none":
        spectrum = periodogram(x, centered=True)
        origin = 0.0
    else:
        spectrum = smoothed_periodogram(x, LagWindowSpec("parzen", default_truncation(n)))
        origin = spectrum.zero_frequency_ordinate()

    indices = np.arange(1, average_count + 1) if average_count else np.array([freq_index])
    exponents = []
    for j in indices:
        a, ok = holder_from_ordinates(origin, float(spectrum.ordinates[j - 1]),
                                      float(spectrum.freqs[j - 1]))
        if not ok:
            return _invalid(method, f"spectrum gap vanishes at index {j}",
                            points_used=int(indices.size))
        if a + 2.0 <= 0.0:
            return _invalid(method, f"regularity exponent {a:.6g} <= -2",
                            points_used=int(indices.size))
        exponents.append(a)
    estimates = [1.0 / (a + 2.0) for a in exponents]
    return EstimateResult(method, float(np.mean(estimates)), float(np.mean(exponents)),
                          int(indices.size), {"origin_ordinate": origin,
                                              "freq_indices": indices.tolist()})


# method name -> (function that does the work, the fixed arguments that make
# it that method); ``estimate`` passes any other keyword arguments through
_METHODS = {
    "perio": (perio_estimate, {}),
    "parzen": (parzen_estimate, {}),
    "cos1": (cos_estimate, {"band": RegressionBand(0.5), "method": "cos1"}),
    "cos2": (cos_estimate, {"band": RegressionBand(0.7), "method": "cos2"}),
    "varmp": (varmp_estimate, {}),
    "vpmp": (vpmp_estimate, {}),
    "wmp-haar": (wmp_estimate, {"basis": WaveletBasis.HAAR}),
    "wmp-mexhat": (wmp_estimate, {"basis": WaveletBasis.MEXICAN_HAT}),
    "p": (holder_estimate, {"smoothing": "none"}),
    "sp": (holder_estimate, {"smoothing": "parzen"}),
}
METHOD_NAMES = tuple(_METHODS)


def estimate(series, method: str, **config) -> EstimateResult:
    """Run the named method (see ``METHOD_NAMES``) with keyword ``config``.

    A key the method does not take, or one of its fixed arguments, raises
    TypeError; a series with a non-finite value gives an invalid result.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
    fn, fixed = _METHODS[method]
    x = series_values(series)
    if not np.isfinite(x).all():
        inspect.signature(fn).bind(x, **fixed, **config)  # same TypeError as a call
        return _invalid(method, "series has a non-finite value")
    return fn(x, **fixed, **config)
