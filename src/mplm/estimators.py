"""Estimators of the intermittency exponent from binary series.

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

Every method runs on the rows of a (rows, N) array.  ``estimate_batch``
looks the method up in ``_METHODS``: a statistic over the rows (spectral
bands from ``spectral``, block variances here, the variance ladder from
``wavelet``) followed by its closed-form inversion, vectorised over the
rows.  It returns a ``BatchEstimate`` of per-row arrays.  ``estimate`` is
row 0 of a one-row batch, and the per-method functions (``perio_estimate``
... ``holder_estimate``) and the scalar inversions
(``s_from_spectral_ordinates`` ... ``holder_from_ordinates``) are views of
the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .spectral import (LagWindowSpec, default_truncation, lag_window_band, lag_window_gaps,
                       periodogram_band, series_rows, series_values)
# No estimator calls the full-grid spectra or sample_R any more.
# perfbench/tracer.py and perfbench/selfcheck.py look these names up here,
# and the selfcheck fails without them; the tracer's spectral.* and
# wavelet.sample_R.* metrics therefore read 0 until the benchmark wraps the
# row statistics instead.
from .spectral import periodogram, smoothed_periodogram  # noqa: F401
from .wavelet import WaveletBasis, WaveletLadder, ladder_rows, sample_R  # noqa: F401

ORDINATE_FLOOR = 1e-15  # clamp for nonpositive ordinates ahead of logs
LADDER_FLOOR = 1e-300
NON_FINITE = "series has a non-finite value"

# ``estimate_batch`` runs a method on at most CHUNK_VALUES samples of rows at
# a time (one row at least), so a chunk's transforms stay near 1 MB, inside
# the L2 cache, whatever the batch.  Measured on a 2-vCPU Xeon VM (2 MB of
# L2 per core, numpy 2.4.6) on 50-row cells, as the per-series cost against
# one row at a time: 0.14-0.71 at N = 1000 and 3000 with 2**15; at
# N = 30000, 0.93-1.01 with 2**15 but 1.13-1.46 with 2**17, whose 4-row
# transforms spill the cache.  Peak RSS of the sim-models benchmark pass:
# 63.3 MB with 2**15, 63.1 with 2**17, 72.2 with each cell's rows in one
# piece (63.0 when every row was estimated alone).
CHUNK_VALUES = 1 << 15


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


_NUMPY_VALUES = (np.ndarray, np.generic)  # turned into Python values in an EstimateResult


@dataclass(eq=False)
class BatchEstimate:
    """One method's results on the rows of a (rows, N) array, as per-row arrays.

    On an invalid row ``s_hat`` is NaN, ``valid`` False and ``reason`` its
    message (None on a valid row); ``slope`` is NaN on a row that has none.
    ``diagnostics`` maps each name to an array of per-row values, ``shared``
    each name whose value is the same for every row (the band, truncation,
    block grid, ladder levels or Fourier indices) to that value, and
    ``omitted`` a name to a mask of the rows whose result does not carry it.
    ``result(i)`` is row i as the ``EstimateResult`` that ``estimate``
    returns for it.
    """

    method: str
    s_hat: np.ndarray
    valid: np.ndarray
    slope: np.ndarray
    points_used: np.ndarray
    reason: list
    diagnostics: dict = field(default_factory=dict)
    shared: dict = field(default_factory=dict)
    omitted: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.s_hat.size

    def result(self, i: int) -> EstimateResult:
        values = {name: column[i] for name, column in self.diagnostics.items()}
        values.update(self.shared)
        diagnostics = {name: value.tolist() if isinstance(value, _NUMPY_VALUES) else value
                       for name, value in values.items()
                       if name not in self.omitted or not self.omitted[name][i]}
        slope = float(self.slope[i])
        return EstimateResult(self.method, float(self.s_hat[i]),
                              None if math.isnan(slope) else slope, int(self.points_used[i]),
                              diagnostics, bool(self.valid[i]), self.reason[i])

    @classmethod
    def concatenate(cls, parts) -> BatchEstimate:
        """The rows of ``parts`` (batches of one method and configuration) in order."""
        def join(arrays):
            return np.concatenate(list(arrays))

        first = parts[0]
        return cls(first.method, join(p.s_hat for p in parts), join(p.valid for p in parts),
                   join(p.slope for p in parts), join(p.points_used for p in parts),
                   [reason for p in parts for reason in p.reason],
                   {name: join(p.diagnostics[name] for p in parts) for name in first.diagnostics},
                   first.shared,
                   {name: join(p.omitted[name] for p in parts) for name in first.omitted})

    def invalidate(self, rows: np.ndarray, reason: str) -> None:
        """Mark the masked rows invalid, with no slope, points or diagnostics."""
        self.s_hat[rows] = np.nan
        self.valid[rows] = False
        self.slope[rows] = np.nan
        self.points_used[rows] = 0
        for i in np.flatnonzero(rows):
            self.reason[i] = reason
        for name in [*self.diagnostics, *self.shared]:
            self.omitted[name] = self.omitted.get(name, False) | rows


def _finish(method: str, s_hat, slope, points_used: int, invalid, reason_of,
            diagnostics: dict, shared: dict | None = None,
            omitted: dict | None = None) -> BatchEstimate:
    """A batch from an inversion's per-row pieces.

    ``s_hat`` is NaN on the rows that ``invalid`` marks (an inversion divides
    by NaN there, which needs no warning filter), and ``reason_of(i)`` gives
    the message of such a row i.
    """
    reason = [None] * s_hat.size
    if np.count_nonzero(invalid):
        for i in np.flatnonzero(invalid):
            reason[i] = reason_of(i)
    return BatchEstimate(method, s_hat, ~invalid, np.asarray(slope, dtype=np.float64),
                         np.full(s_hat.size, points_used), reason, diagnostics, shared or {},
                         omitted or {})


def memory_from_s(s: float) -> float:
    """Fractional memory parameter d = 1 - 1/(2s)."""
    return 1.0 - 1.0 / (2.0 * s)


def s_from_memory(d: float) -> float:
    """Inverse of ``memory_from_s``: s = 1 / (2(1 - d))."""
    return 1.0 / (2.0 * (1.0 - d))


def _design(xs: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Centred abscissae, their mean and their sum of squares, for ``_fit_rows``."""
    if xs.size < 2:
        raise ValueError("need two or more paired points")
    xbar = xs.sum() / xs.size
    xc = xs - xbar
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("regression abscissae are all equal")
    return xc, xbar, sxx


def _fit_rows(design, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slope and intercept of each row of ys on the abscissae of ``design``.

    One dot product per row, as in ``spectral._row_products``: a product
    over many rows at once may sum in another order than a single row's,
    and a near-zero slope (a flat spectrum) carries that rounding into its
    r_squared, so each row gets the same values whatever batch it is in.
    """
    xc, xbar, sxx = design
    if ys.shape[1] != xc.size:
        raise ValueError("need two or more paired points")
    slope = (ys[:, None, :] @ xc)[:, 0] / sxx
    return slope, ys.sum(axis=1) / xc.size - slope * xbar


def ols_slope(xs, ys) -> tuple[float, float]:
    """Least-squares slope and intercept of ys on xs."""
    slope, intercept = _fit_rows(_design(np.asarray(xs, dtype=np.float64).reshape(-1)),
                                 np.asarray(ys, dtype=np.float64).reshape(1, -1))
    return float(slope[0]), float(intercept[0])


def _r_squared(design, ys, slope) -> np.ndarray:
    # R^2 = slope^2 Sxx / Syy; a row whose spread is within rounding of its
    # values (a band clamped throughout, or the flat spectrum of a lone
    # spike) is fitted exactly, and its Syy is rounding noise
    xc, _, sxx = design
    dev = ys - ys.sum(axis=1, keepdims=True) / xc.size
    scale = np.maximum(1.0, np.abs(ys).max(axis=1))
    flat = ys.max(axis=1) - ys.min(axis=1) <= 64.0 * np.finfo(np.float64).eps * scale
    return np.where(flat, 1.0, slope * slope * sxx / np.where(flat, 1.0, (dev * dev).sum(axis=1)))


def _safe_log(values: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    # logs, and the count per row of values below the floor
    return np.log(np.maximum(values, floor)), (values < floor).sum(axis=-1)


@lru_cache(maxsize=16)
def _band_design(g: int) -> tuple[np.ndarray, float, float]:
    """The design of a regression on log(1..g), the log-indices of a band (read-only)."""
    design = _design(np.log(np.arange(1, g + 1, dtype=np.float64)))
    design[0].flags.writeable = False
    return design


def _spectral_inversion(ordinates: np.ndarray, method: str) -> BatchEstimate:
    """Slope of log-ordinates on log-index over each row's band, inverted to s."""
    g = ordinates.shape[1]
    logs, clamped = _safe_log(ordinates, ORDINATE_FLOOR)
    design = _band_design(g)
    slope, intercept = _fit_rows(design, logs)
    diagnostics = {
        "clamped_ordinates": clamped,
        "r_squared": _r_squared(design, logs, slope),
        "intercept": intercept,
    }
    invalid = slope <= -2.0
    return _finish(method, 1.0 / np.where(invalid, np.nan, slope + 2.0), slope, g, invalid,
                   lambda i: f"regression slope {slope[i]:.6g} <= -2 cannot be inverted",
                   diagnostics)


def s_from_spectral_ordinates(ordinates: np.ndarray, method: str = "perio") -> EstimateResult:
    """Slope of log-ordinates on log-index over a low-frequency band.

    ``ordinates[j-1]`` is the value at the j-th Fourier frequency; the
    regression runs over all of them (callers slice the band).  Inverts
    s = 1/(slope + 2); slopes at or below -2 are flagged invalid.
    """
    return _spectral_inversion(np.asarray(ordinates, dtype=np.float64)[None], method).result(0)


def _check_band_length(n: int) -> None:
    if n < 16:
        raise ValueError(f"need at least 16 observations, got {n}")


def _band_rows(x: np.ndarray, method: str, band: RegressionBand = RegressionBand(0.5),
               window: str | None = None, truncation: int | None = None) -> BatchEstimate:
    # log-regression over the band of the centred periodogram (window None)
    # or of a lag-window spectrum; default truncation floor(N**0.9) for
    # parzen and floor(N**(1 - alpha)) for the cosine bell
    rows, n = x.shape
    _check_band_length(n)
    g = band.size(n)
    if window is None:
        ordinates = periodogram_band(x, np.arange(1, g + 1))
    else:
        if truncation is None:
            truncation = (default_truncation(n) if window == "parzen" else
                          max(2, int(math.floor(n ** (1.0 - band.alpha) + 1e-9))))
        ordinates = lag_window_band(x, LagWindowSpec(window, truncation), g)
    out = _spectral_inversion(ordinates, method)
    out.shared["band_alpha"] = band.alpha
    if window is not None:
        out.shared["truncation"] = truncation
    return out


def _varmp_inversion(vhat: np.ndarray, block_length: int, method: str) -> BatchEstimate:
    """Invert the block-sum variance law Var ~ L**(3 - 1/s) on each row."""
    positive = np.isfinite(vhat) & (vhat > 0.0)
    growth = np.log(np.where(positive, vhat, 1.0)) / math.log(block_length)
    denom = 3.0 - growth
    invalid = ~positive | (denom <= 0.0)

    def reason_of(i):
        if not positive[i]:
            return "block-sum variance is zero or undefined"
        return f"variance growth exponent {3.0 - denom[i]:.6g} >= 3"

    return _finish(method, 1.0 / np.where(invalid, np.nan, denom),
                   np.where(invalid, np.nan, growth), 1, invalid, reason_of,
                   {"block_variance": vhat}, {"block_length": block_length},
                   {"block_length": invalid, "block_variance": invalid})


def varmp_from_block_variance(vhat: float, block_length: int,
                              method: str = "varmp") -> EstimateResult:
    """Invert the block-sum variance law Var ~ L**(3 - 1/s)."""
    return _varmp_inversion(np.array([vhat], dtype=np.float64), block_length, method).result(0)


def _block_layout(n: int, block_exponent: float = 0.7) -> tuple[int, int]:
    # (block length floor(N**theta), number of disjoint blocks)
    if not 0.0 < block_exponent < 1.0:
        raise ValueError(f"block exponent must lie in (0, 1), got {block_exponent}")
    ell = int(math.floor(n**block_exponent + 1e-9))
    if ell < 2 or n // ell < 8:
        raise ValueError(
            f"series too short for 8 disjoint blocks of length {ell} (n={n})")
    return ell, n // ell


def _block_sums(x: np.ndarray, length: int) -> np.ndarray:
    """Sums of each row's disjoint blocks of ``length`` samples (a tail shorter than one is dropped)."""
    blocks = x.shape[1] // length
    return x[:, : blocks * length].reshape(x.shape[0], blocks, length).sum(axis=2)


def _row_variances(v: np.ndarray) -> np.ndarray:
    """Sample variance (R - 1 divisor) of each row, formed as ``var(ddof=1)`` forms it."""
    k = v.shape[1]
    dev = v - v.sum(axis=1, keepdims=True) / k
    return (dev * dev).sum(axis=1) / (k - 1)


def _varmp_rows(x: np.ndarray, method: str, block_exponent: float = 0.7) -> BatchEstimate:
    # variance of disjoint block sums at a single block length N**theta
    ell, blocks = _block_layout(x.shape[1], block_exponent)
    out = _varmp_inversion(_row_variances(_block_sums(x, ell)), ell, method)
    out.shared["blocks"] = blocks
    out.points_used[:] = blocks
    return out


@lru_cache(maxsize=64)
def default_block_grid(n: int, sizes: int = 10) -> np.ndarray:
    """Geometric grid of block lengths between N**0.3 and N**0.7 (read-only)."""
    lo = max(2, int(math.floor(n**0.3 + 1e-9)))
    hi = max(lo + sizes, int(math.floor(n**0.7 + 1e-9)))
    raw = np.floor(np.exp(np.linspace(math.log(lo), math.log(hi), sizes))).astype(int)
    # sorted(set()) rather than np.unique, whose first call imports numpy.ma:
    # ExperimentSpec runs this for every preset while the package imports
    grid = np.array(sorted(set(raw.tolist())))
    grid = grid[n // grid >= 8]
    grid.flags.writeable = False
    return grid


def _vpmp_inversion(sizes, variances: np.ndarray, method: str) -> BatchEstimate:
    """Variance-plot inversion on each row: slope beta -> d = (beta+1)/2 -> s."""
    k = np.asarray(sizes, dtype=np.float64)
    degenerate = np.any((variances <= 0.0) | ~np.isfinite(variances), axis=1)
    slope, intercept = _fit_rows(_design(np.log(k)),
                                 np.log(np.where(degenerate[:, None], 1.0, variances)))
    d = 0.5 * (slope + 1.0)

    def reason_of(i):
        if degenerate[i]:
            return "degenerate block-mean variance"
        return f"memory parameter estimate {d[i]:.6g} >= 1"

    invalid = degenerate | (d >= 1.0)
    return _finish(method, s_from_memory(np.where(invalid, np.nan, d)),
                   np.where(degenerate, np.nan, slope), k.size, invalid, reason_of,
                   {"memory_d": d, "intercept": intercept},
                   omitted={"memory_d": degenerate, "intercept": degenerate})


def vpmp_from_variances(sizes, variances, method: str = "vpmp") -> EstimateResult:
    """Variance-plot inversion: slope beta -> d = (beta+1)/2 -> s."""
    return _vpmp_inversion(sizes, np.asarray(variances, dtype=np.float64)[None], method).result(0)


def _block_grid(n: int, block_sizes=None) -> np.ndarray:
    grid = np.asarray(block_sizes, dtype=int) if block_sizes is not None else default_block_grid(n)
    if grid.size < 4:
        raise ValueError(f"need at least 4 block sizes, got {grid.size}")
    if np.any(n // grid < 8):
        raise ValueError("every block size must allow 8 disjoint blocks")
    return grid


def _vpmp_rows(x: np.ndarray, method: str, block_sizes=None) -> BatchEstimate:
    # variance plot over a geometric grid of block lengths
    grid = _block_grid(x.shape[1], block_sizes)
    variances = np.empty((x.shape[0], grid.size))
    for i, k in enumerate(grid.tolist()):
        variances[:, i] = _row_variances(_block_sums(x, k) / k)
    out = _vpmp_inversion(grid, variances, method)
    out.shared["block_grid"] = grid
    return out


def _wmp_inversion(levels: np.ndarray, values: np.ndarray, method: str) -> BatchEstimate:
    """Closed-form wavelet estimate from each row of variance-ladder values.

    With x_j the centered values of log(2**(-2j)) over the ladder levels,
    returns sum(x^2) / (2 (sum(x^2) - sum(x * log R_hat))), which equals
    1/(2(1-d)) for d the least-squares slope of log R_hat on log(2**(-2j)).
    """
    xs = -2.0 * levels.astype(np.float64) * math.log(2.0)
    xs = xs - xs.sum() / xs.size
    logs, floored = _safe_log(values, LADDER_FLOOR)
    sxx = float(xs @ xs)
    sxy = logs @ xs
    denom = 2.0 * (sxx - sxy)
    d = sxy / sxx
    invalid = denom <= 0.0
    return _finish(method, sxx / np.where(invalid, np.nan, denom), d, levels.size, invalid,
                   lambda i: f"memory parameter estimate {d[i]:.6g} >= 1",
                   {"floored_levels": floored, "memory_d": d}, {"levels": levels})


def wmp_from_ladder(ladder: WaveletLadder, method: str = "wmp-haar") -> EstimateResult:
    """Closed-form wavelet estimate from a variance ladder (see ``_wmp_inversion``)."""
    return _wmp_inversion(ladder.levels, np.asarray(ladder.values)[None], method).result(0)


def _wmp_rows(x: np.ndarray, method: str, basis: WaveletBasis) -> BatchEstimate:
    levels, values = ladder_rows(x, basis)
    return _wmp_inversion(levels, values, method)


def _holder_exponents(gaps: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Local regularity exponents a = log|gap| / log(w); NaN where the gap vanishes."""
    gap = np.abs(gaps)
    return np.log(np.where(gap > 0.0, gap, np.nan)) / np.log(freqs)


def holder_from_ordinates(origin_value: float, ordinate: float, freq: float) -> tuple[float, bool]:
    """Local regularity exponent a = log|I(0) - I(w)| / log(w), and whether it exists."""
    a = float(_holder_exponents(np.array([origin_value - ordinate]), np.array([freq]))[0])
    return a, not math.isnan(a)


def _holder_indices(n: int, freq_index: int = 1, average_count: int | None = None) -> np.ndarray:
    if not 1 <= freq_index < n // 2:
        raise ValueError(f"frequency index must lie in [1, {n // 2}), got {freq_index}")
    if average_count is not None and not 1 <= average_count < n // 2:
        raise ValueError(f"average count must lie in [1, {n // 2}), got {average_count}")
    return np.array([freq_index]) if average_count is None else np.arange(1, average_count + 1)


def _holder_rows(x: np.ndarray, method: str, smoothing: str, freq_index: int = 1,
                 average_count: int | None = None) -> BatchEstimate:
    # the statistics centre the rows themselves: the raw periodogram then
    # vanishes at frequency 0 and is its own gap, while the Parzen spectrum
    # gives its gap to frequency 0 directly
    rows, n = x.shape
    indices = _holder_indices(n, freq_index, average_count)
    if smoothing == "none":
        origin, gaps = np.zeros(rows), periodogram_band(x, indices)
    else:
        origin, gaps = lag_window_gaps(x, LagWindowSpec("parzen", default_truncation(n)),
                                       indices)
    exponents = _holder_exponents(gaps, 2.0 * np.pi * indices / n)
    shifted = exponents + 2.0
    bad = ~(shifted > 0.0)  # a <= -2, or no exponent where the gap vanished
    invalid = bad.any(axis=1)

    def reason_of(i):
        first = bad[i].argmax()  # the row's first failing index
        if np.isnan(exponents[i, first]):
            return f"spectrum gap vanishes at index {indices[first]}"
        return f"regularity exponent {exponents[i, first]:.6g} <= -2"

    # s_hat is the mean over j of 1 / (a_j + 2), the slope the mean a_j
    count = indices.size
    estimates = 1.0 / np.where(bad, np.nan, shifted)
    return _finish(method, estimates.sum(axis=1) / count, exponents.sum(axis=1) / count, count,
                   invalid, reason_of,
                   {"origin_ordinate": origin}, {"freq_indices": indices},
                   {"origin_ordinate": invalid, "freq_indices": invalid})


def _check_ladder_length(n: int) -> None:
    # ladder_rows' own requirement, two ladder levels, read off the length
    if n < 64:
        raise ValueError(f"need a series of at least 64 samples, got {n}")


# method name -> (statistic over rows with its inversion, the fixed arguments
# that make it that method, the keyword arguments ``estimate_batch`` passes
# through, the check that its default configuration can take a length-N
# series)
_METHODS = {
    "perio": (_band_rows, {}, ("band",), _check_band_length),
    "parzen": (_band_rows, {"window": "parzen"}, ("band", "truncation"), _check_band_length),
    "cos1": (_band_rows, {"band": RegressionBand(0.5), "window": "cosbell"}, ("truncation",),
             _check_band_length),
    "cos2": (_band_rows, {"band": RegressionBand(0.7), "window": "cosbell"}, ("truncation",),
             _check_band_length),
    "varmp": (_varmp_rows, {}, ("block_exponent",), _block_layout),
    "vpmp": (_vpmp_rows, {}, ("block_sizes",), _block_grid),
    "wmp-haar": (_wmp_rows, {"basis": WaveletBasis.HAAR}, (), _check_ladder_length),
    "wmp-mexhat": (_wmp_rows, {"basis": WaveletBasis.MEXICAN_HAT}, (), _check_ladder_length),
    "p": (_holder_rows, {"smoothing": "none"}, ("freq_index", "average_count"), _holder_indices),
    "sp": (_holder_rows, {"smoothing": "parzen"}, ("freq_index", "average_count"),
           _holder_indices),
}
METHOD_NAMES = tuple(_METHODS)


def check_length(method: str, n: int) -> None:
    """Raise the ValueError ``estimate(x, method)`` raises for every length-n x.

    Runs the method's own size checks with its default configuration, on the
    length alone, so a caller can reject a length before making any series.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
    _METHODS[method][3](n)


def _estimate_rows(statistic, method: str, rows, **arguments) -> BatchEstimate:
    # the statistic on chunks of at most CHUNK_VALUES samples; a row with a
    # non-finite value is computed as zeros and then marked invalid
    x = series_rows(rows)
    finite = np.isfinite(x).all(axis=1)
    finite_rows = np.count_nonzero(finite)
    if finite_rows == 0:
        return _finish(method, np.full(finite.size, np.nan), np.full(finite.size, np.nan), 0,
                       ~finite, lambda i: NON_FINITE, {})
    if finite_rows < finite.size:
        x = np.where(finite[:, None], x, 0.0)
    step = max(1, CHUNK_VALUES // x.shape[1])
    parts = [statistic(x[i:i + step], method, **arguments) for i in range(0, len(x), step)]
    out = parts[0] if len(parts) == 1 else BatchEstimate.concatenate(parts)
    if finite_rows < finite.size:
        out.invalidate(~finite, NON_FINITE)
    return out


def estimate_batch(rows, method: str, **config) -> BatchEstimate:
    """Run the named method (see ``METHOD_NAMES``) on every row of a (rows, N) array.

    Returns a ``BatchEstimate``: per-row arrays ``s_hat``, ``valid``,
    ``slope`` and ``points_used``, the list ``reason`` and the diagnostics.
    Row i equals ``estimate(rows[i], method, **config)`` within 1e-12
    (relative above 1, absolute below), with the same ``valid``,
    ``points_used`` and ``reason``.  Config keys, errors and non-finite rows
    behave as in ``estimate``.  Rows are processed in chunks of at most
    ``CHUNK_VALUES`` samples, which bounds the memory a batch needs.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
    statistic, fixed, keys, _ = _METHODS[method]
    for key in config:
        if key not in keys:
            raise TypeError(f"method {method!r} got an unexpected keyword argument {key!r}")
    return _estimate_rows(statistic, method, rows, **fixed, **config)


def estimate(series, method: str, **config) -> EstimateResult:
    """Run the named method (see ``METHOD_NAMES``) with keyword ``config``.

    Row 0 of ``estimate_batch`` on the one-row array of ``series``.  A key
    the method does not take, or one of its fixed arguments, raises
    TypeError; a series with a non-finite value gives an invalid result.
    """
    return estimate_batch(series_values(series)[None], method, **config).result(0)


# The per-method functions: views of the same batch path.

def perio_estimate(series, band: RegressionBand = RegressionBand(0.5)) -> EstimateResult:
    """Log-periodogram regression estimate of s."""
    return estimate(series, "perio", band=band)


def parzen_estimate(series, band: RegressionBand = RegressionBand(0.5),
                    truncation: int | None = None) -> EstimateResult:
    """Log-regression on the Parzen-smoothed spectrum, m = floor(N**0.9)."""
    return estimate(series, "parzen", band=band, truncation=truncation)


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
    return _estimate_rows(_band_rows, method, series_values(series)[None], band=band,
                          window="cosbell", truncation=truncation).result(0)


def varmp_estimate(series, block_exponent: float = 0.7) -> EstimateResult:
    """Variance of disjoint block sums at a single block length N**theta."""
    return estimate(series, "varmp", block_exponent=block_exponent)


def vpmp_estimate(series, block_sizes=None) -> EstimateResult:
    """Variance plot over a geometric grid of block lengths."""
    return estimate(series, "vpmp", block_sizes=block_sizes)


def wmp_estimate(series, basis: WaveletBasis = WaveletBasis.HAAR) -> EstimateResult:
    """Wavelet variance-ladder estimate of s (valid for s >= 1 as well)."""
    return estimate(series, f"wmp-{WaveletBasis(basis).value}")


def holder_estimate(series, smoothing: str = "none", freq_index: int = 1,
                    average_count: int | None = None) -> EstimateResult:
    """Regularity of the spectrum at frequency zero, inverted to s.

    The series is mean-centered, so the raw periodogram vanishes at
    frequency zero and the gap |I(0) - I(w_j)| reduces to I(w_j);
    ``smoothing="parzen"`` replaces the periodogram by the smoothed
    spectrum, whose frequency-0 ordinate is genuinely nonzero, and forms
    its gap directly as |(1/pi) sum_{k=1..m} c_k (1 - cos(w_j k))| from the
    weighted autocovariances c_k rather than as a difference of two nearly
    equal ordinates.  Uses the single Fourier index ``freq_index`` by
    default; ``average_count=J`` instead averages the estimate over
    j = 1..J, for 1 <= J < N // 2.  An invalid result keeps the mean
    exponent in ``slope`` unless a gap vanished.
    """
    if smoothing not in ("none", "parzen"):
        raise ValueError(f"smoothing must be 'none' or 'parzen', got {smoothing!r}")
    return estimate(series, "p" if smoothing == "none" else "sp", freq_index=freq_index,
                    average_count=average_count)
