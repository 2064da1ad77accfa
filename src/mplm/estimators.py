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

Every method runs on the rows of a (rows, N) array.  ``_METHODS`` gives
each a statistic of the rows (spectral bands from ``spectral``, block
variances here, the variance ladder from ``wavelet``) and the closed-form
inversion of its per-row arrays to s.  ``estimate_batch`` runs the statistic
on chunks of rows, joins the arrays and inverts them once, into a
``BatchEstimate`` of per-row arrays.  ``estimate`` is row 0 of a one-row
batch, and the scalar inversions (``s_from_spectral_ordinates`` ...
``holder_from_ordinates``) are views of the same inversions.
``estimate(x, name, **config)`` is the one entry point for a single series;
each method is one fixed recipe, and ``METHOD_KEYWORDS`` lists the only keys:
``block_exponent`` of ``varmp`` and ``freq_index`` of ``p`` and ``sp``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .spectral import (LagWindowSpec, _centred, _row_products, default_truncation, lag_window_band,
                       lag_window_gaps, periodogram_band, series_rows, series_values)
# No estimator calls the full-grid spectra or sample_R any more.
# perfbench/tracer.py and perfbench/selfcheck.py look these names up here,
# and the selfcheck fails without them; the tracer's spectral.* and
# wavelet.sample_R.* metrics therefore read 0 until the benchmark wraps the
# row statistics instead.
from .spectral import periodogram, smoothed_periodogram  # noqa: F401
from .wavelet import WaveletBasis, ladder_rows, sample_R  # noqa: F401
from .wavelet import _require_ladder_length

ORDINATE_FLOOR = 1e-15  # clamp for nonpositive ordinates ahead of logs
LADDER_FLOOR = 1e-300
_ROUNDING = 64.0 * np.finfo(np.float64).eps  # a relative spread, or a 1 - d, that is rounding
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
    the message of such a row i.  ``slope`` is copied: ``invalidate`` writes
    NaN into it, which must not reach a diagnostic that is the same array.
    """
    reason = [None] * s_hat.size
    if np.count_nonzero(invalid):
        for i in np.flatnonzero(invalid):
            reason[i] = reason_of(i)
    return BatchEstimate(method, s_hat, ~invalid, np.array(slope, dtype=np.float64),
                         np.full(s_hat.size, points_used), reason, diagnostics, shared or {},
                         omitted or {})


def s_from_memory(d: float) -> float:
    """Map exponent s = 1 / (2(1 - d)) of the fractional memory parameter d = 1 - 1/(2s)."""
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

    The slope takes one product per row (see ``spectral._row_products``).
    """
    xc, xbar, sxx = design
    if ys.shape[1] != xc.size:
        raise ValueError("need two or more paired points")
    slope = _row_products(ys, xc[None])[:, 0] / sxx
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
    sxx = design[2]
    dev = _centred(ys)
    scale = np.maximum(1.0, np.abs(ys).max(axis=1))
    flat = ys.max(axis=1) - ys.min(axis=1) <= _ROUNDING * scale
    return np.where(flat, 1.0, slope * slope * sxx / np.where(flat, 1.0, (dev * dev).sum(axis=1)))


def _safe_log(values: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    # logs, C-ordered so that each row's products and sums take one route
    # whatever the batch (band periodogram rows are strided), and the count
    # per row of values below the floor
    return np.log(np.maximum(np.ascontiguousarray(values), floor)), (values < floor).sum(axis=-1)


@lru_cache(maxsize=16)
def _band_design(g: int) -> tuple[np.ndarray, float, float]:
    """The design of a regression on log(1..g), the log-indices of a band (read-only)."""
    design = _design(np.log(np.arange(1, g + 1, dtype=np.float64)))
    design[0].flags.writeable = False
    return design


def _spectral_inversion(ordinates: np.ndarray, method: str, **shared) -> BatchEstimate:
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
                   diagnostics, shared)


def s_from_spectral_ordinates(ordinates: np.ndarray) -> EstimateResult:
    """Slope of log-ordinates on log-index over a low-frequency band.

    ``ordinates[j-1]`` is the value at the j-th Fourier frequency; the
    regression runs over all of them (callers slice the band).  Inverts
    s = 1/(slope + 2); slopes at or below -2 are flagged invalid.
    """
    return _spectral_inversion(np.asarray(ordinates, dtype=np.float64)[None], "perio").result(0)


def _check_band_length(n: int) -> None:
    if n < 16:
        raise ValueError(f"need at least 16 observations, got {n}")


def _band_statistic(x: np.ndarray, alpha: float, window: str | None):
    # the band h = 1..floor(N**alpha) of the centred periodogram (window None) or of a
    # lag-window spectrum, truncated at floor(N**0.9) for parzen and floor(N**(1 - alpha))
    # for the cosine bell, whose kernel then spans about as many Fourier bins as the
    # band holds: the pairing that keeps the band-wide regression stable
    n = x.shape[1]
    _check_band_length(n)
    g = int(math.floor(n**alpha + 1e-9))
    if window is None:
        return (periodogram_band(x, np.arange(1, g + 1)),), {"band_alpha": alpha}
    truncation = (default_truncation(n) if window == "parzen" else
                  max(2, int(math.floor(n ** (1.0 - alpha) + 1e-9))))
    return ((lag_window_band(x, LagWindowSpec(window, truncation), g),),
            {"band_alpha": alpha, "truncation": truncation})


def _varmp_inversion(vhat: np.ndarray, method: str, block_length: int,
                     blocks: int | None = None) -> BatchEstimate:
    """Invert Var ~ L**(3 - 1/s) on each row; the variances are of ``blocks`` block sums."""
    positive = np.isfinite(vhat) & (vhat > 0.0)
    growth = np.log(np.where(positive, vhat, 1.0)) / math.log(block_length)
    denom = 3.0 - growth
    invalid = ~positive | (denom <= 0.0)

    def reason_of(i):
        if not positive[i]:
            return "block-sum variance is zero or undefined"
        return f"variance growth exponent {3.0 - denom[i]:.6g} >= 3"

    shared = {"block_length": block_length, "blocks": blocks}
    return _finish(method, 1.0 / np.where(invalid, np.nan, denom),
                   np.where(invalid, np.nan, growth), blocks or 1, invalid, reason_of,
                   {"block_variance": vhat}, {k: v for k, v in shared.items() if v is not None},
                   {"block_length": invalid, "block_variance": invalid})


def varmp_from_block_variance(vhat: float, block_length: int) -> EstimateResult:
    """Invert the block-sum variance law Var ~ L**(3 - 1/s)."""
    return _varmp_inversion(np.array([vhat], dtype=np.float64), "varmp", block_length).result(0)


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
    dev = _centred(v)
    return (dev * dev).sum(axis=1) / (v.shape[1] - 1)


def _block_variance(x: np.ndarray, block_exponent: float = 0.7):
    # variance of disjoint block sums at a single block length N**theta
    ell, blocks = _block_layout(x.shape[1], block_exponent)
    return (_row_variances(_block_sums(x, ell)),), {"block_length": ell, "blocks": blocks}


@lru_cache(maxsize=64)
def default_block_grid(n: int) -> np.ndarray:
    """Up to 10 geometric block lengths in [N**0.3, N**0.7], each giving 8 blocks (read-only)."""
    lo = max(2, int(math.floor(n**0.3 + 1e-9)))
    hi = max(lo + 10, int(math.floor(n**0.7 + 1e-9)))
    raw = np.floor(np.exp(np.linspace(math.log(lo), math.log(hi), 10))).astype(int)
    # sorted(set()) rather than np.unique, whose first call imports numpy.ma:
    # ExperimentSpec runs this for every preset while the package imports
    grid = np.array(sorted(set(raw.tolist())))
    grid = grid[n // grid >= 8]
    if grid.size < 4:
        raise ValueError(f"need at least 4 block sizes, got {grid.size}")
    grid.flags.writeable = False
    return grid


def _vpmp_inversion(variances: np.ndarray, method: str, sizes, **shared) -> BatchEstimate:
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

    invalid = degenerate | (1.0 - d <= _ROUNDING)
    return _finish(method, s_from_memory(np.where(invalid, np.nan, d)),
                   np.where(degenerate, np.nan, slope), k.size, invalid, reason_of,
                   {"memory_d": d, "intercept": intercept}, shared,
                   {"memory_d": degenerate, "intercept": degenerate})


def vpmp_from_variances(sizes, variances) -> EstimateResult:
    """Variance-plot inversion: slope beta -> d = (beta+1)/2 -> s."""
    return _vpmp_inversion(np.asarray(variances, dtype=np.float64)[None], "vpmp", sizes).result(0)


def _variance_plot(x: np.ndarray):
    # block-mean variances over a geometric grid of block lengths
    grid = default_block_grid(x.shape[1])
    variances = np.empty((x.shape[0], grid.size))
    for i, k in enumerate(grid.tolist()):
        variances[:, i] = _row_variances(_block_sums(x, k) / k)
    return (variances,), {"sizes": grid, "block_grid": grid}


def _wmp_inversion(values: np.ndarray, method: str, levels: np.ndarray) -> BatchEstimate:
    """Closed-form wavelet estimate from each row of variance-ladder values.

    With x_j the centered values of log(2**(-2j)) over the ladder levels,
    returns sum(x^2) / (2 (sum(x^2) - sum(x * log R_hat))), which equals
    1/(2(1-d)) for d the least-squares slope of log R_hat on log(2**(-2j)).
    A row whose 1 - d is at most ``_ROUNDING`` (d = 1 up to rounding) is invalid.
    """
    xs, _, sxx = _design(-2.0 * levels.astype(np.float64) * math.log(2.0))
    logs, floored = _safe_log(values, LADDER_FLOOR)
    sxy = _row_products(logs, xs[None])[:, 0]
    d = sxy / sxx
    invalid = 1.0 - d <= _ROUNDING
    return _finish(method, sxx / np.where(invalid, np.nan, 2.0 * (sxx - sxy)), d, levels.size,
                   invalid, lambda i: f"memory parameter estimate {d[i]:.6g} >= 1",
                   {"floored_levels": floored, "memory_d": d}, {"levels": levels})


def wmp_from_ladder(levels, values) -> EstimateResult:
    """Closed-form wavelet estimate from a variance ladder (see ``_wmp_inversion``)."""
    return _wmp_inversion(np.asarray(values)[None], "wmp-haar", np.asarray(levels)).result(0)


def _ladder(x: np.ndarray, basis: WaveletBasis):
    levels, values = ladder_rows(x, basis)
    return (values,), {"levels": levels}


def _holder_exponents(gaps: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Local regularity exponents a = log|gap| / log(w); NaN where the gap vanishes."""
    gap = np.abs(gaps)
    return np.log(np.where(gap > 0.0, gap, np.nan)) / np.log(freqs)


def holder_from_ordinates(origin_value: float, ordinate: float, freq: float) -> tuple[float, bool]:
    """Local regularity exponent a = log|I(0) - I(w)| / log(w), and whether it exists."""
    a = float(_holder_exponents(np.array([origin_value - ordinate]), np.array([freq]))[0])
    return a, not math.isnan(a)


def _holder_index(n: int, freq_index: int = 1) -> int:
    try:
        j = operator.index(freq_index)
    except TypeError:
        raise ValueError(f"frequency index must be an integer, got {freq_index!r}") from None
    if not 1 <= j < n // 2:
        raise ValueError(f"frequency index must lie in [1, {n // 2}), got {j}")
    return j


def _holder_statistic(x, smoothing: str, freq_index: int = 1):
    # the gap |f(0) - f(w_j)| at j = freq_index; the statistics centre the
    # rows themselves: the raw periodogram then vanishes at frequency 0 and is
    # its own gap, while the Parzen spectrum gives its gap (and condition) directly
    rows, n = x.shape
    j = _holder_index(n, freq_index)
    shared = {"j": j, "freq": 2.0 * np.pi * j / n}
    if smoothing == "none":
        return (np.zeros(rows), periodogram_band(x, [j])[:, 0]), shared
    return lag_window_gaps(x, LagWindowSpec("parzen", default_truncation(n)), j), shared


def _holder_inversion(origin: np.ndarray, gaps: np.ndarray, *condition: np.ndarray,
                      method: str, j: int, freq: float) -> BatchEstimate:
    """1 / (a + 2) on each row, a the exponent of its gap at w_j; a ``condition`` is kept."""
    exponents = _holder_exponents(gaps, freq)
    shifted = exponents + 2.0
    invalid = ~(shifted > 0.0)  # a <= -2, or no exponent where the gap vanished

    def reason_of(i):
        if np.isnan(exponents[i]):
            return f"spectrum gap vanishes at index {j}"
        return f"regularity exponent {exponents[i]:.6g} <= -2"

    # the slope is the exponent, which an invalid row keeps unless its gap vanished
    diagnostics = dict(zip(("origin_ordinate", "gap_condition"), (origin, *condition)))
    return _finish(method, 1.0 / np.where(invalid, np.nan, shifted), exponents, 1, invalid,
                   reason_of, diagnostics, {"freq_indices": np.array([j])},
                   dict.fromkeys([*diagnostics, "freq_indices"], invalid))


# method name -> (statistic, inversion, the fixed arguments that make the
# statistic that method, the keywords ``estimate_batch`` passes through to
# it, the check that its default configuration takes a length-N series).
# The statistic returns a tuple of per-row arrays and the inversion's keyword
# arguments, which depend on N and the configuration alone.
_BAND, _SPECTRAL = _band_statistic, _spectral_inversion
_METHODS = {
    "perio": (_BAND, _SPECTRAL, {"alpha": 0.5, "window": None}, (), _check_band_length),
    "parzen": (_BAND, _SPECTRAL, {"alpha": 0.5, "window": "parzen"}, (), _check_band_length),
    "cos1": (_BAND, _SPECTRAL, {"alpha": 0.5, "window": "cosbell"}, (), _check_band_length),
    "cos2": (_BAND, _SPECTRAL, {"alpha": 0.7, "window": "cosbell"}, (), _check_band_length),
    "varmp": (_block_variance, _varmp_inversion, {}, ("block_exponent",), _block_layout),
    "vpmp": (_variance_plot, _vpmp_inversion, {}, (), default_block_grid),
    "wmp-haar": (_ladder, _wmp_inversion, {"basis": WaveletBasis.HAAR}, (),
                 _require_ladder_length),
    "wmp-mexhat": (_ladder, _wmp_inversion, {"basis": WaveletBasis.MEXICAN_HAT}, (),
                   _require_ladder_length),
    "p": (_holder_statistic, _holder_inversion, {"smoothing": "none"}, ("freq_index",),
          _holder_index),
    "sp": (_holder_statistic, _holder_inversion, {"smoothing": "parzen"}, ("freq_index",),
           _holder_index),
}
METHOD_NAMES = tuple(_METHODS)
METHOD_KEYWORDS = {name: entry[3] for name, entry in _METHODS.items()}  # the keywords each takes


def check_length(method: str, n: int) -> None:
    """Raise the ValueError ``estimate(x, method)`` raises for every length-n x.

    Runs the method's own size checks with its default configuration, on the
    length alone, so a caller can reject a length before making any series.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
    _METHODS[method][4](n)


def estimate_batch(rows, method: str, **config) -> BatchEstimate:
    """Run the named method (see ``METHOD_NAMES``) on every row of a (rows, N) array.

    Returns a ``BatchEstimate``: per-row arrays ``s_hat``, ``valid``,
    ``slope`` and ``points_used``, the list ``reason`` and the diagnostics.
    Row i equals ``estimate(rows[i], method, **config)`` within 1e-12
    (relative above 1, absolute below), with the same ``valid``,
    ``points_used`` and ``reason``.  Config keys, errors and non-finite rows
    behave as in ``estimate``.  The statistic runs on chunks of at most
    ``CHUNK_VALUES`` samples, which bounds the memory a batch needs, and the
    batch is inverted once.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
    statistic, inversion, fixed, _, _ = _METHODS[method]
    for key in config:
        if key not in METHOD_KEYWORDS[method]:
            raise TypeError(f"method {method!r} got an unexpected keyword argument {key!r}")
    # a row with a non-finite value is computed as zeros and then marked invalid
    x = series_rows(rows)
    finite = np.isfinite(x).all(axis=1)
    finite_rows = np.count_nonzero(finite)
    if finite_rows == 0:
        return _finish(method, np.full(finite.size, np.nan), np.full(finite.size, np.nan), 0,
                       ~finite, lambda i: NON_FINITE, {})
    if finite_rows < finite.size:
        x = np.where(finite[:, None], x, 0.0)
    step = max(1, CHUNK_VALUES // x.shape[1])
    parts = [statistic(x[i:i + step], **fixed, **config) for i in range(0, len(x), step)]
    arrays = parts[0][0] if len(parts) == 1 else map(np.concatenate, zip(*(v for v, _ in parts)))
    out = inversion(*arrays, method=method, **parts[0][1])
    if finite_rows < finite.size:
        out.invalidate(~finite, NON_FINITE)
    return out


def estimate(series, method: str, **config) -> EstimateResult:
    """Run the named method (see ``METHOD_NAMES``) with keyword ``config``.

    Row 0 of ``estimate_batch`` on the one-row array of ``series``.  A key
    the method does not take, or one of its fixed arguments, raises
    TypeError; a series with a non-finite value gives an invalid result.
    """
    return estimate_batch(series_values(series)[None], method, **config).result(0)

