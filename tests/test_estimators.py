import functools
import importlib.util
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mplm import cli, estimators
from mplm._seeds import derive_seed
from mplm.dynamics import simulate_mp, simulate_mp_batch
from mplm.estimators import (
    METHOD_NAMES,
    EstimateResult,
    check_length,
    default_block_grid,
    estimate,
    estimate_batch,
    holder_from_ordinates,
    ols_slope,
    s_from_memory,
    s_from_spectral_ordinates,
    varmp_from_block_variance,
    vpmp_from_variances,
    wmp_from_ladder,
)
from mplm.spectral import (LagWindowSpec, default_truncation, lag_window_weight, periodogram,
                           sample_acv, smoothed_periodogram)
from mplm.wavelet import TruncationWarning


# ---------------------------------------------------------------------------
# regression building blocks
# ---------------------------------------------------------------------------


def test_ols_exact_line():
    slope, intercept = ols_slope([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
    assert_allclose((slope, intercept), (2.0, 1.0), atol=1e-14)


def test_ols_degenerate_abscissae():
    with pytest.raises(ValueError):
        ols_slope([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ols_slope([1.0], [2.0])


def test_ols_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="paired points"):
        ols_slope([0.0, 1.0, 2.0], [1.0, 2.0])


def test_ols_matches_polyfit_oracle():
    rng = np.random.default_rng(20)
    for _ in range(20):
        xs = rng.random(5) * 10
        ys = rng.random(5)
        slope, intercept = ols_slope(xs, ys)
        ref = np.polyfit(xs, ys, 1)
        assert_allclose((slope, intercept), (ref[0], ref[1]), atol=1e-12)


def test_memory_parameter_bijection():
    # d = 1 - 1/(2s) both ways
    for s in np.linspace(0.51, 0.99, 25):
        assert_allclose(s_from_memory(1.0 - 1.0 / (2.0 * s)), s, rtol=1e-12)
    for d in np.linspace(0.01, 0.49, 25):
        assert_allclose(1.0 - 1.0 / (2.0 * s_from_memory(d)), d, rtol=1e-12)


# ---------------------------------------------------------------------------
# exact inversion on model-law inputs
# ---------------------------------------------------------------------------


def test_spectral_ordinates_exact_inversion():
    # ordinates following w**c exactly invert to s = 1/(c+2)
    freqs = 2.0 * np.pi * np.arange(1, 101) / 10_000.0
    result = s_from_spectral_ordinates(freqs ** (-0.75))
    assert result.valid
    assert_allclose(result.s_hat, 0.8, atol=1e-9)
    assert_allclose(result.slope, -0.75, atol=1e-9)


def test_spectral_ordinates_invalid_below_minus_two():
    freqs = 2.0 * np.pi * np.arange(1, 101) / 10_000.0
    result = s_from_spectral_ordinates(freqs ** (-2.5))
    assert not result.valid
    assert "slope" in result.reason


def test_varmp_plug_in_identity():
    result = varmp_from_block_variance((10.0**4) ** (3.0 - 1.0 / 0.8), 10**4)
    assert result.valid
    assert_allclose(result.s_hat, 0.8, atol=1e-12)


def test_varmp_invalid_on_zero_variance():
    assert not varmp_from_block_variance(0.0, 100).valid


def test_varmp_invalid_on_growth_exponent_at_least_three():
    result = varmp_from_block_variance(125.0 ** 3.5, 125)
    assert not result.valid
    assert result.reason == "variance growth exponent 3.5 >= 3"


def test_varmp_block_exponent_must_lie_in_the_unit_interval():
    for theta in (0.0, 1.0):
        with pytest.raises(ValueError, match="block exponent"):
            estimate(np.ones(10_000), "varmp", block_exponent=theta)


def test_vpmp_planted_variances():
    sizes = np.array([10.0, 25.0, 60.0, 150.0, 400.0])
    d = 0.375
    result = vpmp_from_variances(sizes, sizes ** (2.0 * d - 1.0))
    assert result.valid
    assert_allclose(result.s_hat, 0.8, atol=1e-9)
    assert_allclose(result.slope, -0.25, atol=1e-9)


def test_vpmp_invalid_on_memory_at_least_one():
    sizes = np.array([10.0, 20.0, 40.0, 80.0])
    result = vpmp_from_variances(sizes, sizes ** 1.2)  # d = 1.1
    assert not result.valid


def test_wmp_planted_ladder():
    levels = np.arange(4, 12)
    d = 0.375
    values = np.exp(0.7 + d * np.log(2.0 ** (-2.0 * levels)))
    result = wmp_from_ladder(levels, values)
    assert result.valid
    assert_allclose(result.s_hat, 1.0 / (2.0 * (1.0 - d)), atol=1e-9)


def test_memory_within_rounding_of_one_is_invalid():
    # wmp and vpmp divide by 1 - d: a d that is 1 up to rounding leaves only
    # rounding in the denominator, while d = 1 - 1e-9 is still an estimate
    levels = np.arange(4, 12)
    sizes = np.array([10.0, 20.0, 40.0, 80.0])
    for d, valid in ((1.0 - 1e-9, True), (1.0, False)):
        values = np.exp(0.7 + d * np.log(2.0 ** (-2.0 * levels)))
        for result in (wmp_from_ladder(levels, values),
                       vpmp_from_variances(sizes, sizes ** (2 * d - 1))):
            assert result.valid is valid, (result.method, d)
            if valid:
                assert_allclose(result.s_hat, 0.5e9, rtol=1e-6)
    # the pinned property-test row: a Haar ladder of exactly [32, 8] has
    # d = 1 up to rounding (1 - d = 2.2e-16), in the batch and alone
    x = (np.random.default_rng(2).random((2, 66)) < 0.4453125).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        batch = estimate_batch(x, "wmp-haar")
        single = estimate(x[1], "wmp-haar")
    for result in (batch.result(1), single):
        assert not result.valid and np.isnan(result.s_hat)
        assert 0.0 < 1.0 - result.diagnostics["memory_d"] <= 64 * np.finfo(float).eps
    assert batch.result(0).valid


def test_wmp_closed_form_equals_two_step_regression():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        m = int(rng.integers(6, 15))
        levels = np.arange(4, m)
        values = np.exp(rng.normal(0.0, 2.0, levels.size))
        result = wmp_from_ladder(levels, values)
        slope, _ = ols_slope(np.log(2.0 ** (-2.0 * levels.astype(float))),
                             np.log(values))
        if slope < 1.0:
            assert result.valid
            assert_allclose(result.s_hat, 1.0 / (2.0 * (1.0 - slope)), atol=1e-9)
        else:
            assert not result.valid


def test_holder_exact_inversion():
    a, ok = holder_from_ordinates(0.0, (2.0 * np.pi / 10_000.0) ** 0.5,
                                  2.0 * np.pi / 10_000.0)
    assert ok
    assert_allclose(1.0 / (a + 2.0), 0.4, atol=1e-12)


def test_holder_invalid_on_vanishing_gap():
    a, ok = holder_from_ordinates(0.25, 0.25, 0.01)
    assert not ok


_J = np.arange(1, 17.0)
_SIZES = np.array([8, 16, 32, 64])
_LEVELS = np.arange(4, 9)

# the whole result of each scalar inversion on planted inputs, valid and
# invalid, recorded before the batch inversions were fed by chunked statistics
SCALAR_VIEWS = {
    "spectral": (lambda: s_from_spectral_ordinates(_J ** -0.75), EstimateResult(
        "perio", 0.8, -0.7500000000000001, 16,
        {"clamped_ordinates": 0, "r_squared": 1.0000000000000004,
         "intercept": 2.220446049250313e-16})),
    "spectral-clamped": (lambda: s_from_spectral_ordinates(
        np.where(_J == 4.0, 0.0, _J ** -0.5)), EstimateResult(
        "perio", 0.292160682464291, 1.422774041891225, 16,
        {"clamped_ordinates": 1, "r_squared": 0.017868248201398658,
         "intercept": -5.801292852677606})),
    "spectral-invalid": (lambda: s_from_spectral_ordinates(_J ** -2.5), EstimateResult(
        "perio", math.nan, -2.500000000000001, 16,
        {"clamped_ordinates": 0, "r_squared": 1.0000000000000007,
         "intercept": 8.881784197001252e-16},
        False, "regression slope -2.5 <= -2 cannot be inverted")),
    # one variance: points_used 1 and no "blocks" key, unlike estimate(x, "varmp")
    "varmp": (lambda: varmp_from_block_variance(100.0 ** 1.75, 100), EstimateResult(
        "varmp", 0.8, 1.75, 1, {"block_variance": 3162.2776601683795, "block_length": 100})),
    "varmp-zero": (lambda: varmp_from_block_variance(0.0, 100), EstimateResult(
        "varmp", math.nan, None, 1, {}, False, "block-sum variance is zero or undefined")),
    "varmp-growth": (lambda: varmp_from_block_variance(125.0 ** 3.5, 125), EstimateResult(
        "varmp", math.nan, None, 1, {}, False, "variance growth exponent 3.5 >= 3")),
    "vpmp": (lambda: vpmp_from_variances(_SIZES, _SIZES ** -0.25), EstimateResult(
        "vpmp", 0.7999999999999997, -0.2500000000000004, 4,
        {"memory_d": 0.3749999999999998, "intercept": 9.992007221626409e-16})),
    "vpmp-degenerate": (lambda: vpmp_from_variances(_SIZES, [1.0, 0.5, 0.0, 0.25]), EstimateResult(
        "vpmp", math.nan, None, 4, {}, False, "degenerate block-mean variance")),
    "vpmp-memory": (lambda: vpmp_from_variances(_SIZES, _SIZES ** 1.5), EstimateResult(
        "vpmp", math.nan, 1.5000000000000027, 4,
        {"memory_d": 1.2500000000000013, "intercept": -7.105427357601002e-15},
        False, "memory parameter estimate 1.25 >= 1")),
    "wmp": (lambda: wmp_from_ladder(_LEVELS, 2.0 ** (-0.5 * _LEVELS)),
            EstimateResult("wmp-haar", 0.6666666666666669, 0.25000000000000017, 5,
                           {"floored_levels": 0, "memory_d": 0.25000000000000017,
                            "levels": [4, 5, 6, 7, 8]})),
    "wmp-floored": (lambda: wmp_from_ladder(
        _LEVELS, np.array([1.0, 0.5, 0.0, 0.2, 0.1])),
        EstimateResult("wmp-haar", 0.8309639976998875, 0.3982892142331045, 5,
                       {"floored_levels": 1, "memory_d": 0.3982892142331045,
                        "levels": [4, 5, 6, 7, 8]})),
    "wmp-memory": (lambda: wmp_from_ladder(_LEVELS, 2.0 ** (-3.0 * _LEVELS)),
                   EstimateResult("wmp-haar", math.nan, 1.5000000000000013, 5,
                                  {"floored_levels": 0, "memory_d": 1.5000000000000013,
                                   "levels": [4, 5, 6, 7, 8]},
                                  False, "memory parameter estimate 1.5 >= 1")),
}


@pytest.mark.parametrize("case", SCALAR_VIEWS)
def test_scalar_inversions_keep_their_whole_result(case):
    call, want = SCALAR_VIEWS[case]
    got = call()
    assert list(got.diagnostics) == list(want.diagnostics)
    _same_result(got, want, case)


def test_holder_view_keeps_its_exponent_and_flag():
    a, ok = holder_from_ordinates(1.0, 0.5, 0.125)
    assert ok is True and abs(a - 0.33333333333333337) <= 1e-12
    a, ok = holder_from_ordinates(0.25, 0.25, 0.01)
    assert ok is False and math.isnan(a)


# ---------------------------------------------------------------------------
# series-level pipelines
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mp_series():
    return simulate_mp(0.8, 4096, seed=33, burn_in=0)


def test_pipelines_produce_valid_results(mp_series):
    for method in METHOD_NAMES:
        result = estimate(mp_series, method)
        assert result.method == method
        if result.valid:
            assert np.isfinite(result.s_hat)
            assert result.points_used >= 1


def test_estimate_rejects_unknown_method(mp_series):
    with pytest.raises(ValueError):
        estimate(mp_series, "whittle")


def test_regression_methods_are_scale_invariant(mp_series):
    # multiplying the series by a positive constant shifts log ordinates
    # additively and leaves every slope-based estimate unchanged
    scaled = 3.7 * mp_series
    for method in ("perio", "parzen", "cos1", "cos2", "vpmp", "wmp-haar", "wmp-mexhat"):
        base = estimate(mp_series, method)
        other = estimate(scaled, method)
        assert_allclose(other.s_hat, base.s_hat, atol=1e-10)


def test_estimate_rejects_unknown_config_key(mp_series):
    # a typo, and the keys of the band, truncation, block grid and averaging
    # that the methods no longer take, in the single and the batch entry point
    unknown = {"block_exponent_typo": 0.5, "band": 0.6, "truncation": 20,
               "block_sizes": [8, 16, 32, 64], "average_count": 5}
    for method in METHOD_NAMES:
        for key, value in unknown.items():
            for run in (estimate, estimate_batch):
                with pytest.raises(TypeError, match=key):
                    run(mp_series, method, **{key: value})
    for method in set(METHOD_NAMES) - {"varmp"}:
        with pytest.raises(TypeError):
            estimate(mp_series, method, block_exponent=0.5)


def test_estimate_fixed_arguments_cannot_be_overridden(mp_series):
    overrides = {"method": "perio", "alpha": 0.6, "window": "parzen", "basis": "mexhat",
                 "smoothing": "parzen"}
    for method in METHOD_NAMES:
        for key, value in overrides.items():
            with pytest.raises(TypeError):
                estimate(mp_series, method, **{key: value})


def test_estimate_non_finite_input_is_invalid(mp_series):
    for bad in (np.nan, np.inf, -np.inf):
        x = mp_series.copy()
        x[100] = bad
        for method in METHOD_NAMES:
            result = estimate(x, method)
            assert result.method == method
            assert not result.valid
            assert np.isnan(result.s_hat)
            assert "non-finite" in result.reason
    with pytest.raises(TypeError):
        estimate(x, "wmp-haar", block_exponent=0.5)


def test_perio_needs_sixteen_points():
    with pytest.raises(ValueError):
        estimate(np.ones(8), "perio")


def test_varmp_blocks_requirement():
    with pytest.raises(ValueError):
        estimate(np.ones(32), "varmp", block_exponent=0.9)


def test_varmp_invalid_on_constant_series():
    result = estimate(np.ones(10_000), "varmp")
    assert not result.valid


def test_vpmp_grid_validation():
    # N = 48 is the shortest series whose grid keeps 4 sizes of 8 blocks each;
    # below it the grid and the estimate raise alike
    assert default_block_grid(48).tolist() == [3, 4, 5, 6]
    assert estimate(np.ones(48), "vpmp").points_used == 4
    for call in (lambda: default_block_grid(47), lambda: estimate(np.ones(47), "vpmp")):
        with pytest.raises(ValueError, match="need at least 4 block sizes, got 3"):
            call()


def test_varmp_iid_bernoulli_near_half():
    # independent blocks: Var(block sum) = L/4, so log V / log L -> 1 and
    # s_hat -> 0.5; at finite L the constant 1/4 inside the log biases the
    # plug-in to exactly 1 / (2 + log(4)/log(L))
    rng = np.random.default_rng(22)
    x = (rng.random(200_000) < 0.5).astype(float)
    result = estimate(x, "varmp")
    assert result.valid
    ell = result.diagnostics["block_length"]
    predicted = 1.0 / (2.0 + np.log(4.0) / np.log(ell))
    assert abs(result.s_hat - predicted) < 0.02
    assert abs(result.s_hat - 0.5) < 0.05


def test_vpmp_iid_bernoulli_near_half():
    rng = np.random.default_rng(23)
    x = (rng.random(200_000) < 0.5).astype(float)
    result = estimate(x, "vpmp")
    assert result.valid
    assert abs(result.s_hat - 0.5) < 0.03


def test_holder_pipeline_and_averaging(mp_series):
    single = estimate(mp_series, "p")
    assert single.points_used == 1
    smoothed = estimate(mp_series, "sp")
    assert smoothed.method == "sp"
    assert smoothed.diagnostics["origin_ordinate"] > 0.0
    # index N // 2 and above would read mirrored ordinates past Nyquist
    for method in ("p", "sp"):
        for j in (0, mp_series.size // 2):
            with pytest.raises(ValueError, match=rf"must lie in \[1, {mp_series.size // 2}\)"):
                estimate(mp_series, method, freq_index=j)
    # the band statistics against the full-grid spectra: the gap at w_j,
    # read back from s_hat, within 1e-13 of the largest ordinate (an exponent
    # at or below -2, as near Nyquist, must be invalid on both)
    x = mp_series
    n = x.size
    freqs = 2.0 * np.pi * np.arange(1, n + 1) / n
    raw = periodogram(x)[:-1]  # the band h = 1..N-1, without the frequency-0 alias
    smooth = smoothed_periodogram(x, LagWindowSpec("parzen", default_truncation(n)))
    full_gaps = {"p": raw, "sp": smooth[-1] - smooth}
    largest = {"p": raw.max(), "sp": smooth.max()}
    for method in ("p", "sp"):
        for j in (1, 2, n // 2 - 1):
            result = estimate(x, method, freq_index=j)
            full_gap = abs(full_gaps[method][j - 1])
            if not result.valid:
                assert math.log(full_gap) / math.log(freqs[j - 1]) <= -2.0, (method, j)
                continue
            gap = math.exp((1.0 / result.s_hat - 2.0) * math.log(freqs[j - 1]))
            assert abs(gap - full_gap) <= 1e-13 * largest[method], (method, j)


def test_holder_frequency_index_must_be_an_integer(mp_series):
    # 1.5 once read the ordinate at index 1 but took the log of the frequency
    # at 1.5, and returned a valid estimate; a float is rejected even when it
    # is whole, and a numpy integer is taken as its value
    for method in ("p", "sp"):
        for index in (1.5, 2.0):
            for run in (estimate, estimate_batch):
                with pytest.raises(ValueError, match="frequency index must be an integer"):
                    run(mp_series, method, freq_index=index)
        want = estimate(mp_series, method, freq_index=2)
        assert estimate(mp_series, method, freq_index=np.int64(2)).s_hat == want.s_hat


@pytest.mark.parametrize("s,n,seed", [(0.4, 4096, 47), (0.4, 1000, 80), (0.3, 4096, 43)])
def test_sp_gap_has_no_cancellation(s, n, seed):
    # the smoothed gap at w_1 summed exactly from the same autocovariances;
    # a difference of the two FFT ordinates was off by 1.2e-13 (relative)
    # in the slope of the first row
    x = simulate_mp(s, n, seed=seed, burn_in=0)
    m = default_truncation(n)
    c = (lag_window_weight(LagWindowSpec("parzen", m), np.arange(m + 1) / m)
         * sample_acv(x, m))
    gap = math.fsum(float(c[k]) * 2.0 * math.sin(math.pi * k / n) ** 2
                    for k in range(1, m + 1)) / math.pi
    slope = math.log(abs(gap)) / math.log(2.0 * math.pi / n)
    result = estimate(x, "sp")
    assert abs(result.slope - slope) <= 1e-13 * abs(slope)
    origin = math.fsum([float(c[0])] + [2.0 * float(v) for v in c[1:]]) / (2.0 * math.pi)
    assert_allclose(result.diagnostics["origin_ordinate"], origin, rtol=1e-13)


@pytest.mark.parametrize("n", [1000, 4096, 8192])
@pytest.mark.parametrize("s", [0.3, 0.4, 0.65, 0.8])
def test_complement_invariance(s, n):
    # centring makes every statistic of 1 - x equal to that of x: the
    # spectra, block variances and wavelet energies see -(x - xbar)
    x = simulate_mp(s, n, seed=int(1000 * s) + n, burn_in=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for method in METHOD_NAMES:
            a, b = estimate(x, method), estimate(1.0 - x, method)
            assert a.valid is b.valid, method
            if a.valid:
                assert abs(a.s_hat - b.s_hat) <= 1e-12, method


def test_check_length_matches_the_estimators():
    # the length alone decides whether a method's default configuration
    # raises, and check_length raises exactly then, with the same message
    # and no TruncationWarning before it
    rng = np.random.default_rng(24)
    for n in (3, 4, 15, 16, 40, 50, 63, 64, 200, 500, 999, 1000, 2000):
        x = (rng.random(n) < 0.5).astype(float)
        for method in METHOD_NAMES:
            raised = rejected = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", TruncationWarning)
                try:
                    estimate(x, method)
                except ValueError as error:
                    raised = str(error)
            try:
                check_length(method, n)
            except ValueError as error:
                rejected = str(error)
            assert (rejected is None) == (raised is None), (method, n)
            if raised is not None:
                assert raised == rejected, (method, n)
                assert not any(issubclass(w.category, TruncationWarning) for w in caught), \
                    (method, n)
    with pytest.raises(ValueError, match="8 disjoint blocks"):
        check_length("varmp", 500)
    with pytest.raises(ValueError, match="unknown method"):
        check_length("whittle", 1000)


def test_cos_band_and_default_truncation(mp_series):
    n = mp_series.size
    c1 = estimate(mp_series, "cos1")
    assert c1.method == "cos1"
    assert c1.diagnostics["truncation"] == int(n**0.5)
    c2 = estimate(mp_series, "cos2")
    assert c2.method == "cos2"
    assert c2.diagnostics["truncation"] == int(round(n**0.3))
    assert c2.points_used == int(n**0.7)


def test_parzen_default_truncation(mp_series):
    result = estimate(mp_series, "parzen")
    assert result.diagnostics["truncation"] == int(mp_series.size**0.9)


# ---------------------------------------------------------------------------
# golden values: every method on fixed mp series, recorded before the method
# table replaced the dispatch chain
# ---------------------------------------------------------------------------

# (N, s, seed) -> method -> (s_hat, valid, points_used); N = 30000 is not a
# power of two, so the wavelet methods truncate it to 16384 samples
GOLDEN = {
    (4096, 0.8, 101): {
        "perio": (0.6304862196333396, True, 64),
        "parzen": (0.6250830881314695, True, 64),
        "cos1": (0.5663803188455798, True, 64),
        "cos2": (0.629952888614543, True, 337),
        "varmp": (0.5742193544110921, True, 12),
        "vpmp": (0.6099914023745237, True, 10),
        "wmp-haar": (1.0095388558185299, True, 8),
        "wmp-mexhat": (0.7936856705959187, True, 8),
        "p": (0.4239021938634842, True, 1),
        "sp": (0.40653345995521434, True, 1),
    },
    (30000, 0.7, 102): {
        "perio": (0.7470520297107021, True, 173),
        "parzen": (0.7325804860507585, True, 173),
        "cos1": (0.5998866700081426, True, 173),
        "cos2": (0.6265535850457231, True, 1361),
        "varmp": (0.6532046166690259, True, 22),
        "vpmp": (0.7086079171320455, True, 10),
        "wmp-haar": (0.8771111434399106, True, 10),
        "wmp-mexhat": (0.7624230424667956, True, 10),
        "p": (0.4772549796329258, True, 1),
        "sp": (0.4868107755439577, True, 1),
    },
    (32768, 0.9, 103): {
        "perio": (0.8729773119500193, True, 181),
        "parzen": (0.8532509663779541, True, 181),
        "cos1": (0.6327596923971207, True, 181),
        "cos2": (0.6412072443851736, True, 1448),
        "varmp": (0.6972031642686373, True, 22),
        "vpmp": (0.7737635086246152, True, 10),
        "wmp-haar": (0.9322567217979657, True, 11),
        "wmp-mexhat": (0.9339777998599931, True, 11),
        "p": (0.5255203428281999, True, 1),
        "sp": (0.4844632665666576, True, 1),
    },
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_estimates(key):
    n, s, seed = key
    x = simulate_mp(s, n, seed=seed, burn_in=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        results = {method: estimate(x, method) for method in METHOD_NAMES}
    assert set(GOLDEN[key]) == set(METHOD_NAMES)
    for method, (s_hat, valid, points_used) in GOLDEN[key].items():
        result = results[method]
        assert result.valid is valid, method
        assert result.points_used == points_used, method
        assert abs(result.s_hat - s_hat) <= 1e-12, method


def _perfbench_module(name):
    # read-only use of the benchmark's own definitions, loaded from its file
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_binds_the_program(tmp_path, monkeypatch):
    # the benchmark's tracer wraps names it looks up in the program (some
    # only it uses) and binds run_experiment's spec and threads arguments;
    # a run through it must find every name and bind without error
    monkeypatch.setitem(sys.modules, "workloads", _perfbench_module("workloads"))
    tracer_module = _perfbench_module("tracer")
    spec = tmp_path / "spec.txt"
    spec.write_text("s=0.8\nn=1024\nmethods=perio\nreplications=2\nburn_in=0\n")
    with tracer_module.Tracer() as tracer:
        rc = cli.main(["montecarlo", "--spec", str(spec), "--threads", "2",
                       "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert tracer.missing == []
    assert tracer.busy["montecarlo"] > 0.0


def test_benchmark_reference_slice():
    # the first two rows of every (s, N) cell of the estimate-corpus
    # benchmark at its reference seed, all ten methods, against the stored
    # reference at the benchmark's own tolerance: a statistic change that
    # would fail the benchmark's correctness check fails here first
    workloads, reference = _perfbench_module("workloads"), _perfbench_module("reference")
    corpus = workloads.workloads()["estimate-corpus"]
    with open(reference.REFERENCE_FILE) as f:
        want = json.load(f)["estimate-corpus"]["corpus"]["records"]
    methods, tol = workloads.METHODS, reference.REFERENCE_TOL
    for a, s in enumerate(corpus.s):
        # the cells' seeds as ``CorpusWorkload.prepare`` derives them; a
        # row of a simulated batch does not depend on the other rows
        picked = [c * corpus.rows + r for c in range(len(corpus.n)) for r in (0, 1)]
        seeds = [derive_seed(reference.REFERENCE_SEED, "perfbench-corpus", s, i) for i in picked]
        batch = simulate_mp_batch(s, max(corpus.n), seeds, burn_in=0)
        for c, n in enumerate(corpus.n):
            for r in (0, 1):
                x = np.ascontiguousarray(batch[2 * c + r, :n])
                for m, method in enumerate(methods):
                    i = ((a * len(corpus.n) + c) * corpus.rows + r) * len(methods) + m
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", TruncationWarning)
                        result = estimate(x, method)
                    key, (s_hat,), _ = want[i]
                    assert key == [s, n, r, method, result.valid], key
                    if math.isnan(s_hat):
                        assert math.isnan(result.s_hat), key
                    else:
                        assert abs(result.s_hat - s_hat) <= tol * max(1.0, abs(s_hat)), key


# ---------------------------------------------------------------------------
# batch statistics: estimate_batch row i == estimate(row i)
# ---------------------------------------------------------------------------


def _same_result(got, want, context):
    # the reproducibility contract: 1e-12, relative above 1 and absolute
    # below (a constant row's slope is rounding noise around 0)
    assert (got.method, got.valid, got.points_used, got.reason) == (
        want.method, want.valid, want.points_used, want.reason), context
    for a, b in ((got.s_hat, want.s_hat), (got.slope, want.slope)):
        if b is None or np.isnan(b):
            assert a is None or np.isnan(a), context
        else:
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), context
    assert got.diagnostics.keys() == want.diagnostics.keys(), context
    for key, value in want.diagnostics.items():
        if isinstance(value, float):
            assert abs(got.diagnostics[key] - value) <= 1e-12 * max(1.0, abs(value)), (
                context, key)
        else:
            assert got.diagnostics[key] == value, (context, key)


@functools.lru_cache(maxsize=None)
def _mixed_rows(n):
    # valid mp rows, a step whose spectrum falls too fast for parzen (slope
    # <= -2), a constant row and a row with a NaN; read-only, made once per n
    mp = [simulate_mp(s, n, seed=seed, burn_in=0)
          for s, seed in ((0.65, 61), (0.8, 62), (0.3, 63), (0.9, 64))]
    step = (np.arange(n) < n // 3).astype(float)
    nan_row = mp[0].copy()
    nan_row[n // 2] = np.nan
    rows = np.stack([mp[0], step, np.ones(n), mp[1], nan_row, mp[2], mp[3]])
    rows.flags.writeable = False
    return rows


BATCH_CASES = [(method, {}) for method in METHOD_NAMES] + [
    ("p", {"freq_index": "nyquist"}), ("sp", {"freq_index": "nyquist"}),
    ("varmp", {"block_exponent": 0.6})]


@pytest.mark.parametrize("n", [1001, 4096, 30000])  # odd, a power of two, even non-power
@pytest.mark.parametrize("method,config", BATCH_CASES)
def test_estimate_batch_matches_estimate_row_by_row(method, config, n, monkeypatch):
    if config.get("freq_index") == "nyquist":
        config = {"freq_index": n // 2 - 1}
    rows = _mixed_rows(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        singles = [estimate(row, method, **config) for row in rows]
        batch = estimate_batch(rows, method, **config)
        # a chunk of at most 3 rows, so the 7 rows take 3 chunks
        monkeypatch.setattr(estimators, "CHUNK_VALUES", 3 * n)
        chunked = estimate_batch(rows, method, **config)
    assert len(batch) == len(chunked) == len(rows)
    for i, want in enumerate(singles):
        for label, got in (("batch", batch), ("chunked", chunked)):
            _same_result(got.result(i), want, f"{method} {config} n={n} row {i} {label}")
            assert got.valid[i] == want.valid and got.points_used[i] == want.points_used
            assert got.reason[i] == want.reason
    # the arrays say what the rows' results say
    assert batch.valid.tolist() == [r.valid for r in singles]
    assert_allclose(batch.s_hat, [r.s_hat for r in singles], rtol=1e-12, atol=1e-12,
                    equal_nan=True)
    assert singles[4].reason == "series has a non-finite value"
    assert singles[4].diagnostics == {} and singles[4].points_used == 0
    if method == "parzen":
        assert not singles[1].valid and singles[1].slope <= -2.0


def _batch_bits(batch):
    # every array of a batch as (dtype, shape, bytes), with its reasons and shared values
    arrays = {"s_hat": batch.s_hat, "valid": batch.valid, "slope": batch.slope,
              "points_used": batch.points_used,
              **{f"diagnostics[{k}]": v for k, v in batch.diagnostics.items()},
              **{f"omitted[{k}]": np.asarray(v) for k, v in batch.omitted.items()}}
    return ({k: (v.dtype.str, v.shape, v.tobytes()) for k, v in arrays.items()},
            batch.reason, {k: np.asarray(v).tolist() for k, v in batch.shared.items()})


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_batch_fields_do_not_depend_on_the_chunking(method, monkeypatch):
    # a constant row, a NaN row and a step (a slope <= -2 for parzen) among
    # mp rows; one row per chunk, three, or all seven in one chunk give the
    # same bits in every field, the diagnostics that an invalid row omits too
    n = 4096
    rows = _mixed_rows(n)
    bits = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for values in (n, 3 * n, 2**40):
            monkeypatch.setattr(estimators, "CHUNK_VALUES", values)
            bits.append(_batch_bits(estimate_batch(rows, method)))
    assert bits[1] == bits[0] and bits[2] == bits[0]


@pytest.mark.parametrize("method", ["perio", "parzen"])
def test_strided_band_rows_take_the_single_row_route(method):
    # the band periodogram of several rows comes back with strided rows; the
    # regression still reads each row as estimate reads it (row 0's
    # r_squared in this batch once differed from its own by 1.1e-12)
    rows = simulate_mp_batch(1.1, 4096, [81158, 81159], burn_in=0)
    batch = estimate_batch(rows, method)
    for i, row in enumerate(rows):
        got, want = batch.result(i), estimate(row, method)
        assert (got.s_hat, got.slope, got.diagnostics) == (want.s_hat, want.slope,
                                                            want.diagnostics), i


def test_estimate_batch_spans_chunks_at_the_default_size():
    n = 30000
    assert estimators.CHUNK_VALUES // n < 7
    rows = _mixed_rows(n)
    batch = estimate_batch(rows, "perio")
    for i, row in enumerate(rows):
        _same_result(batch.result(i), estimate(row, "perio"), f"row {i}")


def test_estimate_batch_input_and_config_checks():
    rows = _mixed_rows(1001)
    with pytest.raises(ValueError, match="unknown method"):
        estimate_batch(rows, "whittle")
    with pytest.raises(TypeError, match="block_exponent"):
        estimate_batch(rows, "perio", block_exponent=0.5)
    with pytest.raises(TypeError):
        estimate_batch(rows, "cos1", alpha=0.6)
    with pytest.raises(ValueError):
        estimate_batch(np.zeros((2, 3, 4)), "perio")
    with pytest.raises(ValueError):
        estimate_batch(np.zeros((0, 100)), "perio")
    with pytest.raises(ValueError, match="8 disjoint blocks"):
        estimate_batch(rows[:, :500], "varmp")
    # rows that are all non-finite are invalid without any length check
    nothing = estimate_batch(np.full((3, 8), np.nan), "varmp")
    assert not nothing.valid.any() and np.isnan(nothing.s_hat).all()
    assert nothing.result(1).reason == "series has a non-finite value"


def test_invalid_holder_result_keeps_its_exponent():
    # an uninvertible exponent stays in slope, as the band regressions keep
    # theirs; a vanished gap has no exponent to keep
    x = simulate_mp(0.8, 4096, seed=33, burn_in=0)
    n, j = x.size, 2047
    result = estimate(x, "p", freq_index=j)
    assert not result.valid and "regularity exponent" in result.reason
    gap = periodogram(x)[j - 1]
    exponent = math.log(gap) / math.log(2.0 * math.pi * j / n)
    assert exponent <= -2.0
    assert result.slope is not None and abs(result.slope - exponent) <= 1e-12 * abs(exponent)
    flat = estimate(np.ones(4096), "p")
    assert not flat.valid and "vanishes" in flat.reason and flat.slope is None


def _shortest_length(method):
    # the first length the method's default configuration takes
    for n in range(1, 4096):
        try:
            check_length(method, n)
            return n
        except ValueError:
            pass
    raise AssertionError(method)


SHORTEST = {method: _shortest_length(method) for method in METHOD_NAMES}


@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from(METHOD_NAMES), extra=st.integers(0, 3000),
       rows=st.integers(1, 4), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
# rows with one or two zeros: a lone spike's flat periodogram has no spread
# but rounding, and cos2's near-zero slope carries any change in summation
# order into its r_squared; a Haar ladder of exactly [32, 8] has d = 1 up
# to rounding, and its wavelet estimate divides by that rounding
@example(method="perio", extra=3, rows=2, density=0.921875, seed=0)
@example(method="cos2", extra=2500, rows=2, density=0.9995, seed=0)
@example(method="wmp-haar", extra=2, rows=2, density=0.4453125, seed=2)
def test_property_batch_equals_single_on_random_binary_rows(method, extra, rows, density, seed):
    # random 0/1 rows (constant ones included, at density 0 or 1) at any
    # length the method takes: each batch row is the single-row estimate
    n = SHORTEST[method] + extra
    try:
        check_length(method, n)
    except ValueError:
        return  # varmp has fewer than 8 blocks at a few lengths just above 1000
    x = (np.random.default_rng(seed).random((rows, n)) < density).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        batch = estimate_batch(x, method)
        for i in range(rows):
            _same_result(batch.result(i), estimate(x[i], method), f"{method} n={n} row {i}")


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_integer_rows_estimate_as_their_float64_values(method):
    # 9 rows of N = 8192 run in chunks of CHUNK_VALUES // 8192 = 4 rows: three chunks
    rows = simulate_mp_batch(0.65, 8192, [derive_seed(6, "compact", r) for r in range(9)],
                             burn_in=0, dtype=np.uint8)
    want = estimate_batch(rows.astype(np.float64), method)
    for compact in (rows, rows.astype(bool)):
        got = estimate_batch(compact, method)
        for name in ("s_hat", "valid", "slope", "points_used"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.reason == want.reason
        assert got.diagnostics.keys() == want.diagnostics.keys()
        for name, column in want.diagnostics.items():
            assert np.asarray(got.diagnostics[name]).tobytes() == np.asarray(column).tobytes()
