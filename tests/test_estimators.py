import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mplm.dynamics import simulate_mp
from mplm.estimators import (
    METHOD_NAMES,
    RegressionBand,
    cos_estimate,
    estimate,
    holder_estimate,
    holder_from_ordinates,
    memory_from_s,
    ols_slope,
    parzen_estimate,
    perio_estimate,
    s_from_memory,
    s_from_spectral_ordinates,
    varmp_estimate,
    varmp_from_block_variance,
    vpmp_estimate,
    vpmp_from_variances,
    wmp_from_ladder,
)
from mplm.wavelet import TruncationWarning, WaveletLadder


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


def test_ols_matches_polyfit_oracle():
    rng = np.random.default_rng(20)
    for _ in range(20):
        xs = rng.random(5) * 10
        ys = rng.random(5)
        slope, intercept = ols_slope(xs, ys)
        ref = np.polyfit(xs, ys, 1)
        assert_allclose((slope, intercept), (ref[0], ref[1]), atol=1e-12)


def test_memory_parameter_bijection():
    for s in np.linspace(0.51, 0.99, 25):
        assert_allclose(s_from_memory(memory_from_s(s)), s, rtol=1e-12)
    for d in np.linspace(0.01, 0.49, 25):
        assert_allclose(memory_from_s(s_from_memory(d)), d, rtol=1e-12)


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
    result = wmp_from_ladder(WaveletLadder(levels, values, 12))
    assert result.valid
    assert_allclose(result.s_hat, 1.0 / (2.0 * (1.0 - d)), atol=1e-9)


def test_wmp_closed_form_equals_two_step_regression():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        m = int(rng.integers(6, 15))
        levels = np.arange(4, m)
        values = np.exp(rng.normal(0.0, 2.0, levels.size))
        result = wmp_from_ladder(WaveletLadder(levels, values, m))
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


# ---------------------------------------------------------------------------
# series-level pipelines
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mp_series():
    return simulate_mp(0.8, 4096, seed=33, burn_in=0)


def test_pipelines_produce_valid_results(mp_series):
    for method in METHOD_NAMES:
        result = estimate(mp_series.values, method)
        assert result.method == method
        if result.valid:
            assert np.isfinite(result.s_hat)
            assert result.points_used >= 1


def test_estimate_rejects_unknown_method(mp_series):
    with pytest.raises(ValueError):
        estimate(mp_series.values, "whittle")


def test_regression_methods_are_scale_invariant(mp_series):
    # multiplying the series by a positive constant shifts log ordinates
    # additively and leaves every slope-based estimate unchanged
    scaled = 3.7 * mp_series.values
    for method in ("perio", "parzen", "cos1", "cos2", "vpmp", "wmp-haar", "wmp-mexhat"):
        base = estimate(mp_series.values, method)
        other = estimate(scaled, method)
        assert_allclose(other.s_hat, base.s_hat, atol=1e-10)


def test_estimate_rejects_unknown_config_key(mp_series):
    for method in METHOD_NAMES:
        with pytest.raises(TypeError):
            estimate(mp_series.values, method, block_exponent_typo=0.5)
    for method in set(METHOD_NAMES) - {"varmp"}:
        with pytest.raises(TypeError):
            estimate(mp_series.values, method, block_exponent=0.5)


def test_estimate_fixed_arguments_cannot_be_overridden(mp_series):
    overrides = {"method": "perio", "band": RegressionBand(0.6), "basis": "mexhat",
                 "smoothing": "parzen"}
    for method in METHOD_NAMES:
        for key, value in overrides.items():
            if key == "band" and method in ("perio", "parzen"):
                continue  # the regression band is a tuning key of these two
            with pytest.raises(TypeError):
                estimate(mp_series.values, method, **{key: value})


def test_estimate_non_finite_input_is_invalid(mp_series):
    for bad in (np.nan, np.inf, -np.inf):
        x = mp_series.values.copy()
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
        perio_estimate(np.ones(8))


def test_varmp_blocks_requirement():
    with pytest.raises(ValueError):
        varmp_estimate(np.ones(32), block_exponent=0.9)


def test_varmp_invalid_on_constant_series():
    result = varmp_estimate(np.ones(10_000))
    assert not result.valid


def test_vpmp_grid_validation(mp_series):
    with pytest.raises(ValueError):
        vpmp_estimate(mp_series.values, block_sizes=[4, 8])
    with pytest.raises(ValueError):
        vpmp_estimate(np.ones(100), block_sizes=[2, 4, 8, 50])


def test_varmp_iid_bernoulli_near_half():
    # independent blocks: Var(block sum) = L/4, so log V / log L -> 1 and
    # s_hat -> 0.5; at finite L the constant 1/4 inside the log biases the
    # plug-in to exactly 1 / (2 + log(4)/log(L))
    rng = np.random.default_rng(22)
    x = (rng.random(200_000) < 0.5).astype(float)
    result = varmp_estimate(x)
    assert result.valid
    ell = result.diagnostics["block_length"]
    predicted = 1.0 / (2.0 + np.log(4.0) / np.log(ell))
    assert abs(result.s_hat - predicted) < 0.02
    assert abs(result.s_hat - 0.5) < 0.05


def test_vpmp_iid_bernoulli_near_half():
    rng = np.random.default_rng(23)
    x = (rng.random(200_000) < 0.5).astype(float)
    result = vpmp_estimate(x)
    assert result.valid
    assert abs(result.s_hat - 0.5) < 0.03


def test_holder_pipeline_and_averaging(mp_series):
    single = estimate(mp_series.values, "p")
    assert single.points_used == 1
    averaged = estimate(mp_series.values, "p", average_count=5)
    assert averaged.points_used == 5
    smoothed = estimate(mp_series.values, "sp")
    assert smoothed.method == "sp"
    assert smoothed.diagnostics["origin_ordinate"] > 0.0
    with pytest.raises(ValueError):
        holder_estimate(mp_series.values, smoothing="daniell")
    with pytest.raises(ValueError):
        holder_estimate(mp_series.values, freq_index=0)


def test_cos_band_and_default_truncation(mp_series):
    n = mp_series.n
    c1 = cos_estimate(mp_series.values, RegressionBand(0.5))
    assert c1.method == "cos1"
    assert c1.diagnostics["truncation"] == int(n**0.5)
    c2 = cos_estimate(mp_series.values, RegressionBand(0.7))
    assert c2.method == "cos2"
    assert c2.diagnostics["truncation"] == int(round(n**0.3))
    assert c2.points_used == int(n**0.7)


def test_parzen_default_truncation(mp_series):
    result = parzen_estimate(mp_series.values)
    assert result.diagnostics["truncation"] == int(mp_series.n**0.9)


def test_regression_band_validation():
    with pytest.raises(ValueError):
        RegressionBand(0.0)
    with pytest.raises(ValueError):
        RegressionBand(1.0)
    assert RegressionBand(0.5).size(10_000) == 100
    assert RegressionBand(0.7).size(10_000) == 630


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
    x = simulate_mp(s, n, seed=seed, burn_in=0).values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        results = {method: estimate(x, method) for method in METHOD_NAMES}
    assert set(GOLDEN[key]) == set(METHOD_NAMES)
    for method, (s_hat, valid, points_used) in GOLDEN[key].items():
        result = results[method]
        assert result.valid is valid, method
        assert result.points_used == points_used, method
        assert abs(result.s_hat - s_hat) <= 1e-12, method
