import numpy as np
import pytest
from numpy.testing import assert_allclose

from mplm.dynamics import simulate_mp
from mplm.estimators import ols_slope
from mplm.wavelet import (
    TruncationWarning,
    WaveletBasis,
    ladder_rows,
    psi,
    sample_R,
    wavelet_coefficients,
)


def _coefficients_direct(x: np.ndarray, basis: WaveletBasis, j: int) -> np.ndarray:
    # literal evaluation of the defining sum; quadratic cost, oracle use only
    n = x.size
    grid = (1 << j) * (np.arange(n) / n)
    out = np.empty(1 << j)
    for k in range(1 << j):
        out[k] = np.sum(x * psi(basis, grid - k))
    return 2.0 ** (0.5 * j) * out


def test_psi_haar_piecewise_values():
    assert psi("haar", 0.25) == 1.0
    assert psi("haar", 0.75) == -1.0
    assert psi("haar", 1.5) == 0.0
    assert psi("haar", -0.25) == 0.0
    assert psi("haar", 0.0) == 1.0
    assert psi("haar", 0.5) == -1.0


def test_psi_haar_integrates_to_zero():
    grid = (np.arange(2000) + 0.5) / 1000.0 - 0.5
    assert abs(np.sum(psi("haar", grid)) / 1000.0) < 1e-12


def test_psi_mexhat_values():
    assert psi("mexhat", 0.0) == 1.0
    assert psi("mexhat", 1.0) == 0.0
    assert psi("mexhat", -1.0) == 0.0
    assert psi("mexhat", 9.0) == 0.0  # beyond the effective support
    u = 0.7
    assert_allclose(psi("mexhat", u), (1 - u**2) * np.exp(-u**2 / 2))


def test_psi_mexhat_near_zero_mean():
    u = np.linspace(-8, 8, 200_001)
    integral = np.trapezoid(psi("mexhat", u), u)
    assert abs(integral) < 1e-8


def test_psi_rejects_nonfinite():
    with pytest.raises(ValueError):
        psi("haar", float("nan"))


def test_coefficients_zero_series():
    for basis in ("haar", "mexhat"):
        w = wavelet_coefficients(np.zeros(64), basis, 3)
        assert_allclose(w, 0.0)


def test_fast_paths_match_direct_summation():
    rng = np.random.default_rng(11)
    for n in (64, 256, 2048):
        x = rng.random(n)
        for basis in ("haar", "mexhat"):
            for j in range(n.bit_length() - 1):
                fast = wavelet_coefficients(x, basis, j)
                direct = _coefficients_direct(x - x.mean(), WaveletBasis(basis), j)
                assert np.max(np.abs(fast - direct)) < 1e-10, (n, basis, j)


def test_coefficients_linearity():
    rng = np.random.default_rng(12)
    x, y = rng.random(128), rng.random(128)
    a, b = 2.5, -1.25
    for basis in ("haar", "mexhat"):  # centring is linear too
        lhs = wavelet_coefficients(a * x + b * y, basis, 4)
        rhs = a * wavelet_coefficients(x, basis, 4) + b * wavelet_coefficients(y, basis, 4)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_coefficients_level_bounds_and_count():
    x = np.zeros(64)
    assert wavelet_coefficients(x, "haar", 5).size == 32
    with pytest.raises(ValueError):
        wavelet_coefficients(x, "haar", 6)
    with pytest.raises(ValueError):
        wavelet_coefficients(x, "haar", -1)
    for basis in ("haar", "mexhat"):
        for j in (2.0, 2.5):
            with pytest.raises(ValueError, match="level must be an integer"):
                wavelet_coefficients(x, basis, j)


def test_non_power_of_two_truncates_with_diagnostic():
    rng = np.random.default_rng(13)
    x = rng.random(100)
    with pytest.warns(TruncationWarning):
        w = wavelet_coefficients(x, "haar", 2)
    ref = wavelet_coefficients(x[:64], "haar", 2)
    assert np.array_equal(w, ref)


def test_sample_R_zero_series_and_brute_force():
    assert_allclose(sample_R(np.zeros(128), "haar")[1], 0.0)
    rng = np.random.default_rng(14)
    x = rng.random(128)
    for basis in ("haar", "mexhat"):
        levels, values = sample_R(x, basis)
        assert np.array_equal(levels, np.arange(4, 7))
        for level, value in zip(levels, values):
            w = wavelet_coefficients(x, basis, int(level))
            assert_allclose(value, np.mean(w**2), rtol=1e-12)
        assert np.all(values >= 0.0)


@pytest.mark.parametrize("n", [64, 1024, 4096, 8192])
def test_mexhat_ladder_matches_direct_summation(n):
    # levels of at most FINE_STEP samples per unit shift take blocks of 16
    # coefficients from a padded copy, coarser ones a product per level with
    # no copy: the shortest ladder, and at N = 8192 j = 8 (step 32) and
    # j = 9 (step 16) on either side of the boundary
    rng = np.random.default_rng(n)
    x = (rng.random(n) < 0.3).astype(float)
    levels, values = ladder_rows(x, "mexhat")
    assert np.array_equal(levels, np.arange(4, n.bit_length() - 1))
    xc = x - x.mean()
    for level, value in zip(levels, values[0]):
        w = _coefficients_direct(xc, WaveletBasis.MEXICAN_HAT, int(level))
        assert_allclose(value, np.mean(w**2), rtol=1e-12, err_msg=f"n={n} j={level}")


@pytest.mark.parametrize("basis", ["haar", "mexhat"])
def test_ladder_rows_batch_equals_single(basis):
    # at N = 32768 OpenBLAS runs some of the Mexican-hat products on two threads
    rng = np.random.default_rng(15)
    for n in (2048, 32768):
        rows = (rng.random((3, n)) < [[0.1], [0.5], [0.9]]).astype(float)
        _, batch = ladder_rows(rows, basis)
        for r in range(3):
            assert np.array_equal(batch[r], ladder_rows(rows[r], basis)[1][0]), (n, r)


@pytest.mark.parametrize("basis", ["haar", "mexhat"])
def test_truncated_ladder_equals_ladder_of_prefix(basis):
    # a length of 30000 reads its first 16384 samples, a non-contiguous slice
    x = (np.random.default_rng(16).random(30000) < 0.3).astype(float)
    with pytest.warns(TruncationWarning):
        levels, values = ladder_rows(x, basis)
    prefix_levels, prefix_values = ladder_rows(x[:16384], basis)
    assert np.array_equal(levels, prefix_levels)
    assert np.array_equal(values, prefix_values)


def test_sample_R_needs_64_samples():
    with pytest.raises(ValueError):
        sample_R(np.zeros(32), "haar")


def test_ladder_log_linear_for_intermittent_series():
    # decay of log R(j) in log 2**(-2j) is close to affine for a long-memory
    # series (fixed seeds; slope relates to the memory parameter)
    xs = np.log(2.0 ** (-2.0 * np.arange(4, 13)))
    for seed in (0, 1, 5):
        series = simulate_mp(0.8, 8192, seed=seed, burn_in=0)
        ys = np.log(sample_R(series, "mexhat")[1])
        slope, intercept = ols_slope(xs, ys)
        resid = ys - (slope * xs + intercept)
        r2 = 1.0 - resid @ resid / np.sum((ys - ys.mean()) ** 2)
        assert r2 > 0.8
