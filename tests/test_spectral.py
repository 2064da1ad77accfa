from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mplm import spectral
from mplm.dynamics import simulate_mp
from mplm.estimators import estimate
from mplm.spectral import (
    POPCOUNT_LIMIT,
    PRODUCT_LIMIT,
    TABLE_LIMIT,
    LagWindowSpec,
    default_truncation,
    lag_window_band,
    lag_window_gaps,
    lag_window_weight,
    periodogram,
    periodogram_band,
    sample_acv,
    smoothed_periodogram,
)
from mplm.spectral import (_acv_rows, _cosine_table, _dft_table, _fft_length, _gap_forms, _lag_half,
                           _lag_sums)


def direct_periodogram(x):
    """O(N^2) oracle: |sum x_t e^{-iwt}|^2 / (4 pi^2 N) on the Fourier grid."""
    n = len(x)
    t = np.arange(n)
    out = np.empty(n)
    for h in range(1, n + 1):
        w = 2.0 * np.pi * h / n
        z = np.sum(x * np.exp(-1j * w * t))
        out[h - 1] = (z.real**2 + z.imag**2) / (4.0 * np.pi**2 * n)
    return out


def random_binary(rng, n, p=0.5):
    return (rng.random(n) < p).astype(float)


# ---------------------------------------------------------------------------
# autocovariance
# ---------------------------------------------------------------------------


def test_acv_constant_series_is_zero():
    assert_allclose(sample_acv(np.ones(32), 10), 0.0, atol=1e-14)


def test_acv_alternating_hand_computation():
    acv = sample_acv(np.array([1.0, -1.0, 1.0, -1.0]), 1)
    assert_allclose(acv[0], 1.0, atol=1e-14)
    assert_allclose(acv[1], -0.75, atol=1e-14)


def test_acv_bounded_by_lag_zero():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(8, 200))
        x = random_binary(rng, n, rng.uniform(0.2, 0.8))
        acv = sample_acv(x, n - 1)
        assert acv[0] >= 0.0
        assert np.all(np.abs(acv) <= acv[0] + 1e-12)


def test_acv_matches_direct_sum():
    # short series take one transform, whose length is the smallest 5-smooth
    # number >= n + max_lag + 1: 101 + 30 + 1 = 132 pads to 135,
    # 100 + 27 + 1 = 128 and 97 + 46 + 1 = 144 are 5-smooth themselves,
    # 100 + 28 + 1 = 129 is one above, and max_lag = n - 1 reaches the
    # longest lag there is; these rows are not 0/1, so (4096, 12) and
    # (17530, 100) take the transform too, as rows of any length do
    rng = np.random.default_rng(4)
    for n, max_lag in ((101, 30), (100, 27), (97, 46), (100, 28), (101, 100), (64, 63),
                       (2, 1), (1, 0), (4096, 12), (17530, 100)):
        x = rng.random(n)
        xc = x - x.mean()
        acv = sample_acv(x, max_lag)
        assert acv.shape == (max_lag + 1,)
        for h in range(max_lag + 1):
            ref = np.sum(xc[: n - h] * xc[h:]) / n
            assert_allclose(acv[h], ref, atol=1e-12, err_msg=f"n={n} h={h}")


def exact_acv(x, max_lag):
    """gamma_hat(0..max_lag) of a 0/1 series in exact rational arithmetic."""
    ones = x.astype(np.int64)
    n, total = ones.size, int(ones.sum())
    mean = Fraction(total, n)
    prefix = np.concatenate([[0], np.cumsum(ones)])
    out = []
    for k in range(max_lag + 1):
        lagged = int(ones[:n - k] @ ones[k:])
        head, tail = int(prefix[n - k]), total - int(prefix[k])
        out.append((lagged - mean * (head + tail) + (n - k) * mean * mean) / n)
    return out


# (n, max_lag) per case group. The groups keep the names of the lag routes
# that served them before popcounts took every 0/1 row with m below
# POPCOUNT_LIMIT: "direct" holds cos2's m at n = 4096 and 30000 (lags inside
# one 64-bit word), "blocks" a lag of 100 at n = 9 * 1947 + 7 and cos1's m at
# n = 30000 (lags across words), "edges" cos1's m at n = 1000 and rows and
# lags on either side of a word edge; all three take popcounts. "transform"
# holds a parzen-sized m at n = 2000 and the first m that POPCOUNT_LIMIT
# leaves to the one transform.
_ACV_CASES = {
    "direct": ((4096, 12), (30000, 22)),
    "blocks": ((9 * 1947 + 7, 100), (30000, 173)),
    "edges": ((1000, 31), (65, 63), (65, 64),
              *((n, m) for n in (1001, 4097) for m in (63, 64, 65, 127, 255))),
    "transform": ((2000, 900), (4097, POPCOUNT_LIMIT)),
}


def _route(n, max_lag):
    return "popcount" if max_lag < POPCOUNT_LIMIT and n <= 1 << 17 else "transform"


def _binary_rows(rng, n):
    # dense, sparse and balanced 0/1 rows, one intermittent-map row, the
    # all-zero and all-one rows, and a row whose only 1 is its last sample
    rows = [(rng.random(n) < p).astype(float) for p in (0.5, 0.03, 0.97, rng.uniform(0.2, 0.8))]
    last = np.zeros(n)
    last[-1] = 1.0
    return np.array(rows + [simulate_mp(0.65, n, seed=n, burn_in=0), np.zeros(n), np.ones(n), last])


@pytest.mark.parametrize("group", sorted(_ACV_CASES))
def test_acv_routes_against_exact_sums(group, monkeypatch):
    # a popcount row is the correctly rounded exact value, and it takes no
    # transform; the one transform of a 0/1 row is within a few ulps of it
    route = "transform" if group == "transform" else "popcount"
    rng = np.random.default_rng(41)
    for n, max_lag in _ACV_CASES[group]:
        assert _route(n, max_lag) == route
        rows = _binary_rows(rng, n)
        with monkeypatch.context() as forced:
            if route == "popcount":
                forced.setattr(np.fft, "rfft", None)
            got = _acv_rows(rows, max_lag)
        with monkeypatch.context() as forced:
            forced.setattr(spectral, "POPCOUNT_LIMIT", 0)
            transform = _acv_rows(rows, max_lag)
        for r, row in enumerate(rows):
            exact = exact_acv(row, max_lag)
            want = np.array([float(v) for v in exact])
            error = max(abs(Fraction(float(a)) - b) for a, b in zip(got[r], exact))
            transform_error = max(abs(Fraction(float(a)) - b) for a, b in zip(transform[r], exact))
            assert error <= transform_error, (n, max_lag, r)
            assert transform_error <= 8 * np.spacing(want[0]), (n, max_lag, r)
            if route == "popcount":
                assert np.array_equal(got[r], want), (n, max_lag, r)


@pytest.mark.parametrize("group", sorted(_ACV_CASES))
def test_acv_routes_batch_equals_single(group):
    # a row gets the same bits alone and in a batch, which here also holds
    # a row that is not 0/1 and so takes the transform whatever its lags
    rng = np.random.default_rng(42)
    for n, max_lag in _ACV_CASES[group]:
        rows = _binary_rows(rng, n)
        rows[1] *= 0.5
        batch = _acv_rows(rows, max_lag)
        for r in range(len(rows)):
            assert np.array_equal(batch[r], _acv_rows(rows[r:r + 1], max_lag)[0]), (n, max_lag, r)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 600), lag_share=st.floats(0.0, 1.0), rows=st.integers(1, 4),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_property_lag_sums_are_integer_dot_products(n, lag_share, rows, density, seed):
    # lengths and lags off the multiples of 8 and 64 that packing works in
    max_lag = int(lag_share * min(n - 1, 300))
    x = (np.random.default_rng(seed).random((rows, n)) < density).astype(float)
    ones = x.astype(np.int64)
    want = [[int(row[:n - k] @ row[k:]) for k in range(max_lag + 1)] for row in ones]
    assert np.array_equal(_lag_sums(x, max_lag), want)
    batch = _acv_rows(x, max_lag)
    for r in range(rows):
        assert np.array_equal(batch[r], _acv_rows(x[r:r + 1], max_lag)[0]), r


def test_acv_rejects_bad_lag():
    with pytest.raises(ValueError):
        sample_acv(np.ones(10), 10)
    for max_lag in (2.5, 2.0):
        with pytest.raises(ValueError, match="max_lag must be an integer"):
            sample_acv(np.ones(10), max_lag)


# ---------------------------------------------------------------------------
# periodogram
# ---------------------------------------------------------------------------


def test_periodogram_zero_series():
    assert_allclose(periodogram(np.zeros(16)), 0.0)


def test_periodogram_unit_impulse():
    x = np.zeros(4)
    x[0] = 1.0
    assert_allclose(periodogram(x), 1.0 / (16.0 * np.pi**2), rtol=1e-12)


def test_periodogram_matches_direct_summation():
    # atol floor covers ordinates that are mathematically zero, where the
    # oracle itself only reaches rounding noise near 1e-32
    rng = np.random.default_rng(5)
    for n in (16, 33, 64, 127):
        x = random_binary(rng, n)
        per = periodogram(x)
        ref = direct_periodogram(x)
        assert np.allclose(per, ref, rtol=1e-10, atol=1e-20)
        # the band statistic reads the centred grid, which is the raw one
        # below h = N: up to PRODUCT_LIMIT / 2 indices by the cached product,
        # more (past N / 2 too) by the rfft; TABLE_LIMIT does not bind here
        centred = per[:-1]
        cases = ([1], [2], [n // 2 - 1], [1, 2, 5], np.arange(1, 5), np.arange(1, n),
                 np.arange(1, int(n**0.5) + 1))
        assert {2 * len(h) <= PRODUCT_LIMIT for h in cases} == {True, False}
        for h in cases:
            band = periodogram_band(x[None], h)[0]
            assert_allclose(band, centred[np.asarray(h) - 1], rtol=0,
                            atol=1e-13 * centred.max(), err_msg=f"n={n} h={h}")
            assert_allclose(band, direct_periodogram(x - x.mean())[np.asarray(h) - 1],
                            rtol=1e-10, atol=1e-20)
    with pytest.raises(ValueError):
        periodogram_band(np.ones((1, 16)), [16])
    with pytest.raises(ValueError):
        periodogram_band(np.ones((1, 16)), [0, 1])


def test_periodogram_parseval():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(8, 300))
        x = random_binary(rng, n, rng.uniform(0.1, 0.9))
        per = periodogram(x)
        rhs = np.sum(x**2) / (4.0 * np.pi**2)
        assert abs(per.sum() - rhs) <= 1e-9 * rhs


def test_periodogram_centering_changes_only_the_alias():
    rng = np.random.default_rng(7)
    x = random_binary(rng, 50)
    raw = periodogram(x)
    cen = periodogram(x - x.mean())
    assert_allclose(raw[:-1], cen[:-1], rtol=1e-10)
    assert_allclose(raw[-1], x.sum() ** 2 / (4.0 * np.pi**2 * x.size), rtol=1e-15)
    assert cen[-1] <= 1e-28 * raw[-1]  # the centred sum is rounding alone


def test_periodogram_rejects_short_and_stacked_input():
    with pytest.raises(ValueError):
        periodogram(np.array([1.0]))
    with pytest.raises(ValueError, match="nonempty 1-d series"):
        periodogram(np.zeros((2, 8)))


# ---------------------------------------------------------------------------
# lag windows
# ---------------------------------------------------------------------------


def test_window_endpoint_values():
    parzen = LagWindowSpec("parzen", 5)
    cosbell = LagWindowSpec("cosbell", 5)
    assert lag_window_weight(parzen, 0.0) == 1.0
    assert lag_window_weight(parzen, 1.0) == 0.0
    assert_allclose(lag_window_weight(parzen, 0.5), 0.25)
    # both branch formulas agree at the junction
    assert_allclose(1.0 - 6.0 * 0.25 + 6.0 * 0.125, 2.0 * 0.5**3)
    assert lag_window_weight(cosbell, 0.0) == 1.0
    assert_allclose(lag_window_weight(cosbell, 1.0), 0.0, atol=1e-16)
    assert_allclose(lag_window_weight(cosbell, 0.5), 0.5)


def test_window_nonincreasing_and_bounded():
    grid = np.linspace(0.0, 1.0, 401)
    for kind in ("parzen", "cosbell"):
        w = lag_window_weight(LagWindowSpec(kind, 3), grid)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        assert np.all(np.diff(w) <= 1e-12)


def test_window_rejects_out_of_range():
    with pytest.raises(ValueError):
        lag_window_weight(LagWindowSpec("parzen", 3), 1.2)
    with pytest.raises(ValueError):
        lag_window_weight(LagWindowSpec("parzen", 3), -0.1)
    with pytest.raises(ValueError):
        LagWindowSpec("hann", 3)
    with pytest.raises(ValueError):
        LagWindowSpec("parzen", 0)
    for m in (2.5, 2.0):
        with pytest.raises(ValueError, match="truncation point must be an integer"):
            LagWindowSpec("parzen", m)
        with pytest.raises(ValueError, match="truncation point must be an integer"):
            LagWindowSpec("cosbell", m)


# ---------------------------------------------------------------------------
# smoothed spectrum
# ---------------------------------------------------------------------------


def test_unit_weights_recover_plain_lag_sum():
    rng = np.random.default_rng(8)
    n = 48
    x = random_binary(rng, n)
    acv = sample_acv(x, n - 1)
    h = np.arange(1, n + 1)
    got = _lag_half(acv, n)[np.minimum(h, n - h)]  # h and n - h share an ordinate
    freqs = 2.0 * np.pi * h / n
    lags = np.arange(1, n)
    ref = np.array([
        (acv[0] + 2.0 * np.sum(acv[1:] * np.cos(w * lags))) / (2.0 * np.pi)
        for w in freqs
    ])
    assert_allclose(got, ref, atol=1e-12)


def test_smoothed_zero_series():
    f = smoothed_periodogram(np.zeros(64), LagWindowSpec("parzen", 10))
    assert_allclose(f, 0.0, atol=1e-15)


def test_smoothed_rejects_truncation_at_series_length():
    with pytest.raises(ValueError):
        smoothed_periodogram(np.ones(16), LagWindowSpec("parzen", 16))


def test_smoothed_white_noise_is_flat():
    # strong smoothing keeps the spread of ordinates tight around the mean;
    # (at weak smoothing, e.g. m = N**0.9, sampling noise dominates and the
    # max/min ratio is far larger)
    rng = np.random.default_rng(9)
    n = 10_000
    x = random_binary(rng, n)
    for kind in ("parzen", "cosbell"):
        for m in (int(n**0.3), int(n**0.5)):
            f = smoothed_periodogram(x, LagWindowSpec(kind, m))
            assert f.min() > 0.0
            assert f.max() / f.min() < 3.0


def test_smoothed_matches_brute_force_cosine_sum():
    # odd and even n: the real-input FFT is mirrored onto h = 1..n; the band
    # statistics must read the same grid, by the cached product when
    # g * m <= PRODUCT_LIMIT * n and by the rfft above that (TABLE_LIMIT
    # does not bind at these n)
    rng = np.random.default_rng(10)
    paths = set()
    for n in (39, 40):
        x = random_binary(rng, n)
        for kind in ("parzen", "cosbell"):
            for m in (3, 12, 30):
                spec = LagWindowSpec(kind, m)
                f = smoothed_periodogram(x, spec)
                acv = sample_acv(x, m)
                w = lag_window_weight(spec, np.arange(m + 1) / m)
                for h in range(1, n + 1):
                    omega = 2.0 * np.pi * h / n
                    ref = (w[0] * acv[0] + 2.0 * np.sum(
                        w[1:] * acv[1:] * np.cos(omega * np.arange(1, m + 1))))
                    assert_allclose(f[h - 1], ref / (2.0 * np.pi), atol=1e-12,
                                    err_msg=f"n={n} {kind} m={m} h={h}")
                tol = 1e-13 * np.abs(f).max()
                for g in (1, 5, n // 2, n - 1):
                    paths.add(g * m <= PRODUCT_LIMIT * n)
                    assert_allclose(lag_window_band(x[None], spec, g)[0], f[:g], rtol=0,
                                    atol=tol, err_msg=f"n={n} {kind} m={m} g={g}")
                # the drop from frequency 0 at each index
                for j in range(1, n):
                    origin, gaps, _ = lag_window_gaps(x[None], spec, j)
                    assert_allclose(origin[0], f[-1], rtol=0, atol=tol)  # h = N aliases 0
                    assert_allclose(origin[0] - gaps[0], f[j - 1], rtol=0, atol=tol,
                                    err_msg=f"n={n} {kind} m={m} j={j}")
    assert paths == {True, False}
    with pytest.raises(ValueError):
        lag_window_band(np.ones((1, 16)), LagWindowSpec("parzen", 16), 4)
    with pytest.raises(ValueError, match="truncation point must be < series length"):
        lag_window_gaps(np.ones((1, 16)), LagWindowSpec("parzen", 16), 4)
    with pytest.raises(ValueError):
        lag_window_band(np.ones((1, 16)), LagWindowSpec("parzen", 4), 16)
    # a band size that is not an integer is no count of ordinates
    for g in (2.5, 2.0):
        with pytest.raises(ValueError, match="band size must be an integer"):
            lag_window_band(np.ones((1, 16)), LagWindowSpec("parzen", 4), g)
    # an index that is not an integer in [1, N) names no Fourier frequency
    for j in (0, 16, 1.5, 2.0):
        with pytest.raises(ValueError, match="Fourier ind"):
            lag_window_gaps(np.ones((1, 16)), LagWindowSpec("parzen", 4), j)
        with pytest.raises(ValueError, match="Fourier ind"):
            periodogram_band(np.ones((1, 16)), [1, j])


def test_tables_above_the_limit_are_not_cached():
    # past TABLE_LIMIT entries the bands take the rfft and the gap forms are
    # built for the call alone, so no cached table outgrows the limit at any N
    rng = np.random.default_rng(12)
    caches = (_dft_table, _cosine_table, _gap_forms)
    for cache in caches:
        cache.cache_clear()
    n = 40_000  # PRODUCT_LIMIT * n > TABLE_LIMIT
    x = random_binary(rng, n)
    h = [1, 2]  # a (4, n) table
    assert TABLE_LIMIT < 2 * len(h) * n <= PRODUCT_LIMIT * n
    centred = periodogram(x)[:-1]  # h = 1..N-1, where centring changes nothing
    assert_allclose(periodogram_band(x[None], h)[0], centred[np.asarray(h) - 1], rtol=0,
                    atol=1e-13 * centred.max())
    spec, g = LagWindowSpec("parzen", 1000), 200
    assert TABLE_LIMIT < g * spec.m <= PRODUCT_LIMIT * n
    f = smoothed_periodogram(x, spec)
    assert_allclose(lag_window_band(x[None], spec, g)[0], f[:g], rtol=0,
                    atol=1e-13 * np.abs(f).max())
    n = TABLE_LIMIT + 1000
    x = random_binary(rng, n)
    spec = LagWindowSpec("parzen", TABLE_LIMIT + 1)  # forms of 3 (L // 2 + 1) > 3 N entries
    f = smoothed_periodogram(x, spec)
    for j in (1, 3):
        origin, gaps, _ = lag_window_gaps(x[None], spec, j)
        assert_allclose(origin[0] - gaps[0], f[j - 1], rtol=0, atol=1e-13 * np.abs(f).max())
    assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]


def _parzen_weight(k, m):
    """w(k/m) of the Parzen window as an exact fraction."""
    x = Fraction(k, m)
    return 1 - 6 * x**2 + 6 * x**3 if x <= Fraction(1, 2) else 2 * (1 - x) ** 3


# the rows of the gap oracle: intermittent-map rows (seed fixed before any
# run) and the period-3 row x_t = 1 unless t % 3 == 2, whose spectrum is all
# but flat next to frequency 0, so its gap is a near-total cancellation
_GAP_ROWS = {f"mp-{s}-{n}": (lambda s=s, n=n: simulate_mp(s, n, seed=24, burn_in=0))
             for s in (0.4, 0.65) for n in (4096, 30000)}
_GAP_ROWS.update({f"periodic-{n}": (lambda n=n: (np.arange(n) % 3 != 2).astype(float))
                  for n in (4096, 30000)})


@pytest.mark.parametrize("row", sorted(_GAP_ROWS))
def test_lag_window_gap_against_exact_autocovariances(row):
    # the drop f(0) - f(w_1) of sp's Parzen spectrum (m = N**0.9) against
    # (1/pi) sum_k w_k gamma_hat(k) 2 sin(pi k / N)**2 at 40 digits from the
    # exact gamma_hat; the drop is good to u log2 L times its own condition
    x = _GAP_ROWS[row]()
    n = x.size
    spec = LagWindowSpec("parzen", default_truncation(n))
    _, gaps, condition = lag_window_gaps(x[None], spec, 1)
    terms = [_parzen_weight(k, spec.m) * g for k, g in enumerate(exact_acv(x, spec.m))]
    with mpmath.workdps(40):
        exact = sum(mpmath.mpf(t.numerator) / t.denominator * 2 * mpmath.sin(mpmath.pi * k / n) ** 2
                    for k, t in enumerate(terms)) / mpmath.pi
        error = abs(float(mpmath.mpf(float(gaps[0])) - exact))
    u = np.finfo(np.float64).eps / 2
    log_length = np.log2(_fft_length(n + spec.m + 1))
    assert 1.0 <= condition[0] and error <= u * log_length * condition[0] * abs(gaps[0]), row


def test_sp_takes_no_inverse_transform(monkeypatch):
    # sp reads f(0) and its drop off one forward transform per row, whatever
    # N (below N = 475 its truncation point would allow popcount lag sums)
    monkeypatch.setattr(np.fft, "irfft", None)
    for n in (300, 4096):
        x = simulate_mp(0.4, n, seed=24, burn_in=0)
        result = estimate(x, "sp")
        assert result.valid and np.isfinite(result.diagnostics["gap_condition"]), n
