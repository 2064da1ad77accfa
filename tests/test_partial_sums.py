from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mplm._seeds import derive_seed, stream_uniforms
from mplm.dynamics import equivalent_gamma, lbp_partial_sums, mp_partial_sums
from mplm.estimators import ols_slope
from mplm.partial_sums import scaling_exponent


def var_partial_sum(acv, n: int) -> float:
    """Var(S_n) = n gamma(0) + 2 sum_{j=1}^{n-1} (n - j) gamma(j) from autocovariances 0..n-1."""
    values = np.asarray(acv, dtype=np.float64)
    if n < 1:
        raise ValueError(f"partial-sum length must be >= 1, got {n}")
    if values.size < n:
        raise ValueError(f"need autocovariances for lags 0..{n - 1}, got {values.size}")
    j = np.arange(1, n)
    return float(n * values[0] + 2.0 * np.sum((n - j) * values[1:n]))


def bernoulli_sums(s, lengths, seeds):
    """Sums of independent fair 0/1 draws; s is ignored.  Var(S_N) = N / 4.

    Each group of equal lengths takes one draw of its streams.
    """
    lengths = np.asarray(lengths)
    sums = np.empty(lengths.size)
    for n in np.unique(lengths):
        rows = np.flatnonzero(lengths == n)
        sums[rows] = (stream_uniforms([seeds[r] for r in rows], int(n)) < 0.5).sum(axis=1)
    return sums


def two_state_chain_acv(a, b, max_lag):
    """Closed-form autocovariance of a stationary 2-state 0/1 chain.

    Flip probabilities a (0 to 1) and b (1 to 0); gamma(h) =
    pi0 pi1 (1-a-b)**h with pi1 = a/(a+b).
    """
    pi1 = a / (a + b)
    lam = 1.0 - a - b
    return pi1 * (1.0 - pi1) * lam ** np.arange(max_lag + 1.0)


def brute_force_variance(gamma_seq, n):
    """Var(S_n) = sum over the full covariance matrix (the quadratic oracle)."""
    idx = np.arange(n)
    return float(np.sum(gamma_seq[np.abs(idx[:, None] - idx[None, :])]))


def test_white_noise_variance_is_n():
    gamma = np.zeros(100)
    gamma[0] = 1.0
    for n in (1, 2, 17, 100):
        assert var_partial_sum(gamma, n) == pytest.approx(float(n))


def test_hand_expansion_geometric_acv():
    gamma = np.array([1.0, 0.5, 0.25])
    assert_allclose(var_partial_sum(gamma, 3), 5.5, atol=1e-14)


def test_matches_quadratic_oracle_on_random_sequences():
    rng = np.random.default_rng(30)
    for _ in range(15):
        n = int(rng.integers(2, 257))
        gamma = rng.normal(0.0, 1.0, n)
        mine = var_partial_sum(gamma, n)
        ref = brute_force_variance(gamma, n)
        assert_allclose(mine, ref, rtol=1e-10)


def test_matches_two_state_chain_brute_force():
    for a, b in ((0.3, 0.2), (0.05, 0.4), (0.5, 0.5)):
        gamma = two_state_chain_acv(a, b, 63)
        for n in (2, 7, 33, 64):
            mine = var_partial_sum(gamma, n)
            ref = brute_force_variance(gamma, n)
            assert abs(mine - ref) <= 1e-10 * abs(ref)


def test_rejects_insufficient_lags():
    with pytest.raises(ValueError):
        var_partial_sum(np.ones(4), 5)
    with pytest.raises(ValueError):
        var_partial_sum(np.ones(4), 0)


def test_monotone_for_nonnegative_acv():
    rng = np.random.default_rng(31)
    gamma = np.abs(rng.normal(0.0, 1.0, 64))
    values = [var_partial_sum(gamma, n) for n in range(1, 65)]
    assert np.all(np.diff(values) >= 0.0)


def riemann_sum(u, n):
    j = np.arange(1, n + 1.0)
    return np.sum((1.0 - j / n) * (j / n) ** (-u)) / n


def test_riemann_sum_limit():
    # (1/N) sum (1 - j/N)(j/N)^-u approaches 1/((1-u)(2-u)); the singular
    # integrand converges like N**(u-1), so the 1% check applies to
    # moderate u while u = 0.8 is verified through its convergence rate
    n = 100_000
    for u in (0.3, 0.5):
        limit = 1.0 / ((1.0 - u) * (2.0 - u))
        assert abs(riemann_sum(u, n) - limit) / limit < 0.01
    u = 0.8
    limit = 1.0 / ((1.0 - u) * (2.0 - u))
    err4 = abs(riemann_sum(u, 10**4) - limit)
    err6 = abs(riemann_sum(u, 10**6) - limit)
    assert err6 < err4
    rate = np.log(err4 / err6) / np.log(100.0)  # decades: 1e4 -> 1e6
    assert abs(rate - (1.0 - u)) < 0.05


def test_scaling_exponent_iid_is_diffusive():
    fit = scaling_exponent(bernoulli_sums, 0.8,
                           [2**k for k in range(8, 13)], 1000, seed=3)
    assert abs(fit.exponent - 1.0) < 0.05
    # exact law: Var(S_N) = N/4
    assert_allclose(fit.variances, fit.grid / 4.0, rtol=0.15)


def test_scaling_exponent_boundary_s_half_is_diffusive():
    # at s = 0.5 the correlation sum is on the summability edge and the
    # variance growth turns diffusive (exponent 3 - 1/s = 1), up to
    # logarithmic corrections at finite N
    fit = scaling_exponent(partial(mp_partial_sums, burn_in=10_000), 0.5,
                           [2**k for k in range(9, 14)], 200, seed=55)
    assert abs(fit.exponent - 1.0) < 0.2


def test_scaling_exponent_validation():
    with pytest.raises(ValueError):
        scaling_exponent(bernoulli_sums, 0.8, [64, 128, 256], 100, seed=0)
    with pytest.raises(ValueError):
        scaling_exponent(bernoulli_sums, 0.8, [64, 128, 256, 512], 10, seed=0)
    with pytest.raises(ValueError):
        scaling_exponent(bernoulli_sums, 0.8, [64, 64, 128, 256], 100, seed=0)
    # 64.5 was fitted as N = 64
    with pytest.raises(ValueError, match="grid length must be an integer, got 64.5"):
        scaling_exponent(bernoulli_sums, 0.8, [64.5, 128, 256, 512], 100, seed=0)


def test_scaling_exponent_rejects_a_constant_generator():
    def constant(s, lengths, seeds):
        return np.asarray(lengths, dtype=float)  # every row all ones

    with pytest.raises(ValueError, match="variance vanished"):
        scaling_exponent(constant, 0.8, [64, 128, 256, 512], 50, seed=0)


def test_scaling_exponent_reproducible():
    grid = [64, 128, 256, 512]
    a = scaling_exponent(bernoulli_sums, 0.5, grid, 60, seed=11)
    b = scaling_exponent(bernoulli_sums, 0.5, grid, 60, seed=11)
    assert a.exponent == b.exponent
    assert np.array_equal(a.variances, b.variances)


def test_cross_model_scaling_slopes_agree():
    # matched parameters (gamma = 1 + 1/s): the smooth map and its
    # piecewise-linear counterpart must show the same partial-sum variance
    # growth, each point estimate inside the other's bootstrap band
    s = 0.8
    grid = [2**k for k in range(9, 13)]
    reps = 120

    def slope_and_band(gen, tag):
        seeds = [derive_seed(31, tag, s, n, r) for n in grid for r in range(reps)]
        sums = dict(zip(grid, gen(s, np.repeat(grid, reps), seeds).reshape(len(grid), reps)))
        lx = np.log(np.asarray(grid, dtype=float))
        point = ols_slope(lx, np.log([sums[n].var(ddof=1) for n in grid]))[0]
        rng = np.random.default_rng(7)
        slopes = []
        for _ in range(300):
            idx = rng.integers(0, reps, reps)
            slopes.append(ols_slope(lx, np.log([sums[n][idx].var(ddof=1)
                                                for n in grid]))[0])
        return point, np.percentile(slopes, [2.5, 97.5])

    def lbp_sums(s, lengths, seeds):
        return lbp_partial_sums(equivalent_gamma(s), lengths, seeds, burn_in=2000)

    mp_point, mp_band = slope_and_band(partial(mp_partial_sums, burn_in=2000), "mp")
    lbp_point, lbp_band = slope_and_band(lbp_sums, "lbp")
    assert lbp_band[0] <= mp_point <= lbp_band[1]
    assert mp_band[0] <= lbp_point <= mp_band[1]
