"""The countdown chain against its exact renewal law.

The chain's zeros are renewals: from state 0 it jumps to n and counts down,
so a return time equals j with probability f_j = j**-gamma / zeta(gamma),
j >= 1.  With u_0 = 1 and u_k = sum_{j<=k} f_j u_{k-j}, P(zero at t + k |
zero at t) = u_k exactly, the stationary share of zeros is
pi_0 = zeta(gamma) / zeta(gamma - 1), and

    E[x_t x_{t+k}] = 1 - 2 pi_0 + pi_0 u_k.

So the autocovariances are gamma(k) = pi_0 (u_k - pi_0), and at a Fourier
index 1 <= h < N, where centring changes nothing, the periodogram has the
exact expectation

    E[I(w_h)] = (N gamma(0) + 2 sum_{k=1}^{N-1} (N - k) gamma(k) cos(w_h k)) / (4 pi^2 N).

A row of N ones means the chain started in a state of at least N, which
has probability [zeta(gamma - 1, N + 1) - N zeta(gamma, N + 1)] /
zeta(gamma - 1) with Hurwitz zeta.  The zeta values come from ``mpmath``,
so the oracle shares no code with ``mplm._zeta``.  The seeds are fixed
labels, and every bound is |z| <= 4, with z a sample mean's distance from
its exact expectation in standard errors: by the union bound and a normal
approximation, one of the twenty-six checks fails by chance with
probability below 2e-3.
"""

import mpmath
import numpy as np
import pytest

from mplm._seeds import derive_seeds
from mplm.dynamics import equivalent_gamma, simulate_markov_batch
from mplm.spectral import periodogram_band

Z_BOUND = 4.0


def renewal_probabilities(gamma: float, max_lag: int) -> np.ndarray:
    """u_0..u_max_lag: the chance of a zero k steps after a zero."""
    j = np.arange(1, max_lag + 1, dtype=np.float64)
    f = j ** -gamma / float(mpmath.zeta(gamma))
    u = np.empty(max_lag + 1)
    u[0] = 1.0
    for k in range(1, max_lag + 1):
        u[k] = f[:k] @ u[k - 1::-1]
    return u


def zero_share(gamma: float) -> float:
    """pi_0 = 1 / E[return time] = zeta(gamma) / zeta(gamma - 1)."""
    return float(mpmath.zeta(gamma) / mpmath.zeta(gamma - 1))


def constant_row_probability(gamma: float, n: int) -> float:
    """P(X_0 >= n) under the stationary law: the chance of n ones in a row from the start."""
    mass = mpmath.zeta(gamma - 1, n + 1) - n * mpmath.zeta(gamma, n + 1)
    return float(mass / mpmath.zeta(gamma - 1))


def test_renewal_oracle_sums_the_return_paths():
    # a zero 3 steps on is a return in 3, in 1 then 2, in 2 then 1, or 1 + 1 + 1
    gamma = 2.5
    f1, f2, f3 = (float(j ** -gamma / mpmath.zeta(gamma)) for j in (1, 2, 3))
    u = renewal_probabilities(gamma, 3)
    assert u[1] == pytest.approx(f1, rel=1e-14)
    assert u[2] == pytest.approx(f2 + f1 * f1, rel=1e-14)
    assert u[3] == pytest.approx(f3 + 2.0 * f1 * f2 + f1**3, rel=1e-14)


@pytest.mark.parametrize("s", [0.65, 0.8])
def test_markov_lag_products_match_the_renewal_law(s):
    gamma = equivalent_gamma(s)
    n, rows, lags = 4096, 400, (0, 1, 10, 100, 1000)
    x = simulate_markov_batch(gamma, n, derive_seeds("renewal-oracle", s, n, count=rows))
    u, pi0 = renewal_probabilities(gamma, max(lags)), zero_share(gamma)
    for k in lags:
        products = (x[:, :n - k] * x[:, k:]).mean(axis=1)  # uncentred, so unbiased
        exact = 1.0 - 2.0 * pi0 + pi0 * u[k]
        z = (products.mean() - exact) / (products.std(ddof=1) / np.sqrt(rows))
        assert abs(z) <= Z_BOUND, (s, k, products.mean(), exact, z)


@pytest.mark.parametrize("s", [0.65, 0.8])
def test_markov_periodogram_band_matches_its_exact_expectation(s):
    gamma = equivalent_gamma(s)
    n, rows, band = 4096, 400, np.array([1, 2, 4, 8, 16, 64])
    x = simulate_markov_batch(gamma, n, derive_seeds("periodogram-oracle", s, n, count=rows))
    ordinates = periodogram_band(x, band)
    pi0 = zero_share(gamma)
    acv = pi0 * (renewal_probabilities(gamma, n - 1) - pi0)
    k = np.arange(1, n)
    weights = (n - k) * np.cos(2.0 * np.pi * np.outer(band, k) / n)
    exact = (n * acv[0] + 2.0 * weights @ acv[1:]) / (4.0 * np.pi**2 * n)
    z = (ordinates.mean(axis=0) - exact) / (ordinates.std(axis=0, ddof=1) / np.sqrt(rows))
    assert np.all(np.abs(z) <= Z_BOUND), (s, ordinates.mean(axis=0), exact, z)


@pytest.mark.parametrize("s", [0.65, 0.8])
@pytest.mark.parametrize("n", [1000, 3000])
def test_constant_markov_rows_match_their_exact_probability(s, n):
    gamma = equivalent_gamma(s)
    rows = 2000
    x = simulate_markov_batch(gamma, n, derive_seeds("constant-rows", s, n, count=rows))
    count = int((x == 1.0).all(axis=1).sum())
    p = constant_row_probability(gamma, n)
    z = (count - rows * p) / np.sqrt(rows * p * (1.0 - p))
    assert abs(z) <= Z_BOUND, (s, n, count, rows * p, z)
