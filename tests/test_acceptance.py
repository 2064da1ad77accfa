"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Criteria 1-3 and 9-11 are deterministic; 4-8 and 12 are
statistical reproductions of the reference simulation tables with fixed
seeds and stated bands (bit-exact table reproduction is not possible
because the original generator is unknown).
"""

import time
from functools import partial

import numpy as np

from mplm._seeds import derive_seed
from mplm.dynamics import mp_partial_sums, simulate_mp_batch
from mplm.estimators import (
    holder_from_ordinates,
    ols_slope,
    s_from_spectral_ordinates,
    varmp_from_block_variance,
    vpmp_from_variances,
    wmp_from_ladder,
)
from mplm.montecarlo import ExperimentSpec, mse_value, run_experiment
from mplm.partial_sums import scaling_exponent
from mplm.spectral import periodogram
from test_partial_sums import var_partial_sum

BASE_SEED = 12345


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def _table_cell(s, n, method, reps):
    spec = ExperimentSpec((s,), (n,), (method,), reps,
                          base_seed=BASE_SEED, burn_in=0)
    return run_experiment(spec, threads=1)[0]


def test_c01_periodogram_matches_direct_summation():
    # mathematically-zero ordinates come out as exact 0.0 from the fast
    # path but as ~1e-30 rounding dust from the naive oracle, so the
    # relative comparison is floored at 1e-13 of the spectral peak
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(16, 513))
        x = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        per = periodogram(x)
        t = np.arange(n)
        freqs = 2.0 * np.pi * np.arange(1, n + 1) / n
        z = np.exp(-1j * np.outer(freqs, t)) @ x
        ref = (z.real**2 + z.imag**2) / (4.0 * np.pi**2 * n)
        scale = np.maximum(ref, 1e-13 * ref.max())
        worst = max(worst, float(np.max(np.abs(per - ref) / scale)))
    elapsed = time.perf_counter() - start
    _report("C1 periodogram vs direct summation",
            worst <= 1e-10 and elapsed < 5.0,
            f"max rel err {worst:.2e} (<=1e-10), {elapsed:.2f}s (<5s), 200 series")


def test_c02_parseval_identity():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 1000))
        x = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
        per = periodogram(x)
        rhs = np.sum(x**2) / (4.0 * np.pi**2)
        if rhs > 0:
            worst = max(worst, abs(per.sum() - rhs) / rhs)
    _report("C2 Parseval identity", worst <= 1e-9,
            f"max rel err {worst:.2e} (<=1e-9), 100 series")


def test_c03_partial_sum_variance_exact():
    worst = 0.0
    for a, b in ((0.3, 0.2), (0.05, 0.4), (0.6, 0.25)):
        pi1 = a / (a + b)
        gamma = pi1 * (1.0 - pi1) * (1.0 - a - b) ** np.arange(64.0)
        idx = np.arange(64)
        cov = gamma[np.abs(idx[:, None] - idx[None, :])]
        for n in range(1, 65):
            ref = float(np.sum(cov[:n, :n]))
            got = var_partial_sum(gamma, n)
            worst = max(worst, abs(got - ref) / abs(ref))
    _report("C3 partial-sum variance vs covariance-matrix brute force",
            worst <= 1e-10, f"max rel err {worst:.2e} (<=1e-10), N<=64")


def test_c04_partial_sum_scaling_law():
    fit = scaling_exponent(partial(mp_partial_sums, burn_in=0), 0.8,
                           [2**k for k in range(10, 15)], 200, seed=777)
    ok = 1.45 <= fit.exponent <= 2.05
    _report("C4 partial-sum variance scaling (s=0.8)", ok,
            f"fitted exponent {fit.exponent:.3f} in [1.45, 2.05] (target 1.75)")


def test_c05_table_cos2_cell():
    row = _table_cell(0.60, 10_000, "cos2", 100)
    ok = abs(row.mean_s_hat - 0.5993) <= 0.05 and row.mse_s_hat <= 0.01
    _report("C5 cos2 cell (s=0.60, N=10000, R=100)", ok,
            f"mean {row.mean_s_hat:.4f} (0.5993+-0.05), mse {row.mse_s_hat:.5f} (<=0.01)")


def test_c06_table_wavelet_mexhat_cell():
    row = _table_cell(0.80, 8_192, "wmp-mexhat", 50)
    ok = abs(row.mean_s_hat - 0.8873) <= 0.07
    _report("C6 mexhat wavelet cell (s=0.80, N=8192, R=50)", ok,
            f"mean {row.mean_s_hat:.4f} (0.8873+-0.07)")


def test_c07_table_wavelet_haar_above_one():
    row = _table_cell(1.1, 32_768, "wmp-haar", 50)
    ok = abs(row.mean_s_hat - 1.0924) <= 0.10
    _report("C7 haar wavelet cell (s=1.1, N=32768, R=50)", ok,
            f"mean {row.mean_s_hat:.4f} (1.0924+-0.10)")


def test_c08_table_smoothed_holder_cell():
    row = _table_cell(0.40, 10_000, "sp", 100)
    ok = abs(row.mean_s_hat - 0.4024) <= 0.05
    _report("C8 smoothed local-regularity cell (s=0.40, N=10000, R=100)", ok,
            f"mean {row.mean_s_hat:.4f} (0.4024+-0.05)")


def test_c09_exact_inversion_suite():
    start = time.perf_counter()
    checks = []

    freqs = 2.0 * np.pi * np.arange(1, 101) / 10_000.0
    checks.append(abs(s_from_spectral_ordinates(freqs**-0.75).s_hat - 0.8))

    checks.append(abs(
        varmp_from_block_variance((10.0**4) ** (3.0 - 1.25), 10**4).s_hat - 0.8))

    sizes = np.array([10.0, 30.0, 90.0, 270.0])
    checks.append(abs(
        vpmp_from_variances(sizes, sizes ** (2 * 0.375 - 1.0)).s_hat - 0.8))

    levels = np.arange(4, 12)
    values = np.exp(1.3 + 0.375 * np.log(2.0 ** (-2.0 * levels)))
    checks.append(abs(wmp_from_ladder(levels, values).s_hat - 0.8))

    a, _ = holder_from_ordinates(0.0, (2.0 * np.pi / 10_000.0) ** 0.5,
                                 2.0 * np.pi / 10_000.0)
    checks.append(abs(1.0 / (a + 2.0) - 0.4))

    elapsed = time.perf_counter() - start
    worst = max(checks)
    _report("C9 exact planted-parameter inversion", worst <= 1e-9 and elapsed < 1.0,
            f"max abs err {worst:.2e} (<=1e-9), {elapsed:.3f}s (<1s)")


def test_c10_wavelet_closed_form_vs_two_step():
    rng = np.random.default_rng(1010)
    worst = 0.0
    count = 0
    while count < 1000:
        m = int(rng.integers(6, 16))
        levels = np.arange(4, m)
        values = np.exp(rng.normal(0.0, 2.0, levels.size))
        result = wmp_from_ladder(levels, values)
        slope, _ = ols_slope(np.log(2.0 ** (-2.0 * levels.astype(float))),
                             np.log(values))
        if not result.valid:
            continue
        worst = max(worst, abs(result.s_hat - 1.0 / (2.0 * (1.0 - slope))))
        count += 1
    _report("C10 wavelet closed form vs two-step regression", worst <= 1e-9,
            f"max abs err {worst:.2e} (<=1e-9), 1000 ladders")


def test_c11_mse_convention_matches_reference_row():
    err = abs(mse_value(0.6545, 0.1394, 0.60) - 0.0223)
    _report("C11 mse = bias^2 + sd^2 on reference row", err <= 0.0005,
            f"|0.0545^2 + 0.1394^2 - 0.0223| = {err:.5f} (<=0.0005)")


def test_c12_spectral_slope_law():
    details = []
    ok = True
    n = 30_000
    g = int(n**0.5)
    for s in (0.6, 0.8):
        target = 1.0 / s - 2.0
        seeds = [derive_seed(BASE_SEED, "slope-law", s, n, r) for r in range(100)]
        rows = simulate_mp_batch(s, n, seeds, burn_in=0)
        log_freq = np.log(2.0 * np.pi * np.arange(1, g + 1) / n)
        slopes = []
        for x in rows:
            ords = np.maximum(periodogram(x)[:g], 1e-15)
            slopes.append(ols_slope(log_freq, np.log(ords))[0])
        mean_slope = float(np.mean(slopes))
        ok = ok and abs(mean_slope - target) <= 0.5
        details.append(f"s={s}: slope {mean_slope:.3f} vs {target:.3f}")
    _report("C12 low-frequency spectral slope law", ok,
            "; ".join(details) + " (+-0.5)")
