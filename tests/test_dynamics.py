import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from mplm._seeds import derive_seed
from mplm._zeta import tail_sum, zeta_value
from mplm.dynamics import (
    _LBP_TABLE_CELLS,
    _lbp_tables,
    BinarySeries,
    MapParams,
    ObservableSpec,
    binary_from_states,
    equivalent_gamma,
    equivalent_s,
    lbp_cell_bounds,
    lbp_step,
    markov_stationary,
    mp_branch_point,
    mp_step,
    simulate_lbp,
    simulate_markov,
    simulate_mp,
    simulate_mp_batch,
)

# ---------------------------------------------------------------------------
# smooth map
# ---------------------------------------------------------------------------


def test_mp_step_fixed_point_at_zero():
    assert mp_step(0.8, 0.0) == 0.0


def test_mp_step_direct_evaluation():
    # oracle: 0.5 + 0.5**1.8 (no wrap) and 0.9 + 0.9**1.8 - 1 (wrapped)
    assert_allclose(mp_step(0.8, 0.5), 0.5 + 0.5**1.8, rtol=1e-15)
    assert_allclose(mp_step(0.8, 0.5), 0.7871750, atol=1e-6)
    assert_allclose(mp_step(0.8, 0.9), 0.9 + 0.9**1.8 - 1.0, rtol=1e-12)
    assert_allclose(mp_step(0.8, 0.9), 0.7272489, atol=1e-6)


def test_mp_step_stays_in_unit_interval():
    rng = np.random.default_rng(0)
    for s in (0.3, 0.6, 0.8, 1.0, 1.3):
        for x in rng.random(200):
            assert 0.0 <= mp_step(s, x) <= 1.0


def test_mp_step_rejects_bad_input():
    with pytest.raises(ValueError):
        mp_step(0.8, -0.1)
    with pytest.raises(ValueError):
        mp_step(0.8, 1.5)
    with pytest.raises(ValueError):
        mp_step(0.8, float("nan"))
    with pytest.raises(ValueError):
        mp_step(-1.0, 0.5)
    with pytest.raises(ValueError):
        mp_step(float("inf"), 0.5)


def test_mp_step_increasing_on_both_branches():
    for s in (0.5, 0.8, 1.2):
        p = mp_branch_point(s)
        left = np.linspace(1e-9, p - 1e-9, 500)
        right = np.linspace(p + 1e-9, 1.0, 500)
        for grid in (left, right):
            vals = np.array([mp_step(s, x) for x in grid])
            assert np.all(np.diff(vals) > 0)


def test_branch_point_closed_form_s_one():
    assert_allclose(mp_branch_point(1.0), (np.sqrt(5.0) - 1.0) / 2.0, atol=1e-12)


def test_branch_point_defining_equation():
    for s in (0.2, 0.5, 0.8, 1.0, 1.5, 3.0):
        p = mp_branch_point(s)
        assert abs(p + p ** (1.0 + s) - 1.0) < 1e-12
        assert 0.0 < p < 1.0


def test_branch_point_against_brentq_oracle():
    for s in (0.35, 0.8, 1.7):
        ref = scipy.optimize.brentq(lambda p: p + p ** (1 + s) - 1.0, 1e-12, 1.0,
                                    xtol=1e-14)
        assert_allclose(mp_branch_point(s), ref, atol=1e-11)
    assert_allclose(mp_branch_point(0.8), 0.60062, atol=1e-4)


def test_simulate_mp_deterministic():
    a = simulate_mp(0.8, 300, seed=11, burn_in=50)
    b = simulate_mp(0.8, 300, seed=11, burn_in=50)
    assert np.array_equal(a.values, b.values)
    c = simulate_mp(0.8, 300, seed=12, burn_in=50)
    assert not np.array_equal(a.values, c.values)


def test_simulate_mp_batch_rows_match_single_runs():
    seeds = [5, 6, 7]
    rows = simulate_mp_batch(0.7, 200, seeds, burn_in=30)
    for seed, row in zip(seeds, rows):
        single = simulate_mp(0.7, 200, seed, burn_in=30)
        assert np.array_equal(row, single.values)


def test_simulate_mp_full_interval_gives_all_ones():
    series = simulate_mp(0.8, 64, seed=3, burn_in=5,
                         observable=ObservableSpec(0.0, 1.0))
    assert np.all(series.values == 1.0)


def test_simulate_mp_laminar_phases():
    # long runs of zeros and a mean strictly inside (0, 1)
    series = simulate_mp(0.8, 10_000, seed=7)
    values = series.values
    assert 0.0 < values.mean() < 1.0
    changes = np.flatnonzero(np.diff(values) != 0)
    run_lengths = np.diff(np.concatenate([[-1], changes, [values.size - 1]]))
    zero_runs = run_lengths[:: 2] if values[0] == 0.0 else run_lengths[1:: 2]
    assert zero_runs.max() > 50


def test_simulate_mp_rejects_empty():
    with pytest.raises(ValueError):
        simulate_mp(0.8, 0, seed=1)


def test_simulate_mp_allows_s_above_one():
    series = simulate_mp(1.2, 256, seed=2, burn_in=10)
    assert series.n == 256


def test_frozen_orbit_raises_stall_diagnostic():
    # a state so small that x**(1+s) underflows below one ulp never moves;
    # the iterator flags it after the stall limit instead of erroring
    from mplm.dynamics import _iterate_map, StallWarning

    def step(x):
        y = x + x**2.0
        return np.where(y > 1.0, y - 1.0, y)

    with pytest.warns(StallWarning):
        _iterate_map(step, np.array([1e-300]), 0, 10_002, ObservableSpec())


def test_binary_series_validation():
    with pytest.raises(ValueError):
        BinarySeries(np.array([0.0, 0.5]), MapParams.mp(0.8), ObservableSpec(), 0, 0)
    with pytest.raises(ValueError):
        BinarySeries(np.array([]), MapParams.mp(0.8), ObservableSpec(), 0, 0)


def test_map_params_validation():
    with pytest.raises(ValueError):
        MapParams.mp(-0.5)
    with pytest.raises(ValueError):
        MapParams.lbp(2.0)
    with pytest.raises(ValueError):
        MapParams(MapParams.mp(0.5).kind, s=0.5, gamma=3.0)
    assert_allclose(equivalent_gamma(0.8), 2.25)
    assert_allclose(equivalent_s(2.25), 0.8)
    assert_allclose(equivalent_s(equivalent_gamma(0.61)), 0.61)


def test_observable_spec_validation():
    with pytest.raises(ValueError):
        ObservableSpec(0.9, 0.1)
    with pytest.raises(ValueError):
        ObservableSpec(-0.1, 0.5)
    spec = ObservableSpec()
    assert spec.interval == (0.1, 0.9)


# ---------------------------------------------------------------------------
# piecewise-linear map
# ---------------------------------------------------------------------------


def test_lbp_rightmost_cell_slope_and_continuity():
    for gamma in (2.25, 3.0, 4.0):
        z = zeta_value(gamma)
        assert_allclose(lbp_step(gamma, 1.0), 1.0, atol=1e-12)
        lo = 1.0 - 1.0 / z
        xs = np.linspace(lo + 1e-6, 1.0, 50)
        vals = np.array([lbp_step(gamma, x) for x in xs])
        slopes = np.diff(vals) / np.diff(xs)
        assert_allclose(slopes, z, rtol=1e-6)


def test_lbp_cell_zero_bounds_gamma_three():
    left, right = lbp_cell_bounds(3.0, 0)
    assert right == 1.0
    assert_allclose(left, 1.0 - 1.0 / zeta_value(3.0), rtol=1e-12)
    assert_allclose(left, 0.16809, atol=1e-5)


def test_lbp_cell_lengths_sum_to_one():
    for gamma in (2.25, 3.0):
        bounds, _, z = _lbp_tables(gamma)
        covered = -np.diff(bounds)
        total = covered.sum() + tail_sum(gamma, _LBP_TABLE_CELLS) / z
        assert abs(total - 1.0) < 1e-12


def test_lbp_cell_maps_onto_previous_cell():
    gamma = 2.6
    for k in (1, 2, 7, 40):
        left, right = lbp_cell_bounds(gamma, k)
        img_left, img_right = lbp_cell_bounds(gamma, k - 1)
        eps = (right - left) * 1e-9
        assert_allclose(lbp_step(gamma, left + eps), img_left, atol=1e-9)
        assert_allclose(lbp_step(gamma, right), img_right, atol=1e-12)


def test_lbp_deep_cell_consistent_with_table():
    # below the table the analytic branch must continue the same map
    gamma = 2.25
    bounds, _, z = _lbp_tables(gamma)
    x = bounds[_LBP_TABLE_CELLS] * 0.9  # strictly below the tabulated range
    y = lbp_step(gamma, x)
    assert 0.0 < y < 1.0
    assert y > x  # climbs toward the right on the left branch


def test_lbp_deep_cells_satisfy_cell_bounds():
    # below the table, x lies in the cell k with tail(k+1) < x * z <= tail(k)
    # and is carried affinely onto cell k-1; k is found here independently,
    # from the asymptotic tail (k + 1/2)**(1 - gamma) / (gamma - 1)
    rng = np.random.default_rng(31)
    for gamma in (2.05, 2.25, 2.538, 3.0):
        bounds, _, z = _lbp_tables(gamma)
        for x in bounds[_LBP_TABLE_CELLS] * np.exp(rng.uniform(np.log(1e-12), 0.0, 300)):
            target = x * z
            k = int((target * (gamma - 1.0)) ** (-1.0 / (gamma - 1.0)) - 0.5)
            while tail_sum(gamma, k + 1) >= target:
                k += 1
            while tail_sum(gamma, k) < target:
                k -= 1
            assert k >= _LBP_TABLE_CELLS
            left, right = tail_sum(gamma, k + 1) / z, tail_sum(gamma, k) / z
            assert lbp_step(gamma, x) == right + ((k + 1.0) / k) ** gamma * (x - left)


def test_lbp_step_rejects_outside_unit():
    with pytest.raises(ValueError):
        lbp_step(3.0, 1.5)
    with pytest.raises(ValueError):
        lbp_step(2.0, 0.5)


def test_simulate_lbp_deterministic_binary():
    a = simulate_lbp(2.25, 400, seed=21, burn_in=100)
    b = simulate_lbp(2.25, 400, seed=21, burn_in=100)
    assert np.array_equal(a.values, b.values)
    assert set(np.unique(a.values)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# countdown chain
# ---------------------------------------------------------------------------


def test_markov_stationary_known_value():
    # pi(0) = zeta(3)/zeta(2) for gamma = 3
    assert_allclose(markov_stationary(3.0, 0),
                    zeta_value(3.0) / zeta_value(2.0), rtol=1e-12)
    assert_allclose(markov_stationary(3.0, 0), 0.730763, atol=1e-6)


def test_markov_stationary_normalizes():
    for gamma in (2.25, 3.0, 4.0):
        head = sum(markov_stationary(gamma, k) for k in range(2000))
        from mplm.dynamics import _stationary_tail_mass

        assert abs(head + _stationary_tail_mass(gamma, 1999) - 1.0) < 1e-9


def test_markov_stationary_nonincreasing():
    pis = [markov_stationary(2.5, k) for k in range(200)]
    assert np.all(np.diff(pis) <= 0)


def test_markov_stationary_solves_balance_equations():
    # pi(j) = pi(j+1) + pi(0) * P(0, j) on a truncated state space
    gamma = 3.0
    z = zeta_value(gamma)
    pi = np.array([markov_stationary(gamma, k) for k in range(10_001)])
    jumps = (np.arange(1, 10_001.0)) ** (-gamma) / z  # P(0, j) for j = 0..9999
    resid = pi[:-1] - (pi[1:] + pi[0] * jumps)
    assert np.max(np.abs(resid)) < 1e-8


def _truncated_stationary(gamma: float, K: int) -> np.ndarray:
    # exact stationary vector of the K-state truncated chain (sparse solve
    # of pi P = pi with the normalization row appended)
    import scipy.sparse as sp
    import scipy.sparse.linalg as spl

    jumps = np.arange(1, K + 1.0) ** (-gamma)
    q = jumps / jumps.sum()
    rows = list(range(K)) + list(range(K - 1))
    cols = [0] * K + list(range(1, K))
    vals = list(q) + [1.0] * (K - 1)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(K, K)) - sp.eye(K, format="csr")
    A = A.tolil()
    A[K - 1, :] = 1.0
    b = np.zeros(K)
    b[K - 1] = 1.0
    return spl.spsolve(A.tocsr(), b)


def test_markov_stationary_matches_truncated_eigenvector():
    # the truncated-chain stationary law carries an O(1/K) bias from the
    # cut jump tail; Richardson extrapolation over K removes it
    gamma = 3.0
    v1 = _truncated_stationary(gamma, 5000)
    v2 = _truncated_stationary(gamma, 10_000)
    extrapolated = 2.0 * v2[:40] - v1[:40]
    pis = np.array([markov_stationary(gamma, k) for k in range(40)])
    assert_allclose(extrapolated, pis, atol=1e-7)


def test_binary_from_states_example():
    assert np.array_equal(binary_from_states([0, 3, 2, 1, 0]),
                          np.array([0.0, 1.0, 1.0, 1.0, 0.0]))


def test_markov_series_block_structure():
    # ones appear only in maximal blocks terminated by a single zero
    series = simulate_markov(2.5, 5000, seed=4)
    values = series.values
    assert set(np.unique(values)) <= {0.0, 1.0}
    # every one-run is followed by a zero (chain counts down to 0)
    run_starts = np.flatnonzero(np.diff(np.concatenate([[0.0], values])) == 1.0)
    for start in run_starts[:-1]:
        end = start
        while end < values.size and values[end] == 1.0:
            end += 1
        if end < values.size:
            assert values[end] == 0.0


def test_markov_zero_frequency_matches_stationary_law():
    # across independent chains, mean zero-frequency within 3 MC standard errors
    gamma = 3.0
    freqs = []
    for r in range(24):
        y = simulate_markov(gamma, 4000, derive_seed(10, "mk", r))
        freqs.append(1.0 - y.values.mean())
    mean = np.mean(freqs)
    se = np.std(freqs, ddof=1) / np.sqrt(len(freqs))
    assert abs(mean - markov_stationary(gamma, 0)) < 3.0 * se


def test_markov_run_length_distribution():
    # lengths of one-blocks after a zero follow the jump law (n+1)**-g / zeta(g)
    gamma = 3.0
    y = simulate_markov(gamma, 200_000, seed=17).values
    zeros = np.flatnonzero(y == 0.0)
    gaps = np.diff(zeros) - 1  # ones between consecutive zeros
    z = zeta_value(gamma)
    for n in range(4):
        expected = (n + 1.0) ** (-gamma) / z
        observed = np.mean(gaps == n)
        se = np.sqrt(expected * (1 - expected) / gaps.size)
        assert abs(observed - expected) < 5.0 * se


def test_markov_rejects_gamma_at_most_two():
    with pytest.raises(ValueError):
        simulate_markov(2.0, 100, seed=0)
    with pytest.raises(ValueError):
        markov_stationary(1.9, 0)
