import hashlib
import warnings

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from mplm import dynamics
from mplm._seeds import derive_seed, make_rng
from mplm._zeta import tail_sum, zeta_value
from mplm.dynamics import (
    _LBP_TABLE_CELLS,
    STALL_LIMIT,
    StallWarning,
    _iterate_map,
    _lbp_tables,
    ObservableSpec,
    equivalent_gamma,
    lbp_cell_bounds,
    lbp_step,
    markov_stationary,
    mp_branch_point,
    mp_step,
    simulate_lbp,
    simulate_lbp_batch,
    simulate_markov,
    simulate_markov_batch,
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


@pytest.mark.parametrize("s", [0.3, 0.65, 0.8, 1.2])
def test_mp_step_is_the_simulators_step(s):
    # state 1 of the orbit loop simulate_mp_batch runs, bit for bit; Python's
    # float ** differs from numpy's power in the last bit for some x
    x = np.concatenate(([0.0, 1e-300, 0.5, 1.0], make_rng(derive_seed("mp_step", s)).random(5000)))
    blocks = dynamics._orbit_blocks(dynamics._mp_stepper(s), x, np.ones(x.size, dtype=int), 1)
    first, states = next(blocks)
    assert first == 0
    assert [mp_step(s, v) for v in x] == states[0].tolist()


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
    assert np.array_equal(a, b)
    c = simulate_mp(0.8, 300, seed=12, burn_in=50)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("batch, single, exponent, kwargs", [
    (simulate_mp_batch, simulate_mp, 0.7, {"burn_in": 30}),
    (simulate_lbp_batch, simulate_lbp, 2.25, {"burn_in": 30}),
    (simulate_markov_batch, simulate_markov, 2.25, {}),
], ids=["mp", "lbp", "markov"])
def test_simulate_mp_batch_rows_match_single_runs(batch, single, exponent, kwargs):
    # a single-series call is row 0 of its one-seed batch, a 1-d float64
    # array, bit for bit; and row r of a wider batch is the run of seeds[r]
    seeds = [5, 6, 7]
    rows = batch(exponent, 200, seeds, **kwargs)
    for seed, row in zip(seeds, rows):
        series = single(exponent, 200, seed, **kwargs)
        assert type(series) is np.ndarray and series.dtype == np.float64
        assert series.shape == (200,)
        assert series.tobytes() == batch(exponent, 200, [seed], **kwargs)[0].tobytes()
        assert np.array_equal(row, series)


def test_simulate_mp_full_interval_gives_all_ones():
    series = simulate_mp(0.8, 64, seed=3, burn_in=5,
                         observable=ObservableSpec(0.0, 1.0))
    assert np.all(series == 1.0)


def test_simulate_mp_laminar_phases():
    # long runs of zeros and a mean strictly inside (0, 1)
    values = simulate_mp(0.8, 10_000, seed=7)
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
    assert series.size == 256


def test_frozen_orbit_raises_stall_diagnostic():
    # a state so small that x**(1+s) underflows below one ulp never moves;
    # the iterator flags it after the stall limit instead of erroring
    from mplm.dynamics import _iterate_map, StallWarning

    def step(x, out):
        y = x + x**2.0
        out[...] = np.where(y > 1.0, y - 1.0, y)

    with pytest.warns(StallWarning):
        _iterate_map(step, np.array([1e-300]), 0, 10_002, ObservableSpec())


def _stall_warnings(step, x0, n, burn_in):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _iterate_map(step, np.array(x0), n, burn_in, ObservableSpec())
    return sum(issubclass(w.category, StallWarning) for w in caught)


def _underflowing_step(x, out):
    y = x + x**2.0
    out[...] = np.where(y > 1.0, y - 1.0, y)


@pytest.mark.parametrize("x0", [1e-300, 0.0])
def test_stall_warning_fires_past_the_limit_only(x0):
    # burn_in + n states take burn_in + n - 1 steps; the warning needs
    # STALL_LIMIT identical iterates in a row
    for n, burn_in in ((0, STALL_LIMIT), (STALL_LIMIT, 0), (300, STALL_LIMIT - 300)):
        assert _stall_warnings(_underflowing_step, [x0], n, burn_in) == 0
    for n, burn_in in ((0, STALL_LIMIT + 1), (STALL_LIMIT + 1, 0), (257, STALL_LIMIT - 256),
                       (1000, 3 * STALL_LIMIT)):
        assert _stall_warnings(_underflowing_step, [x0], n, burn_in) == 1


def test_stall_warning_once_per_call_for_many_frozen_rows():
    x0 = [1e-300, 0.3, 0.0, 1e-300, 0.7]
    assert _stall_warnings(_underflowing_step, x0, 500, STALL_LIMIT) == 1
    assert _stall_warnings(_underflowing_step, x0, 500, STALL_LIMIT - 501) == 0


def test_stall_warning_counts_a_frozen_tail_from_its_first_repeat():
    def creep(x, out):
        out[...] = np.where(x < 0.5, x + 0.01, x)

    def moving_steps(x):
        steps = 0
        while x < 0.5:
            x, steps = x + 0.01, steps + 1
        return steps

    # a row moves for some steps, then repeats its state on every later
    # one; the first row to freeze decides
    for x0 in ([0.0], [0.0, -0.5], [-0.5, 0.25, 0.3]):
        states = min(map(moving_steps, x0)) + STALL_LIMIT
        assert _stall_warnings(creep, x0, 100, states - 100) == 0
        assert _stall_warnings(creep, x0, 100, states + 1 - 100) == 1
        assert _stall_warnings(creep, x0, states + 1, 0) == 1
        assert _stall_warnings(creep, x0, states, 0) == 0


@pytest.mark.parametrize("cap, others", [(256.0, []), (29.0, [30])])
def test_stall_state_first_in_its_buffer(cap, others):
    # row 0 counts up to cap and then holds it, so its first repeat is
    # state cap + 1: the first step of a buffer whose buf[0] holds state
    # cap, the end of a full buffer (cap 256) or the last state of a
    # shorter row that left there (cap 29, row 1 of length 30)
    def climb(x, out):
        out[...] = np.where(x < cap, x + 1.0, x)

    def warnings_for(stall_at):
        # row 0's stall state, burn_in + length - STALL_LIMIT, is stall_at
        lengths = np.array([stall_at + STALL_LIMIT] + others)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in dynamics._orbit_blocks(climb, np.zeros(lengths.size), lengths, 0):
                pass
        return sum(issubclass(w.category, StallWarning) for w in caught)

    assert warnings_for(int(cap) + 1) == 1
    assert warnings_for(int(cap)) == 0


@pytest.mark.parametrize("burn_in", [0, 300])
@pytest.mark.parametrize("lengths", [[1, 700, 255, 1, 256, 257, 513, 40, 513, 600],
                                     [300] * 5])
def test_partial_sums_equal_row_sums_of_the_batch(lengths, burn_in):
    seeds = [derive_seed(8, "sums", r) for r in range(len(lengths))]
    for partial_sums, simulate, param in (
            (dynamics.mp_partial_sums, simulate_mp_batch, 0.8),
            (dynamics.lbp_partial_sums, dynamics.simulate_lbp_batch, 2.25)):
        want = [simulate(param, n, [seed], burn_in)[0].sum() for n, seed in zip(lengths, seeds)]
        assert partial_sums(param, lengths, seeds, burn_in).tolist() == want


def test_partial_sums_validation():
    with pytest.raises(ValueError):
        dynamics.mp_partial_sums(0.8, [10, 0], [1, 2])
    with pytest.raises(ValueError):
        dynamics.mp_partial_sums(0.8, [10, 20], [1, 2], burn_in=-1)
    with pytest.raises(ValueError):
        dynamics.lbp_partial_sums(2.25, [10, 20, 30], [1, 2])


def test_stall_window_is_each_rows_own():
    # a frozen row warns only when its own burn_in + length states hold
    # STALL_LIMIT identical iterates, whatever the longer rows beside it
    def warnings_for(lengths):
        # lengths non-increasing, as the loop takes them; row 1 is frozen
        blocks = dynamics._orbit_blocks(_underflowing_step, np.array([0.3, 1e-300, 0.7]),
                                        np.array(lengths), 100)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in blocks:
                pass
        return sum(issubclass(w.category, StallWarning) for w in caught)

    assert warnings_for([STALL_LIMIT + 500, STALL_LIMIT - 100, 50]) == 0
    assert warnings_for([STALL_LIMIT + 500, STALL_LIMIT - 99, 50]) == 1
    assert warnings_for([STALL_LIMIT + 500, STALL_LIMIT + 400, 50]) == 1


def test_map_params_validation():
    with pytest.raises(ValueError, match="positive finite"):
        simulate_mp(-0.5, 8, seed=0)
    with pytest.raises(ValueError, match="> 2"):
        simulate_lbp(2.0, 8, seed=0)
    assert_allclose(equivalent_gamma(0.8), 2.25)


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


def test_lbp_step_fixes_zero():
    for gamma in (2.25, 3.0):
        assert lbp_step(gamma, 0.0) == 0.0


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
        bounds, z = _lbp_tables(gamma)
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
    bounds, z = _lbp_tables(gamma)
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
        bounds, z = _lbp_tables(gamma)
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
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# golden simulator output
# ---------------------------------------------------------------------------

# BLAKE2b digests of the float64 output bytes, recorded from the one-step-
# at-a-time iterator.  Keys: (simulator, exponent, n, burn_in, rows), seeds
# 9, 10, ...; the lengths straddle 256 and the burn-ins put step-buffer
# edges inside the burn-in and inside the recording.  The 40-row lbp runs
# at gamma 2.05 visit the cells below the branch table (16,545 steps).
# The chain entries (burn_in 0: the chain starts stationary) were recorded
# from the per-row sampler, the batch ones as its rows stacked.  In the
# 100-row run at gamma 2.05 and n = 50,000, 56 rows start beyond the
# 100,000-entry stationary table and 2 rows (seeds 19 and 95) draw a jump
# beyond the jump table.
GOLDEN_SIMULATIONS = {
    ("simulate_mp_batch", 0.3, 1, 0, 3): "1793af6638cf27ebfd889de4bb4f4413",
    ("simulate_lbp_batch", 2.05, 1, 0, 3): "1793af6638cf27ebfd889de4bb4f4413",
    ("simulate_mp_batch", 0.65, 1, 300, 3): "1793af6638cf27ebfd889de4bb4f4413",
    ("simulate_lbp_batch", 2.25, 1, 300, 3): "941e0c502c87478811f1b6a130227018",
    ("simulate_mp_batch", 0.8, 1, 10000, 3): "5bc0fb0571de6de989142a9eccbcdfb0",
    ("simulate_lbp_batch", 2.538, 1, 10000, 3): "5bc0fb0571de6de989142a9eccbcdfb0",
    ("simulate_mp_batch", 1.3, 7, 0, 3): "c0bab534e8a6196354092f3d5aeea1b1",
    ("simulate_lbp_batch", 3.0, 7, 0, 3): "67f93fe7d1fbe56804d3359cb1c8546a",
    ("simulate_mp_batch", 3.0, 7, 300, 3): "a988dec1698efde0ab141a6be8924afb",
    ("simulate_lbp_batch", 2.05, 7, 300, 3): "df938566119e7c946431a2447fd40032",
    ("simulate_mp_batch", 0.3, 7, 10000, 3): "466dd3b7012e7e482b6fa8db5a087aeb",
    ("simulate_lbp_batch", 2.25, 7, 10000, 3): "0d4514e025fffa5e7f650ebd52de7360",
    ("simulate_mp_batch", 0.65, 255, 0, 3): "a5e3b0b71999e3714337170786eab700",
    ("simulate_lbp_batch", 2.538, 255, 0, 3): "5d42fe31af0100e553093b197d6686d9",
    ("simulate_mp_batch", 0.8, 255, 300, 3): "206160a3a9b68918e43d6c5aaa8ad410",
    ("simulate_lbp_batch", 3.0, 255, 300, 3): "f657327d48d255a1825beb0f3d9f7ae8",
    ("simulate_mp_batch", 1.3, 255, 10000, 3): "f3ed6ef1b03b4b0823e98095481d41ee",
    ("simulate_lbp_batch", 2.05, 255, 10000, 3): "fb9921c526f8d1dc2ce0bd05b405df78",
    ("simulate_mp_batch", 3.0, 256, 0, 3): "8482d15df2f54989d57ba656af965644",
    ("simulate_lbp_batch", 2.25, 256, 0, 3): "d9b8a62cc2acf94860e94c7cce681e38",
    ("simulate_mp_batch", 0.3, 256, 300, 3): "2272b614537213d2e03d78af336356af",
    ("simulate_lbp_batch", 2.538, 256, 300, 3): "adc8d1fe71e43db9d5b1de7cd1e4efea",
    ("simulate_mp_batch", 0.65, 256, 10000, 3): "f95a67a7a02ebf6e7fcb3af339c5196a",
    ("simulate_lbp_batch", 3.0, 256, 10000, 3): "51a2ede69fa6e6d872d0d99e2ded0f27",
    ("simulate_mp_batch", 0.8, 257, 0, 3): "0e193319c2a8df385402150488b195bf",
    ("simulate_lbp_batch", 2.05, 257, 0, 3): "097ddc2aaa8b522855a6d71ae820b882",
    ("simulate_mp_batch", 1.3, 257, 300, 3): "6a25c5b8073d47a32d576993bd278fae",
    ("simulate_lbp_batch", 2.25, 257, 300, 3): "21a0a9a4e9737365c76e1df6bcd9251d",
    ("simulate_mp_batch", 3.0, 257, 10000, 3): "dd8b8bbb0599a07024cd78783cc8c057",
    ("simulate_lbp_batch", 2.538, 257, 10000, 3): "c388ced92fcde046e408e373227d9a7b",
    ("simulate_mp_batch", 0.3, 3000, 0, 3): "4b93e5f7842b9bea6c516c8efe3e9a5b",
    ("simulate_lbp_batch", 3.0, 3000, 0, 3): "e62178492aaac1d9d6d9c0c850280f76",
    ("simulate_mp_batch", 0.65, 3000, 300, 3): "7a48d7b7f1ce97972bc116daeafe7acf",
    ("simulate_lbp_batch", 2.05, 3000, 300, 3): "e06ba5dd881301a7911a570f97339eb1",
    ("simulate_mp_batch", 0.8, 3000, 10000, 3): "8f00889fa060300ce44583cb1b3136f9",
    ("simulate_lbp_batch", 2.25, 3000, 10000, 3): "b54ea967174348e9fafedeb1d67fc1dd",
    ("simulate_lbp_batch", 2.05, 20000, 0, 40): "2b5b0fc6ae2e064807361e74468279b5",
    ("simulate_lbp_batch", 2.25, 20000, 0, 40): "31f9859c6bbab1e0c08e0857bd86c803",
    ("simulate_mp", 0.3, 257, 300, 1): "d9b7481008dc9c7d7bb876502ab50643",
    ("simulate_mp", 0.65, 257, 300, 1): "8c570f1717fcfc3303ebd65333e5310e",
    ("simulate_mp", 0.8, 257, 300, 1): "92050d37df6764958ed1bccd404f7e69",
    ("simulate_mp", 1.3, 257, 300, 1): "73274722f82babe95f4d43f14ad98648",
    ("simulate_mp", 3.0, 257, 300, 1): "fcc59deb4b41079d212f0a1f4bd4ecf9",
    ("simulate_lbp", 2.05, 257, 300, 1): "9a268f6c50bb9659627e018f362696d3",
    ("simulate_lbp", 2.25, 257, 300, 1): "0aa2914e3f8e830325e1a3b51f3cfc45",
    ("simulate_lbp", 2.538, 257, 300, 1): "a003c11012306e61835c9c6f779f7531",
    ("simulate_lbp", 3.0, 257, 300, 1): "f256e1daefa3a3f2608f360a1cb1449e",
    ("simulate_markov", 2.05, 1, 0, 1): "eecf48da92c7c9e2865c6c2316277085",
    ("simulate_markov", 2.05, 7, 0, 1): "1170d61d2588525e20b66d2a9c8235cc",
    ("simulate_markov", 2.05, 255, 0, 1): "778e140c6873964340b44e75a682bf63",
    ("simulate_markov", 2.05, 3000, 0, 1): "8894f02ee511f8b216527e2dd03fe767",
    ("simulate_markov", 2.25, 1, 0, 1): "c804ce198ec337e3dc762bdd1a09aece",
    ("simulate_markov", 2.25, 7, 0, 1): "3da9eb17cb1cdb39eec6635644e2d94a",
    ("simulate_markov", 2.25, 255, 0, 1): "094277d529b097122c7eb61cebe0b133",
    ("simulate_markov", 2.25, 3000, 0, 1): "a52cc32f85d95a36ec0c4a5eb97b1a96",
    ("simulate_markov", 2.538, 1, 0, 1): "c804ce198ec337e3dc762bdd1a09aece",
    ("simulate_markov", 2.538, 7, 0, 1): "72a3709bae2987a4a4e5dc0dcd60e5b0",
    ("simulate_markov", 2.538, 255, 0, 1): "173976c822ed6f3eb91f3afef646f3b0",
    ("simulate_markov", 2.538, 3000, 0, 1): "36754bc264307ec5b174f1fdcef14413",
    ("simulate_markov", 3.0, 1, 0, 1): "c804ce198ec337e3dc762bdd1a09aece",
    ("simulate_markov", 3.0, 7, 0, 1): "ba2723b7c7438f8667d7518a23db4a06",
    ("simulate_markov", 3.0, 255, 0, 1): "a53d81b3ecd7cd2d9290b143309fa744",
    ("simulate_markov", 3.0, 3000, 0, 1): "5ad3d9ee1096cf800ec238b680d2b4f6",
    ("simulate_markov_batch", 2.05, 3000, 0, 3): "9aa642b15348892d84912d5891395e96",
    ("simulate_markov_batch", 3.0, 255, 0, 3): "29cf4b0dc5cd5f346a511181f97ae3d5",
    ("simulate_markov_batch", 2.05, 50000, 0, 100): "e26635d50eff2707474407a6f0ebd775",
}


@pytest.mark.parametrize("key", list(GOLDEN_SIMULATIONS))
def test_golden_simulations(key):
    name, exponent, n, burn_in, rows = key
    simulator = getattr(dynamics, name)
    seeds = list(range(9, 9 + rows))
    kwargs = {} if name.startswith("simulate_markov") else {"burn_in": burn_in}
    if name.endswith("_batch"):
        values = simulator(exponent, n, seeds, **kwargs)
    else:
        values = simulator(exponent, n, seeds[0], **kwargs)
    assert values.shape == ((rows, n) if name.endswith("_batch") else (n,))
    digest = hashlib.blake2b(values.tobytes(), digest_size=16).hexdigest()
    assert digest == GOLDEN_SIMULATIONS[key]


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


def test_markov_series_block_structure():
    # ones appear only in maximal blocks terminated by a single zero
    values = simulate_markov(2.5, 5000, seed=4)
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
        freqs.append(1.0 - y.mean())
    mean = np.mean(freqs)
    se = np.std(freqs, ddof=1) / np.sqrt(len(freqs))
    assert abs(mean - markov_stationary(gamma, 0)) < 3.0 * se


def test_markov_run_length_distribution():
    # lengths of one-blocks after a zero follow the jump law (n+1)**-g / zeta(g)
    gamma = 3.0
    y = simulate_markov(gamma, 200_000, seed=17)
    zeros = np.flatnonzero(y == 0.0)
    gaps = np.diff(zeros) - 1  # ones between consecutive zeros
    z = zeta_value(gamma)
    for n in range(4):
        expected = (n + 1.0) ** (-gamma) / z
        observed = np.mean(gaps == n)
        se = np.sqrt(expected * (1 - expected) / gaps.size)
        assert abs(observed - expected) < 5.0 * se


def test_simulate_markov_batch_rows_match_single_runs(monkeypatch):
    # at gamma 2.05 the jump sum is heavy-tailed, and some rows' first
    # prefix of draws ends before n: those rows, and only those, go on
    # with the draws of their streams past the prefix
    draws = dynamics.stream_uniforms
    calls = []

    def spy(seeds, count, start=0):
        calls.append((list(seeds), count, start))
        return draws(seeds, count, start)

    monkeypatch.setattr(dynamics, "stream_uniforms", spy)
    seeds = list(range(40, 100))
    rows = simulate_markov_batch(2.05, 2000, seeds)
    assert len(calls) >= 2
    (first, count, start), (second, more, further) = calls[:2]
    assert first == seeds and start == 0
    short = [sd for sd in seeds
             if dynamics._chain_zeros(2.05, 2000, make_rng(sd).random(count)[None])[0, -1] < 1999]
    assert 0 < len(short) < len(seeds)
    assert second == short and further == count and more == count
    monkeypatch.undo()
    for seed, row in zip(seeds, rows):
        assert np.array_equal(row, simulate_markov(2.05, 2000, seed))


def test_simulate_markov_batch_heavy_stationary_tail():
    # at gamma 2.03 a stationary start state can exceed 2**63, and at 2.001
    # inverting the tail out to it overflows a float; such a start lies
    # beyond n, so the row is all ones
    gamma, seeds = 2.03, list(range(40))
    huge = [dynamics._stationary_tail_mass(gamma, 2**63) > 1.0 - make_rng(sd).random()
            for sd in seeds]
    assert any(huge)
    rows = simulate_markov_batch(gamma, 50, seeds)
    assert np.all(rows[huge] == 1.0)
    for n in (50, 2 * dynamics._ZIPF_TABLE_SIZE):
        rows = simulate_markov_batch(2.001, n, list(range(12)))
        assert rows.shape == (12, n) and (rows == 1.0).all(axis=1).sum() >= 6


def test_negative_indices_and_empty_runs_are_rejected():
    with pytest.raises(ValueError, match="cell index"):
        lbp_cell_bounds(2.5, -1)
    with pytest.raises(ValueError, match="state index"):
        markov_stationary(2.5, -1)
    with pytest.raises(ValueError, match="series length"):
        simulate_markov_batch(2.5, 0, [1, 2])


def test_markov_rejects_gamma_at_most_two():
    with pytest.raises(ValueError):
        simulate_markov(2.0, 100, seed=0)
    with pytest.raises(ValueError):
        markov_stationary(1.9, 0)
