import numpy as np
import pytest
import scipy.special as sps
from numpy.testing import assert_allclose

from mplm._seeds import derive_seed, derive_seeds, make_rng, stream_uniforms
from mplm._zeta import partial_sums, tail_sum, zeta_value

APERY = 1.2020569031595943  # sum of n**-3


def test_zeta_against_scipy():
    for g in (2.01, 2.25, 2.6667, 3.0, 4.0, 6.5):
        assert_allclose(zeta_value(g), float(sps.zeta(g)), rtol=0, atol=1e-10)


def test_zeta_three_known_value():
    assert_allclose(zeta_value(3.0), APERY, atol=1e-10)


def test_zeta_rejects_bad_exponent():
    with pytest.raises(ValueError):
        zeta_value(1.0)
    with pytest.raises(ValueError):
        zeta_value(float("nan"))
    with pytest.raises(ValueError, match="truncation point"):
        tail_sum(2.0, -1)


def test_partial_sums_cumulative():
    g = 2.5
    sums = partial_sums(g, 50)
    direct = np.concatenate([[0.0], np.cumsum(np.arange(1, 51.0) ** -g)])
    assert_allclose(sums, direct, rtol=1e-15)


@pytest.mark.parametrize("g", [2.05, 2.25, 3.0, 4.5])
@pytest.mark.parametrize("m", [0, 1, 17, 63, 64, 1000, 10**6, 10**9])
def test_tail_sum_against_hurwitz(g, m):
    assert_allclose(tail_sum(g, m), float(sps.zeta(g, m + 1)), rtol=1e-11)


def test_tail_plus_partial_recovers_total():
    g = 2.3
    for m in (5, 100, 4096):
        total = partial_sums(g, m)[-1] + tail_sum(g, m)
        assert_allclose(total, zeta_value(g), rtol=1e-12)


def test_derive_seed_stable_and_distinct():
    a = derive_seed(12345, "mp", 0.6, 10_000, "perio", 0)
    assert a == derive_seed(12345, "mp", 0.6, 10_000, "perio", 0)
    others = {
        derive_seed(12345, "mp", 0.6, 10_000, "perio", 1),
        derive_seed(12345, "mp", 0.6, 20_000, "perio", 0),
        derive_seed(12345, "mp", 0.65, 10_000, "perio", 0),
        derive_seed(12346, "mp", 0.6, 10_000, "perio", 0),
    }
    assert a not in others
    assert 0 <= a < 2**64


@pytest.mark.parametrize("parts", [(), (12345, "mp", 0.6, 10_000, "perio"), (-7, -0.25, "scaling", 3),
                                   (2**64 - 1, 1e-300, "x|y", -3)])
def test_derive_seeds_equal_derive_seed_per_replication(parts):
    assert derive_seeds(*parts, count=5) == [derive_seed(*parts, r) for r in range(5)]
    assert derive_seeds(*parts, count=0) == []


def test_make_rng_reproducible():
    x = make_rng(991).random(8)
    y = make_rng(991).random(8)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, make_rng(992).random(8))


def test_make_rng_rejects_non_integer():
    with pytest.raises(TypeError):
        make_rng(1.5)


@pytest.mark.parametrize("count", [1, 5, 1000])
def test_stream_uniforms_rows_equal_make_rng(count):
    values = [0, 1, -1, 2**63, 2**64 - 1]
    seeds = values + [np.int64(v) for v in values if -2**63 <= v < 2**63]
    seeds += [np.uint64(v) for v in values if v >= 0]
    rows = stream_uniforms(seeds, count)
    assert rows.shape == (len(seeds), count)
    for seed, row in zip(seeds, rows):
        assert np.array_equal(row, make_rng(seed).random(count))


def test_stream_uniforms_rejects_non_integer():
    with pytest.raises(TypeError):
        stream_uniforms([3, 1.5], 4)


@pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 5, 6, 7, 1001])
@pytest.mark.parametrize("count", [1, 6])
def test_stream_uniforms_continue_each_stream(start, count):
    # a Philox block holds four draws: every start % 4 is covered
    seeds = [0, 2**63, 2**64 - 1]
    rows = stream_uniforms(seeds, count, start)
    assert rows.shape == (len(seeds), count)
    for seed, row in zip(seeds, rows):
        assert np.array_equal(row, make_rng(seed).random(start + count)[start:])
