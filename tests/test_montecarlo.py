import re
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mplm import montecarlo
from mplm.dynamics import ObservableSpec
from mplm.montecarlo import (
    ExperimentSpec,
    PRESETS,
    mse_value,
    preset_experiment,
    replication_seeds,
    run_experiment,
    summarize,
    write_summaries_csv,
)

TINY = ExperimentSpec((0.8,), (2048,), ("perio", "varmp"), 6,
                      base_seed=42, burn_in=100)


def test_summarize_single_replication():
    mean, sd, mse = summarize([0.71], 0.8)
    assert (mean, sd) == (0.71, 0.0)
    assert_allclose(mse, (0.71 - 0.8) ** 2, rtol=1e-12)


def test_summarize_hand_computation():
    mean, sd, mse = summarize([0.5, 0.7], 0.6)
    assert_allclose(mean, 0.6, atol=1e-15)
    assert_allclose(sd, 0.141421356237, atol=1e-9)
    assert_allclose(mse, 0.02, atol=1e-12)


def test_summarize_all_equal_to_truth():
    mean, sd, mse = summarize([0.66, 0.66, 0.66], 0.66)
    assert (mean, sd, mse) == (0.66, 0.0, 0.0)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([], 0.5)


def test_mse_identity_against_reference_row():
    # mean 0.6545, sd 0.1394 at truth 0.60 rounds to the reported 0.0223
    assert abs(mse_value(0.6545, 0.1394, 0.60) - 0.0223) <= 0.0005


def test_replication_seeds_unique_across_grid():
    seeds = set()
    count = 0
    for name, spec in PRESETS.items():
        for s, n, method in spec.cells():
            seeds.update(replication_seeds(spec.base_seed, spec.model, s, n, method, 3))
            count += 3
    assert len(seeds) == count


def test_spec_rejects_a_cell_its_method_cannot_run():
    # varmp needs 8 blocks of floor(N**0.7), so N >= 1000; the (500, varmp)
    # cell once raised only after the earlier cells had been simulated
    with pytest.raises(ValueError, match=r"N=500, method=varmp: .*8 disjoint blocks"):
        ExperimentSpec((0.6,), (2000, 500), ("perio", "varmp"), 3)
    with pytest.raises(ValueError, match=r"N=32, method=wmp-haar: .*at least 64"):
        ExperimentSpec((0.8,), (32,), ("perio", "wmp-haar"), 1)
    with pytest.raises(ValueError, match="positive"):
        ExperimentSpec((0.8,), (0,), ("perio",), 1)
    assert ExperimentSpec((0.6,), (2000, 1000), ("perio", "varmp"), 3).n_values == (2000, 1000)


@pytest.mark.parametrize("model, s_values, reason", [
    ("mp", (0.8, -0.5), "s=-0.5, model=mp: s must be a positive finite real"),
    ("mp", (float("nan"),), "s=nan, model=mp: s must be a positive finite real"),
    ("lbp", (0.8, 1.0), "s=1.0, model=lbp: gamma must be a finite real > 2"),
    ("markov", (0.8, 1.5), "s=1.5, model=markov: gamma must be a finite real > 2"),
])
def test_spec_rejects_an_exponent_its_model_cannot_simulate(model, s_values, reason):
    # the simulators' own rules, checked before the grid reaches that s
    with pytest.raises(ValueError, match=f"^cell {re.escape(reason)}"):
        ExperimentSpec(s_values, (4096,), ("perio", "cos1"), 20, model=model, burn_in=0)


@pytest.mark.parametrize("model", ["mp", "lbp", "markov"])
def test_spec_rejects_a_negative_burn_in_for_every_model(model):
    # the simulators' own run check, whether or not the model discards a burn-in
    with pytest.raises(ValueError, match="burn-in must be >= 0, got -5"):
        ExperimentSpec((0.8,), (1024,), ("perio",), 2, model=model, burn_in=-5)


def test_spec_rejects_a_non_integer_length_or_burn_in():
    # each raised TypeError from numpy once the grid reached its cell, or
    # from the first cell for a burn-in
    with pytest.raises(ValueError, match="series length must be an integer, got 2048.0"):
        ExperimentSpec((0.8,), (1024, 2048.0), ("perio",), 2)
    with pytest.raises(ValueError, match="burn-in must be an integer, got 2.5"):
        ExperimentSpec((0.8,), (1024,), ("perio",), 2, burn_in=2.5)


@pytest.mark.parametrize("s_values, n_values, methods, named", [
    ((0.6, 0.8, 0.6), (2048,), ("perio",), "s=0.6"),
    ((0.8,), (2048, 2048), ("perio",), "N=2048"),
    ((0.8,), (2048,), ("perio", "cos2", "perio"), "method=perio"),
])
def test_spec_rejects_a_repeated_value(s_values, n_values, methods, named):
    # a repeated value gives its cells the same stream keys, so the run would
    # write the same rows again; once, n=2048,2048 with methods=perio,perio
    # wrote four identical rows
    with pytest.raises(ValueError, match=f"^{named} is given more than once"):
        ExperimentSpec(s_values, n_values, methods, 2)


def test_run_experiment_deterministic_across_thread_counts(tmp_path):
    first = run_experiment(TINY, threads=1)
    second = run_experiment(TINY, threads=4)
    third = run_experiment(TINY, threads=None)
    assert first == second == third
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_summaries_csv(first, a)
    write_summaries_csv(second, b)
    assert a.read_bytes() == b.read_bytes()
    # the renewal chain and the lbp map draw their streams per call too
    for model in ("lbp", "markov"):
        spec = ExperimentSpec((0.6, 0.8), (1024,), ("perio", "varmp"), 6,
                              base_seed=42, model=model, burn_in=100)
        assert run_experiment(spec, threads=1) == run_experiment(spec, threads=4)


def test_run_experiment_runs_every_cell_on_the_calling_thread(monkeypatch):
    # ``threads`` is accepted and checked but starts no pool
    idents = []
    run_cell = montecarlo._run_cell

    def spy(*args):
        idents.append(threading.get_ident())
        return run_cell(*args)

    monkeypatch.setattr(montecarlo, "_run_cell", spy)
    rows = run_experiment(TINY, threads=4)
    assert len(idents) == len(rows) == len(list(TINY.cells()))
    assert set(idents) == {threading.get_ident()}
    with pytest.raises(ValueError, match=">= 1"):
        run_experiment(TINY, threads=0)


def test_run_experiment_row_order_follows_grid():
    rows = run_experiment(TINY, threads=2)
    assert [(r.s, r.n, r.method) for r in rows] == list(TINY.cells())


def test_mse_identity_on_emitted_rows():
    for row in run_experiment(TINY, threads=1):
        if not row.failed:
            assert_allclose(row.mse_s_hat,
                            mse_value(row.mean_s_hat, row.sd_s_hat, row.s),
                            rtol=1e-12)


def test_all_invalid_cell_is_failed():
    # the full-interval observable produces constant series, which the
    # block-variance estimator flags on every replication
    spec = ExperimentSpec((0.8,), (2048,), ("varmp",), 4, base_seed=1,
                          burn_in=10, observable=ObservableSpec(0.0, 1.0))
    row = run_experiment(spec, threads=1)[0]
    assert row.failed
    assert row.invalid_count == 4
    assert np.isnan(row.mean_s_hat)


def test_csv_format(tmp_path):
    rows = run_experiment(TINY, threads=1)
    path = tmp_path / "out.csv"
    write_summaries_csv(rows, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "s,N,method,mean,sd,mse,invalid"
    assert len(lines) == 1 + len(rows)
    assert "\r" not in text


def test_preset_shapes_and_scaling():
    spec = preset_experiment("table51", scale=0.25)
    assert spec.replications == 50
    assert len(list(spec.cells())) == 36  # 2 s-values x 3 lengths x 6 methods
    assert preset_experiment("table53").replications == 50
    assert len(list(PRESETS["table54"].cells())) == 8
    assert len(list(PRESETS["table71"].cells())) == 12
    with pytest.raises(ValueError):
        preset_experiment("table99")
    with pytest.raises(ValueError):
        preset_experiment("table51", scale=0.0)


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec((0.8,), (512,), ("perio",), 0)
    with pytest.raises(ValueError, match=r"^cell N=512, method=nope: unknown method 'nope'"):
        ExperimentSpec((0.8,), (512,), ("nope",), 5)
    with pytest.raises(ValueError):
        ExperimentSpec((0.8,), (512,), ("perio",), 5, model="ou")
    with pytest.raises(ValueError):
        ExperimentSpec((), (512,), ("perio",), 5)


def test_markov_and_lbp_models_run():
    for model in ("lbp", "markov"):
        spec = ExperimentSpec((0.8,), (2048,), ("varmp",), 3,
                              base_seed=9, model=model, burn_in=50)
        row = run_experiment(spec, threads=1)[0]
        assert row.replications == 3


@pytest.mark.parametrize("model, s, n, method, reps", [("mp", 0.65, 30_000, "parzen", 50),
                                                        ("markov", 0.65, 3_000, "perio", 250)])
def test_a_cell_never_holds_its_rows_as_float64(model, s, n, method, reps):
    # The bound is the bytes of the cell's rows as float64, reps * n * 8
    # (12 MB and 6 MB): rows held as uint8 take an eighth of it and are
    # widened one CHUNK_VALUES chunk at a time.  float64 rows read 13.5 and
    # 7.3 MB here; uint8 rows 2.6 and 2.1 MB.
    import tracemalloc

    spec = ExperimentSpec((s,), (n,), (method,), reps, model=model, burn_in=0)
    montecarlo._run_cell(spec, s, n, method)  # fills the cached tables first
    tracemalloc.start()
    try:
        montecarlo._run_cell(spec, s, n, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < reps * n * 8
