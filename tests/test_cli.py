import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mplm
from mplm import cli, dynamics
from mplm.cli import main
from mplm.estimators import METHOD_NAMES
from mplm.spectral import periodogram


def run_cli(args):
    return main(args)


def test_simulate_deterministic_files(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["simulate", "--model", "mp", "--s", "0.8", "--n", "100", "--seed", "1"]
    assert run_cli(base + ["--out", str(a)]) == 0
    assert run_cli(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == 101
    t, x = lines[5].split(",")
    assert t == "4" and x in ("0", "1")
    assert "\r" not in a.read_text()


def test_simulate_emits_manifest(tmp_path):
    out = tmp_path / "series.csv"
    assert run_cli(["simulate", "--model", "mp", "--s", "0.7", "--n", "16",
                    "--seed", "3", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "series.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 3
    assert manifest["parameters"]["n"] == 16
    assert "tool_version" in manifest
    # stable key order: serialization is sorted
    text = (tmp_path / "series.csv.manifest.json").read_text()
    assert text == json.dumps(manifest, sort_keys=True) + "\n"


def test_simulate_validation_errors(capsys):
    assert run_cli(["simulate", "--model", "mp", "--n", "10"]) == 1
    assert run_cli(["simulate", "--model", "lbp", "--s", "0.5", "--n", "10"]) == 1
    assert run_cli(["simulate", "--model", "mp", "--s", "0.5"]) == 1
    capsys.readouterr()


def test_unknown_flag_exits_one(capsys):
    assert run_cli(["simulate", "--bogus", "1"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_lbp_and_markov_models(tmp_path):
    for model in ("lbp", "markov"):
        out = tmp_path / f"{model}.csv"
        rc = run_cli(["simulate", "--model", model, "--gamma", "2.5", "--n", "64",
                      "--seed", "5", "--burn-in", "10", "--interval", "0.3,0.4",
                      "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 65
    # the chain starts from its stationary law and has no observable, so its
    # manifest records neither a burn-in nor an interval
    manifest = json.loads((tmp_path / "markov.csv.manifest.json").read_text())
    assert manifest["parameters"] == {"gamma": 2.5, "model": "markov", "n": 64,
                                      "out": str(tmp_path / "markov.csv")}
    manifest = json.loads((tmp_path / "lbp.csv.manifest.json").read_text())
    assert manifest["parameters"]["burn_in"] == 10
    assert manifest["parameters"]["interval"] == [0.3, 0.4]


def test_round_trip_simulate_estimate_spectrum(tmp_path, capsys):
    series = tmp_path / "series.csv"
    assert run_cli(["simulate", "--model", "mp", "--s", "0.8", "--n", "4096",
                    "--seed", "7", "--burn-in", "0", "--out", str(series)]) == 0

    assert run_cli(["estimate", "--method", "perio", "--in", str(series),
                    "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "perio"
    assert doc["valid"] is True
    assert 0.0 < doc["s_hat"] < 3.0
    assert doc["points_used"] == 64

    spectrum = tmp_path / "spec.csv"
    assert run_cli(["spectrum", "--in", str(series), "--smooth", "parzen",
                    "--m", "512", "--out", str(spectrum)]) == 0
    lines = spectrum.read_text().splitlines()
    assert lines[0] == "omega,ordinate"
    assert len(lines) == 4097
    omega = np.array([float(l.split(",")[0]) for l in lines[1:]])
    assert np.all(np.diff(omega) > 0)


def test_estimate_missing_file():
    assert run_cli(["estimate", "--method", "perio", "--in", "no-such.csv"]) == 1


def test_estimate_rejects_bad_data_lines(tmp_path, capsys):
    rows = "t,x\n" + "".join(f"{t},{t % 3 % 2}\n" for t in range(4096))
    for tail, lineno in (("4096,oops\n", 4098), ("4096,nan\n", 4098),
                         ("4096,1\n4097,inf\n", 4099), ("t,x\n4096,1\n", 4098)):
        series = tmp_path / "bad.csv"
        series.write_text(rows + tail)
        assert run_cli(["estimate", "--method", "perio", "--in", str(series)]) == 1
        err = capsys.readouterr().err
        assert f"{series}:{lineno}:" in err
    # one header line and blank lines are accepted
    series.write_text(rows + "\n")
    assert run_cli(["estimate", "--method", "perio", "--in", str(series), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_estimate_methods_cover_wavelets(tmp_path, capsys):
    series = tmp_path / "s.csv"
    run_cli(["simulate", "--model", "mp", "--s", "0.8", "--n", "1024",
             "--seed", "9", "--burn-in", "0", "--out", str(series)])
    for method in ("wmp-haar", "wmp-mexhat", "p", "sp", "varmp", "vpmp", "cos2"):
        assert run_cli(["estimate", "--method", method, "--in", str(series),
                        "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == method


def test_montecarlo_preset_row_count(tmp_path):
    out_dir = tmp_path / "mc"
    rc = run_cli(["montecarlo", "--preset", "table51", "--scale", "0.01",
                  "--out-dir", str(out_dir), "--threads", "2"])
    assert rc == 0
    lines = (out_dir / "table51.csv").read_text().splitlines()
    assert lines[0] == "s,N,method,mean,sd,mse,invalid"
    assert len(lines) == 1 + 36  # 2 s-values x 3 lengths x 6 methods
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "montecarlo"
    assert manifest["parameters"]["replications"] == 2
    assert "wall_seconds" in manifest


def test_montecarlo_spec_file(tmp_path):
    spec = tmp_path / "run.spec"
    spec.write_text(
        "# tiny grid\n"
        "model=mp\n"
        "s=0.8\n"
        "n=2048\n"
        "methods=perio,varmp\n"
        "replications=3\n"
        "seed=99\n"
        "burn_in=50\n"
    )
    out_dir = tmp_path / "out"
    assert run_cli(["montecarlo", "--spec", str(spec), "--out-dir", str(out_dir)]) == 0
    lines = (out_dir / "results.csv").read_text().splitlines()
    assert len(lines) == 3
    # a cell its method cannot run exits 1 before anything is simulated
    spec.write_text("s=0.8\nn=2048,500\nmethods=perio,varmp\nreplications=3\n")
    bad_dir = tmp_path / "bad"
    assert run_cli(["montecarlo", "--spec", str(spec), "--out-dir", str(bad_dir)]) == 1
    assert not bad_dir.exists()


@pytest.mark.parametrize("model, s", [("mp", "-0.5"), ("mp", "nan"), ("lbp", "0.8,1.0"),
                                      ("markov", "1.5")])
def test_montecarlo_spec_with_an_exponent_the_model_rejects_exits_one(tmp_path, capsys,
                                                                     model, s):
    spec = tmp_path / "run.spec"
    spec.write_text(f"model={model}\ns={s}\nn=4096\nmethods=perio,cos1\nreplications=2\n")
    out_dir = tmp_path / "out"
    assert run_cli(["montecarlo", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
    assert f"cell s={s.split(',')[-1]}, model={model}: " in capsys.readouterr().err
    assert not out_dir.exists()


def test_montecarlo_spec_with_a_negative_burn_in_exits_one(tmp_path, capsys):
    for model in ("mp", "markov"):
        spec = tmp_path / "run.spec"
        spec.write_text(f"model={model}\ns=0.8\nn=1024\nmethods=perio\nburn_in=-5\n")
        out_dir = tmp_path / model
        assert run_cli(["montecarlo", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
        assert "burn-in must be >= 0, got -5" in capsys.readouterr().err
        assert not out_dir.exists()


def test_montecarlo_manifest_records_the_inputs_the_model_takes(tmp_path):
    for model in ("mp", "lbp", "markov"):
        spec = tmp_path / "run.spec"
        spec.write_text(f"model={model}\ns=0.8\nn=1024\nmethods=perio\nreplications=1\n"
                        "burn_in=7\ninterval=0.2,0.8\n")
        out_dir = tmp_path / model
        assert run_cli(["montecarlo", "--spec", str(spec), "--out-dir", str(out_dir)]) == 0
        params = json.loads((out_dir / "manifest.json").read_text())["parameters"]
        taken = {} if model == "markov" else {"burn_in": 7, "interval": [0.2, 0.8]}
        assert {k: params[k] for k in ("burn_in", "interval") if k in params} == taken, model


@pytest.mark.parametrize("line", ["n=1e4", "replications=abc", "burn_in=x"])
def test_spec_file_bad_value_names_the_file_and_key(tmp_path, capsys, line):
    spec = tmp_path / "run.spec"
    key = line.split("=")[0]  # in place of the base line with that key, not repeating it
    base = [b for b in ("s=0.8", "n=1024", "methods=perio") if not b.startswith(f"{key}=")]
    spec.write_text("\n".join(base + [line]) + "\n")
    out_dir = tmp_path / "out"
    assert run_cli(["montecarlo", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith(f"mplm: {spec}: {line}: invalid literal for int()")
    assert not out_dir.exists()


def test_failed_montecarlo_run_leaves_no_output_directory(tmp_path, capsys):
    out_dir = tmp_path / "mc"
    assert run_cli(["montecarlo", "--preset", "table53", "--scale", "0.02",
                    "--threads", "0", "--out-dir", str(out_dir)]) == 1
    assert "thread count must be >= 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_montecarlo_requires_exactly_one_source(tmp_path):
    assert run_cli(["montecarlo"]) == 1
    assert run_cli(["montecarlo", "--preset", "table51", "--spec", "x"]) == 1
    assert run_cli(["montecarlo", "--preset", "nope",
                    "--out-dir", str(tmp_path)]) == 1


def test_appendixb_output(tmp_path):
    out = tmp_path / "scaling.csv"
    rc = run_cli(["appendixb", "--s", "0.8", "--grid", "256,512,1024,2048",
                  "--reps", "60", "--seed", "4", "--burn-in", "100",
                  "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,var,log_var"
    assert len(lines) == 6  # header + 4 rows + json footer
    footer = json.loads(lines[-1].lstrip("# "))
    assert "exponent" in footer and "intercept" in footer
    n, var, logvar = lines[1].split(",")
    assert int(n) == 256
    assert abs(np.log(float(var)) - float(logvar)) < 1e-12


@pytest.mark.parametrize("flags", [["--grid", "0,64,128,256"], ["--burn-in", "-1"]])
def test_appendixb_rejects_a_run_before_stepping(tmp_path, monkeypatch, capsys, flags):
    steps = []
    monkeypatch.setattr(dynamics, "_orbit_blocks", lambda *args: steps.append(args))
    out = tmp_path / "scaling.csv"
    argv = ["appendixb", "--s", "0.8", "--reps", "50", "--out", str(out)]
    assert run_cli(argv + flags) == 1
    assert "mplm:" in capsys.readouterr().err
    assert steps == []
    assert not out.exists()


def test_each_call_sees_its_own_environment(tmp_path, monkeypatch):
    # the parser is built once per set of MPLM_* variables: a changed
    # variable must reach the next call in the same process
    out = tmp_path / "env.csv"
    argv = ["simulate", "--model", "mp", "--s", "0.5", "--burn-in", "0", "--out", str(out)]
    for n in ("24", "7", "24"):
        monkeypatch.setenv("MPLM_N", n)
        assert run_cli(argv) == 0
        assert len(out.read_text().splitlines()) == int(n) + 1
    monkeypatch.delenv("MPLM_N")
    assert run_cli(argv) == 1


def test_env_variable_fallback(tmp_path, monkeypatch):
    out = tmp_path / "env.csv"
    monkeypatch.setenv("MPLM_N", "24")
    monkeypatch.setenv("MPLM_BURN_IN", "5")
    assert run_cli(["simulate", "--model", "mp", "--s", "0.5", "--seed", "2",
                    "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 25
    # explicit flag wins over the environment
    assert run_cli(["simulate", "--model", "mp", "--s", "0.5", "--seed", "2",
                    "--n", "8", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 9


def test_env_variable_bad_value(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MPLM_N", "twelve")
    assert run_cli(["simulate", "--model", "mp", "--s", "0.5", "--seed", "2",
                    "--out", str(tmp_path / "x.csv")]) == 1
    capsys.readouterr()


def test_stdout_output_and_stderr_manifest(capsys):
    rc = run_cli(["simulate", "--model", "mp", "--s", "0.6", "--n", "4",
                  "--seed", "1", "--burn-in", "0"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "t,x"
    manifest = json.loads(captured.err)
    assert manifest["subcommand"] == "simulate"


def test_invalid_estimate_reported_not_crashed(tmp_path, capsys):
    # constant series: block-sum variance vanishes, result flagged invalid
    series = tmp_path / "c.csv"
    series.write_text("t,x\n" + "".join(f"{t},1\n" for t in range(4096)))
    assert run_cli(["estimate", "--method", "varmp", "--in", str(series),
                    "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is False
    assert doc["reason"]


def test_estimate_flags_reach_the_method(tmp_path, capsys):
    # the methods that take each flag; any other exits 1 naming flag and method
    takes = {"--block-exponent": ("varmp",), "--freq-index": ("p", "sp")}
    series = tmp_path / "s.csv"
    run_cli(["simulate", "--model", "mp", "--s", "0.8", "--n", "1024",
             "--seed", "9", "--burn-in", "0", "--out", str(series)])
    capsys.readouterr()
    for flag, value, key in (("--block-exponent", "0.5", "block_exponent"),
                             ("--freq-index", "3", "freq_index")):
        for method in METHOD_NAMES:
            rc = run_cli(["estimate", "--method", method, "--in", str(series), flag, value])
            err = capsys.readouterr().err
            if method in takes[flag]:
                assert rc == 0, (method, flag)
                assert str(json.loads(err)["parameters"][key]) == value
            else:
                assert rc == 1, (method, flag)
                assert flag in err and method in err


def test_spectrum_rejects_m_without_smoothing(tmp_path, monkeypatch, capsys):
    # the raw periodogram has no truncation point: --m, given or from MPLM_M,
    # is an error there, as a flag its method does not take is for estimate
    series = tmp_path / "s.csv"
    run_cli(["simulate", "--model", "mp", "--s", "0.8", "--n", "256",
             "--seed", "9", "--burn-in", "0", "--out", str(series)])
    out = tmp_path / "spec.csv"
    argv = ["spectrum", "--in", str(series), "--out", str(out), "--smooth"]
    capsys.readouterr()
    assert run_cli(argv + ["none", "--m", "50"]) == 1
    assert "--m" in capsys.readouterr().err
    monkeypatch.setenv("MPLM_M", "50")
    assert run_cli(argv + ["none"]) == 1
    assert "--m" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(argv + ["parzen"]) == 0
    manifest = json.loads((tmp_path / "spec.csv.manifest.json").read_text())
    assert manifest["parameters"]["m"] == 50


def test_spec_file_rejects_unknown_keys(tmp_path, capsys):
    for typo in ("replicatons=3", "r=3"):
        spec = tmp_path / "run.spec"
        spec.write_text(f"s=0.8\nn=256\nmethods=perio\n{typo}\n")
        out_dir = tmp_path / "out"
        assert run_cli(["montecarlo", "--spec", str(spec), "--out-dir", str(out_dir),
                        "--threads", "1"]) == 1
        key = typo.split("=")[0]
        assert f"{spec}:4: unknown spec key {key!r}" in capsys.readouterr().err
        assert not out_dir.exists()


def test_spec_file_rejects_a_repeated_key(tmp_path, capsys):
    # the last copy once won silently: this spec wrote only the s = 0.8 row
    spec = tmp_path / "run.spec"
    spec.write_text("s=0.6\nn=2048\nmethods=perio\nreplications=2\ns=0.8\n")
    out_dir = tmp_path / "out"
    assert run_cli(["montecarlo", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
    assert f"{spec}:5: repeated spec key 's'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_spec_file_with_a_repeated_value_exits_one(tmp_path, capsys):
    spec = tmp_path / "run.spec"
    spec.write_text("s=0.8\nn=2048,2048\nmethods=perio,perio\nreplications=2\n")
    out_dir = tmp_path / "out"
    assert run_cli(["montecarlo", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
    assert "N=2048 is given more than once" in capsys.readouterr().err
    assert not out_dir.exists()


def test_env_values_checked_like_flags(tmp_path, monkeypatch, capsys):
    series = tmp_path / "s.csv"
    run_cli(["simulate", "--model", "mp", "--s", "0.8", "--n", "1024",
             "--seed", "9", "--burn-in", "0", "--out", str(series)])
    cases = (("MPLM_MODEL", ["simulate", "--s", "0.5", "--n", "8"]),
             ("MPLM_SMOOTH", ["spectrum", "--in", str(series)]),
             ("MPLM_METHOD", ["estimate", "--in", str(series)]),
             ("MPLM_PRESET", ["montecarlo", "--out-dir", str(tmp_path / "mc")]))
    for key, argv in cases:
        with monkeypatch.context() as patch:
            patch.setenv(key, "bogus")
            assert run_cli(argv) == 1, key
        assert "bogus" in capsys.readouterr().err
    # a false MPLM_JSON leaves the plain one-line report on
    monkeypatch.setenv("MPLM_JSON", "0")
    assert run_cli(["estimate", "--method", "perio", "--in", str(series)]) == 0
    assert capsys.readouterr().out.startswith("perio: s_hat=")


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_exit_zero(flag, capsys):
    assert run_cli([flag]) == 0
    assert capsys.readouterr().out.startswith("mplm " if flag == "--version" else "usage: mplm")


def test_runtime_failure_exits_two(monkeypatch, capsys):
    def fail(*args):
        raise RuntimeError("simulator broke")

    monkeypatch.setattr(cli, "simulate_mp", fail)
    assert run_cli(["simulate", "--s", "0.8", "--n", "8"]) == 2
    err = capsys.readouterr().err
    assert "runtime failure: simulator broke" in err
    assert "manifest" not in err and "subcommand" not in err


def test_spectrum_without_smoothing_writes_the_periodogram(tmp_path):
    series = tmp_path / "s.csv"
    run_cli(["simulate", "--s", "0.8", "--n", "300", "--seed", "9", "--burn-in", "0",
             "--out", str(series)])
    out = tmp_path / "per.csv"
    assert run_cli(["spectrum", "--in", str(series), "--smooth", "none", "--out", str(out)]) == 0
    x = cli._read_series(str(series))
    freqs = 2.0 * np.pi * np.arange(1, x.size + 1) / x.size  # h = 1..N; h = N aliases 0
    assert out.read_text().splitlines() == ["omega,ordinate"] + [
        f"{w:.17g},{v:.17g}" for w, v in zip(freqs, periodogram(x))]
    manifest = json.loads((tmp_path / "per.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "spectrum" and manifest["parameters"]["m"] is None


def test_header_only_input_exits_one(tmp_path, capsys):
    series = tmp_path / "empty.csv"
    series.write_text("t,x\n\n")
    assert run_cli(["estimate", "--method", "perio", "--in", str(series)]) == 1
    assert f"no numeric data in {series}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["s=0.8\nn 256\nmethods=perio\n", "s=0.8\nmethods=perio\n"],
                         ids=["no-equals-sign", "no-n"])
def test_spec_file_without_a_key_or_its_equals_sign_exits_one(tmp_path, capsys, text):
    spec = tmp_path / "run.spec"
    spec.write_text(text)
    out_dir = tmp_path / "out"
    assert run_cli(["montecarlo", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
    assert f"mplm: {spec}:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_failed_cell_is_reported_on_stderr(tmp_path, capsys):
    # an observable interval the orbit never visits gives constant rows,
    # which vpmp calls invalid: every replication fails
    spec = tmp_path / "run.spec"
    spec.write_text("s=0.8\nn=1000\nmethods=vpmp\nreplications=4\n"
                    "interval=0.9999999,1.0\n")
    assert run_cli(["montecarlo", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
    assert "cell s=0.8 N=1000 vpmp: failed (4/4 invalid)" in capsys.readouterr().err
    assert (tmp_path / "results.csv").read_text().splitlines()[1].endswith(",4")


def test_interval_needs_two_values(capsys):
    assert run_cli(["simulate", "--s", "0.8", "--n", "8", "--interval", "0.1"]) == 1
    assert "--interval" in capsys.readouterr().err


@pytest.mark.parametrize("argv,env,reason", [
    (["simulate", "--s", "0.8", "--n", "8", "--interval", "0.1"], {},
     "argument --interval: expected lo,hi, got '0.1'"),
    (["simulate", "--s", "0.8", "--n", "8", "--interval", "0.1,x"], {},
     "argument --interval: expected lo,hi, got '0.1,x'"),
    (["simulate", "--s", "0.8", "--n", "8"], {"MPLM_INTERVAL": "0.1,0.5,0.9"},
     "argument --interval: expected lo,hi, got '0.1,0.5,0.9'"),
    (["appendixb", "--s", "0.8", "--grid", "1,x"], {},
     "argument --grid: expected comma-separated integers, got '1,x'"),
], ids=["one-value", "not-a-number", "environment", "grid"])
def test_bad_interval_and_grid_values_give_the_reason(argv, env, reason, monkeypatch, capsys):
    # argparse reports the parser's message, not the name of a private parser
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert reason in err and "_parse_" not in err


def test_spec_file_bad_interval_exits_one(tmp_path, capsys):
    spec = tmp_path / "run.spec"
    spec.write_text("s=0.8\nn=256\nmethods=perio\ninterval=0.1\n")
    assert run_cli(["montecarlo", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "mplm: expected lo,hi, got '0.1'\n"


# ---------------------------------------------------------------------------
# golden CLI runs, recorded before the parser took over the MPLM_ fallback;
# the estimator-layer outputs (spectrum file, estimate report, Monte Carlo
# table) were re-recorded as parsed numbers before the real-input FFT change
# ---------------------------------------------------------------------------

GOLDEN_TOL = 1e-12  # estimator-layer outputs: relative above 1, absolute below
GOLDEN_DIR = Path(__file__).parent / "golden"

# name -> (argv, environment, output files, manifest file or None for stderr);
# "{tmp}" stands for the test's temporary directory, and the calls run in
# order because spectrum and estimate read the series simulate writes
GOLDEN_CALLS = {
    "simulate": (["simulate", "--model", "lbp", "--gamma", "2.5", "--n", "2048",
                  "--seed", "5", "--burn-in", "10", "--out", "{tmp}/lbp.csv"],
                 {}, ("lbp.csv",), "lbp.csv.manifest.json"),
    "spectrum": (["spectrum", "--in", "{tmp}/lbp.csv", "--smooth", "parzen",
                  "--out", "{tmp}/spec.csv"],
                 {}, ("spec.csv",), "spec.csv.manifest.json"),
    "estimate": (["estimate", "--in", "{tmp}/lbp.csv", "--method", "p",
                  "--freq-index", "2", "--json"],
                 {}, (), None),
    "appendixb": (["appendixb", "--s", "0.8", "--grid", "512,128,1024,256", "--reps", "50",
                   "--seed", "4", "--burn-in", "100", "--out", "{tmp}/scaling.csv"],
                  {}, ("scaling.csv",), "scaling.csv.manifest.json"),
    "montecarlo": (["montecarlo", "--preset", "table53", "--scale", "0.02",
                    "--threads", "1", "--out-dir", "{tmp}/mc"],
                   {}, ("mc/table53.csv",), "mc/manifest.json"),
    "simulate-env": (["simulate", "--model", "mp", "--s", "0.7", "--seed", "3"],
                     {"MPLM_N": "8", "MPLM_INTERVAL": "0.2,0.8", "MPLM_JSON": "1"},
                     (), None),
}


# outputs compared number by number at GOLDEN_TOL instead of byte for byte
NUMERIC_FILES = {"spec.csv", "mc/table53.csv"}
NUMERIC_STDOUT = {"estimate"}


def parse_csv(text):
    """Rows of a CSV file, each cell an int, a float or a string."""
    def token(cell):
        for kind in (int, float):
            try:
                return kind(cell)
            except ValueError:
                pass
        return cell
    return [[token(cell) for cell in line.split(",")] for line in text.splitlines()]


def close_to(got, want):
    """Floats agree within GOLDEN_TOL; everything else, types included, exactly."""
    if isinstance(want, float):
        return type(got) is float and abs(got - want) <= GOLDEN_TOL * max(1.0, abs(want))
    if isinstance(want, (list, tuple)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(map(close_to, got, want)))
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(close_to(got[k], want[k]) for k in want)
    return type(got) is type(want) and got == want


def golden_record(name, tmp_path, monkeypatch, capsys):
    """Exit code, stdout, each output file (a BLAKE2b digest, or its parsed
    numbers for NUMERIC_FILES), and the manifest without its clock fields,
    with the temporary directory as "<tmp>"."""
    argv, env, files, manifest = GOLDEN_CALLS[name]
    with monkeypatch.context() as patch:
        for key, value in env.items():
            patch.setenv(key, value)
        rc = run_cli([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    captured = capsys.readouterr()
    text = captured.err if manifest is None else (tmp_path / manifest).read_text()
    doc = json.loads(text.replace(str(tmp_path), "<tmp>"))
    for key in ("started_utc", "finished_utc", "wall_seconds"):
        doc.pop(key, None)
    outputs = {f: (parse_csv((tmp_path / f).read_text()) if f in NUMERIC_FILES else
                   hashlib.blake2b((tmp_path / f).read_bytes(), digest_size=16).hexdigest())
               for f in files}
    out = json.loads(captured.out) if name in NUMERIC_STDOUT else captured.out
    return rc, out, outputs, doc


GOLDEN_RUNS = {
    "simulate": (0, "", {"lbp.csv": "ee32b35e5642e8713e97994db437fdef"}, {
        "parameters": {"burn_in": 10, "gamma": 2.5, "interval": [0.1, 0.9], "model": "lbp",
                       "n": 2048, "out": "<tmp>/lbp.csv"},
        "seed": 5, "subcommand": "simulate", "tool_version": "0.1.0"}),
    "spectrum": (0, "", {"spec.csv": parse_csv((GOLDEN_DIR / "spec.csv").read_text())}, {
        "parameters": {"in": "<tmp>/lbp.csv", "m": 955, "out": "<tmp>/spec.csv",
                       "smooth": "parzen"},
        "seed": None, "subcommand": "spectrum", "tool_version": "0.1.0"}),
    "estimate": (0,
                 {"diagnostics": {"freq_indices": [2], "origin_ordinate": 0.0},
                  "method": "p", "points_used": 1, "reason": None,
                  "s_hat": 0.48413404341300253, "slope": 0.06554365181653887,
                  "valid": True},
                 {}, {
        "parameters": {"freq_index": 2, "in": "<tmp>/lbp.csv", "method": "p"},
        "seed": None, "subcommand": "estimate", "tool_version": "0.1.0"}),
    "appendixb": (0, "", {"scaling.csv": "a6a5f6eabde0ef68118e07eff1107708"}, {
        "parameters": {"burn_in": 100, "grid": [128, 256, 512, 1024],
                       "out": "<tmp>/scaling.csv", "reps": 50, "s": 0.8},
        "seed": 4, "subcommand": "appendixb", "tool_version": "0.1.0"}),
    "montecarlo": (0, "", {"mc/table53.csv": [
        ["s", "N", "method", "mean", "sd", "mse", "invalid"],
        [0.65, 8192, "wmp-haar", 0.97989228101255288, 0, 0.10882891707166514, 0],
        [0.65, 8192, "wmp-mexhat", 0.71712450391374161, 0, 0.0045056990256659097, 0],
        [0.65, 16384, "wmp-haar", 0.90533769237621908, 0, 0.06519733714801268, 0],
        [0.65, 16384, "wmp-mexhat", 0.70250026361986995, 0, 0.0027562776801558376, 0],
        [0.65, 32768, "wmp-haar", 0.77763911800346508, 0, 0.016291744444702477, 0],
        [0.65, 32768, "wmp-mexhat", 0.68180462427143473, 0, 0.001011534125047134, 0],
        [0.8, 8192, "wmp-haar", 0.96622289567832476, 0, 0.027630051047687221, 0],
        [0.8, 8192, "wmp-mexhat", 0.8295826714123945, 0, 0.00087513444789370028, 0],
        [0.8, 16384, "wmp-haar", 1.0001505273163875, 0, 0.040060233585027978, 0],
        [0.8, 16384, "wmp-mexhat", 0.88357711547187379, 0, 0.0069851342305989172, 0],
        [0.8, 32768, "wmp-haar", 0.94508160874399083, 0, 0.021048673195744425, 0],
        [0.8, 32768, "wmp-mexhat", 0.77740831993509607, 0, 0.00051038400815497963, 0]]}, {
        "output_csv": "<tmp>/mc/table53.csv",
        "parameters": {"burn_in": 0, "interval": [0.1, 0.9],
                       "methods": ["wmp-haar", "wmp-mexhat"], "model": "mp",
                       "n_values": [8192, 16384, 32768], "out_dir": "<tmp>/mc",
                       "preset": "table53", "replications": 1, "s_values": [0.65, 0.8],
                       "scale": 0.02, "spec": None, "threads": 1},
        "seed": 12345, "subcommand": "montecarlo", "tool_version": "0.1.0"}),
    "simulate-env": (0, "t,x\n0,1\n1,1\n2,0\n3,0\n4,0\n5,0\n6,0\n7,0\n", {}, {
        "parameters": {"burn_in": 10000, "interval": [0.2, 0.8], "model": "mp", "n": 8,
                       "out": None, "s": 0.7},
        "seed": 3, "subcommand": "simulate", "tool_version": "0.1.0"}),
}


def test_golden_cli_runs(tmp_path, monkeypatch, capsys):
    for name in GOLDEN_CALLS:
        assert close_to(golden_record(name, tmp_path, monkeypatch, capsys), GOLDEN_RUNS[name]), name


def fresh_python(*args):
    """A new interpreter run with this checkout's package first on its path."""
    src = str(Path(mplm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})


def test_importing_the_cli_draws_no_random_numbers():
    # perfbench's setup_s times this import, and loading numpy.random would add to it
    done = fresh_python("-c", "import sys, mplm.cli; print('numpy.random' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_runs_as_a_module():
    for module in ("mplm", "mplm.cli"):
        done = fresh_python("-m", module, "--version")
        assert done.returncode == 0, (module, done.stderr)
        assert done.stdout == f"mplm {mplm.__version__}\n", module
