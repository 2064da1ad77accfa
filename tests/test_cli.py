import json

import numpy as np

from mplm.cli import main


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
                      "--seed", "5", "--burn-in", "10", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 65


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
