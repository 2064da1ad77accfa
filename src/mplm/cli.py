"""Command-line front end: simulate / spectrum / estimate / montecarlo / appendixb.

Configuration precedence is flags, then MPLM_-prefixed environment
variables, then built-in defaults (``--burn-in`` mirrors ``MPLM_BURN_IN``
and so on).  Every run emits a JSON manifest with the full parameter map;
it lands next to the output file (``<out>.manifest.json``), in the output
directory (``manifest.json``), or on stderr when results go to stdout.

Exit codes: 0 success, 1 validation error, 2 runtime failure.  CSV output
uses LF line endings and up to 17 significant digits.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .dynamics import ObservableSpec, simulate_lbp, simulate_markov, simulate_mp
from .estimators import METHOD_NAMES, estimate
from .montecarlo import (
    DEFAULT_BASE_SEED,
    ExperimentSpec,
    PRESETS,
    preset_experiment,
    run_experiment,
    write_summaries_csv,
)
from .partial_sums import mp_generator, scaling_exponent
from .spectral import LagWindowSpec, default_truncation, periodogram, smoothed_periodogram

ENV_PREFIX = "MPLM_"


class _UsageError(Exception):
    """Bad flags or bad flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _parse_bool(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


def _resolve(args, name: str, parse, default, env: str | None = None):
    """Flag value if given, else MPLM_ environment variable, else default."""
    given = getattr(args, name)
    if given is not None and given is not False:
        return given
    key = ENV_PREFIX + (env or name.upper())
    text = os.environ.get(key)
    if text is not None:
        try:
            return parse(text)
        except ValueError as exc:
            raise _UsageError(f"bad {key}={text!r}: {exc}") from exc
    return default


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected lo,hi, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_grid(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _emit_manifest(target, subcommand: str, params: dict, seed, started: str,
                   extra: dict | None = None) -> None:
    doc = {
        "subcommand": subcommand,
        "parameters": {k: v for k, v in sorted(params.items())},
        "seed": seed,
        "tool_version": __version__,
        "started_utc": started,
        "finished_utc": _utc_now(),
    }
    if extra:
        doc.update(extra)
    text = json.dumps(doc, sort_keys=True)
    if target is None:
        print(text, file=sys.stderr)
    else:
        with open(target, "w", newline="\n") as handle:
            handle.write(text + "\n")


def _write_lines(out_path, lines) -> None:
    if out_path is None:
        for line in lines:
            print(line)
    else:
        with open(out_path, "w", newline="\n") as handle:
            for line in lines:
                handle.write(line + "\n")


def _read_series(path: str) -> np.ndarray:
    """Last comma-separated field of each line; line 1 may be a header."""
    if not os.path.exists(path):
        raise _UsageError(f"input file not found: {path}")
    values = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                value = float(line.split(",")[-1])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                value = float("nan")
            if not np.isfinite(value):
                raise _UsageError(f"{path}:{lineno}: not a finite number: {line.strip()!r}")
            values.append(value)
    if not values:
        raise _UsageError(f"no numeric data in {path}")
    return np.asarray(values)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    started = _utc_now()
    model = _resolve(args, "model", str, "mp")
    n = _resolve(args, "n", int, None)
    seed = _resolve(args, "seed", int, 0)
    burn_in = _resolve(args, "burn_in", int, 10_000)
    interval = _resolve(args, "interval", _parse_interval, (0.1, 0.9))
    if n is None:
        raise _UsageError("--n is required")
    if model not in ("mp", "lbp", "markov"):
        raise _UsageError(f"unknown model {model!r}")
    observable = ObservableSpec(interval[0], interval[1])
    out = _resolve(args, "out", str, None)
    if model == "mp":
        s = _resolve(args, "s", float, None)
        if s is None:
            raise _UsageError("--s is required for the mp model")
        series = simulate_mp(s, n, seed, burn_in, observable)
        param = {"s": s}
    else:
        gamma = _resolve(args, "gamma", float, None)
        if gamma is None:
            raise _UsageError(f"--gamma is required for the {model} model")
        if model == "lbp":
            series = simulate_lbp(gamma, n, seed, burn_in, observable)
        else:
            series = simulate_markov(gamma, n, seed)
        param = {"gamma": gamma}

    lines = ["t,x"] + [f"{t},{int(v)}" for t, v in enumerate(series.values)]
    _write_lines(out, lines)
    params = {"model": model, "n": n, "burn_in": burn_in,
              "interval": list(interval), "out": out, **param}
    _emit_manifest(out + ".manifest.json" if out else None,
                   "simulate", params, seed, started)
    return 0


def _cmd_spectrum(args) -> int:
    started = _utc_now()
    smooth = _resolve(args, "smooth", str, "none")
    if smooth not in ("none", "parzen", "cosbell"):
        raise _UsageError(f"unknown smoothing {smooth!r}")
    infile = _resolve(args, "infile", str, None, env="IN")
    out = _resolve(args, "out", str, None)
    if infile is None:
        raise _UsageError("--in is required")
    x = _read_series(infile)
    if smooth == "none":
        per = periodogram(x)
    else:
        m = _resolve(args, "m", int, default_truncation(x.size))
        per = smoothed_periodogram(x, LagWindowSpec(smooth, m))
    lines = ["omega,ordinate"]
    lines += [f"{_fmt(w)},{_fmt(v)}" for w, v in zip(per.freqs, per.ordinates)]
    _write_lines(out, lines)
    params = {"in": infile, "smooth": smooth, "m": per.truncation, "out": out}
    _emit_manifest(out + ".manifest.json" if out else None,
                   "spectrum", params, None, started)
    return 0


def _cmd_estimate(args) -> int:
    started = _utc_now()
    method = _resolve(args, "method", str, None)
    if method is None:
        raise _UsageError("--method is required")
    if method not in METHOD_NAMES:
        raise _UsageError(f"unknown method {method!r}; choose from {', '.join(METHOD_NAMES)}")
    infile = _resolve(args, "infile", str, None, env="IN")
    as_json = _resolve(args, "json", _parse_bool, False)
    if infile is None:
        raise _UsageError("--in is required")
    x = _read_series(infile)
    config = {}
    block_exponent = _resolve(args, "block_exponent", float, None)
    if block_exponent is not None and method == "varmp":
        config["block_exponent"] = block_exponent
    freq_index = _resolve(args, "freq_index", int, None)
    if freq_index is not None and method in ("p", "sp"):
        config["freq_index"] = freq_index
    result = estimate(x, method, **config)
    doc = {
        "method": result.method,
        "s_hat": result.s_hat,
        "slope": result.slope,
        "points_used": result.points_used,
        "valid": result.valid,
        "reason": result.reason,
        "diagnostics": {k: (v if not isinstance(v, (np.floating, np.integer)) else float(v))
                        for k, v in result.diagnostics.items()},
    }
    if as_json:
        print(json.dumps(doc, sort_keys=True, default=str))
    else:
        tag = "" if result.valid else f"  INVALID ({result.reason})"
        print(f"{result.method}: s_hat={_fmt(result.s_hat)}{tag}")
    _emit_manifest(None, "estimate",
                   {"in": infile, "method": method, **config}, None, started)
    return 0


def _spec_from_file(path: str) -> ExperimentSpec:
    if not os.path.exists(path):
        raise _UsageError(f"spec file not found: {path}")
    fields: dict[str, str] = {}
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"bad spec line (want key=value): {line!r}")
            key, value = line.split("=", 1)
            fields[key.strip().lower()] = value.strip()
    try:
        s_values = tuple(float(v) for v in fields["s"].split(","))
        n_values = tuple(int(v) for v in fields["n"].split(","))
        methods = tuple(m.strip() for m in fields["methods"].split(","))
        replications = int(fields.get("replications", fields.get("r", "200")))
    except KeyError as exc:
        raise _UsageError(f"spec file is missing required key: {exc}") from exc
    observable = ObservableSpec(*_parse_interval(fields.get("interval", "0.1,0.9")))
    return ExperimentSpec(
        s_values, n_values, methods, replications,
        base_seed=int(fields.get("seed", DEFAULT_BASE_SEED)),
        model=fields.get("model", "mp"),
        observable=observable,
        burn_in=int(fields.get("burn_in", "0")),
    )


def _cmd_montecarlo(args) -> int:
    started = _utc_now()
    wall_start = time.monotonic()
    out_dir = _resolve(args, "out_dir", str, ".")
    threads = _resolve(args, "threads", int, None)
    preset = _resolve(args, "preset", str, None)
    scale = _resolve(args, "scale", float, 1.0)
    seed = _resolve(args, "seed", int, DEFAULT_BASE_SEED)
    spec_path = _resolve(args, "spec", str, None)
    if preset is not None and spec_path is not None:
        raise _UsageError("give either --preset or --spec, not both")
    if preset is not None:
        if preset not in PRESETS:
            raise _UsageError(f"unknown preset {preset!r}; choose from {', '.join(sorted(PRESETS))}")
        spec = preset_experiment(preset, scale, base_seed=seed)
        name = preset
    elif spec_path is not None:
        spec = _spec_from_file(spec_path)
        name = "results"
    else:
        raise _UsageError("one of --preset or --spec is required")

    os.makedirs(out_dir, exist_ok=True)
    summaries = run_experiment(spec, threads)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    write_summaries_csv(summaries, csv_path)
    for row in summaries:
        if row.failed:
            print(f"cell s={row.s} N={row.n} {row.method}: failed "
                  f"({row.invalid_count}/{row.replications} invalid)", file=sys.stderr)
    params = {
        "preset": preset, "spec": spec_path, "scale": scale, "threads": threads,
        "out_dir": out_dir, "s_values": list(spec.s_values),
        "n_values": list(spec.n_values), "methods": list(spec.methods),
        "replications": spec.replications, "model": spec.model,
        "burn_in": spec.burn_in,
    }
    _emit_manifest(os.path.join(out_dir, "manifest.json"), "montecarlo", params,
                   spec.base_seed, started,
                   extra={"wall_seconds": round(time.monotonic() - wall_start, 3),
                          "output_csv": csv_path})
    return 0


def _cmd_appendixb(args) -> int:
    started = _utc_now()
    s = _resolve(args, "s", float, None)
    if s is None:
        raise _UsageError("--s is required")
    grid = _resolve(args, "grid", _parse_grid, [1024, 2048, 4096, 8192, 16384])
    reps = _resolve(args, "reps", int, 200)
    seed = _resolve(args, "seed", int, 0)
    burn_in = _resolve(args, "burn_in", int, 10_000)
    out = _resolve(args, "out", str, None)
    fit = scaling_exponent(mp_generator(burn_in=burn_in), s, grid, reps, seed)
    lines = ["N,var,log_var"]
    lines += [f"{n},{_fmt(v)},{_fmt(np.log(v))}" for n, v in zip(fit.grid, fit.variances)]
    lines.append("# " + json.dumps({"exponent": fit.exponent, "intercept": fit.intercept},
                                   sort_keys=True))
    _write_lines(out, lines)
    params = {"s": s, "grid": list(map(int, fit.grid)), "reps": reps,
              "burn_in": burn_in, "out": out}
    _emit_manifest(out + ".manifest.json" if out else None,
                   "appendixb", params, seed, started)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="mplm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mplm {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="generate a 0/1 series")
    p.add_argument("--model", choices=("mp", "lbp", "markov"), default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    p.add_argument("--interval", type=_parse_interval, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("spectrum", help="periodogram or smoothed spectrum of a series")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--smooth", choices=("none", "parzen", "cosbell"), default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("estimate", help="estimate the exponent from a series")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--method", choices=METHOD_NAMES, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--block-exponent", dest="block_exponent", type=float, default=None)
    p.add_argument("--freq-index", dest="freq_index", type=int, default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("montecarlo", help="replication study over a grid of cells")
    p.add_argument("--spec", default=None)
    p.add_argument("--preset", default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("appendixb", help="partial-sum variance scaling fit")
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--grid", type=_parse_grid, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_appendixb)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"mplm: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"mplm: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help/--version paths
        code = exc.code
        return 0 if code in (None, 0) else 1
    except Exception as exc:  # noqa: BLE001 - runtime failure boundary
        print(f"mplm: runtime failure: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())
