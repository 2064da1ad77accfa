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
import dataclasses
import datetime
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .dynamics import ObservableSpec, mp_partial_sums, simulate_lbp, simulate_markov, simulate_mp
from .estimators import METHOD_KEYWORDS, METHOD_NAMES, estimate
from .montecarlo import (
    DEFAULT_BASE_SEED,
    ExperimentSpec,
    preset_experiment,
    run_experiment,
    write_summaries_csv,
)
from .partial_sums import scaling_exponent
from .spectral import LagWindowSpec, default_truncation, periodogram, smoothed_periodogram

ENV_PREFIX = "MPLM_"

# model -> the flag that gives its parameter
_MODEL_PARAMETER = {"mp": "s", "lbp": "gamma", "markov": "gamma"}


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a bad flag, so ``main`` exits 1 (argparse exits 2)."""

    def error(self, message):
        raise ValueError(f"{message}\n{self.format_usage()}")


def _flag(parser, env: dict, flag: str, default=None, required: bool = False, **kwargs) -> None:
    """Add ``flag``; an ``MPLM_<FLAG>`` entry of ``env`` replaces its default.

    argparse parses a string default with the flag's ``type``, so an
    environment value is checked like a given flag, ``choices`` excepted.
    """
    text = env.get(ENV_PREFIX + flag[2:].replace("-", "_").upper())
    if text is not None:
        default, required = text, False
    parser.add_argument(flag, default=default, required=required, **kwargs)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


class _BadValue(argparse.ArgumentTypeError, ValueError):
    """A bad flag value: argparse reports its message, and ``main`` exits 1 on it."""


def _parse_interval(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(p) for p in text.split(","))
    except ValueError:
        raise _BadValue(f"expected lo,hi, got {text!r}") from None
    return lo, hi


def _parse_grid(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise _BadValue(f"expected comma-separated integers, got {text!r}") from None


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


def _beside(out):
    """The manifest path next to an output file, or None (stderr) for stdout."""
    return out + ".manifest.json" if out else None


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
                raise ValueError(f"{path}:{lineno}: not a finite number: {line.strip()!r}")
            values.append(value)
    if not values:
        raise ValueError(f"no numeric data in {path}")
    return np.asarray(values)


# ---------------------------------------------------------------------------
# Subcommands: each returns its manifest as (target, params, seed, extra)
# ---------------------------------------------------------------------------


def _cmd_simulate(args):
    if args.model not in _MODEL_PARAMETER:
        raise ValueError(f"unknown model {args.model!r}")
    key = _MODEL_PARAMETER[args.model]
    value = getattr(args, key)
    if value is None:
        raise ValueError(f"--{key} is required for the {args.model} model")
    # the manifest records only the parameters the model takes
    params = {"model": args.model, "n": args.n, "out": args.out, key: value}
    if args.model == "markov":
        series = simulate_markov(value, args.n, args.seed)
    else:
        simulate = simulate_mp if args.model == "mp" else simulate_lbp
        series = simulate(value, args.n, args.seed, args.burn_in, ObservableSpec(*args.interval))
        params.update(burn_in=args.burn_in, interval=list(args.interval))

    _write_lines(args.out, ["t,x"] + [f"{t},{int(v)}" for t, v in enumerate(series)])
    return _beside(args.out), params, args.seed, None


def _cmd_spectrum(args):
    x = _read_series(args.infile)
    m = args.m
    if args.smooth == "none":
        if m is not None:
            raise ValueError("--smooth none does not take --m")
        ordinates = periodogram(x)
    else:
        m = default_truncation(x.size) if m is None else m
        ordinates = smoothed_periodogram(x, LagWindowSpec(args.smooth, m))
    freqs = 2.0 * np.pi * np.arange(1, x.size + 1) / x.size
    lines = ["omega,ordinate"] + [f"{_fmt(w)},{_fmt(v)}" for w, v in zip(freqs, ordinates)]
    _write_lines(args.out, lines)
    params = {"in": args.infile, "smooth": args.smooth, "m": m, "out": args.out}
    return _beside(args.out), params, None, None


def _cmd_estimate(args):
    x = _read_series(args.infile)
    config = {key: getattr(args, key) for key in ("block_exponent", "freq_index")
              if getattr(args, key) is not None}
    rejected = [f"--{key.replace('_', '-')}" for key in config
                if key not in METHOD_KEYWORDS[args.method]]
    if rejected:
        raise ValueError(f"method {args.method} does not take {', '.join(rejected)}")
    result = estimate(x, args.method, **config)
    if args.json:
        print(json.dumps(dataclasses.asdict(result), sort_keys=True, default=str))
    else:
        tag = "" if result.valid else f"  INVALID ({result.reason})"
        print(f"{result.method}: s_hat={_fmt(result.s_hat)}{tag}")
    return None, {"in": args.infile, "method": args.method, **config}, None, None


_SPEC_KEYS = ("s", "n", "methods", "replications", "seed", "model", "burn_in", "interval")


def _spec_from_file(path: str) -> ExperimentSpec:
    fields: dict[str, str] = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip().lower()
            if not sep:
                raise ValueError(f"{path}:{lineno}: bad spec line (want key=value): {line!r}")
            if key not in _SPEC_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown spec key {key!r}; "
                                 f"expected one of {', '.join(_SPEC_KEYS)}")
            if key in fields:
                raise ValueError(f"{path}:{lineno}: repeated spec key {key!r}")
            fields[key] = value.strip()

    def field(key, parse, default=None, many=False):
        text = fields.get(key, default)
        if text is None:
            raise ValueError(f"{path}: spec file is missing required key: {key!r}")
        try:
            return tuple(map(parse, text.split(","))) if many else parse(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {key}={text}: {exc}") from None

    return ExperimentSpec(
        field("s", float, many=True), field("n", int, many=True),
        field("methods", str.strip, many=True), field("replications", int, 200),
        base_seed=field("seed", int, DEFAULT_BASE_SEED),
        model=fields.get("model", "mp"),
        observable=ObservableSpec(*_parse_interval(fields.get("interval", "0.1,0.9"))),
        burn_in=field("burn_in", int, 0),
    )


def _cmd_montecarlo(args):
    wall_start = time.monotonic()
    if (args.preset is None) == (args.spec is None):
        raise ValueError("give exactly one of --preset or --spec")
    if args.preset is not None:
        spec = preset_experiment(args.preset, args.scale, base_seed=args.seed)
        name = args.preset
    else:
        spec = _spec_from_file(args.spec)
        name = "results"

    summaries = run_experiment(spec, args.threads)
    csv_path = os.path.join(args.out_dir, f"{name}.csv")
    os.makedirs(args.out_dir, exist_ok=True)
    write_summaries_csv(summaries, csv_path)
    for row in summaries:
        if row.failed:
            print(f"cell s={row.s} N={row.n} {row.method}: failed "
                  f"({row.invalid_count}/{row.replications} invalid)", file=sys.stderr)
    params = {
        "preset": args.preset, "spec": args.spec, "scale": args.scale,
        "threads": args.threads, "out_dir": args.out_dir, "s_values": list(spec.s_values),
        "n_values": list(spec.n_values), "methods": list(spec.methods),
        "replications": spec.replications, "model": spec.model,
    }
    if spec.model != "markov":  # the chain starts from its stationary law
        params.update(burn_in=spec.burn_in, interval=list(spec.observable.interval))
    extra = {"wall_seconds": round(time.monotonic() - wall_start, 3), "output_csv": csv_path}
    return os.path.join(args.out_dir, "manifest.json"), params, spec.base_seed, extra


def _cmd_appendixb(args):
    fit = scaling_exponent(functools.partial(mp_partial_sums, burn_in=args.burn_in), args.s,
                           args.grid, args.reps, args.seed)
    lines = ["N,var,log_var"]
    lines += [f"{n},{_fmt(v)},{_fmt(np.log(v))}" for n, v in zip(fit.grid, fit.variances)]
    lines.append("# " + json.dumps({"exponent": fit.exponent, "intercept": fit.intercept},
                                   sort_keys=True))
    _write_lines(args.out, lines)
    params = {"s": args.s, "grid": list(map(int, fit.grid)), "reps": args.reps,
              "burn_in": args.burn_in, "out": args.out}
    return _beside(args.out), params, args.seed, None


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _build_parser(env: tuple) -> _Parser:
    """The parser whose defaults come from ``env``, the sorted ``MPLM_*`` variables.

    ``main`` passes the current ones, so a process builds one parser until
    a variable changes.
    """
    env = dict(env)
    parser = _Parser(prog="mplm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mplm {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="generate a 0/1 series")
    _flag(p, env, "--model", "mp", choices=tuple(_MODEL_PARAMETER))
    _flag(p, env, "--s", type=float)
    _flag(p, env, "--gamma", type=float)
    _flag(p, env, "--n", type=int, required=True)
    _flag(p, env, "--seed", 0, type=int)
    _flag(p, env, "--burn-in", 10_000, type=int)
    _flag(p, env, "--interval", (0.1, 0.9), type=_parse_interval)
    _flag(p, env, "--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("spectrum", help="periodogram or smoothed spectrum of a series")
    _flag(p, env, "--in", dest="infile", required=True)
    _flag(p, env, "--smooth", "none", choices=("none", "parzen", "cosbell"))
    _flag(p, env, "--m", type=int)
    _flag(p, env, "--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("estimate", help="estimate the exponent from a series")
    _flag(p, env, "--in", dest="infile", required=True)
    _flag(p, env, "--method", choices=METHOD_NAMES, required=True)
    p.add_argument("--json", action="store_true", default=env.get(
        ENV_PREFIX + "JSON", "").strip().lower() in ("1", "true", "yes", "on"))
    _flag(p, env, "--block-exponent", type=float)
    _flag(p, env, "--freq-index", type=int)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("montecarlo", help="replication study over a grid of cells")
    _flag(p, env, "--spec")
    _flag(p, env, "--preset")
    _flag(p, env, "--scale", 1.0, type=float)
    _flag(p, env, "--seed", DEFAULT_BASE_SEED, type=int)
    _flag(p, env, "--threads", type=int)
    _flag(p, env, "--out-dir", ".")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("appendixb", help="partial-sum variance scaling fit")
    _flag(p, env, "--s", type=float, required=True)
    _flag(p, env, "--grid", (1024, 2048, 4096, 8192, 16384), type=_parse_grid)
    _flag(p, env, "--reps", 200, type=int)
    _flag(p, env, "--seed", 0, type=int)
    _flag(p, env, "--burn-in", 10_000, type=int)
    _flag(p, env, "--out")
    p.set_defaults(func=_cmd_appendixb)

    return parser


def main(argv=None) -> int:
    parser = _build_parser(tuple(sorted(
        item for item in os.environ.items() if item[0].startswith(ENV_PREFIX))))
    try:
        args = parser.parse_args(argv)
        started = _utc_now()
        target, params, seed, extra = args.func(args)
        _emit_manifest(target, args.subcommand, params, seed, started, extra)
        return 0
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


if __name__ == "__main__":
    main_entry()
