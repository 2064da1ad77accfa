"""Per-layer timings: the batch simulators, the estimators and the table51 cells.

    python3 tools/layers.py [sim|estimate|cells]    # this tree, best of runs; no layer: all three
    python3 tools/layers.py LAYER --parent REV      # REV against this tree, median of paired runs
    python3 tools/layers.py LAYER --quick           # toy size, one run: a smoke check

Each layer prints one JSON line: its settings and a table of one number per
unit (with ``--parent`` also ``parent_<table>`` and ``ratio``, this tree over
the parent).

* ``sim``, ``ns_per_sample[model][s][width]``: ``simulate_{mp,lbp,markov}_batch``
  on ``width`` seeds at length N, no burn-in, s = 0.65 and 0.8 (gamma = 1 + 1/s),
  over width * N; ``appendixb`` is ``mp_partial_sums`` on lengths N, N/2, N/4,
  N/8, N, ..., over their sum.
* ``estimate``, ``ms_per_series[method][N][width]``: each method on mp series
  (s = 0.8, no burn-in) made once by this tree; width 1 is one ``estimate``
  call per series, as ``estimate-corpus`` makes them, over ``SINGLES`` series,
  and a wider unit one ``estimate_batch`` call, as a Monte Carlo cell makes it.
* ``cells``, ``ms_per_cell[method][N][s]``: the ``estimate_batch`` call of each
  ``table51`` cell at scale 0.25, in preset order, on the rows the cell
  simulates; ``stalls`` lists the cells whose time per sample is above
  ``STALL`` times their method's fastest.  Run it in a fresh process: a
  stall of a first call is the target.

With ``--parent REV`` the ``src/mplm`` of ``git archive REV`` is imported into
this process as ``mplm_parent``, and each unit runs the two trees back to
back, the parent first in even runs, so a slow spell of the machine falls on both.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import tempfile
import time
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

from bench_pairs import ROOT, checkout

sys.path.insert(0, str(ROOT / "src"))

import mplm  # noqa: E402
from mplm import dynamics, estimators, montecarlo  # noqa: E402

EXPONENTS = (0.65, 0.8)  # the s values of the sim-models cells
SINGLES = 5  # series timed one call at a time for width 1
STALL = 10.0


def load_parent(rev: str, dest: Path):
    """The ``src/mplm`` package of ``rev``, imported as ``mplm_parent``."""
    init = checkout(rev, dest, ("src/mplm",)) / "src" / "mplm" / "__init__.py"
    spec = importlib.util.spec_from_file_location("mplm_parent", init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["mplm_parent"] = package
    spec.loader.exec_module(package)  # which imports its dynamics, estimators, ...
    return package


def grid_lengths(n: int, width: int) -> list[int]:
    return [n >> (r % 4) for r in range(width)]


def simulate(tree, model: str, s: float, n: int, seeds) -> float:
    """Seconds of one batch simulation by ``tree`` (an ``mplm`` package)."""
    start = time.perf_counter()
    if model == "appendixb":
        tree.dynamics.mp_partial_sums(s, grid_lengths(n, len(seeds)), seeds, burn_in=0)
    elif model == "mp":
        tree.dynamics.simulate_mp_batch(s, n, seeds, burn_in=0)
    elif model == "lbp":
        tree.dynamics.simulate_lbp_batch(tree.dynamics.equivalent_gamma(s), n, seeds, burn_in=0)
    else:
        tree.dynamics.simulate_markov_batch(tree.dynamics.equivalent_gamma(s), n, seeds)
    return time.perf_counter() - start


def estimate(tree, method: str, rows, width: int) -> float:
    """Seconds of ``tree`` estimating ``rows[:width]``, or ``rows[:SINGLES]`` one by one."""
    start = time.perf_counter()
    if width == 1:
        for row in rows[:SINGLES]:
            tree.estimators.estimate(row, method)
    else:
        tree.estimators.estimate_batch(rows[:width], method)
    return time.perf_counter() - start


# A layer yields its settings, then its units as (key, size, width, unit,
# scale): ``unit(tree)`` returns seconds, and seconds * scale is the table's unit.

def sim_units(trees, quick):
    n, widths = (300, (2, 5)) if quick else (3000, (20, 50, 200, 1800))
    yield {"n": n, "burn_in": 0}
    for tree in trees:  # fill the cached tables before timing
        for model in ("lbp", "markov"):
            for s in EXPONENTS:
                simulate(tree, model, s, 1, [0])
    for model in ("mp", "lbp", "markov", "appendixb"):
        for s in EXPONENTS:
            for w in widths:
                samples = sum(grid_lengths(n, w)) if model == "appendixb" else w * n
                run = partial(simulate, model=model, s=s, n=n, seeds=list(range(1000, 1000 + w)))
                yield model, s, w, run, 1e9 / samples


def estimate_units(trees, quick):
    lengths, widths = ((2048,), (1, 3)) if quick else ((8192, 30000, 32768), (1, 50))
    yield {"s": 0.8, "burn_in": 0, "singles": SINGLES}
    for n in lengths:
        rows = dynamics.simulate_mp_batch(0.8, n, range(1000, 1000 + max(widths)), burn_in=0)
        for method in estimators.METHOD_NAMES:
            for tree in trees:  # fill the cached tables before timing
                tree.estimators.estimate_batch(rows[:2], method)
            for w in widths:
                run = partial(estimate, method=method, rows=rows, width=w)
                yield method, n, w, run, 1e3 / (min(SINGLES, len(rows)) if w == 1 else w)


def cell_units(trees, quick):
    spec = montecarlo.preset_experiment("table51", 0.01 if quick else 0.25)
    spec = replace(spec, n_values=(2048, 4096)) if quick else spec
    yield {"preset": "table51", "replications": spec.replications}
    for s, n, method in spec.cells():
        seeds = montecarlo.replication_seeds(spec.base_seed, spec.model, s, n, method,
                                             spec.replications)
        rows = montecarlo._simulate_cell(spec, s, n, seeds)
        yield method, n, s, partial(estimate, method=method, rows=rows, width=len(rows)), 1e3


def stalls(table) -> list[str]:
    """The cells of ``ms_per_cell`` slower per sample than ``STALL`` times their method's fastest.

    Every cell has the same rows, so ms / N ranks them per sample; a median
    would hide a stall that hits half or more of a method's cells.
    """
    out = []
    for method, by_n in table.items():
        cells = [(n, s, ms) for n, by_s in by_n.items() for s, ms in by_s.items()]
        fastest = min(ms / int(n) for n, _, ms in cells)
        out += [f"{method} N={n} s={s}: {ms} ms" for n, s, ms in cells
                if ms / int(n) > STALL * fastest]
    return out


# layer -> (units, table, unit, decimals, runs per tree alone, runs per tree with --parent)
LAYERS = {
    "sim": (sim_units, "ns_per_sample", "ns per sample", 1, 5, 27),
    "estimate": (estimate_units, "ms_per_series", "ms per series", 4, 5, 21),
    "cells": (cell_units, "ms_per_cell", "ms per cell", 3, 1, 1),
}


def measure(layer: str, trees, quick: bool) -> dict:
    """The JSON object of ``layer``: the table of the last tree, and of the first when two."""
    make_units, name, unit, decimals, runs, runs_paired = LAYERS[layer]
    paired = len(trees) > 1
    runs = 1 if quick else runs_paired if paired else runs
    stat = statistics.median if paired else min
    units = make_units(trees, quick)
    result = {**next(units), "runs": runs,
              "unit": f"{unit}, {'median' if paired else 'best'} of runs"}
    tables = [{} for _ in trees]
    for key, size, width, run, scale in units:
        times = [[] for _ in trees]
        for r in range(runs):
            for i in (range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))):
                times[i].append(run(trees[i]))
        for table, seconds in zip(tables, times):
            table.setdefault(key, {}).setdefault(str(size), {})[str(width)] = \
                round(stat(seconds) * scale, decimals)
    result[name] = tables[-1]
    if paired:
        result[f"parent_{name}"] = tables[0]
        result["ratio"] = {key: {size: {w: round(v / tables[0][key][size][w], 3)
                                        for w, v in row.items()}
                                 for size, row in by_size.items()}
                           for key, by_size in tables[-1].items()}
    if layer == "cells":
        result["stalls"] = stalls(tables[-1])
        if paired:
            result["parent_stalls"] = stalls(tables[0])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layer", nargs="?", choices=tuple(LAYERS), help="the layer (default: all)")
    parser.add_argument("--parent", metavar="REV",
                        help="also time this git revision's src/mplm, alternated")
    parser.add_argument("--quick", action="store_true", help="toy sizes, one run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the Mexican-hat ladder's truncation notice
        trees = [mplm] if args.parent is None else [load_parent(args.parent, Path(tmp, "p")), mplm]
        for layer in [args.layer] if args.layer else LAYERS:
            result = measure(layer, trees, args.quick)
            if args.parent is not None:
                result["parent"] = args.parent
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
