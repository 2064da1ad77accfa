"""Milliseconds per series of each estimator, by series length and batch width.

    python3 tools/estimate_layer.py                 # this tree: best of 5
    python3 tools/estimate_layer.py --parent REV    # REV against this tree, median of 21 alternated runs
    python3 tools/estimate_layer.py --quick         # toy size, one run: a smoke check

Each (method, N, width) unit times one method, with its default
configuration, on mp series (s = 0.8, no burn-in) of length N = 8192, 30000
and 32768.  Width 1 is one ``estimate(x, method)`` call per series, as the
``estimate-corpus`` workload makes them, over ``SINGLES`` series; width 50
is one ``estimate_batch`` call on a 50-row array, as a Monte Carlo cell
makes it.  The unit's time is divided by its number of series.  The series
are simulated once, by this tree, and both trees estimate the same ones.

With ``--parent REV`` the ``src/mplm`` of ``git archive REV`` is loaded into
the same process as the package ``mplm_parent`` (``sim_layer.load_parent``);
each unit then runs the two trees back to back ``RUNS_PAIRED`` times, the
parent first in even runs, and the medians count.

Prints one JSON object: the settings and ``ms_per_series[method][N][width]``
(with ``--parent`` also ``parent_ms_per_series`` and ``ratio``, this tree
over the parent).
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
import warnings
from pathlib import Path

from sim_layer import load_parent  # importing sim_layer puts src/ on sys.path

from mplm import dynamics, estimators

LENGTHS = (8192, 30000, 32768)  # the per-layer lengths of the benchmark's tracer
WIDTHS = (1, 50)  # one series per call (the corpus), one Monte Carlo cell per call
SINGLES = 5  # series timed one call at a time for width 1
S = 0.8
RUNS = 5  # runs per unit on one tree; the best counts
RUNS_PAIRED = 21  # runs per unit and tree with --parent; the medians count


def estimate(module, method: str, rows, width: int) -> float:
    """Seconds per series of ``module`` (an ``estimators``) on ``rows`` at ``width``."""
    start = time.perf_counter()
    if width == 1:
        for row in rows[:SINGLES]:
            module.estimate(row, method)
        count = min(SINGLES, len(rows))
    else:
        module.estimate_batch(rows[:width], method)
        count = width
    return (time.perf_counter() - start) / count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="REV",
                        help="also time the estimators of this git revision, alternated")
    parser.add_argument("--quick", action="store_true", help="N = 2048, widths 1 and 3, one run")
    args = parser.parse_args(argv)
    paired = args.parent is not None
    stat = statistics.median if paired else min
    lengths, widths, runs = ((2048,), (1, 3), 1) if args.quick else (
        LENGTHS, WIDTHS, RUNS_PAIRED if paired else RUNS)
    warnings.simplefilter("ignore")  # the Mexican-hat ladder's truncation notice
    with tempfile.TemporaryDirectory() as tmp:
        modules = ([load_parent(args.parent, Path(tmp), "estimators"), estimators] if paired
                   else [estimators])
        tables = [{method: {} for method in estimators.METHOD_NAMES} for _ in modules]
        for n in lengths:
            rows = dynamics.simulate_mp_batch(S, n, range(1000, 1000 + max(widths)), burn_in=0)
            for method in estimators.METHOD_NAMES:
                for module in modules:  # fill the cached tables before timing
                    module.estimate_batch(rows[:2], method)
                for w in widths:
                    times = [[] for _ in modules]
                    for r in range(runs):
                        order = range(len(modules)) if r % 2 == 0 else reversed(range(len(modules)))
                        for m in order:
                            times[m].append(estimate(modules[m], method, rows, w))
                    for table, samples in zip(tables, times):
                        table[method].setdefault(str(n), {})[str(w)] = round(stat(samples) * 1e3, 4)
    result = {"s": S, "burn_in": 0, "runs": runs, "singles": SINGLES,
              "unit": f"ms per series, {'median' if paired else 'best'} of runs",
              "ms_per_series": tables[-1]}
    if paired:
        result["parent"] = args.parent
        result["parent_ms_per_series"] = tables[0]
        result["ratio"] = {method: {n: {w: round(v / tables[0][method][n][w], 3)
                                        for w, v in row.items()}
                                    for n, row in by_n.items()}
                           for method, by_n in tables[-1].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
