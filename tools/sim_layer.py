"""Nanoseconds per sample of the batch simulators, by model and batch width.

    python3 tools/sim_layer.py                 # this tree: widths 20/50/200/1800, N = 3000, best of 5
    python3 tools/sim_layer.py --parent REV    # REV against this tree, median of 27 alternated runs
    python3 tools/sim_layer.py --quick         # toy size, one run: a smoke check

Each (model, s, width) unit times ``simulate_{mp,lbp,markov}_batch`` on
``width`` seeds at length N with no burn-in, for s = 0.65 and 0.8 (the lbp
and markov models at gamma = 1 + 1/s), and divides by width * N.  The
``appendixb`` unit times the partial-sum path of ``mplm appendixb``,
``mp_partial_sums`` on ``width`` seeds whose lengths cycle through N, N/2,
N/4 and N/8, and divides by the sum of the lengths; a tree without
``mp_partial_sums`` runs one ``simulate_mp_batch`` per length and sums its
rows, as ``scaling_exponent`` did before it.  The program is imported from
the ``src/`` next to this script.

With ``--parent REV`` the ``src/mplm`` of ``git archive REV`` is loaded
into the same process as the package ``mplm_parent``; each unit then runs
the two trees back to back ``RUNS_PAIRED`` times, the parent first in even
runs, and the medians count, so a slow spell of the machine falls on both.

Prints one JSON object: the settings and ``ns_per_sample[model][s][width]``
(with ``--parent`` also ``parent_ns_per_sample`` and ``ratio``, this tree
over the parent).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mplm import dynamics  # noqa: E402

MODELS = ("mp", "lbp", "markov", "appendixb")
EXPONENTS = (0.65, 0.8)  # the s values of the sim-models cells
WIDTHS = (20, 50, 200, 1800)
N = 3000
RUNS = 5  # runs per unit on one tree; the best counts
RUNS_PAIRED = 27  # runs per unit and tree with --parent; the medians count


def load_parent(rev: str, dest: Path):
    """The ``dynamics`` module of ``src/mplm`` at ``rev``, imported as ``mplm_parent``."""
    archive = subprocess.run(["git", "archive", rev, "src/mplm"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    init = dest / "src" / "mplm" / "__init__.py"
    spec = importlib.util.spec_from_file_location("mplm_parent", init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["mplm_parent"] = package
    spec.loader.exec_module(package)
    return importlib.import_module("mplm_parent.dynamics")


def grid_lengths(n: int, width: int) -> list[int]:
    """The ``appendixb`` unit's lengths: N, N/2, N/4, N/8, N, ... over ``width`` rows."""
    return [n >> (r % 4) for r in range(width)]


def simulate(module, model: str, s: float, n: int, seeds) -> float:
    """Seconds of one batch simulation by ``module`` (a ``dynamics``)."""
    start = time.perf_counter()
    if model == "appendixb":
        lengths = grid_lengths(n, len(seeds))
        if hasattr(module, "mp_partial_sums"):
            module.mp_partial_sums(s, lengths, seeds, burn_in=0)
        else:
            for length in set(lengths):
                rows = [seed for seed, k in zip(seeds, lengths) if k == length]
                module.simulate_mp_batch(s, length, rows, burn_in=0).sum(axis=1)
    elif model == "mp":
        module.simulate_mp_batch(s, n, seeds, burn_in=0)
    elif model == "lbp":
        module.simulate_lbp_batch(module.equivalent_gamma(s), n, seeds, burn_in=0)
    else:
        module.simulate_markov_batch(module.equivalent_gamma(s), n, seeds)
    return time.perf_counter() - start


def unit_times(modules, model: str, s: float, n: int, width: int, runs: int):
    """Per module, the seconds of ``runs`` runs, the modules taking turns to go first."""
    seeds = list(range(1000, 1000 + width))
    times = [[] for _ in modules]
    for r in range(runs):
        order = range(len(modules)) if r % 2 == 0 else reversed(range(len(modules)))
        for m in order:
            times[m].append(simulate(modules[m], model, s, n, seeds))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="REV",
                        help="also time the simulators of this git revision, alternated")
    parser.add_argument("--quick", action="store_true", help="N = 300, widths 2 and 5, one run")
    args = parser.parse_args(argv)
    paired = args.parent is not None
    stat = statistics.median if paired else min
    n, widths, runs = (300, (2, 5), 1) if args.quick else (N, WIDTHS,
                                                           RUNS_PAIRED if paired else RUNS)
    with tempfile.TemporaryDirectory() as tmp:
        modules = [load_parent(args.parent, Path(tmp)), dynamics] if paired else [dynamics]
        for module in modules:  # fill the cached tables before timing
            for model in ("lbp", "markov"):
                for s in EXPONENTS:
                    simulate(module, model, s, 1, [0])
        tables = [{model: {str(s): {} for s in EXPONENTS} for model in MODELS} for _ in modules]
        for model in MODELS:
            for s in EXPONENTS:
                for w in widths:
                    samples = sum(grid_lengths(n, w)) if model == "appendixb" else w * n
                    for table, times in zip(tables, unit_times(modules, model, s, n, w, runs)):
                        table[model][str(s)][str(w)] = round(stat(times) * 1e9 / samples, 1)
    result = {"n": n, "burn_in": 0, "runs": runs,
              "unit": f"ns per sample, {'median' if paired else 'best'} of runs",
              "ns_per_sample": tables[-1]}
    if paired:
        result["parent"] = args.parent
        result["parent_ns_per_sample"] = tables[0]
        result["ratio"] = {model: {s: {w: round(v / tables[0][model][s][w], 3)
                                       for w, v in row.items()}
                                   for s, row in by_s.items()}
                           for model, by_s in tables[-1].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
