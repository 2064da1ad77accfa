"""The benchmark's workloads: inputs made from a seed, one timed pass, and the
pass's outputs as records that can be compared with a reference.

Every workload is a closed loop with one caller: a pass starts only after
the previous one returned.  Each CLI call passes ``--threads`` explicitly,
because the CLI default starts min(32, nproc + 4) pool threads.

A pass returns its outputs and its timings.  The outputs map a label to
``{"ops": n, "records": [...]}``; a record is ``[key, floats, ops]``: ``key``
is compared exactly, ``floats`` within a tolerance, and ``ops`` is how many
operations the record stands for.  ``floats`` is ``None`` when the
operation raised.  The timings are ``(unit, wall_s, cpu_s)`` for each timed
unit: a CLI call, or one estimate in the corpus, keyed by its (s, N,
method) cell and whether it was valid (an invalid estimate may leave
early, so it is timed apart).
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

METHODS = ("perio", "parzen", "cos1", "cos2", "varmp", "vpmp",
           "wmp-haar", "wmp-mexhat", "p", "sp")
CORPUS_N = (8192, 30000, 32768)


def import_program():
    """Import ``mplm`` from the checkout's ``src/``, never from site-packages."""
    package = SRC / "mplm"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import mplm.cli

    if Path(mplm.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported mplm from {mplm.__file__}, not {package}")
    return mplm


class Clock:
    """Wall and process CPU seconds since creation."""

    def __init__(self):
        self.wall, self.cpu = time.perf_counter(), time.process_time()

    def read(self) -> tuple[float, float]:
        return time.perf_counter() - self.wall, time.process_time() - self.cpu


@dataclass(frozen=True)
class Grid:
    """Monte Carlo grid; one op is one (replication, method) estimate."""

    s: tuple[float, ...]
    n: tuple[int, ...]
    methods: tuple[str, ...]
    reps: int

    @property
    def ops(self) -> int:
        return len(self.s) * len(self.n) * len(self.methods) * self.reps


def _summary_records(path: Path, reps: int) -> list:
    lines = path.read_text().splitlines()
    if lines[0] != "s,N,method,mean,sd,mse,invalid":
        raise ValueError(f"unexpected CSV header {lines[0]!r} in {path}")
    records = []
    for line in lines[1:]:
        s, n, method, mean, sd, mse, invalid = line.split(",")
        records.append([[s, n, method, invalid], [float(mean), float(sd), float(mse)], reps])
    return records


@dataclass(frozen=True)
class MonteCarloJob:
    """``mplm montecarlo`` on a preset, or on spec files written from ``grid``.

    With ``per_cell`` a spec job makes one call per (s, N, method) cell, so
    a pass holds shorter timed units; a pool has one cell to run, so use it
    on one thread only.  Replication seeds are keyed by the cell, so the
    outputs are those of one call on the whole grid.
    """

    label: str
    grid: Grid
    threads: int
    preset: str | None = None
    scale: float = 1.0
    model: str = "mp"
    per_cell: bool = False

    @property
    def ops(self) -> int:
        return self.grid.ops

    def _specs(self) -> list[Grid]:
        if not self.per_cell:
            return [self.grid]
        return [Grid((s,), (n,), (m,), self.grid.reps)
                for s in self.grid.s for n in self.grid.n for m in self.grid.methods]

    def prepare(self, seed: int, workdir: Path) -> list[list[str]]:
        """The CLI calls of the job, each an argv."""
        tail = ["--threads", str(self.threads), "--out-dir"]
        if self.preset is not None:
            return [["montecarlo", "--preset", self.preset, "--scale", repr(self.scale),
                     "--seed", str(seed), *tail, str(workdir)]]
        calls = []
        for i, grid in enumerate(self._specs()):
            specdir = workdir / f"spec{i}"
            specdir.mkdir()
            spec = specdir / "spec.txt"
            spec.write_text(
                f"model={self.model}\n"
                f"s={','.join(repr(s) for s in grid.s)}\n"
                f"n={','.join(str(n) for n in grid.n)}\n"
                f"methods={','.join(grid.methods)}\n"
                f"replications={grid.reps}\nseed={seed}\nburn_in=0\n"
            )
            calls.append(["montecarlo", "--spec", str(spec), *tail, str(specdir)])
        return calls

    def records(self, workdir: Path) -> list:
        if self.preset is not None:
            return _summary_records(workdir / f"{self.preset}.csv", self.grid.reps)
        return [rec for i in range(len(self._specs()))
                for rec in _summary_records(workdir / f"spec{i}" / "results.csv", self.grid.reps)]


@dataclass(frozen=True)
class AppendixBJob:
    """``mplm appendixb``; one op is one simulated replication."""

    label: str
    s: float
    lengths: tuple[int, ...]
    reps: int
    burn_in: int

    @property
    def ops(self) -> int:
        return len(self.lengths) * self.reps

    def prepare(self, seed: int, workdir: Path) -> list[list[str]]:
        return [["appendixb", "--s", repr(self.s), "--grid", ",".join(map(str, self.lengths)),
                 "--reps", str(self.reps), "--burn-in", str(self.burn_in),
                 "--seed", str(seed), "--out", str(workdir / "scaling.csv")]]

    def records(self, workdir: Path) -> list:
        lines = (workdir / "scaling.csv").read_text().splitlines()
        if lines[0] != "N,var,log_var" or not lines[-1].startswith("# "):
            raise ValueError("unexpected appendixb output layout")
        records = []
        for line in lines[1:-1]:
            n, var, log_var = line.split(",")
            records.append([[n], [float(var), float(log_var)], self.reps])
        fit = json.loads(lines[-1][2:])
        records.append([["fit"], [fit["exponent"], fit["intercept"]], self.ops])
        return records


@dataclass(frozen=True)
class CliWorkload:
    """A sequence of CLI jobs, each run through ``mplm.cli.main`` in-process."""

    name: str
    threads: int
    jobs: tuple
    # (model, s) pairs whose lazy tables the workload fills on first use
    tables: tuple = ()

    @property
    def ops(self) -> int:
        return sum(job.ops for job in self.jobs)

    def prepare(self, seed: int, workdir: Path):
        state = []
        for job in self.jobs:
            jobdir = workdir / job.label
            jobdir.mkdir()
            state.append((job, job.prepare(seed, jobdir), jobdir))
        return state

    def run_pass(self, state) -> tuple[dict, list]:
        from mplm import cli

        outputs, timings = {}, []
        for job, calls, jobdir in state:
            records = None
            try:
                for i, argv in enumerate(calls):
                    clock = Clock()
                    code = cli.main(argv)
                    timings.append(((job.label, i), *clock.read()))
                    if code != 0:
                        raise RuntimeError(f"mplm {' '.join(argv)} exited with {code}")
                records = job.records(jobdir)
            except Exception:  # noqa: BLE001 - a failed job counts its ops as failed
                traceback.print_exc()
            outputs[job.label] = {"ops": job.ops, "records": records}
        return outputs, timings


@dataclass(frozen=True)
class CorpusWorkload:
    """Every method on every row of an mp corpus, through ``estimators.estimate``."""

    name: str
    s: tuple[float, ...]
    n: tuple[int, ...]
    rows: int
    threads: int = 1
    tables: tuple = ()

    @property
    def ops(self) -> int:
        return len(self.s) * len(self.n) * self.rows * len(METHODS)

    def prepare(self, seed: int, workdir: Path):
        """Corpus rows, made before timing; one simulated batch per s value.

        With no burn-in a row's prefix is the shorter series of the same
        stream, so each (s, N) cell takes its own ``rows`` streams from one
        batch of length max(N).
        """
        import numpy as np
        from mplm import dynamics
        from mplm._seeds import derive_seed

        corpus = []
        for s in self.s:
            seeds = [derive_seed(seed, "perfbench-corpus", s, r)
                     for r in range(self.rows * len(self.n))]
            batch = dynamics.simulate_mp_batch(s, max(self.n), seeds, burn_in=0)
            for i, n in enumerate(self.n):
                cell = np.ascontiguousarray(batch[i * self.rows:(i + 1) * self.rows, :n])
                corpus.append((s, n, cell))
        return corpus

    def run_pass(self, corpus) -> tuple[dict, list]:
        from mplm import estimators

        records, timings = [None] * self.ops, []
        # Rows outermost, so each (s, N, method) unit is timed all through
        # the pass; records keep the cell-major order of the reference.
        for r in range(self.rows):
            for c, (s, n, cell) in enumerate(corpus):
                for m, method in enumerate(METHODS):
                    i = (c * self.rows + r) * len(METHODS) + m
                    clock = Clock()
                    try:
                        result = estimators.estimate(cell[r], method)
                    except Exception:  # noqa: BLE001 - a raising estimate is a failed op
                        traceback.print_exc()
                        records[i] = [[s, n, r, method, None], None, 1]
                        continue
                    timings.append(((s, n, method, bool(result.valid)), *clock.read()))
                    records[i] = [[s, n, r, method, bool(result.valid)],
                                  [float(result.s_hat)], 1]
        return {"corpus": {"ops": self.ops, "records": records}}, timings


def fill_tables(workload) -> None:
    """Fill the lazy tables the workload uses, through the public simulators."""
    from mplm import dynamics

    for model, s in workload.tables:
        gamma = dynamics.equivalent_gamma(s)
        if model == "lbp":
            dynamics.simulate_lbp(gamma, 1, 0, burn_in=0)
        else:
            dynamics.markov_stationary(gamma, 0)
            dynamics.simulate_markov(gamma, 4096, 0)


# sim-models runs each simulator path at a tenth of the paper's lengths, and
# appendixb at a short grid and burn-in, so every CLI call takes well under
# 0.2 s and a run holds dozens of samples of each (see README.md, Steadiness)
_SIM_S = (0.65, 0.8)
_SIM_N = (1_000, 3_000)
_SIM_METHODS = ("perio",)
_TABLE51 = Grid((0.60, 0.65), (10_000, 20_000, 30_000),
                ("perio", "parzen", "cos1", "cos2", "varmp", "vpmp"), 50)


def workloads(tiny: bool = False) -> dict:
    """The benchmark's workloads; ``tiny`` keeps their shape at toy sizes."""
    if tiny:
        table51 = MonteCarloJob("table51", Grid(_TABLE51.s, (1024, 2048), _TABLE51.methods, 2), 2)
        appendixb = AppendixBJob("appendixb", 0.8, (64, 128, 256, 512), 50, 100)
        sim_grid = Grid(_SIM_S, (256, 512), _SIM_METHODS, 3)
        mp_grid, lbp_grid, markov_grid = sim_grid, sim_grid, sim_grid
        corpus = dict(s=(0.4, 1.3), n=(1024, 1500), rows=2)
    else:
        table51 = MonteCarloJob("table51", _TABLE51, 2, preset="table51", scale=0.25)
        appendixb = AppendixBJob("appendixb", 0.8, (256, 512, 1024, 2048), 200, 1_000)
        mp_grid = Grid(_TABLE51.s, _SIM_N, _SIM_METHODS, _TABLE51.reps)
        lbp_grid = Grid(_SIM_S, _SIM_N, _SIM_METHODS, 20)
        markov_grid = Grid(_SIM_S, _SIM_N, _SIM_METHODS, 250)
        corpus = dict(s=(0.4, 0.65, 0.8, 1.3), n=CORPUS_N, rows=32)
    tables = tuple((model, s) for model in ("lbp", "markov") for s in _SIM_S)
    return {
        "mc-table51": CliWorkload("mc-table51", 2, (table51,)),
        "estimate-corpus": CorpusWorkload("estimate-corpus", **corpus),
        "sim-models": CliWorkload("sim-models", 1, (
            appendixb,
            MonteCarloJob("mp", mp_grid, 1, per_cell=True),
            MonteCarloJob("lbp", lbp_grid, 1, model="lbp", per_cell=True),
            MonteCarloJob("markov", markov_grid, 1, model="markov", per_cell=True),
        ), tables=tables),
    }
