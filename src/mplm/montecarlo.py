"""Replication engine and table builder for estimator comparisons.

A run is a grid of cells (s, N, method).  Replication r of a cell draws
its series from a stream keyed by (base seed, model, s, N, method, r), so
results are reproducible and do not depend on the order the cells run in.
Cells run one after another on the calling thread.

A cell simulates its replications as one (replications, N) uint8 array and
estimates every row with one ``estimate_batch`` call, which widens them to
float64 a chunk at a time; row r of that batch equals ``estimate`` on
replication r alone, to rounding (1e-12).

Summaries report mean, standard deviation (R-1 divisor), and
mse = (mean - s)^2 + sd^2 over valid replications; invalid estimates are
counted and excluded, and a cell with more than half of its replications
invalid is marked failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._seeds import derive_seeds
from .dynamics import (
    ObservableSpec,
    _require_gamma,
    _require_run,
    _require_s,
    equivalent_gamma,
    simulate_lbp_batch,
    simulate_markov_batch,
    simulate_mp_batch,
)
# perfbench/tracer.py wraps montecarlo.simulate_markov and perfbench/selfcheck.py
# looks it up, so the name stays importable here; no cell calls it
from .dynamics import simulate_markov  # noqa: F401
from .estimators import check_length, estimate_batch
# perfbench/tracer.py wraps montecarlo.estimate and perfbench/selfcheck.py
# looks it up, so the name stays importable here; no cell calls it
from .estimators import estimate  # noqa: F401

DEFAULT_BASE_SEED = 12345

_MODELS = ("mp", "lbp", "markov")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of a Monte Carlo run."""

    s_values: tuple[float, ...]
    n_values: tuple[int, ...]
    methods: tuple[str, ...]
    replications: int
    base_seed: int = DEFAULT_BASE_SEED
    model: str = "mp"
    observable: ObservableSpec = ObservableSpec()
    burn_in: int = 10_000

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError(f"need at least one replication, got {self.replications}")
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}, got {self.model!r}")
        if not self.s_values or not self.n_values or not self.methods:
            raise ValueError("s_values, n_values, and methods must all be nonempty")
        # a repeated value repeats its cells' streams, so their rows too
        for name, values in (("s", self.s_values), ("N", self.n_values), ("method", self.methods)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name}={repeated[0]} is given more than once; "
                                 f"each cell must be distinct")
        if min(self.n_values) < 1:
            raise ValueError(f"series lengths must be positive, got {list(self.n_values)}")
        # the burn-in, every cell's exponent and every (length, method) pair
        # must pass the simulator's and the method's checks before anything
        # is simulated, not when the grid reaches that cell
        for n in self.n_values:
            _require_run(n, self.burn_in)
        for s in self.s_values:
            try:
                if self.model == "mp":
                    _require_s(s)
                else:
                    _require_gamma(equivalent_gamma(s))
            except ValueError as exc:
                raise ValueError(f"cell s={s}, model={self.model}: {exc}") from None
        for n in self.n_values:
            for method in self.methods:
                try:
                    check_length(method, n)
                except ValueError as exc:
                    raise ValueError(f"cell N={n}, method={method}: {exc}") from None

    def cells(self):
        for s in self.s_values:
            for n in self.n_values:
                for method in self.methods:
                    yield s, n, method


@dataclass(frozen=True)
class McSummary:
    """Per-cell summary over valid replications."""

    s: float
    n: int
    method: str
    mean_s_hat: float
    sd_s_hat: float
    mse_s_hat: float
    invalid_count: int
    replications: int
    failed: bool


def replication_seeds(base_seed: int, model: str, s: float, n: int,
                      method: str, count: int) -> list[int]:
    """Stream keys of replications 0 .. count - 1; distinct tuples never share a stream."""
    return derive_seeds(base_seed, model, float(s), int(n), method, count=count)


def mse_value(mean: float, sd: float, true_s: float) -> float:
    """Adopted convention: squared bias plus squared standard deviation."""
    return (mean - true_s) ** 2 + sd**2


def summarize(values, true_s: float) -> tuple[float, float, float]:
    """(mean, sd, mse) of estimates against the true parameter.

    sd uses the R-1 divisor and is 0 for a single replication.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("no values to summarize")
    mean = float(v.mean())
    sd = float(v.std(ddof=1)) if v.size > 1 else 0.0
    return mean, sd, mse_value(mean, sd, true_s)


def _simulate_cell(spec: ExperimentSpec, s: float, n: int, seeds) -> np.ndarray:
    if spec.model == "mp":
        return simulate_mp_batch(s, n, seeds, spec.burn_in, spec.observable, np.uint8)
    if spec.model == "lbp":
        return simulate_lbp_batch(equivalent_gamma(s), n, seeds, spec.burn_in, spec.observable,
                                  np.uint8)
    return simulate_markov_batch(equivalent_gamma(s), n, seeds, np.uint8)


def _run_cell(spec: ExperimentSpec, s: float, n: int, method: str) -> McSummary:
    seeds = replication_seeds(spec.base_seed, spec.model, s, n, method, spec.replications)
    batch = estimate_batch(_simulate_cell(spec, s, n, seeds), method)
    usable = batch.valid & np.isfinite(batch.s_hat)
    invalid = int(np.count_nonzero(~usable))
    failed = invalid > spec.replications // 2
    if usable.any():
        mean, sd, mse = summarize(batch.s_hat[usable], s)
    else:
        mean = sd = mse = float("nan")
        failed = True
    return McSummary(s, n, method, mean, sd, mse, invalid, spec.replications, failed)


def run_experiment(spec: ExperimentSpec, threads: int | None = None) -> list[McSummary]:
    """Evaluate every cell of the grid in order on the calling thread.

    ``threads`` has no effect: it is accepted for callers that pass it and
    checked to be at least 1.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    return [_run_cell(spec, *cell) for cell in spec.cells()]


def write_summaries_csv(summaries, path) -> None:
    """CSV with header s,N,method,mean,sd,mse,invalid; LF endings."""
    with open(path, "w", newline="\n") as handle:
        handle.write("s,N,method,mean,sd,mse,invalid\n")
        for row in summaries:
            handle.write(
                f"{row.s:.17g},{row.n},{row.method},{row.mean_s_hat:.17g},"
                f"{row.sd_s_hat:.17g},{row.mse_s_hat:.17g},{row.invalid_count}\n"
            )


_LONG_METHODS = ("perio", "parzen", "cos1", "cos2", "varmp", "vpmp")
_WAVELET_METHODS = ("wmp-haar", "wmp-mexhat")

# Presets follow the strict reference protocol: the start point is drawn
# uniformly and iteration begins immediately (no burn-in).
PRESETS: dict[str, ExperimentSpec] = {
    "table51": ExperimentSpec((0.60, 0.65), (10_000, 20_000, 30_000), _LONG_METHODS, 200, burn_in=0),
    "table52": ExperimentSpec((0.80,), (10_000, 20_000, 30_000), _LONG_METHODS, 200, burn_in=0),
    "table53": ExperimentSpec((0.65, 0.80), (8_192, 16_384, 32_768), _WAVELET_METHODS, 50, burn_in=0),
    "table54": ExperimentSpec((1.0, 1.1, 1.2, 1.3), (32_768,), _WAVELET_METHODS, 50, burn_in=0),
    "table71": ExperimentSpec((0.35, 0.40, 0.45), (10_000, 30_000), ("p", "sp"), 200, burn_in=0),
}


def preset_experiment(name: str, scale: float = 1.0,
                      base_seed: int = DEFAULT_BASE_SEED) -> ExperimentSpec:
    """Named grid, with replications scaled down for desk-size runs."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {scale}")
    spec = PRESETS[name]
    reps = max(1, int(math.floor(spec.replications * scale + 0.5)))
    return replace(spec, replications=reps, base_seed=base_seed)
