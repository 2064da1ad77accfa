"""Traced runs: per-layer spans recorded from outside the program.

``Tracer`` replaces, for the duration of a ``with`` block, the functions
each module calls into with timing wrappers, at the names the caller looks
up (``montecarlo.simulate_mp_batch``, ``estimators.periodogram``, ...).
Nothing inside ``src/`` is edited; on exit every attribute is set back and
checked to be the original object again.

Busy time is the sum of span durations, in thread-seconds: with a pool of
k threads, spans inside ``run_experiment`` can add up to k times its wall.
Hence ``montecarlo.self_s`` is the pool's capacity (wall x k) minus the
simulate and estimate spans inside it, and ``pool_efficiency`` is those
spans over the capacity.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import threading
import time
from collections import defaultdict

from workloads import CORPUS_N, METHODS

MODELS = ("mp", "lbp", "markov")


def _layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    rows = []
    for model in MODELS:
        rows += [(f"dynamics.{model}.calls", "count", "lower"),
                 (f"dynamics.{model}.rows_per_call", "rows", "higher"),
                 (f"dynamics.{model}.us_per_step", "us", "lower"),
                 (f"dynamics.{model}.ns_per_sample", "ns", "lower"),
                 (f"dynamics.{model}.busy_s", "s", "lower")]
    rows.append(("dynamics.stall_warnings", "count", "lower"))
    for method in METHODS:
        rows += [(f"estimators.{method}.n{n}.ms_p50", "ms", "lower") for n in CORPUS_N]
        rows.append((f"estimators.{method}.busy_s", "s", "lower"))
    rows += [("estimators.invalid", "count", "lower"),
             ("estimators.clamped_ordinates", "count", "lower"),
             ("estimators.floored_levels", "count", "lower")]
    for name in ("periodogram", "smoothed_periodogram"):
        rows += [(f"spectral.{name}.calls", "count", "lower"),
                 (f"spectral.{name}.busy_s", "s", "lower")]
    rows += [("wavelet.sample_R.haar.busy_s", "s", "lower"),
             ("wavelet.sample_R.mexhat.busy_s", "s", "lower"),
             ("wavelet.truncation_warnings", "count", "lower"),
             ("montecarlo.busy_s", "s", "lower"),
             ("montecarlo.self_s", "s", "lower"),
             ("montecarlo.pool_efficiency", "share", "higher"),
             ("partial_sums.scaling_exponent.busy_s", "s", "lower"),
             ("partial_sums.scaling_exponent.self_s", "s", "lower"),
             ("cli.write_s", "s", "lower"),
             ("cli.self_s", "s", "lower"),
             # the module is mplm._zeta; metric names must start with a letter
             ("zeta.zeta_value.calls", "count", "lower"),
             ("zeta.zeta_value.busy_s", "s", "lower"),
             ("traced_wall_s", "s", "lower"),
             ("tracing_overhead_s", "s", "lower")]
    return rows


LAYER_METRICS = _layer_metrics()


class Tracer:
    """Records spans at the module boundaries while active; reusable."""

    def __init__(self):
        from mplm import cli, dynamics, estimators, montecarlo, partial_sums

        self._lock = threading.Lock()
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.rows = defaultdict(int)
        self.steps = defaultdict(int)
        self.samples = defaultdict(int)
        self.capacity = defaultdict(float)   # parent layer -> wall x pool threads
        self.children = defaultdict(float)   # parent layer -> busy of spans inside it
        self.estimate_times = defaultdict(list)
        self.counts = defaultdict(int)
        self._parent = None
        self.patched = []
        self.missing = []
        self.targets = [
            (montecarlo, "simulate_mp_batch", self._simulate("mp")),
            (partial_sums, "simulate_mp_batch", self._simulate("mp")),
            (montecarlo, "simulate_lbp_batch", self._simulate("lbp")),
            (montecarlo, "simulate_markov", self._simulate("markov")),
            (montecarlo, "estimate", self._estimate),
            (estimators, "estimate", self._estimate),
            (estimators, "periodogram", self._leaf("spectral.periodogram")),
            (estimators, "smoothed_periodogram", self._leaf("spectral.smoothed_periodogram")),
            (estimators, "sample_R", self._sample_r),
            (dynamics, "zeta_value", self._leaf("zeta.zeta_value")),
            (cli, "run_experiment", self._parent_span("montecarlo", self._pool_threads)),
            (cli, "scaling_exponent", self._parent_span("partial_sums.scaling_exponent",
                                                        lambda bound: 1)),
            (cli, "write_summaries_csv", self._leaf("cli.write")),
            (cli, "_write_lines", self._leaf("cli.write")),
            (cli, "_emit_manifest", self._leaf("cli.write")),
            (cli, "main", self._leaf("cli")),
        ]

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        self.missing = []
        for module, attr, make in self.targets:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self.patched.append((module, attr, original))
            setattr(module, attr, make(original))
        return self

    def __exit__(self, *exc_info):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        stale = [f"{m.__name__}.{a}" for m, a, orig in self.patched if getattr(m, a) is not orig]
        self.patched.clear()
        if stale:
            raise RuntimeError(f"tracer left wrappers in place: {stale}")
        return False

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, on_done, bind=False):
        signature = inspect.signature(fn) if bind else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            arguments = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            with self._lock:
                on_done(elapsed, arguments, result)
            return result

        return wrapper

    def _child(self, elapsed):
        if self._parent is not None:
            self.children[self._parent] += elapsed

    def _leaf(self, key):
        def make(fn):
            def done(elapsed, arguments, result):
                self.busy[key] += elapsed
                self.calls[key] += 1
            return self._wrap(fn, done)
        return make

    def _simulate(self, model):
        key = f"dynamics.{model}"

        def make(fn):
            def done(elapsed, a, result):
                rows = 1 if model == "markov" else len(a["seeds"])
                steps = a["n"] + (0 if model == "markov" else a["burn_in"])
                self.busy[key] += elapsed
                self.calls[key] += 1
                self.rows[key] += rows
                self.steps[key] += steps
                self.samples[key] += rows * steps
                self._child(elapsed)
            return self._wrap(fn, done, bind=True)
        return make

    def _estimate(self, fn):
        def done(elapsed, a, result):
            method = a["method"]
            self.busy[f"estimators.{method}"] += elapsed
            self.estimate_times[(method, len(a["series"]))].append(elapsed)
            self.counts["estimators.invalid"] += not result.valid
            diagnostics = result.diagnostics
            self.counts["estimators.clamped_ordinates"] += int(diagnostics.get("clamped_ordinates", 0))
            self.counts["estimators.floored_levels"] += int(diagnostics.get("floored_levels", 0))
            self._child(elapsed)
        return self._wrap(fn, done, bind=True)

    def _sample_r(self, fn):
        from mplm.wavelet import WaveletBasis

        def done(elapsed, a, result):
            self.busy[f"wavelet.sample_R.{WaveletBasis(a['basis']).value}"] += elapsed
        return self._wrap(fn, done, bind=True)

    @staticmethod
    def _pool_threads(a) -> int:
        threads = a["threads"]
        if threads == 1:
            return 1
        cells = len(list(a["spec"].cells()))
        return min(cells, threads or min(32, (os.cpu_count() or 1) + 4))

    def _parent_span(self, layer, threads_of):
        def make(fn):
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._parent = layer
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    self._parent = None
                    with self._lock:
                        self.busy[layer] += elapsed
                        self.capacity[layer] += elapsed * threads_of(bound.arguments)
            return wrapper
        return make

    # -- results -----------------------------------------------------------

    def count_warnings(self, caught) -> None:
        from mplm.dynamics import StallWarning
        from mplm.wavelet import TruncationWarning

        for w in caught:
            if issubclass(w.category, StallWarning):
                self.counts["dynamics.stall_warnings"] += 1
            elif issubclass(w.category, TruncationWarning):
                self.counts["wavelet.truncation_warnings"] += 1

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        values = {}
        for model in MODELS:
            key = f"dynamics.{model}"
            calls, busy = self.calls[key], self.busy[key]
            values[f"{key}.calls"] = calls
            values[f"{key}.rows_per_call"] = self.rows[key] / calls if calls else 0.0
            values[f"{key}.us_per_step"] = busy / self.steps[key] * 1e6 if calls else 0.0
            values[f"{key}.ns_per_sample"] = busy / self.samples[key] * 1e9 if calls else 0.0
            values[f"{key}.busy_s"] = busy
        for method in METHODS:
            for n in CORPUS_N:
                times = self.estimate_times.get((method, n))
                values[f"estimators.{method}.n{n}.ms_p50"] = (
                    statistics.median(times) * 1e3 if times else 0.0)
            values[f"estimators.{method}.busy_s"] = self.busy[f"estimators.{method}"]
        for key in ("spectral.periodogram", "spectral.smoothed_periodogram", "zeta.zeta_value"):
            values[f"{key}.calls"] = self.calls[key]
            values[f"{key}.busy_s"] = self.busy[key]
        for basis in ("haar", "mexhat"):
            values[f"wavelet.sample_R.{basis}.busy_s"] = self.busy[f"wavelet.sample_R.{basis}"]
        for name in ("dynamics.stall_warnings", "wavelet.truncation_warnings",
                     "estimators.invalid", "estimators.clamped_ordinates",
                     "estimators.floored_levels"):
            values[name] = self.counts[name]
        capacity = self.capacity["montecarlo"]
        values["montecarlo.busy_s"] = self.busy["montecarlo"]
        values["montecarlo.self_s"] = capacity - self.children["montecarlo"]
        values["montecarlo.pool_efficiency"] = (
            self.children["montecarlo"] / capacity if capacity else 0.0)
        scaling = "partial_sums.scaling_exponent"
        values[f"{scaling}.busy_s"] = self.busy[scaling]
        values[f"{scaling}.self_s"] = self.busy[scaling] - self.children[scaling]
        values["cli.write_s"] = self.busy["cli.write"]
        values["cli.self_s"] = (self.busy["cli"] - self.busy["cli.write"]
                                - self.busy["montecarlo"] - self.busy[scaling])
        values["traced_wall_s"] = traced_wall
        values["tracing_overhead_s"] = traced_wall - untraced_wall
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
