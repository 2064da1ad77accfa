"""mplm benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload estimate-corpus --seed 0 --seconds 45 --trace 0

Run from the repository root.  The run imports the program from ``src/``,
times set-up in fresh interpreters, makes the workload's inputs from
``--seed``, then repeats passes of the workload for about ``--seconds``
seconds (a closed loop with one caller).  Every pass is checked: for the
reference seed against the stored reference, for any other seed against
the run's first pass, and always for operations that raised.

With ``--trace 1`` the same untraced loop runs first, then one more pass
with the per-layer tracer; the output carries the per-layer metrics.

The last line of standard output is the result object; the line before it
records the machine and its load.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import reference
import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3  # before the first pass, and again after a pass every PROBE_EVERY_S
PROBE_EVERY_S = 10.0

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("ok_share", "share", "higher", 0.001),
]


def probe_setup(name: str, times: list[float]) -> None:
    """Append the wall times of ``SETUP_PROBES`` fresh interpreters, each
    brought to the workload's warm state.

    Probes run before the first pass and then about every
    ``PROBE_EVERY_S`` between passes, so their median covers the whole run
    rather than one moment of a machine whose speed drifts.  No
    ``timeout``: with one, ``Popen.wait`` polls in steps of up to 50 ms,
    which would quantize the measurement.
    """
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name],
                       cwd=wl.ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)


def run_loop(workload, state, seconds: float, after_pass=lambda: None) -> list[dict]:
    """Untraced passes for about ``seconds``; warnings are caught, not shown.

    A pass starts only if, at the mean pass time so far, it would end less
    than half a pass after ``seconds``, so a run ends within half a pass of
    its length.  ``after_pass`` runs after each pass, inside the time.
    """
    passes = []
    started = time.perf_counter()
    while (not passes or time.perf_counter() - started
           + 0.5 * statistics.mean(p["wall"] for p in passes) < seconds):
        clock = wl.Clock()
        with warnings.catch_warnings(record=True):
            outputs, timings = workload.run_pass(state)
        passes.append({"wall": clock.read()[0], "outputs": outputs, "timings": timings})
        after_pass()
    return passes


def pass_estimate(passes: list[dict]) -> tuple[float, float]:
    """Wall and CPU seconds of one pass at the machine's best observed speed.

    Each timed unit (a CLI call, or a corpus estimate in its cell) contributes
    its fastest sample over the run times how often it occurs in a pass.
    On a shared virtual machine the speed can drift by up to 1.5x for
    seconds at a time, for pure Python as much as for numpy, so a median
    moves with the share of the run spent slow; the fastest of many samples
    does not.  Units cover the whole pass apart from the benchmark's own
    bookkeeping, such as parsing the CLI's output files.
    """
    samples = {}
    for p in passes:
        for unit, wall, cpu in p["timings"]:
            samples.setdefault(unit, []).append((wall, cpu))
    wall = cpu = 0.0
    for values in samples.values():
        per_pass = len(values) / len(passes)
        wall += per_pass * min(v[0] for v in values)
        cpu += per_pass * min(v[1] for v in values)
    return wall, cpu


def traced_pass(workload, state, tracer) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer:
            clock = wl.Clock()
            outputs, _ = workload.run_pass(state)
            wall = clock.read()[0]
    tracer.count_warnings(caught)
    return {"wall": wall, "outputs": outputs}


def count_failed(passes: list[dict], name: str, seed: int) -> int:
    """Failed ops over all passes: against the reference for its seed, else
    against the first pass (same seed, so the same outputs are due)."""
    expected = reference.load()[name] if seed == reference.REFERENCE_SEED else None
    failed = 0
    for i, p in enumerate(passes):
        if expected is not None:
            failed += reference.failed_ops(p["outputs"], expected, reference.REFERENCE_TOL)
        elif i == 0:
            failed += reference.failed_ops(p["outputs"])
        else:
            failed += reference.failed_ops(p["outputs"], passes[0]["outputs"])
    return failed


def _git_sha() -> str | None:
    head = wl.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # the checkout need not be a git repository
    ref = head.read_text().strip()
    target = wl.ROOT / ".git" / ref[len("ref: "):]
    return target.read_text().strip() if ref.startswith("ref: ") and target.is_file() else ref


def _proc_line(path: str, prefix: str) -> str | None:
    try:
        with open(path) as handle:
            return next((line for line in handle if line.startswith(prefix)), None)
    except OSError:
        return None


def _steal_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the machine so far, from /proc/stat."""
    line = _proc_line("/proc/stat", "cpu ")
    if line is None:
        return None
    ticks = [int(v) for v in line.split()[1:]]
    return ticks[7], sum(ticks)


def machine_record(workload, args) -> dict:
    import numpy

    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((wl.SRC / "mplm").glob("*.py")):
        digest.update(path.read_bytes())
    cpu = _proc_line("/proc/cpuinfo", "model name")
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": workload.threads, "git_sha": _git_sha(),
        "src_digest": digest.hexdigest(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpu_model": cpu.split(":", 1)[1].strip() if cpu else None,
        "loadavg_1m_before": os.getloadavg()[0],
    }


def measure(workload, seed: int, seconds: float, trace: bool, record: dict | None = None) -> dict:
    """One benchmark run; returns the result object."""
    from tracer import Tracer

    probes = []
    probe_setup(workload.name, probes)
    probed = time.perf_counter()

    def probe_now_and_then():
        nonlocal probed
        if time.perf_counter() - probed >= PROBE_EVERY_S:
            probe_setup(workload.name, probes)
            probed = time.perf_counter()

    tracer = Tracer() if trace else None
    if tracer is not None:
        with tracer:
            wl.fill_tables(workload)
    else:
        wl.fill_tables(workload)
    with tempfile.TemporaryDirectory(dir=wl.ROOT, prefix=".perfbench-") as tmp:
        state = workload.prepare(seed, Path(tmp))
        before = resource.getrusage(resource.RUSAGE_SELF)
        passes = run_loop(workload, state, seconds, probe_now_and_then)
        after = resource.getrusage(resource.RUSAGE_SELF)
        setup = statistics.median(probes)
        peak_rss_mb = after.ru_maxrss / 1024.0
        wall, cpu = pass_estimate(passes)
        if tracer is not None:
            passes.append(traced_pass(workload, state, tracer))
    attempted = workload.ops * len(passes)
    failed = count_failed(passes, workload.name, seed)
    if tracer is not None:
        untraced = statistics.median(p["wall"] for p in passes[:-1])
        metrics = tracer.metrics(passes[-1]["wall"], untraced)
    else:
        values = {
            "wall_s": wall,
            "ops_per_s": workload.ops / wall,
            "cpu_s": cpu,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup,
            "ok_share": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    if record is not None:
        record.update({"passes": len(passes), "pass_walls_s": [p["wall"] for p in passes],
                       "setup_probes": len(probes),
                       "loop_user_s": after.ru_utime - before.ru_utime,
                       "loop_sys_s": after.ru_stime - before.ru_stime,
                       "loop_minor_faults": after.ru_minflt - before.ru_minflt,
                       "tracer_missing": tracer.missing if tracer else []})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.workloads()))
    parser.add_argument("--seed", type=int, default=reference.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl.import_program()
    workload = wl.workloads()[args.workload]
    record = machine_record(workload, args)
    steal_before = _steal_ticks()
    result = measure(workload, args.seed, args.seconds, bool(args.trace), record)
    steal_after = _steal_ticks()
    record["loadavg_1m_after"] = os.getloadavg()[0]
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        record["cpu_steal_share"] = ((steal_after[0] - steal_before[0])
                                     / (steal_after[1] - steal_before[1]))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
