"""Self-check of the benchmark at toy sizes; not part of the test suite.

    python3 perfbench/selfcheck.py

Confirms that:

* both modes emit every metric of ``BENCHMARK.json`` with its unit;
* the tracer sets every attribute it patched back to the original object;
* traced and untraced passes write identical outputs;
* in the traced Monte Carlo pass the layer busy times account for the
  traced wall;
* the reference check fails when any one stored value is perturbed, and
  passes on the reference itself.
"""

from __future__ import annotations

import copy
import json
import random
import sys

import reference
import run
import workloads as wl

SEED = 1  # not the reference seed: passes are checked against each other
ACCOUNTING_TOL = 0.05


def _declared(kind: str) -> dict:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _check_metrics(result: dict, kind: str, label: str, errors: list) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != _declared(kind):
        errors.append(f"{label}: {kind} metrics or units differ from BENCHMARK.json")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")


def check_workload(workload, errors: list) -> None:
    from tracer import Tracer

    originals = [(m, a, getattr(m, a)) for m, a, _ in Tracer().targets]
    plain = run.measure(workload, SEED, 0.0, trace=False)
    _check_metrics(plain, "end_to_end", workload.name, errors)
    traced = run.measure(workload, SEED, 0.0, trace=True)
    _check_metrics(traced, "per_layer", workload.name, errors)
    stale = [f"{m.__name__}.{a}" for m, a, orig in originals if getattr(m, a) is not orig]
    if stale:
        errors.append(f"{workload.name}: wrappers left in place: {stale}")
    # passes after the first, the traced one included, are compared exactly
    # with the first, so a traced output that differs shows up as failed
    for result, mode in ((plain, "untraced"), (traced, "traced")):
        if not result["correct"]:
            errors.append(f"{workload.name}: {mode} run failed {result['failed']} ops")
    if workload.name == "mc-table51":
        m = {name: v["value"] for name, v in traced["metrics"].items()}
        busy = (m["dynamics.mp.busy_s"] + m["montecarlo.self_s"]
                + sum(m[f"estimators.{method}.busy_s"] for method in wl.METHODS))
        accounted = busy / workload.threads + m["cli.self_s"] + m["cli.write_s"]
        share = accounted / m["traced_wall_s"]
        print(f"mc-table51 accounting: {accounted:.4f} s of {m['traced_wall_s']:.4f} s traced")
        if abs(share - 1.0) > ACCOUNTING_TOL:
            errors.append(f"mc-table51: layers account for {share:.3f} of the traced wall")


def _perturb(record: list, rng: random.Random) -> None:
    if record[1] and rng.random() < 0.7:
        i = rng.randrange(len(record[1]))
        v = record[1][i]
        record[1][i] = 0.0 if v != v else v + 1e-9 * max(1.0, abs(v))
        return
    key = record[0]
    i = rng.randrange(len(key))
    v = key[i]
    key[i] = (not v) if isinstance(v, bool) else (v + 1 if isinstance(v, (int, float)) else v + "x")


def check_reference(errors: list, trials: int = 40) -> None:
    rng = random.Random(7)
    for name, expected in reference.load().items():
        if reference.failed_ops(expected, expected, reference.REFERENCE_TOL):
            errors.append(f"{name}: reference does not match itself")
        for _ in range(trials):
            label = rng.choice(sorted(expected))
            outputs = copy.deepcopy(expected)
            records = outputs[label]["records"]
            _perturb(records[rng.randrange(len(records))], rng)
            if not reference.failed_ops(outputs, expected, reference.REFERENCE_TOL):
                errors.append(f"{name}/{label}: a perturbed value passed the check")


def main() -> int:
    wl.import_program()
    errors = []
    check_reference(errors)
    for workload in wl.workloads(tiny=True).values():
        check_workload(workload, errors)
        print(f"{workload.name}: checked")
    for line in errors:
        print(f"FAIL {line}", file=sys.stderr)
    print("selfcheck:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
