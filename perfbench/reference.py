"""Reference outputs and the check of a pass's outputs against them.

The reference holds every workload's outputs for ``REFERENCE_SEED``, taken
from the program at the commit that defined the benchmark.  Keys and
``valid``/``invalid`` fields must match exactly and floats within
``REFERENCE_TOL`` (relative above 1, absolute below), the tolerance the
roadmap allows for estimator-layer changes.

Run ``python3 perfbench/reference.py`` from the repository root to take the
reference again; it overwrites ``perfbench/reference/seed<seed>.json``.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

REFERENCE_SEED = 0
REFERENCE_TOL = 1e-12
REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / f"seed{REFERENCE_SEED}.json"


def _same(got: list, want: list, tol: float) -> bool:
    if got[0] != want[0] or got[2] != want[2] or want[1] is None:
        return False
    if len(got[1]) != len(want[1]):
        return False
    for a, b in zip(got[1], want[1]):
        if math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                return False
        elif abs(a - b) > tol * max(1.0, abs(b)):
            return False
    return True


def failed_ops(outputs: dict, expected: dict | None = None, tol: float = 0.0) -> int:
    """Ops that raised, or whose record differs from ``expected``.

    ``outputs`` and ``expected`` map a label to ``{"ops": n, "records": [...]}``.
    A label whose records are missing, or whose record count differs,
    fails all of its ops.
    """
    failed = 0
    for label, out in outputs.items():
        records = out["records"]
        if records is None:
            failed += out["ops"]
            continue
        if expected is None:
            failed += sum(rec[2] for rec in records if rec[1] is None)
            continue
        want = expected.get(label, {}).get("records")
        if want is None or len(want) != len(records):
            failed += out["ops"]
            continue
        failed += sum(got[2] for got, ref in zip(records, want)
                      if got[1] is None or not _same(got, ref, tol))
    return min(failed, sum(out["ops"] for out in outputs.values()))


def load() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def _dump(reference: dict) -> str:
    # one record per line keeps the file reviewable and diffable
    lines = ["{"]
    for i, (name, labels) in enumerate(reference.items()):
        lines.append(f"{json.dumps(name)}: {{")
        for j, (label, out) in enumerate(labels.items()):
            lines.append(f"{json.dumps(label)}: {{\"ops\": {out['ops']}, \"records\": [")
            recs = out["records"]
            lines += [json.dumps(rec, separators=(",", ":")) + ("," if k < len(recs) - 1 else "")
                      for k, rec in enumerate(recs)]
            lines.append("]}" + ("," if j < len(labels) - 1 else ""))
        lines.append("}" + ("," if i < len(reference) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> int:
    import warnings

    import workloads as wl

    wl.import_program()
    reference = {}
    with tempfile.TemporaryDirectory(dir=wl.ROOT, prefix=".perfbench-") as tmp:
        for name, workload in wl.workloads().items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            state = workload.prepare(REFERENCE_SEED, workdir)
            with warnings.catch_warnings(record=True):
                outputs, _ = workload.run_pass(state)
            if failed_ops(outputs):
                raise SystemExit(f"perfbench: {name} failed while taking the reference")
            reference[name] = outputs
            print(f"{name}: {sum(len(o['records']) for o in outputs.values())} records")
    REFERENCE_FILE.parent.mkdir(exist_ok=True)
    REFERENCE_FILE.write_text(_dump(reference))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
