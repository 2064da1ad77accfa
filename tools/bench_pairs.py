"""Alternating parent/change runs of the benchmark, summarised as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --out BENCH_6.json \\
        --claim estimate-corpus:wall_s --seed0 --traced 1

Both sides are fresh directories in a temporary directory, each holding
``src/``, ``perfbench/`` and ``BENCHMARK.json``: the parent's from
``git archive REV``, the change's copied from the working tree (which is
the change once it is committed).  Each side runs its own, identical,
``perfbench/run.py`` (the script refuses to run when ``perfbench/`` or
``BENCHMARK.json`` differ).  For every workload of ``BENCHMARK.json`` it runs ``--pairs``
pairs at seeds ``--first-seed``, ``--first-seed + 1``, ..., the parent
first in even pairs and the change first in odd ones, for
``run_seconds`` each.  ``--seed0`` adds one reference-seed run per side
and workload (the run that checks ``correct`` against the stored
reference), ``--traced K`` K traced seed-0 runs per side and workload.

The output holds every run's metrics and record fields, and per workload
and end-to-end metric each side's median and quartiles
(``statistics.quantiles(n=4, method="inclusive")``), the change's wins
over the pairs, the median ratio and whether the change stays within the
metric's bound.  ``--claim WORKLOAD:METRIC`` adds the gain rule: the
change wins at least nine tenths of the pairs (ties count for neither) and
the medians differ by more than the parent's quartile spread.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARTS = ("src", "perfbench", "BENCHMARK.json")
RECORD_KEYS = ("passes", "cpu_steal_share", "loop_user_s", "loop_sys_s", "loop_minor_faults",
               "src_digest", "tracer_missing", "python", "numpy", "nproc", "cpu_model")


def checkout(rev: str | None, dest: Path) -> Path:
    """Put ``PARTS`` of ``rev`` (of the working tree when None) into ``dest``."""
    dest.mkdir(parents=True)
    if rev is None:
        ignore = shutil.ignore_patterns("__pycache__", ".perfbench-*")
        for name in ("src", "perfbench"):
            shutil.copytree(ROOT / name, dest / name, ignore=ignore)
        shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    else:
        archive = subprocess.run(["git", "archive", rev, *PARTS], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    return dest


def rev_parse(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def tree_digest(root: Path) -> str:
    h = hashlib.blake2b(digest_size=8)
    paths = sorted(p for p in (root / "perfbench").rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for path in paths + [root / "BENCHMARK.json"]:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_once(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=side, check=True, capture_output=True, text=True).stdout
    record_line, result_line = out.strip().splitlines()[-2:]
    record, result = json.loads(record_line)["record"], json.loads(result_line)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            **{k: record[k] for k in RECORD_KEYS if k in record}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarise(pairs: list[dict], metric: dict) -> dict:
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [p["parent"]["metrics"][name] for p in pairs]
    change = [p["change"]["metrics"][name] for p in pairs]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    ps, cs = spread(parent), spread(change)
    ratio = cs["median"] / ps["median"] if ps["median"] else float("nan")
    worsening = (ratio - 1.0) if lower else (1.0 - ratio)
    return {"better": metric["better"], "bound": metric["bound"], "parent": ps, "change": cs,
            "change_wins": f"{wins}/{len(pairs)}", "ties": ties,
            "median_ratio_change_over_parent": ratio,
            "parent_quartile_spread": ps["q3"] - ps["q1"],
            "median_difference": cs["median"] - ps["median"],
            "relative_worsening": worsening, "within_bound": worsening <= metric["bound"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=201)
    parser.add_argument("--seed0", action="store_true", help="one reference-seed run per side")
    parser.add_argument("--traced", type=int, default=0, help="traced seed-0 runs per side")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs a side)")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": checkout(args.parent, Path(tmp, "parent")),
                 "change": checkout(None, Path(tmp, "change"))}
        if tree_digest(sides["parent"]) != tree_digest(sides["change"]):
            raise SystemExit("perfbench/ or BENCHMARK.json differ between the two sides")
        bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]
        out = {"command": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds}"
                           " --trace 0|1, from tools/bench_pairs.py"),
               "parent": {"rev": args.parent, "git_sha": rev_parse(args.parent)},
               "change": {"rev": "working tree"},
               "perfbench_digest": tree_digest(sides["parent"]),
               "pairs": {}, "summary": {}, "seed0": {}, "traced": {},
               "quartiles": 'statistics.quantiles(n=4, method="inclusive") over each side\'s '
                            "pair runs"}

        def both(workload, seed, trace, change_first):
            order = ("change", "parent") if change_first else ("parent", "change")
            runs = {side: run_once(sides[side], workload, seed, seconds, trace) for side in order}
            print(workload, seed, trace, {s: runs[s]["metrics"].get("wall_s") for s in order},
                  file=sys.stderr, flush=True)
            return {"seed": seed, "first": order[0], **runs}

        for name in (w["name"] for w in bench["workloads"]):
            pairs = [both(name, args.first_seed + i, 0, i % 2 == 1) for i in range(args.pairs)]
            out["pairs"][name] = pairs
            out["summary"][name] = {m["name"]: summarise(pairs, m) for m in bench["end_to_end"]}
            if args.seed0:
                out["seed0"][name] = both(name, 0, 0, False)
            traced = [both(name, 0, 1, i % 2 == 1) for i in range(args.traced)]
            if traced:
                out["traced"][name] = {
                    side: {"runs": len(traced),
                           "all_correct": all(t[side]["correct"] for t in traced),
                           "tracer_missing": sorted({m for t in traced
                                                     for m in t[side].get("tracer_missing", [])}),
                           "values": {k: [t[side]["metrics"][k] for t in traced]
                                      for k in traced[0][side]["metrics"]}}
                    for side in ("parent", "change")}
        if args.claim:
            workload, metric = args.claim.split(":")
            s = out["summary"][workload][metric]
            wins = int(s["change_wins"].split("/")[0])
            out["claim"] = {"workload": workload, "metric": metric,
                            "rule": "change wins >= 9/10 of pairs and |median difference| > "
                                    "parent q3 - q1, in the better direction",
                            "change_wins": s["change_wins"],
                            "median_ratio": s["median_ratio_change_over_parent"],
                            "median_difference": s["median_difference"],
                            "parent_quartile_spread": s["parent_quartile_spread"],
                            "met": (wins * 10 >= 9 * args.pairs and s["relative_worsening"] < 0
                                    and abs(s["median_difference"]) > s["parent_quartile_spread"])}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
