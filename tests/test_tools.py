import json
import math
import subprocess
from pathlib import Path

import pytest

from mplm.estimators import METHOD_NAMES
from mplm.montecarlo import PRESETS

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# table -> its keys at each level, as tools/layers.py --quick prints them
QUICK_TABLES = {
    "ns_per_sample": (("mp", "lbp", "markov", "appendixb"), ("0.65", "0.8"), ("2", "5")),
    "ms_per_series": (METHOD_NAMES, ("2048",), ("1", "3")),
    "ms_per_cell": (PRESETS["table51"].methods, ("2048", "4096"), ("0.6", "0.65")),
}


def run_layers(argv, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    import layers

    assert layers.main(argv) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [next(k for k in QUICK_TABLES if k in line) for line in lines] == list(QUICK_TABLES)
    return lines


def check_table(table, levels, check):
    keys, *inner = levels
    assert list(table) == list(keys)
    for value in table.values():
        if inner:
            check_table(value, inner, check)
        else:
            assert check(value), value


def test_layers_quick_prints_each_table(monkeypatch, capsys):
    for line in run_layers(["--quick"], monkeypatch, capsys):
        name = next(k for k in QUICK_TABLES if k in line)
        check_table(line[name], QUICK_TABLES[name], lambda v: v > 0)
        assert line["runs"] == 1 and line["unit"].endswith("best of runs")
        assert "parent" not in line and "ratio" not in line


def test_layers_quick_against_a_parent(monkeypatch, capsys):
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=TOOLS,
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    for line in run_layers(["--quick", "--parent", "HEAD"], monkeypatch, capsys):
        name = next(k for k in QUICK_TABLES if k in line)
        assert line["parent"] == "HEAD" and line["unit"].endswith("median of runs")
        for table in (name, f"parent_{name}"):
            check_table(line[table], QUICK_TABLES[name], lambda v: v > 0)
        check_table(line["ratio"], QUICK_TABLES[name], lambda v: math.isfinite(v) and v > 0)


def test_stalls_compare_each_cell_with_its_methods_fastest_per_sample(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import layers

    sizes, exponents = (10_000, 20_000, 30_000), ("0.6", "0.65")

    def table(slow):
        # ms per cell: per-sample costs that spread 4x within a method (a
        # clean table51 run spreads 3x), times 300 where ``slow`` says so
        return {m: {str(n): {s: round(1e-3 * n * (1 + i + j % 2) * (300 if slow(m, n) else 1), 3)
                             for j, s in enumerate(exponents)}
                    for i, n in enumerate(sizes)}
                for m in PRESETS["table51"].methods}

    assert layers.stalls(table(lambda m, n: False)) == []
    # four of cos2's six cells: a median of the cells would be a slow one
    flagged = layers.stalls(table(lambda m, n: m == "cos2" and n >= 20_000))
    assert [line.split(":")[0] for line in flagged] == [
        f"cos2 N={n} s={s}" for n in (20_000, 30_000) for s in ("0.6", "0.65")]
