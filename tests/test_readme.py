import ast
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

from mplm import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "mplm"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
SH_LINES = [shlex.split(line, comments=True)
            for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
            for line in block.splitlines()]
# the arguments of each `mplm ...` and `python -m mplm ...` line
COMMANDS = [words[1:] if words[0] == "mplm" else words[3:] for words in SH_LINES
            if words[:1] == ["mplm"] or words[:3] == ["python", "-m", "mplm"]]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_example_runs(index):
    # the examples are the documented API: each block runs as written
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 6


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_readme_cli_example_parses(argv):
    # parsed as documented and run nowhere: a flag renamed or removed since
    # the README was written fails here
    args = cli._build_parser(()).parse_args(argv)
    assert args.subcommand == argv[0]


def test_every_top_level_name_has_a_use_outside_the_tests():
    # a def or class that only tests and the package's re-exports use is a
    # test oracle: it belongs in tests/, not in the package.  In src/ a use is
    # a name, attribute or import in the code, so a docstring or comment that
    # mentions it is none; in the README, perfbench/ and tools/ every line
    # that names it counts
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"]
    uses = Counter()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            uses.update(alias.name for alias in node.names)
    others = [path for folder in ("perfbench", "tools")
              for path in sorted((ROOT / folder).rglob("*"))
              if path.is_file() and "__pycache__" not in path.parts]
    for path in [README] + others:
        for line in path.read_text(errors="replace").splitlines():
            uses.update(set(re.findall(r"\w+", line)))
    defined = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = [name for name in defined if not uses[name]]
    assert not unused, f"only tests use {', '.join(unused)}"
