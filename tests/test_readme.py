import re
import shlex
from pathlib import Path

import pytest

from mplm import cli

README = Path(__file__).resolve().parents[1] / "README.md"
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
