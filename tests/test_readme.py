"""The README's library quickstart and command-line example run as
written."""

import re
import shlex
from pathlib import Path

from hessenbergian.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quickstart", "exec"), {})


def test_readme_command_example_prints_its_comment(capsys):
    # a command line followed by a "# -> ..." line prints that output
    examples = re.findall(r"^hessenbergian (.*)\n# -> (.*)$",
                          README.read_text("utf-8"), flags=re.M)
    assert examples
    for argv, want in examples:
        assert main(shlex.split(argv)) == 0
        captured = capsys.readouterr()
        assert captured.out == want + "\n" and captured.err == ""
