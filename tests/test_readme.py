"""The README's examples stay runnable: the library example executes, and
every `switchlevy` command line it shows parses with the CLI's parser."""

import re
import shlex
from pathlib import Path

import pytest

from switchlevy.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section: str, language: str) -> str:
    """The first fenced `language` block after the `## section` heading."""
    start = README.index(f"\n## {section}\n")
    match = re.compile(rf"^```{language}\n(.*?)^```", re.M | re.S).search(README, start)
    assert match, f"no {language} block under '## {section}'"
    return match.group(1)


def _command_lines() -> list[list[str]]:
    """Each `switchlevy ...` line of the Command line block as argv, with
    backslash continuations joined and # comments dropped."""
    text = _block("Command line", "bash").replace("\\\n", " ")
    words = (shlex.split(line, comments=True) for line in text.splitlines())
    return [w[1:] for w in words if w and w[0] == "switchlevy"]


def test_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("argv", _command_lines(), ids=" ".join)
def test_command_line_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"the parser rejects the README line: switchlevy {shlex.join(argv)}")


def test_command_lines_show_every_subcommand():
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert {argv[0] for argv in _command_lines()} == set(commands)
