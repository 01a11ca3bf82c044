"""The README's examples, run: each ``$ chrkit`` example on its fixture
prints the lines the README shows, and the Library block prints what its
comments say. Where the README wraps a line, whitespace is normalised; a
shown output that ends in ``...`` is a prefix of the printed one.
"""

import re
import shlex
from pathlib import Path

import pytest

from chrkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def blocks(lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def command_examples() -> list:
    """(command line, shown output lines) of each ``$ chrkit`` example."""
    out = []
    for block in blocks("sh"):
        if block.startswith("$ chrkit "):
            command, _, shown = block.replace("\\\n", "").partition("\n")
            out.append((command[2:], shown.splitlines()))
    return out


EXAMPLES = command_examples()


def words(lines) -> list:
    return " ".join(lines).split()


@pytest.mark.parametrize(
    "command, shown", EXAMPLES, ids=[command.split()[1] for command, _ in EXAMPLES]
)
def test_a_command_line_example_prints_what_the_readme_shows(
    command, shown, tmp_path, monkeypatch, capsys
):
    # fixture paths are read from the checkout; written files land in tmp_path
    argv = [str(ROOT / a) if a.startswith("tests/") else a for a in shlex.split(command)[1:]]
    monkeypatch.chdir(tmp_path)
    main(argv)
    printed = capsys.readouterr().out.splitlines()
    if shown[-1] == "...":
        shown = shown[:-1]
        printed = printed[: len(shown)]
    assert words(printed) == words(shown)


def test_every_command_line_example_is_found():
    assert [command.split()[1] for command, _ in EXAMPLES] == [
        "annotate", "run", "unfold", "check-replace", "transform", "verify",
    ]


def test_the_library_example_prints_what_its_comments_show(capsys):
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    shown = [line.split("# ", 1)[1].strip() for line in code.splitlines() if "print(" in line]
    assert capsys.readouterr().out.splitlines() == shown
