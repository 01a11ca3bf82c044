"""The argument parser ``chrkit.cli.main`` keeps for the life of a process:
``import chrkit.cli`` builds none, the first call builds one tree, and
every later call gives what a fresh parser would, byte for byte, in any
order and at the terminal width of that call.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from chrkit import cli

from test_cli_surface import CASES, GOLDEN, invoke, program_paths

SRC = Path(__file__).resolve().parents[1] / "src"

# the top-level parser and one per subcommand
TREE = 1 + len(cli.COMMANDS)


@pytest.fixture
def parser_builds(monkeypatch):
    """Drop the kept parser; a list that gains one entry per ArgumentParser
    built from then on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    yield built
    cli._parser.cache_clear()


def is_usage_or_help(name: str) -> bool:
    return name.startswith("usage: ") or name.endswith("--help")


def test_every_subcommand_of_the_parser_has_a_function():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli.COMMANDS)


def test_two_replays_of_the_surface_build_one_parser(tmp_path, parser_builds):
    recorded = json.loads(GOLDEN.read_text())
    paths = program_paths(tmp_path)
    for name in sorted(CASES):
        assert invoke(CASES[name], paths) == recorded[name], name
    assert len(parser_builds) == TREE
    # reversed, with a usage error or a --help call after each other call
    backwards = sorted(CASES, reverse=True)
    calls = [n for n in backwards if not is_usage_or_help(n)]
    noisy = [n for n in backwards if is_usage_or_help(n)]
    order = []
    while calls or noisy:
        order += calls[:1] + noisy[:1]
        calls, noisy = calls[1:], noisy[1:]
    assert sorted(order) == sorted(CASES)
    for name in order:
        assert invoke(CASES[name], paths) == recorded[name], name
    assert len(parser_builds) == TREE


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import chrkit.cli\n"
        "print(len(built))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['parse', '--help'], ['--help']):\n"
        "        try:\n"
        "            chrkit.cli.main(argv)\n"
        "        except SystemExit:\n"
        "            pass\n"
        "print(len(built))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", str(TREE)]


def call(argv, columns: int) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": str(columns)}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["run", "--help"],
    ["run", "prog.chr", "--semantics", "wt2"],
])
def test_a_kept_parser_wraps_at_the_width_of_each_call(argv, parser_builds):
    wide = call(argv, 80)
    narrow = call(argv, 40)
    assert len(parser_builds) == TREE
    cli._parser.cache_clear()
    assert call(argv, 40) == narrow
    assert len(parser_builds) == 2 * TREE
    assert narrow != wide
