"""The command line surface, byte for byte: the ``parse`` and ``annotate``
records on a plain and an annotated program, the ``run``, ``unfold`` and
``check-replace`` outputs and exit codes on a few programs, the ``--help``
text of ``chrkit`` and of each subcommand, and one usage error per
subcommand.

The expected stdout, stderr and exit code of every case are in
tests/fixtures/cli_surface.json. After an intended change of the surface,
record them again with

    PYTHONPATH=src python3 tests/test_cli_surface.py

argparse lays out help text by terminal width and Python version: the
cases run at 80 columns, and the file was recorded under Python 3.11.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from chrkit.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES / "cli_surface.json"

ANNOTATED = """\
% annotated: numbered bodies and token stores
r1 @ h <=> k#1, X=a.
r2 @ k ==> s#1, s#2 ; {r2@1}.
r3 @ p(X), q(Y) <=> X=Y | q(X)#1, p(Y)#2 ; {r1@2, r3@1,2}.
"""

SUBCOMMANDS = ("parse", "annotate", "run", "unfold", "check-replace", "transform", "verify")

RUN_TWO_GOALS = ["{plain}", "--goal", "p(X)", "--goal", "X=a, p(X)", "--max-depth", "1"]

# "{plain}", "{annotated}" and "{matching}" stand for the program files
CASES = {
    **{
        f"{cmd} --json {kind}": [cmd, "--json", f"{{{kind}}}"]
        for cmd in ("parse", "annotate")
        for kind in ("plain", "annotated")
    },
    **{
        f"{cmd} {kind}": [cmd, f"{{{kind}}}"]
        for cmd in ("parse", "annotate")
        for kind in ("plain", "annotated")
    },
    # two goal headers; the second goal hits the budget (exit 3)
    "run plain two goals": ["run", *RUN_TWO_GOALS],
    "run --json plain two goals": ["run", "--json", *RUN_TWO_GOALS],
    # two partial-head hazards (exit 4)
    "check-replace annotated r3": ["check-replace", "{annotated}", "--rule", "r3"],
    "check-replace --json annotated r3":
        ["check-replace", "--json", "{annotated}", "--rule", "r3"],
    # one unify-only hazard
    "check-replace matching r1": ["check-replace", "{matching}", "--rule", "r1"],
    "check-replace --json matching r1":
        ["check-replace", "--json", "{matching}", "--rule", "r1"],
    "unfold annotated r1": ["unfold", "{annotated}", "--rule", "r1"],
    "unfold --json annotated r1": ["unfold", "--json", "{annotated}", "--rule", "r1"],
    "unfold --all annotated r1": ["unfold", "{annotated}", "--rule", "r1", "--all"],
    "unfold --all --json annotated r1":
        ["unfold", "--json", "{annotated}", "--rule", "r1", "--all"],
    "chrkit --help": ["--help"],
    **{f"{cmd} --help": [cmd, "--help"] for cmd in SUBCOMMANDS},
    "usage: no command": [],
    "usage: parse without a program": ["parse"],
    "usage: annotate with an unknown flag": ["annotate", "{plain}", "--goal", "p(X)"],
    "usage: run with an unknown semantics": ["run", "{plain}", "--semantics", "wt2"],
    "usage: unfold without --rule": ["unfold", "{plain}"],
    "usage: check-replace without --rule": ["check-replace", "{plain}", "--weak"],
    "usage: transform without --sequence": ["transform", "{plain}", "--goal", "p(X)"],
    "usage: verify with a non-integer budget": ["verify", "{plain}", "--max-depth", "x"],
}


def invoke(argv, paths):
    """Run ``main`` on argv at 80 columns; its (exit code, stdout, stderr)."""
    argv = [a.format(**paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def program_paths(directory: Path) -> dict:
    annotated = directory / "annotated.chr"
    annotated.write_text(ANNOTATED)
    return {
        "plain": str(FIXTURES / "mau.chr"),
        "annotated": str(annotated),
        "matching": str(FIXTURES / "matching.chr"),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_surface_matches_the_recorded_output(case, tmp_path):
    expected = json.loads(GOLDEN.read_text())[case]
    assert invoke(CASES[case], program_paths(tmp_path)) == expected


def test_every_subcommand_has_a_help_case_and_a_usage_case():
    for cmd in SUBCOMMANDS:
        assert CASES[f"{cmd} --help"] == [cmd, "--help"]
        assert any(name.startswith(f"usage: {cmd} ") and argv[0] == cmd
                   for name, argv in CASES.items())
    recorded = json.loads(GOLDEN.read_text())
    assert sorted(recorded) == sorted(CASES)
    for name, result in recorded.items():
        if name.startswith("usage: "):
            assert result["code"] == 2 and result["out"] == ""
        if name.endswith("--help"):
            assert result["code"] == 0 and result["err"] == ""


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = program_paths(Path(tmp))
        results = {name: invoke(argv, paths) for name, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} cases to {GOLDEN}", file=sys.stderr)
