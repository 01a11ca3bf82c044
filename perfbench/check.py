"""Run one chrkit command line in-process and check what it printed."""

from __future__ import annotations

import contextlib
import io
import json

_MISSING = object()


def invoke(main, argv: list) -> tuple:
    """Call ``chrkit.cli.main(argv)`` with stdout and stderr captured.

    Returns (exit code, stdout, stderr, error); error is the repr of an
    exception that escaped ``main`` and the exit code is then None.
    """
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed call, not a benchmark crash
            error = repr(exc)
    return code, out.getvalue(), err.getvalue(), error


def mismatch(call, code, stdout: str, stderr: str, error) -> dict | None:
    """None when the call produced what ``call`` expects, else a report
    naming the argv, the expected and the actual output.

    Every expected JSON line must come out, in order, with every expected
    key at its expected value; lines may carry additional keys, since the
    ``chrkit/1`` schema only ever grows.
    """
    problem = None
    lines = []
    if error is not None:
        problem = f"raised {error}"
    elif code != call.exit_code:
        problem = f"exit code {code}, expected {call.exit_code}"
    else:
        try:
            lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        except json.JSONDecodeError as exc:
            problem = f"output is not JSON lines: {exc}"
    if problem is None:
        if len(lines) != len(call.lines):
            problem = f"{len(lines)} output lines, expected {len(call.lines)}"
        else:
            for i, (want, got) in enumerate(zip(call.lines, lines)):
                wrong = sorted(k for k, v in want.items() if got.get(k, _MISSING) != v)
                if wrong:
                    problem = f"line {i + 1} differs in {', '.join(wrong)}"
                    break
    if problem is None:
        return None
    return {
        "label": call.label,
        "argv": ["chrkit"] + list(call.argv),
        "problem": problem,
        "expected": {"exit": call.exit_code, "lines": call.lines},
        "actual": {"exit": code, "stdout": stdout, "stderr": stderr, "error": error},
    }

