"""Output guard: one round (seed 1) of each of the benchmark's workloads,
replayed through ``chrkit.cli.main`` and checked against the outputs the
round expects: closed forms for the chain and Peano goals, otherwise the
recorded outputs in ``perfbench/expected.json``.

The verify-corpus round holds every ``verify``, ``run`` (both semantics),
``check-replace``, ``unfold`` and ``transform`` call on the fixture corpus;
the run-symmetric and run-deep rounds replay the answers ``render_answer``
gives on interchangeable atoms, leq cycles and deep Peano terms. So a
change that alters any of these outputs or exit codes fails here. Output
lines may carry extra JSON keys, as the ``chrkit/1`` schema only grows.
The benchmark's files are read, never written.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import check  # noqa: E402
import workloads  # noqa: E402

from chrkit.cli import main  # noqa: E402


@pytest.mark.parametrize("workload", ["run-symmetric", "run-deep", "verify-corpus"])
def test_round_matches_the_recorded_outputs(workload, tmp_path):
    calls = workloads.build(workload, 1, tmp_path / "inputs")
    assert calls
    problems = [
        problem
        for call in calls
        if (problem := check.mismatch(call, *check.invoke(main, call.argv)))
    ]
    assert problems == []
