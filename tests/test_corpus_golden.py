"""Output guard: one round of the benchmark's verify-corpus
workload, replayed through ``chrkit.cli.main`` and checked against the
recorded outputs in ``perfbench/expected.json``.

The round holds every ``verify``, ``run`` (both semantics),
``check-replace``, ``unfold`` and ``transform`` call on the fixture corpus,
so a change that alters any of their outputs or exit codes fails here.
Output lines may carry extra JSON keys, as the ``chrkit/1`` schema only
grows. The benchmark's files are read, never written.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import check  # noqa: E402
import workloads  # noqa: E402

from chrkit.cli import main  # noqa: E402


def test_verify_corpus_round_matches_the_recorded_outputs(tmp_path):
    calls = workloads.build("verify-corpus", 1, tmp_path / "inputs")
    assert calls
    problems = [
        problem
        for call in calls
        if (problem := check.mismatch(call, *check.invoke(main, call.argv)))
    ]
    assert problems == []
