"""Tests of the benchmark itself: determinism of the traced work counts and
of the generated inputs.

    python3 -m pytest perfbench

The determinism test runs the benchmark's traced mode (one round
untraced, one traced) as a separate process, three times per workload, so
the file takes a few minutes.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import workloads
from layertrace import Tracer

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def work_counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio") and name != "trace.overhead_ratio"}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_seeds_differ(workload, tmp_path):
    first = traced_run(workload, 1)
    again = traced_run(workload, 1)
    other = traced_run(workload, 2)
    for result in (first, again, other):
        assert result["correct"] and result["failed"] == 0, result
    assert work_counts(first) == work_counts(again)
    assert any(work_counts(first).values())

    argv_1 = [c.argv for c in workloads.build(workload, 1, tmp_path / "a")]
    argv_2 = [c.argv for c in workloads.build(workload, 2, tmp_path / "a")]
    assert sorted(argv_1) != sorted(argv_2)
    assert argv_1 == [c.argv for c in workloads.build(workload, 1, tmp_path / "a")]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_round_composition_does_not_depend_on_the_seed(workload, tmp_path):
    def labels(seed):
        return sorted(c.label for c in workloads.build(workload, seed, tmp_path))

    assert labels(1) == labels(2) == labels(3)


def test_goldens_cover_every_draw(tmp_path):
    golden = workloads.load_golden()
    for goal in workloads.leq_goals():
        for sem in ("standard", "annotated"):
            assert f"leq|{goal}|{sem}" in golden
    for _, key, _ in workloads.corpus_catalogue(tmp_path):
        assert key in golden


def test_self_time_excludes_children_and_inclusive_time_counts_outermost_spans():
    tracer = Tracer()
    leaf = tracer.wrap("terms", "leaf", lambda: time.sleep(0.01))

    def middle():
        time.sleep(0.01)
        leaf()
        leaf()

    mid = tracer.wrap("constraints", "middle", middle)
    top = tracer.wrap("constraints", "top", lambda: mid())
    top()
    m = tracer.metrics()
    assert m["terms.self_s"] == m["terms.incl_s"] >= 0.02
    # the nested constraints span is inside the outer one: counted once
    assert m["constraints.incl_s"] == pytest.approx(tracer.end[0] - tracer.start[0])
    assert m["constraints.self_s"] + m["terms.self_s"] == pytest.approx(m["constraints.incl_s"])
    assert m["constraints.self_s"] >= 0.01


def test_install_wraps_cross_module_bindings_and_uninstall_restores_them():
    import chrkit.cli  # noqa: F401  (loads every layer)
    from chrkit import analysis, constraints, equivalence
    from chrkit.semantics import search

    annotated = sys.modules["chrkit.semantics.annotated"]
    original = equivalence.states_equivalent_mod
    solved = constraints.Store.solved
    tracer = Tracer()
    tracer.install()
    try:
        assert search.states_equivalent_mod is not original
        assert analysis.states_equivalent_mod is search.states_equivalent_mod
        assert search._MODES["annotated"].successors is not annotated.successors
        assert constraints.Store.solved is not solved
    finally:
        tracer.uninstall()
    assert search.states_equivalent_mod is original is analysis.states_equivalent_mod
    assert search._MODES["annotated"] is annotated
    assert constraints.Store.solved is solved
