"""Write perfbench/expected.json: the outputs of this version of chrkit for
every leq goal and corpus call the generators can draw.

    python3 perfbench/record_expected.py

The file fixes the behaviour to keep, so it is recorded once, on the
version whose outputs the project has decided to preserve; re-recording it
to make a failing check pass would hide the change the check caught.
Before writing, this script asserts the verdicts that
tests/test_acceptance.py asserts for the same programs, so the recorded
outputs agree with the acceptance criteria.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from chrkit.cli import main  # noqa: E402

import workloads  # noqa: E402
from check import invoke  # noqa: E402


def record(argv: list, inputs: Path) -> dict:
    code, stdout, stderr, error = invoke(main, argv)
    if error is not None or code not in (0, 3, 4):
        raise SystemExit(f"chrkit {' '.join(argv)} failed: {error or stderr}")
    lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    return {"exit": code, "lines": workloads.relocate(lines, str(inputs), workloads.INPUTS_TOKEN)}


def require(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"recorded outputs break an acceptance verdict: {what}")


def check_acceptance(golden: dict) -> None:
    """The verdicts tests/test_acceptance.py asserts, read off the record."""
    for key, want in golden.items():
        kind = key.split("|")[0]
        if kind in ("verify", "genealogy"):
            (line,) = want["lines"]
            require(line["qa_equal"] is True, key)
            if kind == "verify":  # the corpus never hits a budget
                require(line["truncated"] is False and want["exit"] == 0, key)
        if kind == "leq":
            require(want["exit"] == 3 and want["lines"][0]["truncated"], key)

    def verdict(prog, rule, mode):
        (line,) = golden[f"check-replace|{prog}|{rule}|{mode}"]["lines"]
        return line

    def hazards(line):
        return [(h["kind"], h["source"]) for h in line["hazards"]]

    mau_safe, mau_weak = verdict("mau", "r", "safe"), verdict("mau", "r", "weak")
    require(not mau_safe["ok"] and not mau_safe["hazards"] and not mau_weak["ok"], "mau r")
    uni = verdict("unicatesta", "r", "safe")
    require(not uni["ok"] and set(hazards(uni)) == {("partial-head", "rp")}, "unicatesta r")
    mat = verdict("matching", "r1", "safe")
    require(not mat["ok"] and hazards(mat) == [("unify-only", "r2")], "matching r1")
    chain = verdict("chain", "r", "safe")
    require(chain["ok"] and chain["sites"] == [{"source": "v", "ids": [1]}], "chain r")
    require(verdict("solve_order_loop", "r1", "safe")["ok"], "solve_order_loop r1 safe")
    require(verdict("solve_order_loop", "r1", "weak")["ok"], "solve_order_loop r1 weak")
    for sem in ("standard", "annotated"):
        (line,) = golden[f"run|token_update|h|{sem}"]["lines"]
        require(line["answers"] == ["k, s"], f"token_update h {sem}")
    require(len(golden["unfold|gen_adam|r1"]["lines"]) == 3, "gen_adam r1 unfolds")
    # both semantics give the same answers on every goal
    for key, want in golden.items():
        if key.startswith(("run|", "leq|")) and key.endswith("|standard"):
            other = golden[key[: -len("standard")] + "annotated"]
            same = want["exit"] == other["exit"] and [
                dict(line, semantics=None) for line in want["lines"]
            ] == [dict(line, semantics=None) for line in other["lines"]]
            require(same, key)


def main_record() -> None:
    inputs = Path(".perfbench_out") / "record" / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "leq.chr").write_text(workloads.LEQ)
    for prog in workloads.GOAL_SUITES:
        shutil.copyfile(workloads.CORPUS / f"{prog}.chr", inputs / f"{prog}.chr")
    golden = {}
    for goal in workloads.leq_goals():
        for sem in ("standard", "annotated"):
            golden[f"leq|{goal}|{sem}"] = record(workloads.leq_argv(inputs, goal, sem), inputs)
    for _, key, argv in workloads.corpus_catalogue(inputs):
        golden[key] = record(argv, inputs)
    check_acceptance(golden)
    workloads.EXPECTED.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(inputs.parent)
    print(f"wrote {len(golden)} expected outputs to {workloads.EXPECTED}")


if __name__ == "__main__":
    os.chdir(ROOT)
    main_record()
