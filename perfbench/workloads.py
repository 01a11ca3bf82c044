"""Seeded inputs for the three benchmark workloads.

``build(workload, seed, inputs)`` writes the workload's ``.chr`` programs
into ``inputs`` and returns one *round*: the list of chrkit command lines
the benchmark runs, each with its expected exit code and ``chrkit/1``
output.  A run repeats the round, so every round of a run is the same.

Every round has a fixed composition: the same slots (program, goal shape,
atom order, size, flags) in the same numbers, whatever the seed; each run
slot is run under both semantics.  The seed draws only what leaves the
amount of work alone: variable and constant names, which semantics comes
first, ``--max-depth`` slack, and the order of the calls.  So two seeds give different instances at the same cost, and
the spread between seeds measures the machine, not the draw.

Expected outputs come from three places:

* closed forms computed here without calling chrkit (chain goals and the
  Peano programs);
* for ``leq`` goals and the fixture corpus, the outputs of the seed version
  of chrkit stored in ``expected.json`` (``record_expected.py`` writes it
  and asserts there the verdicts that ``tests/test_acceptance.py`` asserts);
* the genealogy verdicts likewise, recorded once per chain length.
"""

from __future__ import annotations

import functools
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"
EXPECTED = HERE / "expected.json"

SCHEMA = "chrkit/1"


@dataclass
class Call:
    """One chrkit invocation and what it must produce."""

    label: str  # the slot it fills, e.g. "chain3 xyzw"
    argv: list  # chrkit command line without the program name
    exit_code: int
    lines: list  # expected JSON lines; the output may add keys, not drop them


# --- run-symmetric --------------------------------------------------------

CHAIN3 = "r @ p(X) <=> q(X).\nv @ q(Y) <=> s(Y).\n"
CHAIN4 = "r @ p(X) <=> q(X).\nu @ q(Y) <=> w(Y).\nv @ w(Y) <=> s(Y).\n"
LEQ = (
    "refl @ leq(X, X) <=> true.\n"
    "anti @ leq(X, Y), leq(Y, X) <=> X = Y.\n"
    "idem @ leq(X, Y) \\ leq(X, Y) <=> true.\n"
    "trans @ leq(X, Y), leq(Y, Z) ==> leq(X, Z).\n"
)

# Argument patterns for p/1 goals: x, y, z, w are variables (a repeated
# letter is a shared variable), a and b are constants.  The slot counts of
# each round are chosen so that the median and the tail percentile run.py
# reports fall inside a group of calls of about equal cost, not on the
# step between two groups, where they would jump from run to run.
CHAIN_SLOTS = [
    ("chain3", "xy"), ("chain3", "xx"), ("chain3", "xa"),
    ("chain3", "xyz"), ("chain3", "xxy"), ("chain3", "xya"),
    ("chain3", "xyzw"), ("chain3", "xxyz"), ("chain3", "xyza"),
    ("chain4", "xy"), ("chain4", "xx"), ("chain4", "xa"),
    ("chain4", "xyz"), ("chain4", "xxy"), ("chain4", "xya"), ("chain4", "xya"),
]

VAR_NAMES = [c + d for c in "ABCDEFGHKMNPTXY" for d in ("", "0", "1", "2")]
CONST_NAMES = [c + d for c in "abcehkmnt" for d in ("", "1", "2")]

# leq cycles, all at --max-depth 3, where transitivity keeps the search
# going until the depth budget stops it (exit 3).  U, V, W, T are goal
# variables, c a constant.
LEQ_SHAPES = {
    "cycle": (("U", "V"), ("V", "U")),
    "cycle-const": (("c", "V"), ("V", "c")),
    "cycle-refl": (("U", "V"), ("V", "U"), ("W", "W")),
    "cycle-free": (("U", "V"), ("V", "U"), ("W", "T")),
}
LEQ_NAMINGS = (
    {"U": "A", "V": "B", "W": "C", "T": "D"},
    {"U": "Y", "V": "X", "W": "Z", "T": "K"},
    {"U": "M1", "V": "N1", "W": "M2", "T": "N2"},
)
LEQ_CONSTS = ("a", "b")
LEQ_DEPTH = "3"


def _semantics_pairs(rng: random.Random, n: int) -> list:
    """n pairs of (first, second) semantics, each pair holding both."""
    return [tuple(rng.sample(["standard", "annotated"], 2)) for _ in range(n)]


def _chain_goal(rng: random.Random, pattern: str) -> list:
    letters = sorted(set(pattern))
    var_names = iter(rng.sample(VAR_NAMES, len(letters)))
    const_names = iter(rng.sample(CONST_NAMES, len(letters)))
    name = {ch: next(const_names if ch in "ab" else var_names) for ch in letters}
    return [name[ch] for ch in pattern]


def leq_goals() -> list:
    """Every leq goal text the generator can draw."""
    return sorted({
        _leq_goal(shape, naming, const)
        for shape in LEQ_SHAPES.values()
        for naming in LEQ_NAMINGS
        for const in LEQ_CONSTS
    })


def _leq_goal(shape: tuple, naming: dict, const: str) -> str:
    subst = dict(naming, c=const)
    return ", ".join(f"leq({subst[x]}, {subst[y]})" for x, y in shape)


def leq_argv(inputs: Path, goal: str, semantics: str) -> list:
    return ["run", str(inputs / "leq.chr"), "--json", "--semantics", semantics,
            "--max-depth", LEQ_DEPTH, "--goal", goal]


def _run_symmetric(rng: random.Random, inputs: Path) -> list:
    programs = {"chain3": CHAIN3, "chain4": CHAIN4, "leq": LEQ}
    for name, text in programs.items():
        (inputs / f"{name}.chr").write_text(text)
    calls = []
    for (prog, pattern), sems in zip(CHAIN_SLOTS, _semantics_pairs(rng, len(CHAIN_SLOTS))):
        for sem in sems:
            args = _chain_goal(rng, pattern)
            goal = ", ".join(f"p({a})" for a in args)
            answer = ", ".join(sorted(f"s({a})" for a in args))
            argv = ["run", str(inputs / f"{prog}.chr"), "--json",
                    "--semantics", sem, "--goal", goal]
            calls.append(Call(f"{prog} {pattern}", argv, 0, [_run_line(goal, sem, answer)]))
    for (shape_name, shape), sems in zip(
        LEQ_SHAPES.items(), _semantics_pairs(rng, len(LEQ_SHAPES))
    ):
        for sem in sems:
            goal = _leq_goal(shape, rng.choice(LEQ_NAMINGS), rng.choice(LEQ_CONSTS))
            key = f"leq|{goal}|{sem}"
            calls.append(_golden(f"leq {shape_name}", key, leq_argv(inputs, goal, sem), inputs))
    return calls


# --- run-deep ---------------------------------------------------------------

COPY = (
    "r @ p(s(X), Y) <=> Y = s(Z), p(X, Z), d(Z).\n"
    "z @ p(z, Y) <=> Y = z.\n"
)
ADD = (
    "a @ add(s(X), Y, R) <=> R = s(Q), add(X, Y, Q), d(Q).\n"
    "az @ add(z, Y, R) <=> R = Y.\n"
)
# (program, depth): depth is the number of r/a steps; each step leaves one
# d/1 atom and one more equation in the built-in store.  The six add-36
# calls hold the round's median, the four copy-44 calls its p75.
DEEP_SLOTS = [
    ("copy", 20), ("add", 24), ("copy", 28), ("add", 36), ("add", 36),
    ("add", 36), ("copy", 44), ("copy", 44), ("add", 56),
]


ADDEND = 2  # the second argument of add is s(s(z))


def nat(n: int) -> str:
    return "s(" * n + "z" + ")" * n


def _run_deep(rng: random.Random, inputs: Path) -> list:
    (inputs / "copy.chr").write_text(COPY)
    (inputs / "add.chr").write_text(ADD)
    calls = []
    for (prog, n), sems in zip(DEEP_SLOTS, _semantics_pairs(rng, len(DEEP_SLOTS))):
        for sem in sems:
            var = rng.choice(VAR_NAMES)
            if prog == "copy":
                m, goal = 0, f"p({nat(n)}, {var})"
            else:
                m, goal = ADDEND, f"add({nat(n)}, {nat(ADDEND)}, {var})"
            # n rewriting steps plus the closing z/az step
            depth = n + 1 + rng.randint(0, 2)
            trail = sorted(f"d({nat(m + k)})" for k in range(n))
            answer = ", ".join(trail + [f"{var}={nat(n + m)}"])
            argv = ["run", str(inputs / f"{prog}.chr"), "--json", "--semantics", sem,
                    "--max-depth", str(depth), "--goal", goal]
            calls.append(Call(f"{prog} {n}", argv, 0, [_run_line(goal, sem, answer)]))
    return calls


# --- verify-corpus ------------------------------------------------------------

# the goal suites of tests/test_acceptance.py
GOAL_SUITES = {
    "gen_adam": (
        "f(adam, seth), f(seth, enosh), f(enosh, kenan)",
        "f(X, Y), f(Y, Z), f(Z, W)",
        "g(a, b)",
    ),
    "gen_adam_refined": (
        "f(adam, seth), f(seth, enosh), f(enosh, kenan)",
        "f(a, b), f(b, c), f(c, d)",
    ),
    "mau": ("p(X)", "p(a)", "p(b)", "q(a)"),
    "unicatesta": ("p(X), h(a), q(b)", "p(X)", "h(V)"),
    "matching": ("g(a, R)", "g(c, R)", "f(a, W)"),
    "token_update": ("h", "k", "s, s", "h, h"),
    "solve_order_loop": ("V=d, p(V)", "p(a)", "q(d)"),
    "chain": ("p(a)", "p(X)", "p(X), q(b)", "s(c)"),
}
GENEALOGY_LENGTHS = (3, 4, 5, 6)
GENEALOGY_NAMES = [c + str(d) for c in "abcehkmnt" for d in range(10)]


def rule_names(prog: str) -> list:
    text = (CORPUS / f"{prog}.chr").read_text()
    return [line.split("@")[0].strip() for line in text.splitlines()
            if "@" in line and not line.lstrip().startswith("%")]


def genealogy_goal(names: list) -> str:
    return ", ".join(f"f({a}, {b})" for a, b in zip(names, names[1:]))


def corpus_catalogue(inputs: Path) -> list:
    """(label, golden key, argv) for every corpus call of a round;
    ``record_expected.py`` records each one.  Genealogy chains are listed
    with their canonical names a0, a1, ...; a round draws other names."""
    out = []
    goals = [(prog, goal) for prog, suite in GOAL_SUITES.items() for goal in suite]
    for i, (prog, goal) in enumerate(goals):
        path = str(inputs / f"{prog}.chr")
        out.append((f"verify {prog}", f"verify|{prog}|{goal}",
                    ["verify", path, "--json", "--goal", goal,
                     "--witness-dir", str(inputs / "witnesses" / f"goal{i:02d}")]))
        for sem in ("standard", "annotated"):
            out.append((f"run {prog}", f"run|{prog}|{goal}|{sem}",
                        ["run", path, "--json", "--semantics", sem, "--goal", goal]))
    for prog in GOAL_SUITES:
        path = str(inputs / f"{prog}.chr")
        for rule in rule_names(prog):
            for mode in ("safe", "weak"):
                flag = ["--weak"] if mode == "weak" else []
                out.append((f"check-replace {prog}", f"check-replace|{prog}|{rule}|{mode}",
                            ["check-replace", path, "--json", "--rule", rule] + flag))
            out.append((f"unfold {prog}", f"unfold|{prog}|{rule}",
                        ["unfold", path, "--json", "--rule", rule, "--all"]))
    transform = ["transform", str(inputs / "chain.chr"), "--json", "--sequence", "r"]
    for goal in GOAL_SUITES["chain"]:
        transform += ["--goal", goal]
    transform += ["--out", str(inputs / "chain_new.chr"),
                  "--cert", str(inputs / "chain_cert.jsonl")]
    out.append(("transform chain", "transform|chain", transform))
    for n in GENEALOGY_LENGTHS:
        out.append((f"genealogy {n}", f"genealogy|{n}",
                    genealogy_argv(inputs, n, [f"a{i}" for i in range(n + 1)])))
    return out


def genealogy_argv(inputs: Path, n: int, names: list) -> list:
    return ["verify", str(inputs / "gen_adam.chr"), "--json", "--goal",
            genealogy_goal(names), "--witness-dir",
            str(inputs / "witnesses" / f"genealogy{n}")]


def _verify_corpus(rng: random.Random, inputs: Path) -> list:
    for prog in GOAL_SUITES:
        shutil.copyfile(CORPUS / f"{prog}.chr", inputs / f"{prog}.chr")
    calls = []
    for label, key, argv in corpus_catalogue(inputs):
        call = _golden(label, key, argv, inputs)
        if key.startswith("genealogy|"):
            n = int(key.split("|")[1])
            names = rng.sample(GENEALOGY_NAMES, n + 1)
            call.argv = genealogy_argv(inputs, n, names)
            call.lines = [dict(line, goal=genealogy_goal(names)) for line in call.lines]
        calls.append(call)
    return calls


# --- shared -------------------------------------------------------------------

WORKLOADS = {
    "run-symmetric": _run_symmetric,
    "run-deep": _run_deep,
    "verify-corpus": _verify_corpus,
}

INPUTS_TOKEN = "{inputs}"


@functools.cache
def load_golden() -> dict:
    return json.loads(EXPECTED.read_text())


def relocate(obj, old: str, new: str):
    """Rewrite every string that starts with the path ``old`` to start with
    ``new`` instead, anywhere inside a JSON value."""
    if isinstance(obj, str):
        return new + obj[len(old):] if obj.startswith(old) else obj
    if isinstance(obj, list):
        return [relocate(x, old, new) for x in obj]
    if isinstance(obj, dict):
        return {k: relocate(v, old, new) for k, v in obj.items()}
    return obj


def _golden(label: str, key: str, argv: list, inputs: Path) -> Call:
    want = load_golden()[key]
    lines = relocate(want["lines"], INPUTS_TOKEN, str(inputs))
    return Call(label, argv, want["exit"], lines)


def _run_line(goal: str, semantics: str, answer: str) -> dict:
    """A run that finds exactly one answer within its budgets."""
    return {"schema": SCHEMA, "cmd": "run", "goal": goal, "semantics": semantics,
            "answers": [answer], "truncated": False}


def build(workload: str, seed: int, inputs: Path) -> list:
    """Write the workload's programs into ``inputs`` and return one round
    of calls, in the order the seed draws."""
    rng = random.Random(f"{workload}/{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    calls = WORKLOADS[workload](rng, inputs)
    rng.shuffle(calls)
    return calls
