"""A recorded behaviour snapshot: seeded programs and every report the
toolkit gives on them.

Each case is drawn from its own ``random.Random``, seeded by its family
and number, so any record can be drawn again on its own and the set never
drifts (no shrinking, no example database). A record holds the program,
the goal, the budgets and

* the answer sets of both semantics: texts, ``truncated`` and the nodes
  ``explore`` expanded;
* the termination, solve-order probe, lockstep, answer-diff (standard
  against annotated) and confluence reports, witnesses included.

A call that raises is recorded as its exception. The families:

* ``random``: 2-5 rules over p/1, q/1, r/2 and s/0 with guards, body
  equations, propagation and simpagation; goals of 1-3 atoms; 3-6
  applies and 60-300 states;
* ``equal-shaped``: rules whose bodies add atoms of one shape with free
  arguments, so that states with equal fingerprints are often not
  equivalent (fingerprint-equal misses of the exact check);
* ``annotated``: annotated programs with token stores;
* ``deep``: goals and rule bodies holding 1,500-deep terms;
* ``collision``: the program whose equal fingerprints make the exact
  check backtrack over many bijections, at 4 applies;
* ``known-wrong``: the three command lines whose outputs are known to be
  wrong, run through ``chrkit.cli.main`` as they are, with the files they
  write.

Run as a script, this writes tests/fixtures/snapshot.jsonl, and
tests/fixtures/snapshot_counts.json with, per family, the exact checks
(hits and misses), the fingerprints, the live views
(``analysis._live_view``) and the store comparisons
(``equivalence.stores_equivalent``) that recording its cases made
(``exact_checks``), which it also prints:

    PYTHONPATH=src python3 tests/snapshot.py

A case that takes over a second to record is left out: those in ``SLOW``,
and any other, which the script names. tests/test_snapshot.py draws every recorded case again and
compares.
"""

import contextlib
import dataclasses
import io
import json
import random
import shutil
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from chrkit import analysis, equivalence
from chrkit.analysis import (
    check_normal_termination,
    confluence_of,
    diff_answer_sets,
    probe_solve_orders,
)
from chrkit.cli import main
from chrkit.semantics import search
from chrkit.semantics.search import explore, lockstep_run, qualified_answers
from chrkit.syntax import parse_goal, parse_program

FIXTURES = Path(__file__).parent / "fixtures"
SNAPSHOT = FIXTURES / "snapshot.jsonl"
# family -> the work counts of exact_checks, summed over its recorded cases
COUNTS = FIXTURES / "snapshot_counts.json"

# family -> number of cases drawn
FAMILIES = {
    "random": 160,
    "equal-shaped": 8,
    "annotated": 50,
    "deep": 4,
    "collision": 1,
    "known-wrong": 3,
}

# cases that took over a second to record, on a two-vCPU VM under
# Python 3.11; the script leaves them out, and any other that takes that long
SLOW = {("random", 123), ("annotated", 47)}

PREDICATES = (("p", 1), ("q", 1), ("r", 2), ("s", 0))
HEAD_VARS = ("X", "Y", "Z")
GOAL_VARS = ("A", "B")
CONSTANTS = ("a", "b")


def _term(rng, names, depth=1):
    roll = rng.random()
    if roll < 0.6:
        return rng.choice(names)
    if roll < 0.85 or depth == 0:
        return rng.choice(CONSTANTS)
    return f"f({_term(rng, names, depth - 1)})"


def _atom(rng, names):
    name, arity = rng.choice(PREDICATES)
    if not arity:
        return name
    return f"{name}({', '.join(_term(rng, names) for _ in range(arity))})"


def _vars(texts):
    return sorted({c for t in texts for c in t if c.isupper()})


def _guard(rng, head_vars) -> str:
    if not head_vars or rng.random() < 0.6:
        return ""
    left = rng.choice(head_vars)
    return f"{left} = {_term(rng, head_vars + ['a', 'b'] * 2)} | "


def _body(rng, head_vars) -> list:
    names = head_vars + ["W"]
    items = []
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.65:
            items.append(_atom(rng, names))
        elif roll < 0.95:
            items.append(f"{rng.choice(names)} = {_term(rng, names)}")
        else:
            items.append("false")
    return items


def _heads(rng):
    """Kept and removed head atoms of one rule kind."""
    kind = rng.choice(("simplification", "propagation", "simpagation"))
    heads = [_atom(rng, HEAD_VARS) for _ in range(rng.randint(1, 2))]
    if kind == "simpagation":
        if len(heads) == 1:
            heads.append(_atom(rng, HEAD_VARS))
        return heads[:1], heads[1:]
    if kind == "propagation":
        return heads, []
    return [], heads


def _rule_text(name, kept, removed, guard, body, tokens="") -> str:
    if kept and removed:
        head = f"{', '.join(kept)} \\ {', '.join(removed)} <=>"
    elif removed:
        head = f"{', '.join(removed)} <=>"
    else:
        head = f"{', '.join(kept)} ==>"
    return f"{name} @ {head} {guard}{', '.join(body) or 'true'}{tokens}."


def _goal(rng) -> str:
    items = [_atom(rng, GOAL_VARS) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        items.insert(
            rng.randint(0, len(items)), f"{rng.choice(GOAL_VARS)} = {_term(rng, GOAL_VARS)}"
        )
    return ", ".join(items)


def _budgets(rng) -> dict:
    return {"max_applies": rng.randint(3, 6), "max_states": rng.randint(60, 300)}


def random_case(rng) -> dict:
    rules = []
    for i in range(rng.randint(2, 5)):
        kept, removed = _heads(rng)
        head_vars = _vars(kept + removed)
        rules.append(_rule_text(
            f"r{i}", kept, removed, _guard(rng, head_vars), _body(rng, head_vars)
        ))
    return {"program": "\n".join(rules), "goal": _goal(rng), **_budgets(rng)}


def equal_shaped_case(rng) -> dict:
    """A rule that replaces an ``r/2`` atom by a cycle of ``r/2`` atoms over
    fresh variables and one atom over a compound of the head's. Every
    variable of a cycle occurs once first and once second, so states whose
    cycles differ in length share a shape and a fingerprint without being
    equivalent."""
    k = rng.randint(1, 3)
    fresh = ("W", "V", "U")[:k]
    body = [f"r({a}, {b})" for a, b in zip(fresh, fresh[1:] + fresh[:1])]
    body.insert(rng.randint(0, k), f"r(f({rng.choice(HEAD_VARS[:2])}), {rng.choice(fresh)})")
    goal = [f"r({rng.choice(GOAL_VARS)}, {rng.choice(GOAL_VARS)})"
            for _ in range(rng.randint(1, 2))]
    return {
        "program": _rule_text("r", [], ["r(X, Y)"], rng.choice(("", "b = b | ")), body),
        "goal": ", ".join(goal),
        "max_applies": 3,
        "max_states": rng.randint(60, 120),
    }


def annotated_case(rng) -> dict:
    """Identified bodies whose token stores record firings of the
    program's rules on body atoms."""
    shapes = [_heads(rng) for _ in range(rng.randint(2, 4))]
    rules = []
    for i, (kept, removed) in enumerate(shapes):
        head_vars = _vars(kept + removed)
        body = _body(rng, head_vars)
        n = 0
        for k, item in enumerate(body):
            if item[0].islower() and "=" not in item and item != "false":
                n += 1
                body[k] = f"{item}#{n}"
        tokens = []
        for _ in range(rng.randint(0, 2)):
            j = rng.randrange(len(shapes))
            width = len(shapes[j][0]) + len(shapes[j][1])
            if width <= n:
                ids = rng.sample(range(1, n + 1), width)
                tokens.append(f"r{j}@{','.join(map(str, ids))}")
        store = f" ; {{{', '.join(sorted(set(tokens)))}}}" if tokens else ""
        rules.append(_rule_text(f"r{i}", kept, removed, _guard(rng, head_vars), body, store))
    return {"program": "\n".join(rules), "goal": _goal(rng), **_budgets(rng)}


def _nested(depth: int, leaf: str) -> str:
    return "s(" * depth + leaf + ")" * depth


DEEP = [
    # a goal binding peeled by one level per firing
    {"program": "r @ p(s(X)) <=> q(X).\nv @ q(s(Y)) <=> p(Y).",
     "goal": f"X = {_nested(1500, 'z')}, p(X)"},
    # a rule body holding the deep term
    {"program": f"r @ p(X) <=> q(X, {_nested(1500, 'z')}).\nv @ q(Y, Z) <=> t(Y, Z).",
     "goal": "p(a)"},
    # two equal deep atoms, one of them removed
    {"program": "r @ p(X) \\ p(X) <=> q.", "goal": f"p({_nested(1500, 'z')}), p({_nested(1500, 'z')})"},
    # a deep guard and a deep equation between the goal variables
    {"program": f"r @ p(X) <=> X = {_nested(1500, 'Y')} | q(Y).\nv @ q(Z) ==> s.",
     "goal": f"A = {_nested(1500, 'B')}, p(A)"},
]


COLLISION = {
    "program": "r1 @ p(X) <=> b = b | p(W), p(Y), p(f(X)).",
    "goal": "p(B), p(A)",
    "max_applies": 4,
    "max_states": 300,
}

# tests/test_cli_surface.py's annotated program
ANNOTATED = """\
r1 @ h <=> k#1, X=a.
r2 @ k ==> s#1, s#2 ; {r2@1}.
r3 @ p(X), q(Y) <=> X=Y | q(X)#1, p(Y)#2 ; {r1@2, r3@1,2}.
"""

# each a list of argv, "{tmp}" standing for a scratch directory holding
# annotated.chr and copies of tests/fixtures/gen_adam.chr and chain.chr
KNOWN_WRONG = [
    # qa-equal NO, exit 4, with the same answer on both sides of the witness
    [["verify", "{tmp}/annotated.chr", "--goal", "h", "--witness-dir", "{tmp}/w"]],
    # three rules named r1, which verify then rejects with exit 1
    [["transform", "{tmp}/gen_adam.chr", "--sequence", "r1", "--weak", "--goal", "f(a,b)"],
     ["verify", "{tmp}/gen_adam.out.chr", "--goal", "f(a,b)", "--witness-dir", "{tmp}/w"]],
    # a budget hit with no answers reported as changed answers, exit 4
    [["transform", "{tmp}/chain.chr", "--sequence", "r", "--goal", "p(X)", "--max-depth", "1"]],
]


def _plain(value):
    """The value as JSON would give it back: tuples become lists."""
    return json.loads(json.dumps(value))


def _error(exc) -> dict:
    return {"error": f"{type(exc).__name__}: {' '.join(str(exc).split())}"}


def _report(call):
    """The call's report as plain data, or the exception it raised."""
    try:
        result = call()
    except (RecursionError, ValueError) as exc:
        return _error(exc)
    return _plain(dataclasses.asdict(result))


def record_reports(case: dict) -> dict:
    program, goal = parse_program(case["program"]), parse_goal(case["goal"])
    budgets = (case["max_applies"], case["max_states"])
    out, answers = {}, {}
    for semantics in ("standard", "annotated"):
        try:
            expanded = explore(program, goal, semantics, *budgets).expanded
            answers[semantics] = qualified_answers(program, goal, semantics, *budgets)
        except (RecursionError, ValueError) as exc:
            out[semantics] = _error(exc)
            continue
        out[semantics] = {
            "texts": list(answers[semantics].texts),
            "truncated": answers[semantics].truncated,
            "expanded": expanded,
        }
    out["termination"] = _report(lambda: check_normal_termination(program, goal, *budgets))
    out["probe"] = _report(lambda: probe_solve_orders(program, goal, *budgets))
    out["lockstep"] = _report(lambda: lockstep_run(program, goal, *budgets))
    if len(answers) == 2:
        out["diff"] = _report(
            lambda: diff_answer_sets(answers["standard"], answers["annotated"]))
    if "annotated" in answers:
        out["confluence"] = _report(lambda: confluence_of(answers["annotated"]))
    return out


def record_command_lines(steps) -> dict:
    """Run each argv in a fresh scratch directory: exit code, stdout and
    stderr per step, then every file the steps wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "annotated.chr").write_text(ANNOTATED)
        for name in ("gen_adam.chr", "chain.chr"):
            shutil.copy(FIXTURES / name, Path(tmp) / name)
        inputs = {p.name for p in Path(tmp).iterdir()}
        runs = []
        for argv in steps:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([a.format(tmp=tmp) for a in argv])
            runs.append({
                "code": code,
                "out": out.getvalue().replace(tmp, "{tmp}"),
                "err": err.getvalue().replace(tmp, "{tmp}"),
            })
        files = {
            str(p.relative_to(tmp)): p.read_text().replace(tmp, "{tmp}")
            for p in sorted(Path(tmp).rglob("*"))
            if p.is_file() and p.name not in inputs
        }
    return {"runs": runs, "files": files}


def draw(family: str, seed: int) -> dict:
    """The case: a program, a goal and budgets, or command lines."""
    rng = random.Random(f"{family}:{seed}")
    case = {
        "random": lambda: random_case(rng),
        "equal-shaped": lambda: equal_shaped_case(rng),
        "annotated": lambda: annotated_case(rng),
        "deep": lambda: {**DEEP[seed], "max_applies": 3, "max_states": 60},
        "collision": lambda: COLLISION,
        "known-wrong": lambda: {"steps": KNOWN_WRONG[seed]},
    }[family]()
    return {"family": family, "seed": seed, **case}


def record(family: str, seed: int) -> dict:
    """The record of one case: the case and what the toolkit gives on it."""
    case = draw(family, seed)
    if family == "known-wrong":
        return {**case, **record_command_lines(case["steps"])}
    return {**case, **record_reports(case)}


COUNTED = ("hits", "misses", "fingerprints", "views", "stores")


@contextlib.contextmanager
def exact_checks():
    """Count the exact state checks that the search and the verifiers
    make, per outcome, the state fingerprints they compute, the live
    views the cycle checks build and the built-in stores the lockstep
    check compares. Each exact check runs between two states with equal
    fingerprints, so a miss is a fingerprint-equal pair that is not
    equivalent."""
    counts = dict.fromkeys(COUNTED, 0)
    original, fingerprint = search.states_equivalent_mod, search.state_fingerprint
    live_view, compare_stores = analysis._live_view, equivalence.stores_equivalent

    def counted(*args):
        same = original(*args)
        counts["hits" if same else "misses"] += 1
        return same

    def counted_fingerprint(*args):
        counts["fingerprints"] += 1
        return fingerprint(*args)

    def counted_view(*args):
        counts["views"] += 1
        return live_view(*args)

    def counted_stores(*args):
        counts["stores"] += 1
        return compare_stores(*args)

    search.states_equivalent_mod = analysis.states_equivalent_mod = counted
    search.state_fingerprint = counted_fingerprint
    analysis._live_view = counted_view
    equivalence.stores_equivalent = counted_stores
    try:
        yield counts
    finally:
        search.states_equivalent_mod = analysis.states_equivalent_mod = original
        search.state_fingerprint = fingerprint
        analysis._live_view = live_view
        equivalence.stores_equivalent = compare_stores


def line(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True)


class _Slow(Exception):
    pass


def _too_slow(signum, frame):
    raise _Slow


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _too_slow)
    lines, left_out, totals = [], [], {}
    start = time.perf_counter()
    for family, count in FAMILIES.items():
        total = totals[family] = Counter(dict.fromkeys(COUNTED, 0))
        for seed in range(count):
            if (family, seed) in SLOW:
                continue
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            try:
                with exact_checks() as counts:
                    lines.append(line(record(family, seed)))
                total.update(counts)
            except _Slow:
                left_out.append((family, seed))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        print(
            f"{family}: {count} cases, exact checks {total['hits']} hits / "
            f"{total['misses']} misses, {total['fingerprints']} fingerprints, "
            f"{total['views']} live views, {total['stores']} store comparisons",
            file=sys.stderr,
        )
    SNAPSHOT.write_text("\n".join(lines) + "\n")
    COUNTS.write_text(json.dumps(totals, indent=1) + "\n")
    print(
        f"wrote {len(lines)} records ({SNAPSHOT.stat().st_size} bytes) to {SNAPSHOT} "
        f"in {time.perf_counter() - start:.1f} s",
        file=sys.stderr,
    )
    for family, seed in left_out:
        print(f"left out, over 1 s: {line(draw(family, seed))}", file=sys.stderr)
