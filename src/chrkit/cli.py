"""Command line front end: parse, annotate, run, unfold, check-replace,
transform, verify.

Output is plain text by default; --json switches every command to JSON
lines with a schema tag so runs can be diffed and replayed. Exit codes:
0 success, 1 error, 2 usage, 3 exploration hit a budget, 4 a check or a
differential comparison came out negative.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import check_normal_termination, confluence_of, diff_answer_sets
from .replace import check_replacement, replace_rule
from .semantics import qualified_answers
from .syntax import (
    ParseError,
    annotate,
    parse_goal,
    parse_program,
    print_program,
    print_rule,
)
from .unfold import unfold_all, unfold_sites

SCHEMA = "chrkit/1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TRUNCATED = 3
EXIT_NEGATIVE = 4

_SEMANTICS_ALIASES = {
    "standard": "standard",
    "annotated": "annotated",
    "wt": "standard",
    "wt-prime": "annotated",
}


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_program(path: str, annotated: bool = False):
    """The program in the file; with ``annotated``, a plain one annotated."""
    try:
        program = parse_program(_read(path))
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return annotate(program) if annotated and not program.annotated else program


def _load_goals(args) -> list:
    texts = list(args.goal or [])
    if args.goals:
        for line in _read(args.goals).splitlines():
            line = line.split("%", 1)[0].strip()
            if line:
                texts.append(line)
    if not texts:
        raise CliError("no goals given (use --goal or --goals FILE)")
    out = []
    for t in texts:
        try:
            out.append((t, parse_goal(t)))
        except ParseError as exc:
            raise CliError(f"goal {t!r}: {exc}") from exc
    return out


def _rule_index(program, name: str) -> int:
    hits = [i for i, r in enumerate(program.rules) if r.name == name]
    if not hits:
        raise CliError(f"no rule named {name!r}")
    if len(hits) > 1:
        raise CliError(f"rule name {name!r} is ambiguous")
    return hits[0]


def _answers(args, program, goal, semantics: str):
    """The goal's answers within the command's budgets."""
    return qualified_answers(
        program, goal, semantics=semantics,
        max_applies=args.max_depth, max_states=args.max_states,
    )


def _record(payload: dict) -> str:
    """One ``chrkit/1`` JSON line."""
    return json.dumps({"schema": SCHEMA, **payload}, sort_keys=True)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(_record(payload))
    elif text:
        print(text)


def _outcome(truncated: bool, negative: bool = False) -> int:
    """The exit code of one goal: a negative finding outranks a budget hit."""
    if negative:
        return EXIT_NEGATIVE
    return EXIT_TRUNCATED if truncated else EXIT_OK


def _hazard_line(h) -> str:
    if h.kind == "unify-only":
        return f"unify-only: {h.detail}"
    return (
        f"partial-head: {h.source_name} could consume body ids {h.idents} "
        f"for head positions {h.positions} together with goal atoms"
    )


def _print_rules(args, program) -> int:
    for rule in program.rules:
        _emit(args, {"cmd": args.command, "rule": print_rule(rule)}, "")
    if not args.json:
        sys.stdout.write(print_program(program))
    return EXIT_OK


def cmd_parse(args) -> int:
    return _print_rules(args, _load_program(args.program))


def cmd_annotate(args) -> int:
    return _print_rules(args, _load_program(args.program, annotated=True))


def cmd_run(args) -> int:
    program = _load_program(args.program)
    goals = _load_goals(args)
    semantics = _SEMANTICS_ALIASES[args.semantics]
    code = EXIT_OK
    for text, goal in goals:
        answers = _answers(args, program, goal, semantics)
        header = [f"% goal: {text}"] if len(goals) > 1 else []
        _emit(
            args,
            {
                "cmd": "run",
                "goal": text,
                "semantics": semantics,
                "answers": list(answers.texts),
                "truncated": answers.truncated,
            },
            "\n".join(header + list(answers.texts)),
        )
        if answers.truncated and not args.json:
            print("% truncated: exploration budget hit", file=sys.stderr)
        code = max(code, _outcome(answers.truncated))
    return code


def cmd_unfold(args) -> int:
    program = _load_program(args.program, annotated=True)
    target = _rule_index(program, args.rule)
    if args.all:
        for rule in unfold_all(program, target):
            _emit(args, {"cmd": "unfold", "target": args.rule,
                         "rule": print_rule(rule)}, print_rule(rule))
        return EXIT_OK
    wanted_ids = None
    if args.at:
        try:
            wanted_ids = tuple(int(x) for x in args.at.split(","))
        except ValueError:
            raise CliError(f"--at wants a comma separated id list, got {args.at!r}")
    shown = 0
    for site in unfold_sites(program, target):
        source = program.rules[site.source_index].name
        if args.source and source != args.source:
            continue
        if wanted_ids is not None and site.idents != wanted_ids:
            continue
        shown += 1
        ids = ",".join(str(i) for i in site.idents)
        _emit(
            args,
            {"cmd": "unfold", "target": args.rule, "source": source,
             "ids": list(site.idents), "rule": print_rule(site.rule)},
            f"with {source} at {ids}: {print_rule(site.rule)}",
        )
    if shown == 0 and not args.json:
        print("no unfold sites", file=sys.stderr)
    return EXIT_OK


def cmd_check_replace(args) -> int:
    program = _load_program(args.program, annotated=True)
    target = _rule_index(program, args.rule)
    mode = "weak" if args.weak else "safe"
    verdict = check_replacement(program, target, mode)
    word = "replaceable" if verdict.ok else "NOT replaceable"
    lines = [f"rule {args.rule} is {word} under the {mode} criterion"]
    lines += [f"  unfold site: {program.rules[si].name} at "
              + ",".join(str(i) for i in ids) for si, ids in verdict.sites]
    lines += [f"  hazard: {_hazard_line(h)}" for h in verdict.hazards]
    lines += [f"  guard changes in: {print_rule(u)}" for u in verdict.guard_mismatches]
    lines += [f"  {reason}" for reason in verdict.reasons]
    _emit(
        args,
        {
            "cmd": "check-replace",
            "rule": args.rule,
            "mode": mode,
            "ok": verdict.ok,
            "sites": [
                {"source": program.rules[si].name, "ids": list(ids)}
                for si, ids in verdict.sites
            ],
            "hazards": [
                {"kind": h.kind, "source": h.source_name,
                 "ids": list(h.idents), "positions": list(h.positions)}
                for h in verdict.hazards
            ],
            "guard_mismatches": [print_rule(u) for u in verdict.guard_mismatches],
            "reasons": list(verdict.reasons),
        },
        "\n".join(lines),
    )
    return EXIT_OK if verdict.ok else EXIT_NEGATIVE


def cmd_transform(args) -> int:
    original = program = _load_program(args.program, annotated=True)
    goals = _load_goals(args)
    mode = "weak" if args.weak else "safe"
    names = [n.strip() for n in args.sequence.split(",") if n.strip()]
    if not names:
        raise CliError("--sequence wants a comma separated list of rule names")
    for name in names:
        target = _rule_index(program, name)
        try:
            program, _ = replace_rule(program, target, mode)
        except ValueError as exc:
            raise CliError(f"replacing {name}: {exc}") from exc
    out_path = Path(args.out) if args.out else Path(args.program).with_suffix(".out.chr")
    out_path.write_text(print_program(program))
    cert_path = Path(args.cert) if args.cert else Path(str(out_path) + ".cert.jsonl")
    code = EXIT_OK
    lines = [
        _record({
            "cmd": "transform",
            "program": args.program,
            "sequence": names,
            "mode": mode,
            "output": str(out_path),
            "seed": args.seed,
        })
    ]
    # the certificate is about the fused-store answers: only that reading
    # understands the token stores the unfolded rules carry
    for text, goal in goals:
        before = _answers(args, original, goal, "annotated")
        after = _answers(args, program, goal, "annotated")
        diff = diff_answer_sets(before, after)
        lines.append(_record({
            "cmd": "transform-goal",
            "goal": text,
            "answers_before": list(before.texts),
            "answers_after": list(after.texts),
            "equal": diff.equal,
            "truncated": diff.truncated,
        }))
        code = max(code, _outcome(diff.truncated, not diff.equal))
    cert_path.write_text("\n".join(lines) + "\n")
    if args.json:
        for line in lines:
            print(line)
    else:
        print(f"wrote {out_path} and {cert_path}")
        if code == EXIT_NEGATIVE:
            print("answers changed; see the certificate", file=sys.stderr)
    return code


def cmd_verify(args) -> int:
    program = _load_program(args.program)
    goals = _load_goals(args)
    witness_dir = Path(args.witness_dir)
    witness_count = 0
    code = EXIT_OK
    rows = []

    def dump(kind: str, body: str) -> str:
        nonlocal witness_count
        witness_count += 1
        witness_dir.mkdir(parents=True, exist_ok=True)
        path = witness_dir / f"witness-{witness_count:02d}-{kind}.txt"
        path.write_text(body)
        return str(path)

    for text, goal in goals:
        term = check_normal_termination(
            program, goal, max_applies=args.max_depth, max_states=args.max_states
        )
        std = _answers(args, program, goal, "standard")
        ann = _answers(args, program, goal, "annotated")
        conf = confluence_of(ann)
        diff = diff_answer_sets(std, ann)
        qa_equal = "yes" if diff.equal else "NO"
        witnesses = []
        if term.status == "diverges" and term.cycle is not None:
            steps = "\n".join(f"{name} {ids}" for name, ids in term.cycle.trace)
            witnesses.append(dump("cycle", f"goal: {text}\n{steps}\n"))
        if conf.status == "not-confluent" and conf.witness:
            body = "goal: %s\n%s\n" % (text, "\n".join(conf.witness))
            witnesses.append(dump("confluence", body))
        if not diff.equal:
            body = (
                f"goal: {text}\nonly standard: {diff.only_left}\n"
                f"only annotated: {diff.only_right}\n"
            )
            witnesses.append(dump("qa-diff", body))
        truncated = term.truncated or conf.truncated or diff.truncated
        code = max(code, _outcome(truncated, not diff.equal))
        rows.append((text, term.status, conf.status, qa_equal, witnesses))
        _emit(
            args,
            {
                "cmd": "verify",
                "goal": text,
                "termination": term.status,
                "confluence": conf.status,
                "qa_equal": diff.equal,
                "truncated": truncated,
                "witnesses": witnesses,
            },
            "",
        )
    if not args.json:
        width = max(len("goal"), *(len(r[0]) for r in rows))
        print(f"{'goal':<{width}}  termination  confluence     qa-equal")
        for text, t, c, q, witnesses in rows:
            print(f"{text:<{width}}  {t:<11}  {c:<13}  {q}")
            for w in witnesses:
                print(f"{'':<{width}}  witness: {w}")
        print(
            f"% bounded search (depth <= {args.max_depth}, states <= "
            f"{args.max_states}); certifies the listed goals only"
        )
    return code


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="chrkit",
        description="Toolkit for CHR programs: run them under two "
        "operational semantics, unfold rule bodies, and check rule "
        "replacements.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, help, goals=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("program", help="path to a .chr file")
        p.add_argument("--json", action="store_true",
                       help="emit JSON lines instead of text")
        if goals:
            p.add_argument("--max-depth", type=int, default=12,
                           help="rule application budget per derivation")
            p.add_argument("--max-states", type=int, default=10000,
                           help="explored state budget")
            p.add_argument("--goal", action="append",
                           help="inline goal (repeatable)")
            p.add_argument("--goals", help="file with one goal per line")
        return p

    command("parse", cmd_parse, "parse and reprint a program")
    command("annotate", cmd_annotate, "number body atoms and attach "
            "empty token stores")

    p = command("run", cmd_run, "print the answers for each goal", goals=True)
    p.add_argument(
        "--semantics",
        default="annotated",
        choices=sorted(_SEMANTICS_ALIASES),
        help="standard (two-store) or annotated (fused store); "
        "wt and wt-prime are accepted as aliases",
    )

    p = command("unfold", cmd_unfold, "list unfolded versions of a rule")
    p.add_argument("--rule", required=True, help="name of the rule to unfold")
    p.add_argument("--with", dest="source", help="only use this source rule")
    p.add_argument("--at", help="only this body id sequence, e.g. 1,2")
    p.add_argument("--all", action="store_true",
                   help="print the deduplicated unfold set")

    p = command("check-replace", cmd_check_replace,
                "can the rule be replaced by its unfoldings?")
    p.add_argument("--rule", required=True)
    p.add_argument("--weak", action="store_true",
                   help="use the weaker guard-equivalence criterion")

    p = command("transform", cmd_transform,
                "replace rules by their unfoldings and certify "
                "answers on a goal suite", goals=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed recorded in the certificate")
    p.add_argument("--sequence", required=True,
                   help="comma separated rule names, replaced in order")
    p.add_argument("--weak", action="store_true")
    p.add_argument("--out", help="output .chr path")
    p.add_argument("--cert", help="certificate path (JSON lines)")

    p = command("verify", cmd_verify,
                "per-goal bounded termination, confluence and "
                "semantics agreement table", goals=True)
    p.add_argument("--witness-dir", default="witnesses",
                   help="where counterexample traces are written")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"chrkit: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, RecursionError, ValueError) as exc:
        # a failed write or a library limit (say, a term nested deeper
        # than the recursion limit) ends the command with a message, not
        # a traceback
        message = " ".join(str(exc).split())
        print(f"chrkit: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
