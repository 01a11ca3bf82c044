"""Concrete syntax for rule programs: AST, parser, printer, annotation.

Grammar (one rule per ``.`` clause, ``%`` comments, UTF-8):

    name @ Kept \\ Removed <=> Guard | Body ; { name@1,2, ... } .

``H <=> B`` abbreviates an empty kept part (simplification), ``H ==> B`` an
empty removed part (propagation). The guard (equations or ``true``) and the
local token store are optional. In annotated programs the body's user-defined
atoms carry ``#n`` identifiers; plain programs have neither identifiers nor
token stores. Variables start with an uppercase letter or ``_``; everything
else is a functor. Printing and parsing round-trip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .terms import (
    Compound,
    Equation,
    FalseConstraint,
    Term,
    Var,
    vars_of,
)


@dataclass(frozen=True)
class IdAtom:
    """A user-defined constraint paired with its identifier."""

    atom: Compound
    ident: int

    def map_terms(self, fn):
        return IdAtom(fn(self.atom), self.ident)

    def parts(self) -> tuple:
        return (self.atom,)


@dataclass(frozen=True)
class Token:
    """A propagation record: rule name plus the identifiers it fired on."""

    rule_name: str
    idents: tuple

    def shifted(self, offset: int) -> "Token":
        return Token(self.rule_name, tuple(i + offset for i in self.idents))


@dataclass(frozen=True)
class Rule:
    name: str
    kept: tuple = ()
    removed: tuple = ()
    guard: tuple = ()
    body: tuple = ()
    tokens: frozenset = frozenset()

    def __post_init__(self):
        if not self.kept and not self.removed:
            raise ValueError(f"rule {self.name} has an empty head")

    @property
    def heads(self) -> tuple:
        return self.kept + self.removed

    @property
    def is_propagation(self) -> bool:
        return not self.removed

    @cached_property
    def variables(self) -> tuple:
        """The rule's variables sorted by name, the order in which renaming
        it apart draws their fresh names; computed on first use."""
        return tuple(sorted(vars_of(self), key=lambda v: v.name))

    def body_idents(self) -> tuple:
        return tuple(b.ident for b in self.body if isinstance(b, IdAtom))

    def map_terms(self, fn):
        return Rule(
            self.name,
            tuple(fn(a) for a in self.kept),
            tuple(fn(a) for a in self.removed),
            tuple(fn(g) for g in self.guard),
            tuple(b.map_terms(fn) if isinstance(b, IdAtom) else fn(b) for b in self.body),
            self.tokens,
        )

    def parts(self) -> tuple:
        return (self.kept, self.removed, self.guard, self.body)

    def validate(self, annotated: bool) -> None:
        idents = self.body_idents()
        if len(set(idents)) != len(idents):
            raise ValueError(f"rule {self.name}: duplicate body identifiers")
        tok_ids = {i for t in self.tokens for i in t.idents}
        if not tok_ids <= set(idents):
            raise ValueError(
                f"rule {self.name}: token store mentions identifiers "
                "that are not in the body"
            )
        if annotated:
            bare = [b for b in self.body if isinstance(b, Compound)]
            if bare:
                raise ValueError(
                    f"rule {self.name}: unidentified user constraint "
                    f"{print_term(bare[0])} in an annotated rule"
                )
        else:
            if idents or self.tokens:
                raise ValueError(f"rule {self.name}: annotations in a plain rule")


@dataclass(frozen=True)
class Program:
    rules: tuple
    annotated: bool = False

    def validate(self) -> "Program":
        for r in self.rules:
            r.validate(self.annotated)
        if not self.annotated:
            # unfolding can legitimately duplicate names, but only in
            # annotated programs
            names = [r.name for r in self.rules]
            if len(set(names)) != len(names):
                raise ValueError("duplicate rule names in a plain program")
        return self


def clean_tokens(tokens: Iterable, live) -> frozenset:
    """Drop tokens that mention an identifier with no atom of ``live``
    (identified atoms) behind it."""
    alive = {a.ident for a in live}
    return frozenset(t for t in tokens if set(t.idents) <= alive)


def split_builtins(items: Iterable):
    """A goal or a rule body split into its user constraints and its
    built-ins, each in their order."""
    atoms, builtins = [], []
    for it in items:
        (builtins if isinstance(it, (Equation, FalseConstraint)) else atoms).append(it)
    return tuple(atoms), tuple(builtins)


def identify_atoms(items: Sequence):
    """Number the user-defined atoms left to right with 1, 2, ...

    Returns (items with atoms replaced by IdAtoms, last identifier used).
    """
    out = []
    n = 0
    for it in items:
        if isinstance(it, Compound):
            n += 1
            out.append(IdAtom(it, n))
        elif isinstance(it, IdAtom):
            raise ValueError("item is already identified")
        else:
            out.append(it)
    return tuple(out), n


def annotate(program: Program) -> Program:
    """Annotated version of a plain program: every rule body is identified
    from zero and gets an empty local token store."""
    if program.annotated:
        raise ValueError("program is already annotated")
    rules = []
    for r in program.rules:
        body, _ = identify_atoms(r.body)
        rules.append(Rule(r.name, r.kept, r.removed, r.guard, body))
    return Program(tuple(rules), annotated=True).validate()


def strip_annotations(program: Program) -> Program:
    rules = tuple(
        Rule(
            r.name,
            r.kept,
            r.removed,
            r.guard,
            tuple(b.atom if isinstance(b, IdAtom) else b for b in r.body),
        )
        for r in program.rules
    )
    return Program(rules, annotated=False).validate()


# ---------------------------------------------------------------- scanning

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|%[^\n]*)
    | (?P<arrow><=>|==>)
    | (?P<int>\d+)
    | (?P<var>[A-Z_]\w*)
    | (?P<name>[a-z]\w*)
    | (?P<punct>[@\\|,().;{}#=])
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"line {line}, column {col}: {message}")
        self.line, self.col = line, col


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.toks = []  # (kind, value, pos)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
            kind = m.lastgroup
            if kind != "ws":
                val = m.group()
                if kind == "punct":
                    kind = val
                self.toks.append((kind, val, pos))
            pos = m.end()
        self.toks.append(("eof", "", len(text)))
        self.i = 0

    def peek(self, ahead: int = 0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self):
        tok = self.toks[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", self.text, tok[2])
        return tok

    def fail(self, message: str):
        raise ParseError(message, self.text, self.peek()[2])


class _Parser:
    def __init__(self, text: str):
        self.sc = _Scanner(text)

    def term(self) -> Term:
        sc = self.sc
        open_ = []  # (functor, arguments so far) of the compounds being read
        while True:
            kind, val, _ = sc.peek()
            if kind not in ("var", "name"):
                sc.fail("expected a term")
            sc.next()
            if kind == "name" and sc.peek()[0] == "(":
                sc.next()
                open_.append((val, []))
                continue
            t = Var(val) if kind == "var" else Compound(val, ())
            # t is complete: add it, closing every compound it completes
            while open_:
                open_[-1][1].append(t)
                if sc.peek()[0] == ",":
                    sc.next()
                    break
                sc.expect(")")
                functor, args = open_.pop()
                t = Compound(functor, tuple(args))
            else:
                return t

    def item(self):
        """One constraint: equation, true/false, or (possibly identified) atom."""
        kind, val, _ = self.sc.peek()
        if kind == "name" and val == "true" and self.sc.peek(1)[0] not in ("(", "="):
            self.sc.next()
            return "true"
        if kind == "name" and val == "false" and self.sc.peek(1)[0] not in ("(", "="):
            self.sc.next()
            return FalseConstraint()
        t = self.term()
        if self.sc.peek()[0] == "=":
            self.sc.next()
            return Equation(t, self.term())
        if isinstance(t, Var):
            self.sc.fail("a variable is not a constraint")
        if self.sc.peek()[0] == "#":
            self.sc.next()
            ident = int(self.sc.expect("int")[1])
            return IdAtom(t, ident)
        return t

    def items(self):
        out = [self.item()]
        while self.sc.peek()[0] == ",":
            self.sc.next()
            out.append(self.item())
        return [x for x in out if x != "true"]

    def head_atoms(self):
        atoms = self.items()
        for a in atoms:
            if not isinstance(a, Compound):
                self.sc.fail("rule heads must be user-defined constraints")
        return tuple(atoms)

    def local_tokens(self):
        self.sc.expect("{")
        toks = []
        while True:
            name = self.sc.expect("name")[1]
            self.sc.expect("@")
            ids = [int(self.sc.expect("int")[1])]
            while self.sc.peek()[0] == "," and self.sc.peek(1)[0] == "int":
                self.sc.next()
                ids.append(int(self.sc.expect("int")[1]))
            toks.append(Token(name, tuple(ids)))
            if self.sc.peek()[0] == ",":
                self.sc.next()
                continue
            break
        self.sc.expect("}")
        return frozenset(toks)

    def rule(self) -> Rule:
        name = self.sc.expect("name")[1]
        self.sc.expect("@")
        first = self.head_atoms()
        kind = self.sc.peek()[0]
        if kind == "\\":
            self.sc.next()
            second = self.head_atoms()
            tok = self.sc.expect("arrow")
            if tok[1] != "<=>":
                raise ParseError("a kept \\ removed head needs <=>", self.sc.text, tok[2])
            kept, removed = first, second
        else:
            tok = self.sc.expect("arrow")
            if tok[1] == "==>":
                kept, removed = first, ()
            else:
                kept, removed = (), first
        guard: tuple = ()
        if self.sc.peek()[0] == "|":
            self.sc.fail("empty guard")
        if self.sc.peek()[0] in (".", ";"):
            self.sc.fail("a rule needs a body (spell an empty one as true)")
        first_items = tuple(self.items())
        if self.sc.peek()[0] == "|":
            self.sc.next()
            for g in first_items:
                if not isinstance(g, Equation):
                    self.sc.fail("guards may contain only equations")
            guard = first_items
            body = tuple(self.items())
        else:
            body = first_items
        tokens = frozenset()
        if self.sc.peek()[0] == ";":
            self.sc.next()
            tokens = self.local_tokens()
        self.sc.expect(".")
        return Rule(name, kept, removed, guard, body, tokens)

    def program(self) -> Program:
        rules = []
        while self.sc.peek()[0] != "eof":
            rules.append(self.rule())
        annotated = any(
            r.tokens or any(isinstance(b, IdAtom) for b in r.body) for r in rules
        )
        try:
            return Program(tuple(rules), annotated=annotated).validate()
        except ValueError as exc:
            raise ParseError(str(exc), self.sc.text, len(self.sc.text)) from exc

    def goal(self):
        out = tuple(self.items())
        if self.sc.peek()[0] == ".":
            self.sc.next()
        self.sc.expect("eof")
        for g in out:
            if isinstance(g, IdAtom):
                self.sc.fail("goals are written without identifiers")
        return out


def parse_program(text: str) -> Program:
    return _Parser(text).program()


def parse_goal(text: str) -> tuple:
    return _Parser(text).goal()


# ---------------------------------------------------------------- printing

def print_term(t: Term) -> str:
    out = []
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Var):
            out.append(t.name)
        elif not t.args:
            out.append(t.functor)
        else:
            # f(a1,...,an) is popped as "f(", a1, ",", ..., an, ")"
            stack.append(")")
            for a in reversed(t.args):
                stack += (a, ",")
            stack[-1] = f"{t.functor}("
    return "".join(out)


def print_item(it) -> str:
    if isinstance(it, Equation):
        return f"{print_term(it.lhs)}={print_term(it.rhs)}"
    if isinstance(it, FalseConstraint):
        return "false"
    if isinstance(it, IdAtom):
        return f"{print_term(it.atom)}#{it.ident}"
    return print_term(it)


def print_items(items: Iterable) -> str:
    return ", ".join(print_item(i) for i in items)


def print_token(tok: Token) -> str:
    return f"{tok.rule_name}@{','.join(str(i) for i in tok.idents)}"


def print_rule(rule: Rule) -> str:
    if rule.kept and rule.removed:
        head = f"{print_items(rule.kept)} \\ {print_items(rule.removed)} <=>"
    elif rule.removed:
        head = f"{print_items(rule.removed)} <=>"
    else:
        head = f"{print_items(rule.kept)} ==>"
    guard = f" {print_items(rule.guard)} |" if rule.guard else ""
    body = f" {print_items(rule.body)}" if rule.body else " true"
    tokens = ""
    if rule.tokens:
        toks = sorted(rule.tokens, key=lambda t: (t.rule_name, t.idents))
        tokens = " ; {" + ", ".join(print_token(t) for t in toks) + "}"
    return f"{rule.name} @ {head}{guard}{body}{tokens}."


def print_program(program: Program) -> str:
    return "\n".join(print_rule(r) for r in program.rules) + "\n"


def print_goal(goal: Sequence) -> str:
    return print_items(goal) if goal else "true"
