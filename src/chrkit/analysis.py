"""Verifiers built on the fused-store search.

All three checkers are bounded: they walk derivation trees with the
search's one ``Walk`` up to the given budgets and answer definitely only
when the exploration was exhaustive. ``verify`` runs three tree searches
per goal: termination here, and the answer sets of both semantics; the
fused-store answer set also gives confluence (``confluence_of``).

Cycle detection compares states through a live view: the store's bindings
are resolved into the atoms, and the built-in store is restricted to the
variables still reachable from the goal or the atoms. A branch that repeats
an ancestor's view (modulo renaming away from the goal variables) can be
replayed forever, since rule applicability only ever consults that part of
the state. The views of the branch walked, like the final states that
``diff_answer_sets`` matches, go in a ``StateIndex``, which finds the first
repeated ancestor. The walk is depth first, so a node's ancestors are the
last nodes walked at each smaller depth: the index is cut back to the
node's depth (or apply count) before it is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .constraints import Store, project, solve
# not called here: perfbench's layer trace and tests/snapshot.py wrap this binding
from .equivalence import states_equivalent_mod  # noqa: F401
from .semantics import annotated
from .semantics.search import AnswerSet, StateIndex, Walk, fit_program, qualified_answers
from .syntax import print_item
from .terms import FreshSupply, apply_subst, vars_of


def _live_view(history: StateIndex, atoms, builtins: Store, tokens):
    """The state's live view, as an entry of the history."""
    if not builtins.failed:
        atoms = apply_subst(tuple(atoms), solve(builtins))
    keep = set(history.fixed) | vars_of(atoms)
    return history.entry(atoms, Store(project(builtins, keep)), tokens)


@dataclass
class Cycle:
    trace: tuple
    first_depth: int
    repeat_depth: int


@dataclass
class TerminationReport:
    status: str  # "terminates" | "diverges" | "unknown"
    cycle: Optional[Cycle]
    expanded: int
    truncated: bool


def check_normal_termination(
    program, goal, max_applies: int = 30, max_states: int = 5000
) -> TerminationReport:
    """Do all normal derivations from the goal terminate?

    Explores the normal-scheduler tree of the fused-store reading. A branch
    whose built-in-free state repeats an ancestor's (modulo renaming, on the
    live restriction) witnesses divergence. Exhaustive exploration without a
    repeat proves termination; hitting a budget leaves the question open.
    """
    program = fit_program(program, "annotated")
    goal_vars = frozenset(vars_of(tuple(goal)))
    fresh = FreshSupply("_R", goal_vars)
    # the views of the branch walked, one per depth
    history = StateIndex(goal_vars)
    walk = Walk((annotated.initial(goal), ()), max_applies, max_states)
    for (cfg, trace), depth in walk:
        cfg, _ = annotated.drain(cfg)
        if cfg.failed:
            continue
        view = _live_view(history, cfg.atoms, cfg.builtins, cfg.tokens)
        history.cut(depth)
        first = history.find(view)
        if first is not None:
            return TerminationReport(
                "diverges", Cycle(trace, first, depth), walk.expanded,
                walk.truncated,
            )
        history.push(view)
        walk.expand(depth, [
            (child, trace + ((firing.rule.name, firing.idents),))
            for firing, child in annotated.successors(program, cfg, fresh)
        ])
    if walk.truncated:
        return TerminationReport("unknown", None, walk.expanded, True)
    return TerminationReport("terminates", None, walk.expanded, False)


@dataclass
class ConfluenceReport:
    status: str  # "confluent" | "not-confluent" | "unknown"
    classes: int
    witness: Optional[Tuple]
    truncated: bool


def confluence_of(ans: AnswerSet) -> ConfluenceReport:
    """Are all terminal states in the (fused-store) answer set pairwise
    equivalent modulo renaming away from the goal variables?"""
    classes = len(ans.finals)
    if classes > 1:
        return ConfluenceReport(
            "not-confluent", classes, (ans.answers[0].text, ans.answers[1].text),
            ans.truncated,
        )
    if ans.truncated:
        return ConfluenceReport("unknown", classes, None, True)
    return ConfluenceReport("confluent", classes, None, False)


def check_normal_confluence(
    program, goal, max_applies: int = 30, max_states: int = 5000
) -> ConfluenceReport:
    """Are all terminal states of normal derivations from the goal pairwise
    equivalent modulo renaming away from the goal variables?"""
    return confluence_of(qualified_answers(
        program, goal, semantics="annotated",
        max_applies=max_applies, max_states=max_states,
    ))


@dataclass
class ProbeReport:
    cycle_found: bool
    cycle: Optional[Cycle]
    expanded: int
    truncated: bool


def probe_solve_orders(
    program, goal, max_steps: int = 20, max_states: int = 20000
) -> ProbeReport:
    """Search all interleavings of solve and apply steps for a loop.

    Unlike the normal scheduler, built-ins may be solved in any order or
    deferred; this catches divergence that only shows up when solving is
    lazy. After every firing the state's view through the live restriction
    (pending built-ins set aside) is recorded; a branch that revisits a view
    reports the loop. The probe is a bug finder: exhausting the budgets
    without a hit does not certify termination of every strategy.
    """
    program = fit_program(program, "annotated")
    goal_vars = frozenset(vars_of(tuple(goal)))
    fresh = FreshSupply("_R", goal_vars)
    # the views of the branch walked, one per apply; a node made by an
    # apply carries its view, which goes in when the node is walked
    history = StateIndex(goal_vars)
    walk = Walk((annotated.initial(goal), None, 0, ()), max_steps, max_states)
    for (cfg, view, applies, trace), steps in walk:
        if cfg.failed:
            continue
        history.cut(applies - (view is not None))
        if view is not None:
            history.push(view)
        # checked before the children are built: at the budget even a leaf
        # truncates, and no cycle check runs beyond it
        if steps >= max_steps:
            walk.truncated = True
            continue
        children = []
        for i, item in enumerate(cfg.pending):
            label = ("solve", print_item(item))
            children.append((annotated.solve_at(cfg, i), None, applies, trace + (label,)))
        for firing, child in annotated.successors(program, cfg, fresh):
            label = ("apply", firing.rule.name, firing.idents)
            child_view = _live_view(history, child.atoms, child.builtins, child.tokens)
            first = history.find(child_view)
            if first is not None:
                return ProbeReport(
                    True,
                    Cycle(trace + (label,), first, applies + 1),
                    walk.expanded,
                    walk.truncated,
                )
            children.append((child, child_view, applies + 1, trace + (label,)))
        walk.expand(steps, children)
    return ProbeReport(False, None, walk.expanded, walk.truncated)


@dataclass
class AnswerDiff:
    equal: bool
    only_left: List[str]
    only_right: List[str]
    truncated: bool


def diff_answer_sets(left: AnswerSet, right: AnswerSet) -> AnswerDiff:
    """Match the two answer sets' terminal states one-to-one modulo renaming
    away from the goal variables and report the leftovers."""
    if set(left.goal_vars) != set(right.goal_vars):
        raise ValueError("answer sets come from different goals")
    # a matched right final is skipped, so it is matched once
    rights = StateIndex(left.goal_vars)
    for fs in right.finals:
        rights.push(rights.entry(fs.atoms, fs.builtins, fs.tokens))
    only_left, matched = [], set()
    for answer, fs in zip(left.answers, left.finals):
        hit = rights.find(rights.entry(fs.atoms, fs.builtins, fs.tokens), matched)
        if hit is None:
            only_left.append(answer.text)
        else:
            matched.add(hit)
    only_right = [a.text for j, a in enumerate(right.answers) if j not in matched]
    return AnswerDiff(
        not only_left and not only_right,
        only_left,
        only_right,
        left.truncated or right.truncated,
    )
