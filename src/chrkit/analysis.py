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
the state. Each view on a branch's history, like each final state that
``diff_answer_sets`` matches, carries its fingerprint
(``state_fingerprint``), and one scan (``_first``) gives only entries with
an equal fingerprint the exact check; the scan keeps its order, so the
first repeated ancestor is the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .constraints import Store, project, solve
from .equivalence import state_fingerprint, states_equivalent_mod
from .semantics import annotated
from .semantics.search import (
    AnswerSet,
    FinalState,
    Walk,
    fit_program,
    qualified_answers,
)
from .syntax import print_item
from .terms import FreshSupply, apply_subst, vars_of


def _keyed(state, goal_vars):
    """The state ``(atoms, builtins, tokens)`` paired with its fingerprint."""
    return state, state_fingerprint(*state, goal_vars)


def _live_view(atoms, builtins: Store, tokens, goal_vars):
    """The state's live view, keyed."""
    if not builtins.failed:
        atoms = apply_subst(tuple(atoms), solve(builtins))
    keep = set(goal_vars) | vars_of(atoms)
    return _keyed((atoms, Store(project(builtins, keep)), tokens), goal_vars)


def _first(entries, keyed, goal_vars) -> Optional[int]:
    """The index of the first keyed entry, skipping None, whose state is
    equivalent to the keyed state."""
    state, (key, profiles) = keyed
    for i, entry in enumerate(entries):
        if entry is not None:
            old, (old_key, old_profiles) = entry
            if old_key == key and states_equivalent_mod(
                *old, *state, goal_vars, old_profiles, profiles
            ):
                return i
    return None


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
    walk = Walk((annotated.initial(goal), (), ()), max_applies, max_states)
    for (cfg, history, trace), depth in walk:
        cfg, _ = annotated.drain(cfg)
        if cfg.failed:
            continue
        view = _live_view(cfg.atoms, cfg.builtins, cfg.tokens, goal_vars)
        first = _first(history, view, goal_vars)
        if first is not None:
            return TerminationReport(
                "diverges", Cycle(trace, first, depth), walk.expanded,
                walk.truncated,
            )
        walk.expand(depth, [
            (
                child,
                history + (view,),
                trace + ((firing.rule.name, firing.idents),),
            )
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
    walk = Walk((annotated.initial(goal), (), 0, ()), max_steps, max_states)
    for (cfg, history, applies, trace), steps in walk:
        if cfg.failed:
            continue
        # checked before the children are built: at the budget even a leaf
        # truncates, and no cycle check runs beyond it
        if steps >= max_steps:
            walk.truncated = True
            continue
        children = []
        for i, item in enumerate(cfg.pending):
            label = ("solve", print_item(item))
            children.append((annotated.solve_at(cfg, i), history, applies, trace + (label,)))
        for firing, child in annotated.successors(program, cfg, fresh):
            label = ("apply", firing.rule.name, firing.idents)
            view = _live_view(child.atoms, child.builtins, child.tokens, goal_vars)
            first = _first(history, view, goal_vars)
            if first is not None:
                return ProbeReport(
                    True,
                    Cycle(trace + (label,), first, applies + 1),
                    walk.expanded,
                    walk.truncated,
                )
            children.append((child, history + (view,), applies + 1, trace + (label,)))
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
    goal_vars = left.goal_vars

    def keyed(fs: FinalState):
        return _keyed((fs.atoms, fs.builtins, fs.tokens), goal_vars)

    # a matched right final is set to None, so it is matched once
    rights = [keyed(fr) for fr in right.finals]
    only_left = []
    for i, fl in enumerate(left.finals):
        hit = _first(rights, keyed(fl), goal_vars)
        if hit is None:
            only_left.append(left.answers[i].text)
        else:
            rights[hit] = None
    only_right = [right.answers[j].text for j, r in enumerate(rights) if r is not None]
    return AnswerDiff(
        not only_left and not only_right,
        only_left,
        only_right,
        left.truncated or right.truncated,
    )
