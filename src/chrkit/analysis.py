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
``diff_answer_sets`` matches (``explore``'s own ``State`` values, which
keep their readings), go in a ``StateIndex``, which finds the first
repeated ancestor. The walk is depth first, so a node's ancestors are the
last nodes walked at each smaller depth: the index is cut back to the
node's depth (or apply count) before it is used.

A view goes in lazily (``_LazyView``): its shape is read off the
configuration's atoms, and the view itself, two solves of the store's
whole history, is built only when the index meets it with a held view of
the same shape. A branch whose views all differ in shape solves nothing.
A branch's trace is linked to its parent's, one step per link, and becomes
a tuple only for a cycle's witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .constraints import Store, project, solve
# not called here: perfbench's layer trace and tests/snapshot.py wrap this binding
from .equivalence import states_equivalent_mod  # noqa: F401
from .semantics import annotated
from .semantics.search import (
    AnswerSet,
    State,
    StateIndex,
    Walk,
    atom_shape,
    fit_program,
    qualified_answers,
)
from .syntax import print_item
from .terms import FreshSupply, apply_subst, vars_of


def _live_view(cfg, fixed) -> State:
    """The configuration's live view away from the fixed variables: the
    store's bindings resolved into the atoms, and the store projected onto
    the fixed variables and the atoms'. Each of the two steps solves the
    store's whole history, so the walks call this through ``_LazyView``,
    only for a view that meets a held one of its shape."""
    atoms = cfg.atoms if cfg.failed else apply_subst(tuple(cfg.atoms), solve(cfg.builtins))
    keep = fixed | vars_of(atoms)
    return State(atoms, Store(project(cfg.builtins, keep)), cfg.tokens, fixed)


class _LazyView:
    """A configuration's live view as ``StateIndex`` reads it: the shape at
    once, the reading from the ``_live_view`` built on first read.

    Resolving bindings keeps every atom's functor and arity, and the view's
    store, a projection, is never flagged failed, so the shape is that of
    the configuration's atoms. The index reads only the shape of a view
    until a held view shares it."""

    __slots__ = ("shape", "fixed", "_cfg", "_view")

    def __init__(self, cfg, fixed: frozenset):
        self.shape = atom_shape(cfg.atoms)
        self.fixed, self._cfg, self._view = fixed, cfg, None

    @property
    def view(self) -> State:
        if self._view is None:
            self._view = _live_view(self._cfg, self.fixed)
        return self._view

    reading = property(lambda self: self.view.reading)


def _steps(trace) -> tuple:
    """The steps of a parent-linked trace, ``(parent, step)`` or ``()`` at
    the root, first step first."""
    steps = []
    while trace:
        trace, step = trace
        steps.append(step)
    return tuple(reversed(steps))


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
        view = _LazyView(cfg, goal_vars)
        history.cut(depth)
        first = history.find(view)
        if first is not None:
            return TerminationReport(
                "diverges", Cycle(_steps(trace), first, depth), walk.expanded,
                walk.truncated,
            )
        history.push(view)
        if walk.at_budget(depth):
            if annotated.firings(program, cfg, fresh, first=True):
                walk.truncated = True
            continue
        walk.expand(depth, [
            (child, (trace, (firing.rule.name, firing.idents)))
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
        if walk.at_budget(steps):
            walk.truncated = True
            continue
        children = []
        for i, item in enumerate(cfg.pending):
            label = ("solve", print_item(item))
            children.append((annotated.solve_at(cfg, i), None, applies, (trace, label)))
        for firing, child in annotated.successors(program, cfg, fresh):
            label = ("apply", firing.rule.name, firing.idents)
            child_view = _LazyView(child, goal_vars)
            first = history.find(child_view)
            if first is not None:
                return ProbeReport(
                    True,
                    Cycle(_steps((trace, label)), first, applies + 1),
                    walk.expanded,
                    walk.truncated,
                )
            children.append((child, child_view, applies + 1, (trace, label)))
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
        rights.push(fs)
    only_left, matched = [], set()
    for answer, fs in zip(left.answers, left.finals):
        hit = rights.find(fs, matched)
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
