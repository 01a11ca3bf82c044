"""A node at the depth budget builds no children: the walks against the
loops they replace, kept verbatim (they apply every firing of every node
and let ``Walk.expand`` drop the children of a node at the budget), and
work gates on the applies and on the firings a budget node builds."""

import contextlib
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from chrkit import analysis
from chrkit.analysis import Cycle, TerminationReport, _LazyView, _steps
from chrkit.equivalence import configs_correspond
from chrkit.semantics import annotated, search, standard
from chrkit.semantics.matching import enumerate_firings
from chrkit.semantics.search import (
    _MODES,
    ExploreResult,
    LockstepReport,
    State,
    StateIndex,
    Walk,
    explore,
    fit_program,
    lockstep_run,
    render_answer,
)
from chrkit.syntax import Program, annotate, parse_goal, parse_program
from chrkit.terms import Equation, FreshSupply, vars_of

from test_matching import GOAL_ATOMS, GOAL_VARS, LEQ, STORE_TERMS, programs, states

# ------------------------------------------------------------- reference
# The three walks as they were before a budget node stopped building its
# children, kept verbatim.


def reference_explore(
    program,
    goal,
    semantics: str = "annotated",
    max_applies: int = 30,
    max_states: int = 5000,
    dedup: bool = True,
) -> ExploreResult:
    mod = _MODES[semantics]
    program = fit_program(program, semantics)
    goal_vars = frozenset(vars_of(tuple(goal)))
    fresh = FreshSupply("_R", goal_vars)
    finals: List[State] = []
    visited = StateIndex(goal_vars)
    walk = Walk(mod.initial(goal), max_applies, max_states)
    for cfg, depth in walk:
        cfg, _ = mod.drain(cfg)
        if cfg.failed:
            finals.append(State((), cfg.builtins, frozenset(), goal_vars))
            continue
        state = State(mod.chr_atoms(cfg), cfg.builtins, cfg.tokens, goal_vars)
        if dedup and not visited.add(state):
            continue
        succ = mod.successors(program, cfg, fresh)
        if not succ:
            finals.append(state)
        walk.expand(depth, [child for _, child in succ])
    return ExploreResult(finals, walk.truncated, walk.expanded, goal_vars)


def reference_check_normal_termination(
    program, goal, max_applies: int = 30, max_states: int = 5000
) -> TerminationReport:
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
        walk.expand(depth, [
            (child, (trace, (firing.rule.name, firing.idents)))
            for firing, child in annotated.successors(program, cfg, fresh)
        ])
    if walk.truncated:
        return TerminationReport("unknown", None, walk.expanded, True)
    return TerminationReport("terminates", None, walk.expanded, False)


def reference_lockstep_run(
    program, goal, max_applies: int = 30, max_states: int = 5000
) -> LockstepReport:
    prog_std = fit_program(program, "standard")
    prog_ann = annotate(prog_std)
    goal_vars = vars_of(tuple(goal))
    fresh_s = FreshSupply("_R", goal_vars)
    fresh_a = FreshSupply("_R", goal_vars)

    finals = solve_count = apply_count = 0
    walk = Walk((standard.initial(goal), annotated.initial(goal)), max_applies, max_states)

    def report(mismatch: Optional[str]) -> LockstepReport:
        return LockstepReport(
            mismatch is None, mismatch, walk.expanded, finals, solve_count,
            apply_count, walk.truncated,
        )

    for (cs, ca), depth in walk:
        if not configs_correspond(cs, ca):
            return report(f"states diverged entering node {walk.expanded}")
        cs, ns = standard.drain(cs)
        ca, na = annotated.drain(ca)
        if ns != na:
            return report(f"solve counts differ at node {walk.expanded}: {ns} vs {na}")
        solve_count += ns
        if cs.failed or ca.failed:
            if cs.failed != ca.failed:
                return report(f"only one side failed at node {walk.expanded}")
            finals += 1
            continue
        if not configs_correspond(cs, ca):
            return report(f"states diverged after draining node {walk.expanded}")
        succ_s = standard.successors(prog_std, cs, fresh_s)
        succ_a = annotated.successors(prog_ann, ca, fresh_a)
        sig_s = [(f.rule_index, f.idents) for f, _ in succ_s]
        sig_a = [(f.rule_index, f.idents) for f, _ in succ_a]
        if sig_s != sig_a:
            return report(f"firings differ at node {walk.expanded}: {sig_s} vs {sig_a}")
        if not succ_s:
            finals += 1
        children = [(s[1], a[1]) for s, a in zip(succ_s, succ_a)]
        if walk.expand(depth, children):
            apply_count += len(children)
    return report(None)


# ------------------------------------------------------------- properties


@contextlib.contextmanager
def supplies():
    """Every ``FreshSupply`` that the walks here and in the references
    make, in the order made."""
    made = []

    class Recorded(FreshSupply):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        for ns in (vars(search), vars(analysis), globals()):
            patch.setitem(ns, "FreshSupply", Recorded)
        yield made


def _next_names(made) -> list:
    return [supply.fresh().name for supply in made]


@st.composite
def goals(draw):
    """1-3 atoms over the goal variables, sometimes with an equation."""
    atoms = draw(st.lists(GOAL_ATOMS, min_size=1, max_size=3))
    eqs = draw(st.lists(
        st.builds(Equation, st.sampled_from(GOAL_VARS), STORE_TERMS), max_size=1,
    ))
    return tuple(atoms) + tuple(eqs)


# a propagation rule that fires on every p/1 atom, once per atom, and
# adds one: put anywhere in a program, it takes branches to the budget
GROW = parse_program("grow @ p(X) ==> p(X).").rules


@st.composite
def growing_programs(draw):
    """test_matching's programs, half of them with ``GROW`` among their
    rules."""
    rules = draw(programs()).rules
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rules)))
        rules = rules[:i] + GROW + rules[i:]
    return Program(rules)


# (max_applies, max_states): at 0 applies the root is at the depth budget
BUDGETS = st.tuples(st.integers(0, 3), st.sampled_from((8, 40, 200)))


def _explored(res: ExploreResult) -> tuple:
    answers = [render_answer(fs).text for fs in res.finals]
    return answers, res.finals, res.truncated, res.expanded


@settings(max_examples=200, deadline=None)
@given(growing_programs(), goals(), BUDGETS, st.sampled_from(("standard", "annotated")))
def test_explore_agrees_with_the_walk_that_builds_every_child(program, goal, budgets, semantics):
    max_applies, max_states = budgets
    with supplies() as made:
        new = explore(program, goal, semantics, max_applies, max_states)
        ref = reference_explore(program, goal, semantics, max_applies, max_states)
    assert _explored(new) == _explored(ref)
    new_next, ref_next = _next_names(made)
    assert new_next == ref_next


@settings(max_examples=150, deadline=None)
@given(growing_programs(), goals(), BUDGETS)
def test_termination_and_lockstep_agree_with_the_walks_that_build_every_child(
    program, goal, budgets
):
    with supplies() as made:
        new = analysis.check_normal_termination(program, goal, *budgets)
        ref = reference_check_normal_termination(program, goal, *budgets)
    assert new == ref
    assert _next_names(made[:1]) == _next_names(made[1:])
    with supplies() as made:
        new = lockstep_run(program, goal, *budgets)
        ref = reference_lockstep_run(program, goal, *budgets)
    assert new == ref
    # each walk makes one supply per side
    assert _next_names(made[:2]) == _next_names(made[2:])


@settings(max_examples=300, deadline=None)
@given(programs(), states(), st.sampled_from(("_R", "_V")))
def test_the_first_firing_is_the_first_of_all_and_leaves_the_supply_alike(
    program, state, prefix
):
    atoms, store, tokens = state
    full_supply = FreshSupply(prefix, vars_of(atoms))
    first_supply = FreshSupply(prefix, vars_of(atoms))
    full = enumerate_firings(program, atoms, store, tokens, full_supply)
    first = enumerate_firings(program, atoms, store, tokens, first_supply, first=True)
    assert first == full[:1]
    assert first_supply.fresh() is full_supply.fresh()


# ------------------------------------------------------------- work gates


@contextlib.contextmanager
def counted_work():
    """The applies of both semantics, and the length of every first-only
    enumeration, made inside the block."""
    work = {"applies": 0, "budget_firings": []}
    with pytest.MonkeyPatch.context() as patch:
        for mod in (standard, annotated):
            _count(patch, mod, work)
        yield work


def _count(patch, mod, work) -> None:
    apply_firing, enumerate = mod.apply_firing, mod.enumerate_firings

    def counted_apply(*args):
        work["applies"] += 1
        return apply_firing(*args)

    def counted_enumerate(*args, **kwargs):
        found = enumerate(*args, **kwargs)
        if kwargs.get("first", args[5] if len(args) > 5 else False):
            work["budget_firings"].append(len(found))
        return found

    patch.setattr(mod, "apply_firing", counted_apply)
    patch.setattr(mod, "enumerate_firings", counted_enumerate)


LEQ_GOAL = parse_goal("leq(A, B), leq(B, A)")


@pytest.mark.parametrize("semantics", ["standard", "annotated"])
def test_explore_applies_once_per_queued_child_and_never_at_the_budget(semantics):
    with counted_work() as work:
        res = explore(LEQ, LEQ_GOAL, semantics, max_applies=3)
    ref = reference_explore(LEQ, LEQ_GOAL, semantics, max_applies=3)
    assert res.truncated
    # every node but the root was queued by one apply; each budget node
    # built at most one firing, and some found one
    assert work["applies"] == res.expanded - 1
    assert max(work["budget_firings"]) == 1
    assert _explored(res) == _explored(ref)


def test_lockstep_and_termination_apply_once_per_queued_child():
    with counted_work() as work:
        report = lockstep_run(LEQ, LEQ_GOAL, max_applies=3)
    assert report.truncated
    # one apply per side for each child queued; the lockstep enumerates
    # the budget nodes in full, to compare them
    assert report.apply_count == report.nodes - 1
    assert work["applies"] == 2 * report.apply_count
    assert work["budget_firings"] == []
    with counted_work() as work:
        term = analysis.check_normal_termination(LEQ, LEQ_GOAL, max_applies=3)
    assert term.status == "unknown"
    assert work["applies"] == term.expanded - 1
    assert max(work["budget_firings"]) == 1


def test_an_early_stop_leaves_the_supply_where_a_full_call_does():
    # r0 fires first; r1 and r2 have variables of their own, and r2 fires too
    program = parse_program(
        "r0 @ p(X) ==> q(X).\n"
        "r1 @ q(Y), q(Z) <=> Y = Z | true.\n"
        "r2 @ p(U) \\ p(V) <=> U = V.\n"
    )
    goal = parse_goal("p(A), p(B)")
    cfg, _ = annotated.drain(annotated.initial(goal))
    full_supply, first_supply = FreshSupply("_R"), FreshSupply("_R")
    program = fit_program(program, "annotated")
    full = annotated.firings(program, cfg, full_supply)
    first = annotated.firings(program, cfg, first_supply, first=True)
    assert [f.rule_index for f in full] == [0, 0, 2, 2]
    assert first == full[:1]
    assert first_supply.fresh().name == full_supply.fresh().name == "_R6"
