"""One ``StateIndex`` for every lookup modulo renaming: the cycle
histories and the answer diff against the keyed scans they replace, kept
verbatim, the index itself against a list scan, gates on how often each
``State`` is read and its search items built, and the rejection of a
state made for another fixed set."""

import contextlib
import functools
import sys
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from chrkit import analysis, equivalence
from chrkit.analysis import AnswerDiff, Cycle, ProbeReport, TerminationReport
from chrkit.constraints import Store, project, solve
from chrkit.equivalence import state_fingerprint, states_equivalent_mod
from chrkit.semantics import annotated, search
from chrkit.semantics.search import (
    AnswerSet,
    State,
    StateIndex,
    Walk,
    fit_program,
    qualified_answers,
)
from chrkit.syntax import parse_goal, parse_program, print_item
from chrkit.terms import FreshSupply, apply_subst, vars_of

from snapshot import annotated_case, equal_shaped_case, random_case
from test_state_keys import fixed_st, states, twins

# ------------------------------------------------------------- reference
# The verifiers as they were before the index: every view and final keyed
# with its fingerprint up front, each branch carrying its history as a
# tuple, and one scan over a list.


def _keyed(state, goal_vars):
    """The state ``(atoms, builtins, tokens)`` paired with its reading,
    which holds its fingerprint."""
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
    state, reading = keyed
    for i, entry in enumerate(entries):
        if entry is not None:
            old, old_reading = entry
            if old_reading.key == reading.key and states_equivalent_mod(
                *old, *state, goal_vars, old_reading, reading
            ):
                return i
    return None



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




def diff_answer_sets(left: AnswerSet, right: AnswerSet) -> AnswerDiff:
    """Match the two answer sets' terminal states one-to-one modulo renaming
    away from the goal variables and report the leftovers."""
    if set(left.goal_vars) != set(right.goal_vars):
        raise ValueError("answer sets come from different goals")
    goal_vars = left.goal_vars

    def keyed(fs: State):
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


# ------------------------------------------------------------ properties

REFERENCE = sys.modules[__name__]
CASES = {"random": random_case, "equal-shaped": equal_shaped_case, "annotated": annotated_case}


@contextlib.contextmanager
def counted(module, name):
    """Count the calls made through the module's binding of the name."""
    calls = [0]
    original = getattr(module, name)

    def wrapper(*args):
        calls[0] += 1
        return original(*args)

    setattr(module, name, wrapper)
    try:
        yield calls
    finally:
        setattr(module, name, original)


def _run(module, call):
    """The call's result, or the name of the exception it raised, with the
    exact checks and fingerprints it made through the module's bindings."""
    with counted(module, "states_equivalent_mod") as checks, \
            counted(module, "state_fingerprint") as prints:
        try:
            result = call()
        except (RecursionError, ValueError) as exc:
            result = type(exc).__name__
    return result, checks[0], prints[0]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.randoms(use_true_random=False))
def test_the_verifiers_report_what_the_keyed_scans_reported(family, rng):
    case = CASES[family](rng)
    program, goal = parse_program(case["program"]), parse_goal(case["goal"])
    budgets = (case["max_applies"], case["max_states"])
    answers = [qualified_answers(program, goal, s, *budgets) for s in ("standard", "annotated")]
    for new, ref in (
        (lambda: analysis.check_normal_termination(program, goal, *budgets),
         lambda: check_normal_termination(program, goal, *budgets)),
        (lambda: analysis.probe_solve_orders(program, goal, *budgets),
         lambda: probe_solve_orders(program, goal, *budgets)),
        (lambda: analysis.diff_answer_sets(*answers), lambda: diff_answer_sets(*answers)),
    ):
        got, checks, prints = _run(search, new)
        want, ref_checks, ref_prints = _run(REFERENCE, ref)
        assert got == want
        # the same exact checks, in the same order, and no more fingerprints
        assert checks == ref_checks
        assert prints <= ref_prints


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.randoms(use_true_random=False))
def test_a_lazy_view_is_the_eager_view(family, rng):
    # along a random derivation of solves and firings, up to its first
    # failed state, which no walk views: the shape read off the
    # configuration is the eager view's, and the view built on first read
    # is the eager one, built once
    case = CASES[family](rng)
    program = fit_program(parse_program(case["program"]), "annotated")
    goal = parse_goal(case["goal"])
    goal_vars = frozenset(vars_of(tuple(goal)))
    fresh = FreshSupply("_R", goal_vars)
    cfg = annotated.initial(goal)
    for _ in range(2 * case["max_applies"]):
        if cfg.failed:
            break
        lazy = analysis._LazyView(cfg, goal_vars)
        (atoms, store, tokens), _ = _live_view(cfg.atoms, cfg.builtins, cfg.tokens, goal_vars)
        assert lazy.shape == State(atoms, store, tokens, goal_vars).shape
        view = lazy.view
        assert (view.atoms, view.builtins.equations, view.tokens, view.fixed) == (
            atoms, store.equations, tokens, goal_vars)
        assert lazy.view is view and lazy.reading is view.reading
        steps = [annotated.solve_at(cfg, i) for i in range(len(cfg.pending))]
        steps += [child for _, child in annotated.successors(program, cfg, fresh)]
        if not steps:
            break
        cfg = rng.choice(steps)


@st.composite
def index_runs(draw):
    """Two different sets of fixed variables, a pool of ``State`` objects
    per set, made for it from the same few states and equivalent copies of
    them, and a sequence of pushes, lookups (each skipping some positions),
    adds and cuts, each on the index of one of the two sets with a state
    of that set's pool."""
    fixeds = draw(st.lists(fixed_st, min_size=2, max_size=2, unique=True))
    pool = draw(st.lists(states(), min_size=1, max_size=4))
    pool += [draw(twins(draw(st.sampled_from(pool)), draw(st.sampled_from(fixeds))))[0]
             for _ in range(draw(st.integers(0, 4)))]
    pools = [[State(atoms, store, tokens, fixed) for atoms, _, store, tokens in pool]
             for fixed in fixeds]
    ops = []
    for _ in range(draw(st.integers(1, 16))):
        side = draw(st.integers(0, 1))
        op = draw(st.sampled_from(("push", "find", "add", "cut")))
        if op == "cut":
            ops.append((side, op, draw(st.integers(0, 8)), ()))
            continue
        skip = draw(st.frozensets(st.integers(0, 8))) if op == "find" else ()
        ops.append((side, op, draw(st.sampled_from(pools[side])), skip))
    return fixeds, ops


@settings(max_examples=300, deadline=None)
@given(index_runs())
def test_the_index_agrees_with_a_list_scan(run):
    fixeds, ops = run
    indexes, helds = [StateIndex(f) for f in fixeds], ([], [])
    for side, op, state, skip in ops:
        index, held, fixed = indexes[side], helds[side], fixeds[side]
        if op == "cut":
            index.cut(state)
            del held[state:]
            continue
        atoms, store, tokens = state.atoms, state.builtins, state.tokens
        first = next((
            i for i, (a, b, t) in enumerate(held)
            if i not in skip and states_equivalent_mod(atoms, store, tokens, a, b, t, fixed)
        ), None)
        # a fresh copy, not read yet, is found where the object is
        assert index.find(State(atoms, store, tokens, fixed), skip) == first
        if op == "add":
            assert index.add(state) == (first is None)
            if first is None:
                held.append((atoms, store, tokens))
        else:
            assert index.find(state, skip) == first
            if op == "push":
                index.push(state)
                held.append((atoms, store, tokens))
        # the object is read for its own fixed set, the index's
        assert state.reading.key == state_fingerprint(atoms, store, tokens, fixed).key


# ------------------------------------------------------------ work gate


def test_a_branch_of_distinct_shapes_fingerprints_no_view():
    # each view adds a q, so no two views on the branch share a shape; the
    # keyed scan fingerprinted every one. Every fingerprint reads the state's
    # var_profiles, whichever module asks for it.
    program, goal = parse_program("r @ p(X) <=> p(f(X)), q."), parse_goal("p(a)")
    with counted(equivalence, "var_profiles") as profiles:
        report, _, prints = _run(
            search, lambda: analysis.check_normal_termination(program, goal, max_applies=20)
        )
    assert (report.status, report.expanded) == ("unknown", 21)
    assert prints == profiles[0] == 0
    want, _, ref_prints = _run(
        REFERENCE, lambda: check_normal_termination(program, goal, max_applies=20)
    )
    assert want == report
    assert ref_prints == 21


def test_the_diff_checks_a_matched_final_no_more():
    # the two answers share a shape and a fingerprint: once the first left
    # final has matched the first right one, the second left final is only
    # checked against the second right one. explore fingerprinted all four
    # finals under the goal variables, so the diff fingerprints none
    program = parse_program("a @ h <=> r(W, V), r(V, W). b @ h <=> r(W, W), r(V, V).")
    left, right = (qualified_answers(program, parse_goal("h"), s) for s in ("standard", "annotated"))
    diff, checks, prints = _run(search, lambda: analysis.diff_answer_sets(left, right))
    assert diff.equal and checks == 2 and prints == 0
    assert _run(REFERENCE, lambda: diff_answer_sets(left, right)) == (diff, 2, 4)


@contextlib.contextmanager
def computed(cls, name):
    """Record each object whose cached property ``cls.name`` is computed."""
    objects = []
    prop = getattr(cls, name)

    def compute(obj):
        objects.append(obj)
        return prop.func(obj)

    counting = functools.cached_property(compute)
    counting.__set_name__(cls, name)
    setattr(cls, name, counting)
    try:
        yield objects
    finally:
        setattr(cls, name, prop)


def test_independent_atoms_build_each_states_items_once():
    # five interchangeable atoms: a state keeps its reading, so its items
    # are built at most once however many exact checks it meets (building
    # them for both sides of every check made 1,136)
    program = parse_program("r @ p(X) <=> q(X). v @ q(Y) <=> s(Y).")
    goal = parse_goal(", ".join(f"p(X{i})" for i in range(5)))
    with computed(equivalence.Reading, "items") as built:
        res, checks, _ = _run(search, lambda: search.explore(program, goal))
    assert (res.expanded, checks) == (811, 568)
    assert len(built) <= 811


def test_a_lookup_reads_only_the_held_keys_it_looks_up(monkeypatch):
    # six interchangeable atoms: 2,917 lookups into shapes of up to 90
    # states. A scan of the whole shape read a held key per position
    # (89,151); the index reads each held state once, when another of its
    # shape first meets it, and each new state once, when its shape is
    # held. The state keeps its reading, so no state is read twice (a
    # reading cached per fixed set was asked for 3,615 times)
    lookups, pushes = [0], [0]
    find, push = StateIndex.find, StateIndex.push

    def counting(counter, method):
        def counted(*args):
            counter[0] += 1
            return method(*args)
        return counted

    monkeypatch.setattr(StateIndex, "find", counting(lookups, find))
    monkeypatch.setattr(StateIndex, "push", counting(pushes, push))
    program = parse_program("r @ p(X) <=> q(X). v @ q(Y) <=> s(Y).")
    goal = parse_goal(", ".join(f"p(X{i})" for i in range(6)))
    with counted(search, "states_equivalent_mod") as checks, \
            counted(search, "state_fingerprint") as prints, \
            computed(State, "reading") as read:
        res = search.explore(program, goal)
    assert (res.expanded, lookups[0], pushes[0], checks[0]) == (2917, 2917, 729, 2188)
    assert prints[0] == len(read) <= 2916
    assert len({id(state) for state in read}) == len(read)


def test_a_state_made_for_another_fixed_set_is_rejected():
    # an index compares states away from its own fixed set: a state made
    # for another one is refused, before it is held or read, not read again
    program = parse_program("r @ p(X) <=> q(X).")
    finals = search.explore(program, parse_goal("p(X), p(Y)")).finals
    (final,) = finals
    x, y = sorted(final.fixed, key=lambda v: v.name)
    index = StateIndex({x})
    for call in (index.push, index.find, index.add):
        with pytest.raises(ValueError):
            call(final)
    assert index.find(State(final.atoms, final.builtins, final.tokens, frozenset({x}))) is None
    # a lazy view is refused before its view is built
    cfg = annotated.initial(parse_goal("p(X), p(Y)"))
    lazy = analysis._LazyView(cfg, frozenset({y}))
    for call in (index.push, index.find):
        with pytest.raises(ValueError):
            call(lazy)
    assert lazy._view is None
    # an equal set made apart from the index's is the same fixed set
    same = StateIndex([x, y])
    same.push(final)
    assert same.find(final) == 0
