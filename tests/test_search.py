"""Derivation search, answer rendering, and the two-semantics lockstep."""

from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from chrkit import equivalence
from chrkit.analysis import check_normal_termination, probe_solve_orders
from chrkit.constraints import FAILED
from chrkit.semantics import annotated, search, standard
from chrkit.semantics.search import (
    AnswerSet,
    StateIndex,
    explore,
    lockstep_run,
    qualified_answers,
    render_answer,
)
from chrkit.syntax import Program, Rule, parse_goal, parse_program
from chrkit.terms import Compound, Equation, FalseConstraint

from conftest import load
from test_matching import CONSTS, GOAL_VARS, HEAD_VARS, LOCAL, terms


def test_failed_branches_render_as_false():
    p = parse_program("r @ p <=> false.")
    ans = qualified_answers(p, parse_goal("p"))
    assert ans.texts == ("false",)


def test_unentailed_guard_just_leaves_the_atom():
    # rp demands X=a; with X=b it never fires and q(b) survives
    ans = qualified_answers(load("mau"), parse_goal("X=b, p(X)"))
    assert ans.texts == ("q(b), X=b",)


def test_answers_project_onto_goal_variables():
    ans = qualified_answers(load("chain"), parse_goal("p(V)"))
    assert ans.texts == ("s(V)",)
    ans = qualified_answers(load("unicatesta"), parse_goal("p(X), h(a), q(b)"))
    assert "false" in ans.texts
    assert any("X=a" in t for t in ans.texts)


def test_answers_show_the_order_of_the_equation_history():
    # the one-pass solve binds the left variable of the goal's link, so the
    # atoms show the right one; a representative chosen regardless of the
    # history would print both goals alike
    p = parse_program("r @ a(Z) <=> p(Z).")
    for semantics in ("standard", "annotated"):
        ans = qualified_answers(p, parse_goal("p(X), q(Y), X=Y"), semantics)
        assert ans.texts == ("p(Y), q(Y), Y=X",)
        ans = qualified_answers(p, parse_goal("p(X), q(Y), Y=X"), semantics)
        assert ans.texts == ("p(X), q(X), Y=X",)


def test_empty_final_state_renders_as_true():
    ans = qualified_answers(load("mau"), parse_goal("p(a)"))
    assert ans.texts == ("true",)


def test_local_variables_are_canonical():
    p = parse_program("r @ p <=> q(W).")
    ans = qualified_answers(p, parse_goal("p"))
    assert ans.texts == ("q(_L1)",)


def test_answers_are_sorted_and_deduplicated():
    p = parse_program(
        "a @ p <=> q(X), X=b.\n"
        "b @ p <=> q(Y), Y=b.\n"
        "c @ p <=> s."
    )
    ans = qualified_answers(p, parse_goal("p"))
    # rules a and b reach the same state up to the local variable's name
    assert ans.texts == ("q(b)", "s")


def test_answer_states_keep_their_binding_shape():
    # q(X), X=b and the literal q(b) print alike but are different states;
    # the answer set keeps both rather than conflating them
    p = parse_program("a @ p <=> q(X), X=b.\nb @ p <=> q(b).")
    ans = qualified_answers(p, parse_goal("p"))
    assert ans.texts == ("q(b)", "q(b)")
    assert len(ans.finals) == 2


def test_explore_truncates_on_apply_budget():
    p = parse_program("grow @ c(X) <=> c(f(X)).")
    res = explore(p, parse_goal("c(a)"), max_applies=3)
    assert res.truncated
    assert res.finals == []


def test_explore_dedup_prunes_revisited_states():
    p = parse_program("spin @ s <=> s.")
    res = explore(p, parse_goal("s"), max_applies=30)
    assert not res.truncated  # the revisit is recognized, not re-expanded
    assert res.finals == []
    res2 = explore(p, parse_goal("s"), max_applies=5, dedup=False)
    assert res2.truncated


def test_both_semantics_agree_on_texts():
    goal = parse_goal("f(adam, seth), f(seth, enosh), f(enosh, kenan)")
    p = load("gen_adam")
    std = qualified_answers(p, goal, semantics="standard")
    ann = qualified_answers(p, goal, semantics="annotated")
    assert std.texts == ann.texts
    assert len(std.texts) >= 2  # r2 and br2 leave different stores behind


def test_lockstep_alignment_on_fixtures():
    for name, goal_text in (
        ("mau", "p(X)"),
        ("mau", "X=a, p(X)"),
        ("chain", "p(X), q(b)"),
        ("gen_adam", "f(adam, seth), f(seth, enosh), f(enosh, kenan)"),
        ("token_update", "h"),
    ):
        report = lockstep_run(load(name), parse_goal(goal_text))
        assert report.aligned, (name, goal_text, report.mismatch)
        assert report.mismatch is None
        assert not report.truncated
        assert report.finals > 0


def test_lockstep_on_repeated_atoms_compares_each_pair_of_states_once(monkeypatch):
    # both readings hand out the same identifiers, so correspondence is
    # checked identifier for identifier, never by a search over bijections
    # between equal atoms (which ran for over a minute here)
    calls = []
    monkeypatch.setattr(
        equivalence, "_search", lambda *args: calls.append(args)
    )
    report = lockstep_run(
        parse_program("r3 @ s ==> s, s."), parse_goal("s, s"),
        max_applies=4, max_states=300,
    )
    assert report.aligned and report.nodes == 153
    assert calls == []


def test_lockstep_counts_steps():
    report = lockstep_run(load("mau"), parse_goal("X=a, p(X)"))
    # p -> q -> true: two firings, plus the explicit X=a to solve
    assert report.apply_count == 2
    assert report.solve_count >= 1


def test_lockstep_head_equations_skip_the_solver_queue():
    # matching a head binds variables directly in the store, so a goal
    # without explicit builtins never exercises the solve transition
    report = lockstep_run(load("chain"), parse_goal("p(a)"))
    assert report.apply_count == 2
    assert report.solve_count == 0


def test_lockstep_counts_a_branch_failing_on_both_sides_as_final():
    # r's body X = a clashes with the goal's Y = b, so both readings fail
    # on that branch at once; the branch through s ends normally
    report = lockstep_run(
        parse_program("r @ p(X) <=> X = a, q(X). s @ p(X) <=> X = b. t @ q(b) <=> true."),
        parse_goal("p(Y), Y = b"),
    )
    assert report.aligned and not report.truncated
    assert (report.nodes, report.finals) == (3, 2)
    assert (report.solve_count, report.apply_count) == (3, 2)


def _wrap_drain(monkeypatch, module, change):
    drain = module.drain
    monkeypatch.setattr(module, "drain", lambda cfg: change(*drain(cfg)))


def test_lockstep_reports_states_diverging_on_entry(monkeypatch):
    monkeypatch.setattr(search, "configs_correspond", lambda cs, ca: False)
    report = lockstep_run(load("mau"), parse_goal("p(X)"))
    assert not report.aligned
    assert report.mismatch == "states diverged entering node 1"
    assert report.nodes == 1


def test_lockstep_reports_different_solve_counts(monkeypatch):
    _wrap_drain(monkeypatch, annotated, lambda cfg, n: (cfg, n + 1))
    report = lockstep_run(load("mau"), parse_goal("X=a, p(X)"))
    assert not report.aligned
    assert report.mismatch == "solve counts differ at node 1: 1 vs 2"
    assert report.nodes == 1


def test_lockstep_reports_one_side_failing(monkeypatch):
    _wrap_drain(monkeypatch, standard, lambda c, n: (replace(c, builtins=FAILED), n))
    report = lockstep_run(load("mau"), parse_goal("p(X)"))
    assert not report.aligned
    assert report.mismatch == "only one side failed at node 1"
    assert report.nodes == 1


def test_lockstep_reports_states_diverging_after_the_drain(monkeypatch):
    # the drained two-store side has one identifier too many handed out
    _wrap_drain(monkeypatch, standard, lambda c, n: (replace(c, counter=c.counter + 1), n))
    report = lockstep_run(load("mau"), parse_goal("p(X)"))
    assert not report.aligned
    assert report.mismatch == "states diverged after draining node 1"
    assert report.nodes == 1


def test_lockstep_reports_different_firings(monkeypatch):
    # from the second node on the fused side finds no firing
    successors = annotated.successors

    def first_node_only(program, cfg, fresh=None):
        return successors(program, cfg, fresh) if cfg.counter < 2 else []

    monkeypatch.setattr(annotated, "successors", first_node_only)
    report = lockstep_run(load("mau"), parse_goal("X=a, p(X)"))
    assert not report.aligned
    assert report.mismatch == "firings differ at node 2: [(1, (2,))] vs []"
    assert report.nodes == 2


def test_a_branch_ending_at_the_apply_budget_is_not_truncated():
    # p(a) fires r once and q(a) is terminal: the branch ends exactly at
    # max_applies=1, so every search is exhaustive
    p = parse_program("r @ p(X) <=> q(X).")
    goal = parse_goal("p(a)")
    for semantics in ("standard", "annotated"):
        res = explore(p, goal, semantics=semantics, max_applies=1)
        assert not res.truncated
        assert len(res.finals) == 1
    report = lockstep_run(p, goal, max_applies=1)
    assert report.aligned and not report.truncated
    assert (report.finals, report.apply_count) == (1, 1)
    term = check_normal_termination(p, goal, max_applies=1)
    assert (term.status, term.truncated) == ("terminates", False)
    # the probe's step budget cuts any node at the budget, leaves included
    probe = probe_solve_orders(p, goal, max_steps=1)
    assert probe.truncated and not probe.cycle_found


def test_lockstep_aligns_a_goal_with_a_1500_deep_binding():
    deep = "s(" * 1500 + "z" + ")" * 1500
    report = lockstep_run(
        parse_program("r @ p(X) <=> q(X)."), parse_goal(f"X = {deep}, p(X)")
    )
    assert report.aligned and report.finals == 1 and report.solve_count == 1


def test_lockstep_aligns_a_rule_body_holding_a_1500_deep_term():
    # the goal and introduced atoms of both readings are compared as printed
    # text, which is cheaper than hashing whole terms into a multiset; the
    # printer must not recurse once per nesting level
    deep = "s(" * 1500 + "z" + ")" * 1500
    report = lockstep_run(
        parse_program(f"r @ p(X) <=> q(X, {deep}). v @ q(Y, Z) <=> t(Y, Z)."),
        parse_goal("p(a)"),
    )
    assert report.aligned and not report.truncated
    assert (report.finals, report.apply_count, report.solve_count) == (1, 2, 0)


# --------------------------------------------------- answers from explore


def reference_qualified_answers(program, goal, semantics, **budgets) -> AnswerSet:
    """The answers as a second ``StateIndex`` pass over explore's finals
    picked them, kept verbatim."""
    res = explore(program, goal, semantics=semantics, **budgets)
    seen = StateIndex(res.goal_vars)
    reps = [fs for fs in res.finals if seen.add(fs.atoms, fs.builtins, fs.tokens)]
    rendered = [(render_answer(fs, res.goal_vars), fs) for fs in reps]
    rendered.sort(key=lambda pair: pair[0].text)
    return AnswerSet(
        tuple(a for a, _ in rendered),
        tuple(fs for _, fs in rendered),
        res.truncated,
        res.goal_vars,
    )


def p_or_h(term):
    return st.one_of(st.builds(lambda t: Compound("p", (t,)), term), st.just(Compound("h", ())))


BODY_TERMS = terms(HEAD_VARS + (LOCAL,), 1)
HEADS = p_or_h(st.sampled_from(HEAD_VARS + CONSTS[:1]))
BODY_ITEMS = st.one_of(
    p_or_h(BODY_TERMS),
    st.builds(Equation, BODY_TERMS, BODY_TERMS),
    st.just(FalseConstraint()),
)
GOAL_ITEMS = st.one_of(
    p_or_h(terms(GOAL_VARS, 1)),
    st.builds(Equation, st.sampled_from(GOAL_VARS), terms(GOAL_VARS, 1)),
)


@st.composite
def programs_and_goals(draw):
    """Rules with heads that match often and bodies that may fail, and a
    goal of atoms and equations: searches that branch, with several
    answers and several failed finals."""
    rules = []
    for i in range(draw(st.integers(1, 3))):
        heads = draw(st.lists(HEADS, min_size=1, max_size=2))
        split = draw(st.integers(0, len(heads)))
        guard = draw(st.lists(
            st.builds(Equation, st.sampled_from(HEAD_VARS), terms(HEAD_VARS, 1)), max_size=1,
        ))
        body = draw(st.lists(BODY_ITEMS, max_size=3))
        rules.append(Rule(
            f"r{i}", tuple(heads[:split]), tuple(heads[split:]), tuple(guard), tuple(body),
        ))
    goal = draw(st.lists(GOAL_ITEMS, min_size=1, max_size=4))
    return Program(tuple(rules)), tuple(goal)


@settings(max_examples=300, deadline=None)
@given(programs_and_goals(), st.sampled_from(("standard", "annotated")))
@example(
    (parse_program("a @ h <=> false. b @ h <=> p(a). c @ h <=> false. d @ h <=> p(b)."),
     parse_goal("h")),
    "standard",
)
def test_answers_match_a_second_dedup_pass_over_the_finals(case, semantics):
    program, goal = case
    budgets = {"max_applies": 5, "max_states": 200}
    assert qualified_answers(program, goal, semantics, **budgets) == (
        reference_qualified_answers(program, goal, semantics, **budgets)
    )
