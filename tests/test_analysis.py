"""Bounded verifiers: termination, confluence, scheduler probe, answer diff."""

import pytest

from chrkit import analysis
from chrkit.analysis import (
    Cycle,
    ProbeReport,
    TerminationReport,
    check_normal_confluence,
    check_normal_termination,
    diff_answer_sets,
    probe_solve_orders,
)
from chrkit.replace import replace_rule
from chrkit.semantics.search import StateIndex, qualified_answers
from chrkit.syntax import annotate, parse_goal, parse_program

from conftest import load


def test_trivial_self_loop_diverges():
    p = parse_program("r @ p(X) <=> p(X).")
    report = check_normal_termination(p, parse_goal("p(a)"))
    assert report.status == "diverges"
    assert report.cycle is not None
    assert report.cycle.trace == (("r", (1,)),)
    assert report.cycle.first_depth == 0
    assert report.cycle.repeat_depth == 1


def test_cycle_witness_does_not_depend_on_how_the_store_was_built():
    # the store is built by several conjoins; the live views read the solved
    # form of its equations unified in one pass, under which the first step
    # already repeats the goal's view
    p = parse_program("r1 @ s(W) <=> s(W), f(f(b))=Y.")
    report = check_normal_termination(p, parse_goal("s(W), r(Y, X), W=X"))
    assert report.status == "diverges"
    assert report.cycle.trace == (("r1", (1,)),)
    assert (report.cycle.first_depth, report.cycle.repeat_depth) == (0, 1)


def test_live_views_keep_the_history_orientation():
    # views that kept goal variables as class representatives would see
    # r2's step repeat the goal's view and report a 1-step cycle here
    p = parse_program(
        "r0 @ q(W) <=> g(f(f(Y)),W)=a | true.\n"
        "r1 @ q(Z) <=> b=W.\n"
        "r2 @ q(W) \\ s(X) <=> s(X), X=Y.\n"
    )
    report = check_normal_termination(p, parse_goal("s(D), q(D), s(A)"), max_applies=1)
    assert (report.status, report.cycle, report.truncated) == ("unknown", None, True)


def test_propositional_self_loop_diverges():
    p = parse_program("r @ p <=> p.")
    assert check_normal_termination(p, parse_goal("p")).status == "diverges"


def test_terminating_chain():
    report = check_normal_termination(load("chain"), parse_goal("p(a)"))
    assert report.status == "terminates"
    assert not report.truncated
    assert report.cycle is None


def test_budget_exhaustion_reports_unknown():
    p = parse_program("count @ c(X) <=> c(f(X)).")
    # every state differs from its ancestors (the argument keeps growing),
    # so only the budget stops the search
    report = check_normal_termination(p, parse_goal("c(a)"), max_applies=5)
    assert report.status == "unknown"
    assert report.truncated


def test_normal_scheduler_terminates_on_the_loop_fixture():
    p = load("solve_order_loop")
    report = check_normal_termination(p, parse_goal("V=d, p(V)"))
    assert report.status == "terminates"


def test_confluent_program():
    report = check_normal_confluence(load("chain"), parse_goal("p(X), q(b)"))
    assert report.status == "confluent"
    assert report.classes == 1
    assert not report.truncated


def test_branching_program_is_not_confluent():
    p = parse_program("a @ p <=> q.\nb @ p <=> r.")
    report = check_normal_confluence(p, parse_goal("p"))
    assert report.status == "not-confluent"
    assert report.classes == 2
    assert set(report.witness) == {"q", "r"}


def test_probe_finds_the_lazy_solve_cycle():
    p = annotate(load("solve_order_loop"))
    p2, _ = replace_rule(p, 0, "weak")
    report = probe_solve_orders(p2, parse_goal("V=d, p(V)"))
    assert report.cycle_found
    assert report.cycle.repeat_depth <= 3
    labels = [step[0] for step in report.cycle.trace]
    assert "apply" in labels and "solve" in labels


def test_probe_exhausts_the_original_program():
    report = probe_solve_orders(load("solve_order_loop"), parse_goal("V=d, p(V)"))
    assert not report.cycle_found
    assert not report.truncated  # searched every interleaving


def test_diff_equal_answer_sets():
    p = load("mau")
    goal = parse_goal("p(X)")
    left = qualified_answers(p, goal, semantics="standard")
    right = qualified_answers(p, goal, semantics="annotated")
    diff = diff_answer_sets(left, right)
    assert diff.equal
    assert diff.only_left == [] and diff.only_right == []
    assert not diff.truncated


def test_diff_spots_a_missing_answer():
    goal = parse_goal("p(X)")
    p = load("mau")
    q = parse_program("r @ p(Y) <=> q(Y).\nrp @ q(Z) <=> true.")
    left = qualified_answers(p, goal, semantics="annotated")
    right = qualified_answers(q, goal, semantics="annotated")
    diff = diff_answer_sets(left, right)
    assert not diff.equal
    assert diff.only_left == ["q(X)"]
    assert diff.only_right == ["true"]


def test_diff_rejects_mismatched_goals():
    p = load("mau")
    left = qualified_answers(p, parse_goal("p(X)"))
    right = qualified_answers(p, parse_goal("p(Y)"))
    with pytest.raises(ValueError):
        diff_answer_sets(left, right)


def test_diff_sees_dead_local_bindings():
    # both sides print the same text; only the full states tell them apart
    p = parse_program("r @ p(X) <=> true.")
    q = parse_program("r @ p(X) <=> Y=a.")
    goal = parse_goal("p(V)")
    left = qualified_answers(p, goal)
    right = qualified_answers(q, goal)
    assert left.texts == right.texts == ("true",)
    assert not diff_answer_sets(left, right).equal


# ------------------------------------------------------------ work gate


def views_built(monkeypatch):
    """Record the shape of every view ``_live_view`` builds."""
    built = []
    live_view = analysis._live_view

    def building(cfg, fixed):
        view = live_view(cfg, fixed)
        built.append(view.shape)
        return view

    monkeypatch.setattr(analysis, "_live_view", building)
    return built


def test_a_walk_whose_views_never_share_a_shape_builds_none(monkeypatch):
    # no ancestor on any branch of this genealogy has a view of the same
    # atom shape, so no view is ever compared: the eager walk built 339
    built = views_built(monkeypatch)
    goal = parse_goal(", ".join(f"f(a{i}, a{i + 1})" for i in range(6)))
    report = check_normal_termination(load("gen_adam"), goal)
    assert report == TerminationReport("terminates", None, 339, False)
    assert built == []


def test_the_two_views_whose_shapes_meet_are_built(monkeypatch):
    built = views_built(monkeypatch)
    report = check_normal_termination(parse_program("r @ p <=> p."), parse_goal("p"))
    assert report == TerminationReport("diverges", Cycle((("r", (1,)),), 0, 1), 2, False)
    assert built == [(("p", 0),)] * 2


def test_the_probe_builds_a_view_only_when_the_history_holds_its_shape(monkeypatch):
    # every view is built inside a lookup whose shape the history holds,
    # and has that shape
    built, inside = views_built(monkeypatch), [0]
    find = StateIndex.find

    def finding(index, state, skip=()):
        before = len(built)
        held = any(view.shape == state.shape for view in index._held)
        pos = find(index, state, skip)
        assert built[before:] == [state.shape] * (len(built) - before)
        assert held or len(built) == before
        inside[0] += len(built) - before
        return pos

    monkeypatch.setattr(StateIndex, "find", finding)
    report = probe_solve_orders(load("solve_order_loop"), parse_goal("V=d, p(V)"))
    assert report == ProbeReport(False, None, 11, False)
    assert built == []  # the eager probe built 3
    p2, _ = replace_rule(annotate(load("solve_order_loop")), 0, "weak")
    report = probe_solve_orders(p2, parse_goal("V=d, p(V)"))
    trace = (
        ("solve", "V=d"), ("apply", "r1", (1,)), ("solve", "_R5=_R6"),
        ("apply", "r3", (3,)), ("apply", "r1", (4,)),
    )
    assert report == ProbeReport(True, Cycle(trace, 0, 3), 7, False)
    assert built == [(("r", 1),)] * 2  # the eager probe built 4
    assert inside[0] == len(built)
