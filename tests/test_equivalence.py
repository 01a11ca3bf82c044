"""State, configuration, and rule comparison modulo renaming."""

from dataclasses import replace

from chrkit.constraints import FAILED, TRUE, conjoin
from chrkit.equivalence import (
    configs_correspond,
    rules_isomorphic,
    states_equivalent_mod,
)
from chrkit.semantics import annotated as ann
from chrkit.semantics import standard as std
from chrkit.syntax import IdAtom, Token, annotate, parse_goal, parse_program
from chrkit.terms import Compound, Equation, Var, const

from conftest import load


def atom(text, ident):
    (t,) = parse_goal(text)
    return IdAtom(t, ident)


def B(*eq_texts):
    return conjoin(TRUE, [parse_goal(t)[0] for t in eq_texts])


# ------------------------------------------------ every variable fixed

X, Y = Var("X"), Var("Y")


def test_equal_states_are_equivalent():
    sa = (atom("p(X)", 1),)
    assert states_equivalent_mod(
        sa, TRUE, frozenset(), sa, TRUE, frozenset(), fixed_vars={X}
    )


def test_builtin_stores_compared_semantically():
    sa = (atom("p(X)", 1),)
    assert states_equivalent_mod(
        sa, B("X=Y", "Y=a"), frozenset(), sa, B("X=a", "Y=a"), frozenset(),
        fixed_vars={X, Y},
    )
    assert not states_equivalent_mod(
        sa, B("X=a"), frozenset(), sa, B("X=b"), frozenset(), fixed_vars={X}
    )


def test_dangling_tokens_are_ignored():
    sa = (atom("k", 1),)
    toks = frozenset({Token("r", (1, 9))})  # 9 has no atom behind it
    assert states_equivalent_mod(
        sa, TRUE, toks, sa, TRUE, frozenset(), fixed_vars=()
    )


def test_live_tokens_distinguish_states():
    sa = (atom("k", 1),)
    toks = frozenset({Token("r", (1,))})
    assert not states_equivalent_mod(
        sa, TRUE, toks, sa, TRUE, frozenset(), fixed_vars=()
    )


def test_failed_states_collapse():
    sa = (atom("p(X)", 1),)
    assert states_equivalent_mod(
        sa, FAILED, frozenset(), (), FAILED, frozenset(), fixed_vars={X}
    )
    assert not states_equivalent_mod(
        sa, FAILED, frozenset(), sa, TRUE, frozenset(), fixed_vars={X}
    )


# -------------------------------------------------------- modulo renaming


def test_mod_renames_locals_and_identifiers():
    sa = (atom("p(U)", 1),)
    sb = (atom("p(V)", 7),)
    assert states_equivalent_mod(
        sa, B("U=a"), frozenset(), sb, B("V=a"), frozenset(), fixed_vars=()
    )


def test_mod_does_not_rename_fixed_vars():
    sa = (atom("p(U)", 1),)
    sb = (atom("p(V)", 1),)
    assert not states_equivalent_mod(
        sa, TRUE, frozenset(), sb, TRUE, frozenset(), fixed_vars={Var("U"), Var("V")}
    )


def test_mod_transports_tokens_through_the_id_bijection():
    sa = (atom("k", 1), atom("s", 2))
    sb = (atom("k", 5), atom("s", 3))
    ta = frozenset({Token("r2", (1,))})
    tb = frozenset({Token("r2", (5,))})
    assert states_equivalent_mod(sa, TRUE, ta, sb, TRUE, tb, fixed_vars=())
    wrong = frozenset({Token("r2", (3,))})  # points at s, not k
    assert not states_equivalent_mod(sa, TRUE, ta, sb, TRUE, wrong, fixed_vars=())


def test_mod_handles_shared_variable_names():
    # both states use the same variable names in swapped roles; the renaming
    # that matches them is a transposition, which must not send the
    # comparison into a rewrite loop
    sa = (atom("p(_R1)", 1), atom("q(_R2)", 2))
    sb = (atom("p(_R2)", 1), atom("q(_R1)", 2))
    assert states_equivalent_mod(
        sa, B("_R1=a"), frozenset(), sb, B("_R2=a"), frozenset(), fixed_vars=()
    )
    assert states_equivalent_mod(sa, TRUE, frozenset(), sa, TRUE, frozenset(), ())


def test_mod_checks_which_atoms_each_token_pairs():
    # every atom has the same token roles in both states
    sa = (atom("p(a)", 1), atom("q(a)", 2), atom("p(b)", 3), atom("q(b)", 4))
    ta = frozenset({Token("r", (1, 2)), Token("r", (3, 4))})
    crossed = frozenset({Token("r", (1, 4)), Token("r", (3, 2))})
    assert not states_equivalent_mod(sa, TRUE, ta, sa, TRUE, crossed, ())
    # with p(a) twice, crossing the tokens only trades the two p(a) atoms,
    # so the first p(a) tried must not be kept for good
    sb = (atom("p(a)", 1), atom("q(a)", 2), atom("p(a)", 3), atom("q(b)", 4))
    assert states_equivalent_mod(sb, TRUE, ta, sb, TRUE, crossed, ())


def test_mod_maps_bindings_of_atom_variables_with_their_atoms():
    # X = a and Y = a look alike, but only X's counterpart is W, as the
    # atoms tell; the leftover pair Q, R takes any candidate
    sa = (atom("r(X, X)", 1), atom("r(Y, Z)", 2), atom("r(Q, Q)", 3))
    sb = (atom("r(W, W)", 1), atom("r(V, U)", 2), atom("r(R, R)", 3))
    assert states_equivalent_mod(
        sa, B("X=a", "Y=a"), frozenset(), sb, B("V=a", "W=a"), frozenset(), ()
    )


def test_mod_distinguishes_dead_local_bindings():
    # projection onto the visible variables would call these equal; the
    # full-store comparison must not
    sa = (atom("p(X)", 1),)
    assert not states_equivalent_mod(
        sa, B("Y=a"), frozenset(), sa, TRUE, frozenset(), fixed_vars={Var("X")}
    )


# --------------------------------------------------------- configurations


def test_initial_configurations_correspond():
    goal = parse_goal("p(X), X=a, q(Y)")
    s = std.initial(goal)
    f = ann.initial(goal)
    assert configs_correspond(s, f)


def test_correspondence_tracks_introduction():
    goal = parse_goal("p(X), q(Y)")
    s = std.initial(goal)
    f = ann.initial(goal)
    s1 = std.introduce_step(s)
    assert configs_correspond(s1, f)
    # before the introduction the fused atom #1 is still "pending": fine;
    # but claiming zero pending atoms with counter 1 is inconsistent
    assert not configs_correspond(replace(s, goal=()), f)


def test_correspondence_rejects_tokened_pending_atoms():
    goal = parse_goal("k")
    f = ann.initial(goal)
    s = std.initial(goal)
    poisoned = frozenset({Token("r2", (1,))})
    assert not configs_correspond(s, replace(f, tokens=poisoned))


def test_correspondence_checks_counter_arithmetic():
    goal = parse_goal("p(X), q(Y)")
    s = std.initial(goal)
    f = ann.initial(goal)
    assert not configs_correspond(s, replace(f, counter=f.counter + 1))


# ----------------------------------------------------------------- rules


def parse_rule(text):
    return parse_program(text).rules[0]


def test_isomorphic_under_variable_renaming():
    ra = parse_rule("r @ p(X), q(Y) <=> X=Y | s(X)#1.")
    rb = parse_rule("r @ p(A), q(B) <=> A=B | s(A)#1.")
    assert rules_isomorphic(ra, rb)


def test_isomorphic_under_identifier_renaming():
    ra = parse_rule("r @ p <=> q#1, s#2 ; {v@1,2}.")
    rb = parse_rule("r @ p <=> q#5, s#9 ; {v@5,9}.")
    assert rules_isomorphic(ra, rb)
    rc = parse_rule("r @ p <=> q#5, s#9 ; {v@9,5}.")
    assert not rules_isomorphic(ra, rc)  # token points at s,q in that order


def test_equations_compare_unordered():
    ra = parse_rule("r @ p(X) <=> q#1, X=a.")
    rb = parse_rule("r @ p(Y) <=> q#1, a=Y.")
    assert rules_isomorphic(ra, rb)


def test_body_order_does_not_matter():
    ra = parse_rule("r @ p <=> q#1, s#2, X=a.")
    rb = parse_rule("r @ p <=> s#4, X=a, q#2.")
    assert rules_isomorphic(ra, rb)


def test_name_and_parts_must_match():
    ra = parse_rule("r @ p <=> q#1.")
    assert not rules_isomorphic(ra, parse_rule("v @ p <=> q#1."))
    assert not rules_isomorphic(ra, parse_rule("r @ p ==> q#1."))
    assert not rules_isomorphic(ra, parse_rule("r @ p <=> X=a | q#1."))
    assert not rules_isomorphic(ra, parse_rule("r @ p <=> q#1, s#2."))


def test_renaming_must_be_injective():
    ra = parse_rule("r @ p(X, Y) <=> q(X, Y)#1.")
    rb = parse_rule("r @ p(A, A) <=> q(A, A)#1.")
    assert not rules_isomorphic(ra, rb)
    assert not rules_isomorphic(rb, ra)
