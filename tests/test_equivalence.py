"""State, configuration, and rule comparison modulo renaming."""

from dataclasses import replace
from unittest import mock

from hypothesis import given, settings

from chrkit.constraints import FAILED, TRUE, conjoin, stores_equivalent
from chrkit.equivalence import (
    configs_correspond,
    rules_isomorphic,
    states_equivalent_mod,
)
from chrkit.semantics import annotated as ann
from chrkit.semantics import search
from chrkit.semantics import standard as std
from chrkit.syntax import (
    IdAtom,
    Token,
    annotate,
    clean_tokens,
    parse_goal,
    parse_program,
    print_item,
)
from chrkit.terms import Compound, Equation, FalseConstraint, Var, const

from conftest import load
from test_search import programs_and_goals


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


# ------------------------------------ one broken rule per correspondence


def initial_pair(text):
    goal = parse_goal(text)
    return std.initial(goal), ann.initial(goal)


def drained_pair(text):
    s, f = initial_pair(text)
    return std.drain(s)[0], ann.drain(f)[0]


GOAL = "p(a), X=b, q(X)"


def test_initial_and_drained_pairs_correspond():
    assert configs_correspond(*initial_pair(GOAL))
    assert configs_correspond(*drained_pair(GOAL))
    # the same live token on both sides keeps them together
    s, f = drained_pair("k")
    live = frozenset({Token("r2", (1,))})
    assert configs_correspond(replace(s, tokens=live), replace(f, tokens=live))


def test_correspondence_checks_the_counter():
    s, f = drained_pair(GOAL)
    assert not configs_correspond(s, replace(f, counter=f.counter + 1))
    assert not configs_correspond(replace(s, counter=s.counter - 1), f)


def test_correspondence_checks_the_pending_builtins():
    s = std.initial(parse_goal("p(a), X=b"))
    f = ann.initial(parse_goal("p(a), X=c"))
    assert not configs_correspond(s, f)


def test_correspondence_checks_the_atom_texts():
    s = std.initial(parse_goal("p(a), X=b"))
    f = ann.initial(parse_goal("p(b), X=b"))
    assert not configs_correspond(s, f)
    s, f = drained_pair(GOAL)
    assert not configs_correspond(replace(s, store=(atom("p(b)", 1), s.store[1])), f)


def test_correspondence_checks_the_goal_atom_identifiers():
    # raising both counters keeps their arithmetic but stamps the goal
    # atoms one past the fused identifiers
    s, f = initial_pair(GOAL)
    assert not configs_correspond(
        replace(s, counter=s.counter + 1), replace(f, counter=f.counter + 1)
    )


def test_correspondence_rejects_an_extra_introduced_atom():
    s, f = drained_pair(GOAL)
    assert not configs_correspond(replace(s, store=s.store + (atom("r", 9),)), f)


def test_correspondence_rejects_a_token_over_a_pending_atom():
    s, f = initial_pair("k")
    over = frozenset({Token("r2", (1,))})
    assert not configs_correspond(replace(s, tokens=over), replace(f, tokens=over))


def test_correspondence_rejects_a_token_on_one_side_only():
    s, f = drained_pair("k")
    live = frozenset({Token("r2", (1,))})
    assert not configs_correspond(s, replace(f, tokens=live))
    assert not configs_correspond(replace(s, tokens=live), f)


def test_correspondence_rejects_a_stronger_builtin_store():
    s, f = drained_pair(GOAL)
    stronger = conjoin(f.builtins, [Equation(Var("Y"), const("a"))])
    assert not configs_correspond(s, replace(f, builtins=stronger))
    assert not configs_correspond(replace(s, builtins=stronger), f)


# ------------------------------------- against the mixed-tuple reference


def _multiset_equal(xs, ys) -> bool:
    return sorted(map(print_item, xs)) == sorted(map(print_item, ys))


def reference_configs_correspond(std, fused) -> bool:
    """The check over configurations that kept atoms and built-ins in one
    tuple, kept verbatim but for the two lines that rebuild those tuples."""
    std_goal = std.goal + std.pending
    fused_store = fused.atoms + fused.pending
    goal_atoms = [g for g in std_goal if isinstance(g, Compound)]
    goal_builtins = [g for g in std_goal if isinstance(g, (Equation, FalseConstraint))]
    fused_atoms = [x for x in fused_store if isinstance(x, IdAtom)]
    fused_pending = [x for x in fused_store if not isinstance(x, IdAtom)]
    # tokens whose atoms are gone can never fire and carry no information
    std_tokens = clean_tokens(std.tokens, std.store)
    fused_tokens = clean_tokens(fused.tokens, fused_atoms)
    if std.counter + len(goal_atoms) != fused.counter + 1:
        return False
    if not _multiset_equal(goal_builtins, fused_pending):
        return False
    if not stores_equivalent(std.builtins, fused.builtins):
        return False
    if len(fused_atoms) != len(goal_atoms) + len(std.store):
        return False
    by_id = {a.ident: a for a in fused_atoms}
    k1_ids = set()
    for j, atom in enumerate(goal_atoms):
        ia = by_id.get(std.counter + j)
        # atoms are compared as printed text: term equality recurses over depth
        if ia is None or print_item(ia.atom) != print_item(atom):
            return False
        k1_ids.add(ia.ident)
    token_ids = {i for t in fused_tokens for i in t.idents}
    if k1_ids & token_ids:
        return False
    introduced = [a for a in fused_atoms if a.ident not in k1_ids]
    return _multiset_equal(introduced, std.store) and std_tokens == fused_tokens


def lockstep_pairs(program, goal):
    """Every pair of configurations a short lockstep run compares."""
    pairs = []

    def record(cs, ca):
        pairs.append((cs, ca))
        return True

    with mock.patch.object(search, "configs_correspond", record):
        search.lockstep_run(program, goal, max_applies=3, max_states=30)
    return pairs


H = Compound("h", ())
X_IS_A = Equation(Var("X"), const("a"))


def _atoms_field(cfg):
    return "store" if isinstance(cfg, std.Config) else "atoms"


def perturbations(cfg):
    """Copies of the configuration with one field changed."""
    atoms = getattr(cfg, _atoms_field(cfg))
    changes = [
        ("counter", cfg.counter + 1),
        ("counter", cfg.counter - 1),
        ("pending", cfg.pending[1:]),
        ("pending", cfg.pending + (X_IS_A,)),
        ("pending", cfg.pending + (FalseConstraint(),)),
        (_atoms_field(cfg), atoms[1:]),
        (_atoms_field(cfg), atoms + (IdAtom(H, cfg.counter),)),
        (_atoms_field(cfg), tuple(IdAtom(a.atom, a.ident + 1) for a in atoms)),
        ("tokens", frozenset()),
        ("tokens", cfg.tokens | {Token("r0", (cfg.counter,))}),
        ("tokens", cfg.tokens | {Token("r0", tuple(a.ident for a in atoms[:2]))}),
        ("builtins", conjoin(cfg.builtins, [X_IS_A])),
    ]
    if isinstance(cfg, std.Config):
        changes += [("goal", cfg.goal[1:]), ("goal", cfg.goal + (H,))]
    return [replace(cfg, **{field: value}) for field, value in changes]


@settings(max_examples=100, deadline=None)
@given(programs_and_goals())
def test_correspondence_agrees_with_the_mixed_tuple_reference(case):
    program, goal = case
    for cs, ca in lockstep_pairs(program, goal):
        cases = [(cs, ca)] + [(p, ca) for p in perturbations(cs)]
        cases += [(cs, p) for p in perturbations(ca)]
        for s, f in cases:
            assert configs_correspond(s, f) == reference_configs_correspond(s, f)


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
