"""Fused-store transition system: pre-identified goals, shifted rule bodies."""

from chrkit.semantics import annotated as ann
from chrkit.syntax import IdAtom, Token, annotate, parse_goal, parse_program
from chrkit.terms import Compound, Equation, Var, const

from oracles import oracle_head_assignments
from conftest import load


def test_initial_identifies_goal_atoms_left_to_right():
    cfg = ann.initial(parse_goal("p(X), X=a, q"))
    assert [x.ident for x in cfg.atoms] == [1, 2]
    assert cfg.counter == 2  # two user constraints in the goal


def test_initial_of_pure_builtin_goal():
    cfg = ann.initial(parse_goal("X=a"))
    assert cfg.counter == 0
    assert ann.chr_atoms(cfg) == ()


def test_shift_identifiers_moves_body_and_tokens():
    p = parse_program("r @ h <=> k#1, s#2 ; {r2@1,2}.")
    body, tokens = ann.shift_identifiers(p.rules[0].body, p.rules[0].tokens, 3)
    assert [b.ident for b in body] == [4, 5]
    assert tokens == frozenset({Token("r2", (4, 5))})


def test_shift_identifiers_single_atom():
    # the annotated body gg(X,Z)#1 shifted past counter 3 becomes gg(X,Z)#4
    body = (IdAtom(Compound("gg", (Var("X"), Var("Z"))), 1),)
    shifted, tokens = ann.shift_identifiers(body, frozenset(), 3)
    assert shifted[0].ident == 4
    assert tokens == frozenset()


def test_solve_at_any_position():
    cfg = ann.initial(parse_goal("X=a, p(X), Y=b"))
    assert len(cfg.pending) == 2
    nxt = ann.solve_at(cfg, 1)
    assert nxt.builtins.equations == (Equation(Var("Y"), const("b")),)
    assert nxt.pending == cfg.pending[:1]


def test_apply_advances_counter_to_greatest_new_identifier():
    program = annotate(load("mau"))  # r @ p(Y) <=> q(Y)#1.
    cfg = ann.initial(parse_goal("p(X)"))
    [(firing, nxt)] = ann.successors(program, cfg)
    assert firing.rule.name == "r"
    # q's body identifier 1 is shifted past counter 1, giving q#2
    atoms = ann.chr_atoms(nxt)
    assert [(a.atom.functor, a.ident) for a in atoms] == [("q", 2)]
    assert nxt.counter == 2


def test_apply_with_builtin_only_body_keeps_counter():
    program = annotate(parse_program("r @ p(X) <=> X=a."))
    cfg = ann.initial(parse_goal("p(V)"))
    [(_, nxt)] = ann.successors(program, cfg)
    assert nxt.counter == cfg.counter == 1
    assert ann.chr_atoms(nxt) == ()
    assert len(nxt.pending) == 1


def test_apply_keeps_kept_atoms_and_removes_removed():
    program = annotate(load("gen_adam"))
    cfg = ann.initial(parse_goal("g(adam, enosh), f(enosh, kenan)"))
    by_name = {f.rule.name: nxt for f, nxt in ann.successors(program, cfg)}
    got = {
        name: sorted((a.atom.functor, a.ident) for a in ann.chr_atoms(nxt))
        for name, nxt in by_name.items()
    }
    assert got["r2"] == [("gg", 3)]
    assert got["br2"] == [("g", 1), ("gg", 3)]
    assert got["pr2"] == [("f", 2), ("g", 1), ("gg", 3)]
    # the propagation branch records its token with the original identifiers
    assert Token("pr2", (1, 2)) in by_name["pr2"].tokens


def test_local_tokens_are_shifted_into_the_configuration():
    p = parse_program(
        "r1 @ h <=> k#1, s#2 ; {r2@1,2}.\n"
        "r2 @ k, s <=> b#1."
    )
    cfg = ann.initial(parse_goal("h"))
    [(firing, nxt)] = ann.successors(p, cfg)
    assert firing.rule.name == "r1"
    assert Token("r2", (2, 3)) in nxt.tokens
    # that token blocks r2 on exactly the atoms the body introduced
    assert ann.successors(p, nxt) == []


def test_drain_solves_all_pending_builtins():
    cfg = ann.initial(parse_goal("X=a, p(X), X=b"))
    cfg, solves = ann.drain(cfg)
    assert solves == 2
    assert cfg.failed


def test_firings_match_brute_force_head_assignment_oracle():
    program = annotate(load("gen_adam"))
    goal = parse_goal("f(adam, seth), f(seth, enosh), f(enosh, kenan), g(adam, seth)")
    cfg = ann.initial(goal)
    atoms = ann.chr_atoms(cfg)
    for rule in program.rules:
        firings = [
            firing.idents
            for firing, _ in ann.successors(program, cfg)
            if firing.rule.name == rule.name
        ]
        want = oracle_head_assignments(rule.heads, [a.atom for a in atoms])
        got = sorted(tuple(atoms[i].ident for i in combo) for combo in want)
        assert sorted(firings) == got
    # sanity: the multi-headed rules do fire on the ground store
    assert got  # last rule checked (pr2) has an assignment


def test_guarded_firing_matches_oracle():
    program = load("mau")  # rp @ q(Z) <=> Z=a | true.
    rp = program.rules[1]
    for binding, expect in ((("V", "a"), [(1,)]), (("V", "b"), [])):
        goal = parse_goal(f"{binding[0]}={binding[1]}, q({binding[0]})")
        cfg, _ = ann.drain(ann.initial(goal))
        atoms = ann.chr_atoms(cfg)
        firings = [
            firing.idents
            for firing, _ in ann.successors(program, cfg)
            if firing.rule.name == "rp"
        ]
        want = oracle_head_assignments(
            rp.heads,
            [a.atom for a in atoms],
            store_eqs=cfg.builtins.equations,
            guard=rp.guard,
        )
        assert firings == [tuple(atoms[i].ident for i in c) for c in want] == expect
