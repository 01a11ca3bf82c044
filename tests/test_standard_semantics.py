"""Two-store transition system: solve, introduce, apply."""

from chrkit.semantics import standard as std
from chrkit.semantics.matching import enumerate_firings
from chrkit.syntax import IdAtom, Token, parse_goal, parse_program
from chrkit.terms import Compound, Equation, Var, const

from conftest import load


def test_initial_configuration():
    cfg = std.initial(parse_goal("p(X), X=a, q"))
    assert len(cfg.goal) == 2 and len(cfg.pending) == 1
    assert cfg.store == ()
    assert not cfg.builtins.equations
    assert cfg.tokens == frozenset()
    assert cfg.counter == 1


def test_solve_moves_leftmost_builtin():
    cfg = std.initial(parse_goal("p(X), X=a, Y=b"))
    nxt = std.solve_step(cfg)
    assert nxt.builtins.equations == (Equation(Var("X"), const("a")),)
    assert [type(g) for g in nxt.goal] == [Compound]
    assert [type(g) for g in nxt.pending] == [Equation]
    assert nxt.counter == cfg.counter


def test_solve_can_fail_the_store():
    cfg = std.initial(parse_goal("a=b"))
    nxt = std.solve_step(cfg)
    assert nxt.failed
    assert std.successors(load("mau"), nxt) == []


def test_introduce_stamps_with_the_counter():
    cfg = std.initial(parse_goal("p(X), q(Y)"))
    cfg = std.introduce_step(cfg)
    assert cfg.store[-1].ident == 1 and cfg.counter == 2
    cfg = std.introduce_step(cfg)
    assert cfg.store[-1].ident == 2 and cfg.counter == 3
    assert std.introduce_step(cfg) is None


def test_drain_prefers_solve_over_introduce():
    cfg = std.initial(parse_goal("p(X), X=a"))
    cfg, solves = std.drain(cfg)
    assert solves == 1
    assert cfg.goal == cfg.pending == ()
    assert [a.ident for a in cfg.store] == [1]


def test_apply_prepends_body_and_keeps_counter():
    program = load("mau")  # r @ p(Y) <=> q(Y).
    cfg, _ = std.drain(std.initial(parse_goal("p(X)")))
    [(firing, nxt)] = std.successors(program, cfg)
    assert firing.rule_index == 0
    assert nxt.store == ()  # p was removed
    assert len(nxt.goal) == 1 and nxt.goal[0].functor == "q"
    assert nxt.counter == cfg.counter  # apply never advances it
    # the head equation X = Y' landed in the built-in store
    assert len(nxt.builtins.equations) == 1


def test_guard_gates_application():
    program = load("mau")  # rp @ q(Z) <=> Z=a | true.
    cfg, _ = std.drain(std.initial(parse_goal("q(X)")))
    firings = std.successors(program, cfg)
    assert firings == []  # X=a is not entailed for an unbound X
    cfg, _ = std.drain(std.initial(parse_goal("X=a, q(X)")))
    assert len(std.successors(program, cfg)) == 1


def test_propagation_records_a_token_and_blocks_refiring():
    program = load("token_update")  # r2 @ k ==> s.
    cfg, _ = std.drain(std.initial(parse_goal("k")))
    [(firing, nxt)] = std.successors(program, cfg)
    assert firing.token == Token("r2", (1,))
    assert nxt.tokens == {Token("r2", (1,))}
    assert nxt.store == cfg.store  # kept atom stays put
    # after introducing s, the same instance must not fire again
    nxt, _ = std.drain(nxt)
    assert std.successors(program, nxt) == []


def test_simpagation_removes_only_the_removed_part():
    program = load("gen_adam")
    goal = parse_goal("g(adam, enosh), f(enosh, kenan)")
    cfg, _ = std.drain(std.initial(goal))
    firings = {f.rule.name: nxt for f, nxt in std.successors(program, cfg)}
    assert set(firings) == {"r2", "br2", "pr2"}
    assert [a.atom.functor for a in firings["r2"].store] == []
    assert [a.atom.functor for a in firings["br2"].store] == ["g"]
    assert [a.atom.functor for a in firings["pr2"].store] == ["g", "f"]


def test_firing_enumeration_is_deterministic():
    program = load("gen_adam")
    goal = parse_goal("f(adam, seth), f(seth, enosh), f(enosh, kenan)")
    cfg, _ = std.drain(std.initial(goal))
    a = [f.idents for f in enumerate_firings(program, cfg.store, cfg.builtins, cfg.tokens)]
    b = [f.idents for f in enumerate_firings(program, cfg.store, cfg.builtins, cfg.tokens)]
    assert a == b == [(1, 2, 3)]
