"""Head matching by one-way match over a functor index, property-tested
against the enumeration it replaces, plus work gates on its entailment
checks."""

from itertools import permutations
from typing import List

import pytest
from hypothesis import example, given, settings, strategies as st

from chrkit.constraints import FAILED, TRUE, Store, conjoin, entails_exists
from chrkit.semantics import matching
from chrkit.semantics.matching import Firing, enumerate_firings
from chrkit.semantics.search import qualified_answers
from chrkit.syntax import IdAtom, Program, Rule, Token, parse_goal, parse_program
from chrkit.terms import Compound, Equation, FreshSupply, Var, const, rename_apart, vars_of

# ------------------------------------------------------------- reference
# The enumeration by all permutations times entailment, kept verbatim.


def _positions_fit(atoms, heads) -> bool:
    return all(
        a.atom.functor == h.functor and len(a.atom.args) == len(h.args)
        for a, h in zip(atoms, heads)
    )


def reference_enumerate_firings(program, atoms, builtins: Store, tokens, fresh: FreshSupply = None) -> List[Firing]:
    """All firings of program rules on the given identified atoms.

    Enumeration order is deterministic: program order, then assignments over
    atoms sorted by identifier. Each rule is renamed apart once per call.
    """
    ordered = sorted(atoms, key=lambda a: a.ident)
    out: List[Firing] = []
    for idx, rule in enumerate(program.rules):
        renamed, _ = rename_apart(rule, fresh=fresh)
        heads = renamed.kept + renamed.removed
        if len(heads) > len(ordered):
            continue
        head_vars = vars_of((renamed.kept, renamed.removed))
        for combo in permutations(ordered, len(heads)):
            if not _positions_fit(combo, heads):
                continue
            token = Token(rule.name, tuple(a.ident for a in combo))
            if token in tokens:
                continue
            eqs = tuple(
                Equation(a.atom.args[i], h.args[i])
                for a, h in zip(combo, heads)
                for i in range(len(h.args))
            )
            if not entails_exists(builtins, head_vars, eqs + renamed.guard):
                continue
            nk = len(renamed.kept)
            out.append(Firing(idx, renamed, combo[:nk], combo[nk:], eqs, token))
    return out


# ------------------------------------------------------------- strategies

SHAPES = (("p", 1), ("q", 2), ("h", 0))
HEAD_VARS = tuple(Var(n) for n in ("X", "Y", "Z"))
LOCAL = Var("L")
# goal variables, two of them named like the variables rename_apart makes
GOAL_VARS = tuple(Var(n) for n in ("A", "B", "_R1", "_V1"))
CONSTS = (const("a"), const("b"))


def terms(variables, depth):
    leaves = st.sampled_from(variables + CONSTS)
    if depth == 0:
        return leaves
    sub = terms(variables, depth - 1)
    return st.one_of(
        leaves,
        st.builds(lambda t: Compound("f", (t,)), sub),
        st.builds(lambda s, t: Compound("g", (s, t)), sub, sub),
    )


def atoms_over(term):
    return st.one_of(*(
        st.tuples(*[term] * n).map(lambda args, f=f: Compound(f, args))
        for f, n in SHAPES
    ))


HEAD_ATOMS = atoms_over(terms(HEAD_VARS, 1))
RULE_TERMS = terms(HEAD_VARS + (LOCAL,), 2)
BODY_ATOMS = atoms_over(RULE_TERMS)
GOAL_ATOMS = atoms_over(st.one_of(st.sampled_from(GOAL_VARS), terms(GOAL_VARS, 1)))
STORE_TERMS = terms(GOAL_VARS, 1)


@st.composite
def rules(draw, name):
    heads = draw(st.lists(HEAD_ATOMS, min_size=1, max_size=3))
    kind = draw(st.sampled_from(("simplification", "propagation", "simpagation")))
    split = {"simplification": 0, "propagation": len(heads)}.get(
        kind, draw(st.integers(0, len(heads)))
    )
    guard = tuple(draw(st.lists(st.builds(Equation, RULE_TERMS, RULE_TERMS), max_size=2)))
    body = tuple(draw(st.lists(BODY_ATOMS, max_size=2)))
    return Rule(name, tuple(heads[:split]), tuple(heads[split:]), guard, body)


@st.composite
def programs(draw):
    n = draw(st.integers(1, 3))
    return Program(tuple(draw(rules(f"r{i}")) for i in range(n)))


@st.composite
def states(draw):
    """Atoms with distinct identifiers in any order, a built-in store
    (sometimes failed) and recorded tokens over the atoms."""
    atoms = draw(st.lists(GOAL_ATOMS, min_size=2, max_size=5))
    idents = draw(st.permutations(range(1, len(atoms) + 1)))
    stated = tuple(IdAtom(a, i) for a, i in zip(atoms, idents))
    eqs = draw(st.lists(
        st.builds(Equation, st.sampled_from(GOAL_VARS), STORE_TERMS), max_size=4,
    ))
    # one conjoin per equation that keeps the store satisfiable, so the
    # mgu is carried as the search carries it
    store = TRUE
    for e in eqs:
        if not conjoin(store, [e]).failed:
            store = conjoin(store, [e])
    if draw(st.sampled_from((False,) * 7 + (True,))):
        store = FAILED
    tokens = frozenset(draw(st.lists(
        st.builds(
            Token,
            st.sampled_from(("r0", "r1", "r2")),
            st.lists(st.sampled_from(idents), min_size=1, max_size=3, unique=True).map(tuple),
        ),
        max_size=4,
    )))
    return stated, store, tokens


@settings(max_examples=400, deadline=None)
@given(programs(), states(), st.sampled_from(("_R", "_V")))
# the store binds the atom's argument to the compound the head asks for
@example(
    parse_program("r @ p(f(X)), q(X, X) <=> true."),
    (
        (IdAtom(Compound("p", (Var("A"),)), 1),
         IdAtom(Compound("q", (Var("B"), const("b"))), 2)),
        conjoin(TRUE, [Equation(Var("A"), Compound("f", (Var("B"),))),
                       Equation(Var("B"), const("b"))]),
        frozenset(),
    ),
    "_R",
)
# an atom variable named like the first fresh one: the supply skips it
@example(
    parse_program("r @ p(X, X) <=> q."),
    ((IdAtom(Compound("p", (Var("_R1"), const("a"))), 1),), TRUE, frozenset()),
    "_R",
)
def test_enumeration_agrees_with_the_reference(program, state, prefix):
    # the supply avoids the atoms' variables, as enumerate_firings requires
    atoms, store, tokens = state
    new = enumerate_firings(program, atoms, store, tokens, FreshSupply(prefix, vars_of(atoms)))
    ref = reference_enumerate_firings(
        program, atoms, store, tokens, FreshSupply(prefix, vars_of(atoms))
    )
    assert new == ref


def test_an_atom_variable_named_like_a_fresh_one_is_not_captured():
    program = parse_program("r @ p(X, X) <=> q.")
    atoms = (IdAtom(Compound("p", (Var("_R1"), const("a"))), 1),)
    for fresh in (FreshSupply("_R", vars_of(atoms)), None):
        assert enumerate_firings(program, atoms, TRUE, frozenset(), fresh) == []
    assert qualified_answers(program, (atoms[0].atom,)).texts == ("p(_R1,a)",)


# ------------------------------------------------------------- work gates


def _count_entailments(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return entails_exists(*args, **kwargs)

    monkeypatch.setattr(matching, "entails_exists", counted)
    return calls


LEQ = parse_program(
    "refl @ leq(X, X) <=> true.\n"
    "anti @ leq(X, Y), leq(Y, X) <=> X = Y.\n"
    "idem @ leq(X, Y) \\ leq(X, Y) <=> true.\n"
    "trans @ leq(X, Y), leq(Y, Z) ==> leq(X, Z).\n"
)


@pytest.mark.parametrize("semantics", ["standard", "annotated"])
def test_a_guard_free_program_matches_heads_without_entailment(monkeypatch, semantics):
    calls = _count_entailments(monkeypatch)
    answers = qualified_answers(
        LEQ, parse_goal("leq(A, B), leq(B, A)"), semantics=semantics, max_applies=3
    )
    assert answers.texts == ("B=A", "B=A")
    assert calls == []


def test_a_guard_is_checked_once_per_candidate_whose_heads_match(monkeypatch):
    calls = _count_entailments(monkeypatch)
    program = parse_program("r @ p(X) \\ q(X, Y) <=> Y = a | true.")
    goal = parse_goal("p(a), p(b), q(a, a), q(b, c), q(c, a)")
    atoms = tuple(IdAtom(g, i) for i, g in enumerate(goal, 1))
    firings = enumerate_firings(program, atoms, TRUE, frozenset())
    # (p(a), q(a, a)) and (p(b), q(b, c)) match; only the first passes
    assert len(calls) == 2
    assert [f.idents for f in firings] == [(1, 3)]
    assert len(reference_enumerate_firings(program, atoms, TRUE, frozenset())) == 1
