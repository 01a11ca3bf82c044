"""Explicit-stack term walkers, ``Compound``'s ``==``, ``hash`` and
``repr``, one solve per answer, and the parser's term reader,
property-tested against the recursive versions they replace, plus a work
gate on the solves ``render_answer`` makes."""

import re
from dataclasses import dataclass

from hypothesis import example, given, settings, strategies as st

from conftest import mutated

from chrkit import constraints, equivalence, syntax
from chrkit.constraints import TRUE, Store, canonical_locals, conjoin
from chrkit.semantics import search
from chrkit.semantics.search import QualifiedAnswer, State, render_answer
from chrkit.syntax import (
    IdAtom,
    ParseError,
    Rule,
    parse_goal,
    parse_program,
    print_item,
    print_term,
)
from chrkit.terms import (
    Compound,
    Equation,
    FalseConstraint,
    Subst,
    Term,
    Var,
    apply_subst,
    rename_vars,
    resolve,
    solved_form,
    unify,
    vars_in_order,
    vars_of,
    walk,
)

# ------------------------------------------------------------- reference
# The recursive walkers, the two-solve render_answer and the project it
# called, kept verbatim; each calls the other references in place of the
# functions this file checks.


def ref_vars_of(obj) -> set:
    """Free variables of a term, an equation, or any nesting of iterables."""
    out: set = set()
    _collect_vars(obj, out)
    return out


def _collect_vars(obj, out: set) -> None:
    if isinstance(obj, Var):
        out.add(obj)
    elif isinstance(obj, Compound):
        for a in obj.args:
            _collect_vars(a, out)
    elif isinstance(obj, Equation):
        _collect_vars(obj.lhs, out)
        _collect_vars(obj.rhs, out)
    elif isinstance(obj, FalseConstraint):
        pass
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for x in obj:
            _collect_vars(x, out)
    elif hasattr(obj, "map_terms"):
        obj.map_terms(lambda t: (_collect_vars(t, out), t)[1])
    else:
        raise TypeError(f"cannot collect variables from {obj!r}")


def ref_resolve(t: Term, sub: Subst) -> Term:
    """Apply a (possibly triangular) substitution exhaustively."""
    t = walk(t, sub)
    if isinstance(t, Var) or not t.args:
        return t
    return Compound(t.functor, tuple(ref_resolve(a, sub) for a in t.args))


def ref_apply_subst(obj, sub: Subst):
    """Structure-preserving substitution application."""
    if isinstance(obj, (Var, Compound)):
        return ref_resolve(obj, sub)
    if isinstance(obj, Equation):
        return Equation(ref_resolve(obj.lhs, sub), ref_resolve(obj.rhs, sub))
    if isinstance(obj, FalseConstraint):
        return obj
    if isinstance(obj, tuple):
        return tuple(ref_apply_subst(x, sub) for x in obj)
    if isinstance(obj, list):
        return [ref_apply_subst(x, sub) for x in obj]
    if hasattr(obj, "map_terms"):
        return obj.map_terms(lambda t: ref_apply_subst(t, sub))
    raise TypeError(f"cannot substitute into {obj!r}")


def ref_rename_vars(obj, mapping: Subst):
    """Apply a Var -> Var renaming in a single simultaneous step.

    Unlike apply_subst, images are never looked up again, so mappings that
    swap or chain names (X -> Y, Y -> X) behave as a plain bijection.
    """

    def term(t: Term) -> Term:
        if isinstance(t, Var):
            return mapping.get(t, t)
        if not t.args:
            return t
        return Compound(t.functor, tuple(term(a) for a in t.args))

    def go(obj):
        if isinstance(obj, (Var, Compound)):
            return term(obj)
        if isinstance(obj, Equation):
            return Equation(term(obj.lhs), term(obj.rhs))
        if isinstance(obj, FalseConstraint):
            return obj
        if isinstance(obj, tuple):
            return tuple(go(x) for x in obj)
        if isinstance(obj, list):
            return [go(x) for x in obj]
        if hasattr(obj, "map_terms"):
            return obj.map_terms(go)
        raise TypeError(f"cannot rename in {obj!r}")

    return go(obj)


def ref_canonical_locals(obj, keep, prefix: str = "_L"):
    """Rename all variables outside ``keep`` to _L1, _L2, ... by first
    appearance (term order within the object)."""
    mapping: Subst = {}

    def visit(t):
        if isinstance(t, Var):
            if t not in keep and t not in mapping:
                mapping[t] = Var(f"{prefix}{len(mapping) + 1}")
        else:
            for a in getattr(t, "args", ()):
                visit(a)

    def visit_obj(o):
        if isinstance(o, (Var,)) or hasattr(o, "functor"):
            visit(o)
        elif isinstance(o, Equation):
            visit(o.lhs)
            visit(o.rhs)
        elif isinstance(o, FalseConstraint):
            pass
        elif isinstance(o, (tuple, list)):
            for x in o:
                visit_obj(x)
        elif hasattr(o, "map_terms"):
            o.map_terms(lambda t: (visit_obj(t), t)[1])
        else:
            raise TypeError(f"cannot canonicalize {o!r}")

    visit_obj(obj)
    return ref_rename_vars(obj, mapping)


def ref_project(store: Store, keep) -> tuple:
    if store.failed:
        return (FalseConstraint(),)
    keep = frozenset(keep)
    local = frozenset(ref_vars_of(store.equations)) - keep
    sub = unify(
        [(e.lhs, e.rhs) for e in store.equations], prefer=local
    )
    sigma = solved_form(sub)
    out = []
    for v in sorted(keep & set(sigma), key=lambda v: v.name):
        t = sigma[v]
        if isinstance(t, Var) and t in keep and t.name < v.name:
            out.append(Equation(v, t))
        elif isinstance(t, Var) and t in keep:
            out.append(Equation(t, v))
        else:
            out.append(Equation(v, t))
    # keep-to-keep equations may come out doubled or reversed; normalize
    seen = set()
    uniq = []
    for e in out:
        key = (e.lhs, e.rhs)
        if key not in seen and e.lhs != e.rhs:
            seen.add(key)
            uniq.append(e)
    return ref_canonical_locals(tuple(uniq), keep)


def ref_render_answer(final: State, goal_vars) -> QualifiedAnswer:
    if final.failed:
        return QualifiedAnswer((), (), True)
    locals_first = ref_vars_of(final.builtins.equations) - set(goal_vars)
    sub = unify(
        [(e.lhs, e.rhs) for e in final.builtins.equations], prefer=locals_first
    )
    atoms = tuple(ref_apply_subst(a.atom, sub) for a in final.atoms)
    keep = set(goal_vars) | ref_vars_of(atoms)
    eqs = ref_project(final.builtins, keep)
    atoms, eqs = ref_canonical_locals(
        (tuple(sorted(atoms, key=ref_print_item)), eqs), goal_vars
    )
    return QualifiedAnswer(atoms, eqs, False)


def ref_match_term(ta, tb, rho, fixed, pa=None, pb=None):
    """Extend the injective variable map rho so that ta renamed equals tb.

    With profile maps pa and pb, a variable is only mapped to one with the
    same profile."""
    if isinstance(ta, Var) and isinstance(tb, Var):
        if ta in fixed or tb in fixed:
            return rho if ta == tb else None
        if ta in rho:
            return rho if rho[ta] == tb else None
        if tb in rho.values():
            return None
        if pa is not None and pa[ta] != pb[tb]:
            return None
        out = dict(rho)
        out[ta] = tb
        return out
    if isinstance(ta, Compound) and isinstance(tb, Compound):
        if ta.functor != tb.functor or len(ta.args) != len(tb.args):
            return None
        for x, y in zip(ta.args, tb.args):
            rho = ref_match_term(x, y, rho, fixed, pa, pb)
            if rho is None:
                return None
        return rho
    return None


def ref_print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.functor
    return f"{t.functor}({','.join(ref_print_term(a) for a in t.args)})"


def ref_print_item(it) -> str:
    if isinstance(it, Equation):
        return f"{ref_print_term(it.lhs)}={ref_print_term(it.rhs)}"
    if isinstance(it, FalseConstraint):
        return "false"
    if isinstance(it, IdAtom):
        return f"{ref_print_term(it.atom)}#{it.ident}"
    return ref_print_term(it)


@dataclass(frozen=True)
class RefCompound:
    """Compound with the dataclass-generated ``__eq__`` and ``__hash__``
    and its recursive ``__repr__``."""

    functor: str
    args: tuple = ()

    def __repr__(self):
        if not self.args:
            return f"Compound({self.functor})"
        return f"Compound({self.functor}, {list(self.args)})"


def to_ref(t: Term):
    if isinstance(t, Var):
        return t
    return RefCompound(t.functor, tuple(to_ref(a) for a in t.args))


def from_ref(t, functors=None) -> Term:
    """A copy of the term that shares no compound with any other, with the
    functors ``functors`` maps replaced."""
    if isinstance(t, Var):
        return t
    functor = (functors or {}).get(t.functor, t.functor)
    return Compound(functor, tuple(from_ref(a, functors) for a in t.args))


class RefParser(syntax._Parser):
    """The parser with its recursive term reader."""

    def term(self) -> Term:
        kind, val, _ = self.sc.peek()
        if kind == "var":
            self.sc.next()
            return Var(val)
        if kind == "name":
            self.sc.next()
            if self.sc.peek()[0] == "(":
                self.sc.next()
                args = [self.term()]
                while self.sc.peek()[0] == ",":
                    self.sc.next()
                    args.append(self.term())
                self.sc.expect(")")
                return Compound(val, tuple(args))
            return Compound(val, ())
        self.sc.fail("expected a term")


# ------------------------------------------------------------ strategies

# _L1 and _L2 collide with the names canonical_locals hands out
VARS = tuple(Var(n) for n in ("X", "Y", "Z", "W", "_L1", "_L2"))
CONSTS = (Compound("a"), Compound("b"))


def _compound(functor, arity, inner):
    return st.lists(inner, min_size=arity, max_size=arity).map(
        lambda args: Compound(functor, tuple(args))
    )


terms_st = st.recursive(
    st.sampled_from(VARS + CONSTS),
    lambda inner: st.one_of(
        _compound("f", 1, inner), _compound("g", 2, inner), _compound("h", 3, inner)
    ),
    max_leaves=12,
)
eqs_st = st.builds(Equation, terms_st, terms_st)
atoms_st = st.builds(IdAtom, _compound("p", 2, terms_st), st.integers(1, 9))
items_st = st.one_of(terms_st, eqs_st, atoms_st, st.just(FalseConstraint()))
objs_st = st.recursive(
    items_st,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple)
    ),
    max_leaves=8,
)
rules_st = st.builds(
    Rule,
    st.just("r"),
    st.lists(_compound("p", 2, terms_st), min_size=1, max_size=2).map(tuple),
    st.lists(_compound("q", 1, terms_st), max_size=2).map(tuple),
    st.lists(eqs_st, max_size=2).map(tuple),
    st.lists(st.one_of(eqs_st, atoms_st), max_size=3).map(tuple),
)
renamings_st = st.dictionaries(st.sampled_from(VARS), st.sampled_from(VARS))
keeps_st = st.sets(st.sampled_from(VARS))


@st.composite
def substitutions(draw):
    """A triangular unifier of random pairs."""
    pairs = draw(st.lists(st.tuples(terms_st, terms_st), max_size=4))
    sub = unify(pairs)
    return sub if sub is not None else {}


# store equations are mostly variable links and small bindings, so that
# most stores are satisfiable and have classes of several variables
small_terms_st = st.recursive(
    st.sampled_from(VARS + CONSTS), lambda inner: _compound("f", 1, inner), max_leaves=3
)
store_eqs_st = st.one_of(
    st.builds(Equation, st.sampled_from(VARS), st.sampled_from(VARS)),
    st.builds(Equation, small_terms_st, small_terms_st),
    eqs_st,
)


@st.composite
def stores(draw):
    """A store grown by conjoin in batches, or built from its equations."""
    batches = draw(st.lists(st.lists(store_eqs_st, min_size=1, max_size=3), max_size=3))
    store = TRUE
    for batch in batches:
        store = conjoin(store, batch)
    if draw(st.booleans()) and not store.failed:
        store = Store(store.equations)
    return store


# ------------------------------------------------------------ properties


# a term and another: a copy of it, one with its constants swapped, a term
# one step away, or any term
term_pairs_st = terms_st.flatmap(lambda a: st.tuples(st.just(a), st.one_of(
    st.just(from_ref(to_ref(a))),
    st.just(from_ref(to_ref(a), {"a": "b", "b": "a"})),
    st.builds(lambda b: Compound("f", (b,)), st.just(a)),
    st.just(resolve(a, {Var("X"): Compound("a")})),
    terms_st,
)))


@given(term_pairs_st)
def test_compound_eq_and_hash_match_the_generated_ones(pair):
    a, b = pair
    equal = to_ref(a) == to_ref(b)
    assert (a == b) is equal
    assert (a != b) is not equal
    if equal:
        assert hash(a) == hash(b)
        assert {a: 1}.get(b) == 1 and b in {a}
    else:
        assert {a: 1}.get(b) is None and b not in {a}
    for other in VARS + (None, "a"):
        assert (a == other) is (to_ref(a) == other)
        assert (other == a) is (other == to_ref(a))


@given(terms_st)
def test_compound_repr_matches_the_recursive_one(t):
    assert repr(t) == repr(to_ref(t))


@given(terms_st, substitutions())
def test_resolve_matches_the_recursive_reference(t, sub):
    assert resolve(t, sub) == ref_resolve(t, sub)


@given(objs_st, substitutions())
def test_apply_subst_matches_the_recursive_reference(obj, sub):
    assert apply_subst(obj, sub) == ref_apply_subst(obj, sub)


@given(st.one_of(objs_st, rules_st), renamings_st)
def test_rename_vars_matches_the_recursive_reference(obj, mapping):
    assert rename_vars(obj, mapping) == ref_rename_vars(obj, mapping)


@given(st.one_of(objs_st, rules_st, st.sets(terms_st, max_size=3)))
def test_vars_of_matches_the_recursive_reference(obj):
    assert vars_of(obj) == ref_vars_of(obj)
    assert set(vars_in_order(obj)) == ref_vars_of(obj)


# The references hand out _L<n> without looking at the keep variables, so a
# keep variable with such a name is captured. There the result is checked
# against the reference run on a copy whose _L<n> variables are renamed to
# _K<n> (no _K name occurs in the strategies): the two must differ only by
# an injective renaming that takes those variables back to their own names
# and every other variable to a name outside keep.

LOCAL_NAME = re.compile(r"_L\d+")


def named_apart(variables) -> Subst:
    """_L<n> to _K<n> for each of the variables named like a local."""
    return {v: Var("_K" + v.name[2:]) for v in variables if LOCAL_NAME.fullmatch(v.name)}


def assert_renames_onto(want, got, back, keep):
    """got is want under an injective renaming that agrees with ``back`` and
    takes every other variable to a name outside ``keep``."""
    rho = dict(zip(vars_in_order(want), vars_in_order(got)))
    assert len(set(rho.values())) == len(rho)
    for w, v in rho.items():
        assert v == back[w] if w in back else v not in keep
    assert rename_vars(want, rho) == got


@given(st.one_of(objs_st, rules_st), keeps_st)
def test_canonical_locals_matches_the_recursive_reference(obj, keep):
    got = canonical_locals(obj, keep)
    apart = named_apart(keep)
    if not apart:
        assert got == ref_canonical_locals(obj, keep)
        return
    want = ref_canonical_locals(rename_vars(obj, apart), {apart.get(v, v) for v in keep})
    assert_renames_onto(want, got, {apart.get(v, v): v for v in keep}, keep)


@given(st.one_of(terms_st, eqs_st, atoms_st))
def test_print_matches_the_recursive_reference(item):
    assert print_item(item) == ref_print_item(item)
    if not isinstance(item, (Equation, IdAtom)):
        assert print_term(item) == ref_print_term(item)


@given(terms_st, terms_st, renamings_st, keeps_st, st.booleans())
def test_match_term_matches_the_recursive_reference(ta, tb, rho, fixed, related):
    if related:
        # a renaming of ta, so that the match can succeed
        tb = rename_vars(ta, dict(zip(VARS, reversed(VARS))))
    injective = {}
    for v, w in rho.items():
        if v not in fixed and w not in fixed and w not in injective.values():
            injective[v] = w
    rho = injective
    before = dict(rho)
    got = equivalence._match_term(ta, tb, rho, fixed)
    assert got == ref_match_term(ta, tb, before, fixed)
    assert rho == before


@settings(deadline=None, max_examples=200)
@given(
    stores(),
    st.lists(_compound("p", 2, terms_st), max_size=3),
    st.sets(st.sampled_from(VARS), min_size=1),
)
@example(  # a goal variable linked to a local: the local is the one bound
    conjoin(TRUE, [Equation(Var("X"), Var("Z"))]), [Compound("p", (Var("X"),))], {Var("X")}
)
# a goal variable named like a local: the answer keeps the two apart
@example(
    conjoin(TRUE, [Equation(Var("X"), Compound("f", (Var("Y"),)))]),
    [Compound("p", (Var("_L1"), Var("Z")))],
    {Var("X"), Var("_L1")},
)
def test_render_answer_matches_the_two_solve_reference(store, atoms, goal_vars):
    final = State(
        tuple(IdAtom(a, i) for i, a in enumerate(atoms, 1)), store, frozenset(),
        frozenset(goal_vars),
    )
    got = render_answer(final)
    # project keeps the atoms' variables too, so any _L<n> can be captured
    apart = named_apart(vars_of((atoms, store.equations)) | goal_vars)
    if not apart:
        assert got == ref_render_answer(final, goal_vars)
        return
    renamed_goal_vars = frozenset(apart.get(v, v) for v in goal_vars)
    renamed = State(
        rename_vars(final.atoms, apart),
        Store(rename_vars(store.equations, apart), store.failed),
        frozenset(),
        renamed_goal_vars,
    )
    want = ref_render_answer(renamed, renamed_goal_vars)
    assert got.failed == want.failed
    assert_renames_onto(
        (want.atoms, want.builtins), (got.atoms, got.builtins),
        {apart.get(v, v): v for v in goal_vars}, goal_vars,
    )


# --------------------------------------------------------------- parsing

SAMPLE = """gen @ f(X, Y), f(Y, Z) ==> g(X, Z).
r @ p(X) \\ q(h(X, a, Y)) <=> X = f(Y) | s(X)#1, Y = g(b, Z) ; {gen@1}.
"""
def _parse(parser, text: str, goal: bool):
    try:
        p = parser(text)
        return p.goal() if goal else p.program()
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col)


@given(st.one_of(
    mutated(SAMPLE),
    st.lists(terms_st, min_size=1, max_size=3).map(
        lambda ts: "r @ " + ", ".join(f"p({print_term(t)})" for t in ts) + " <=> true.\n"
    ).flatmap(mutated),
))
def test_program_parse_errors_match_the_recursive_reader(text):
    assert _parse(syntax._Parser, text, False) == _parse(RefParser, text, False)


@given(st.lists(st.one_of(terms_st, eqs_st), min_size=1, max_size=3).map(
    lambda items: ", ".join(
        print_item(i) if isinstance(i, Equation) else f"p({print_term(i)})"
        for i in items
    )
).flatmap(mutated))
def test_goal_parse_errors_match_the_recursive_reader(text):
    assert _parse(syntax._Parser, text, True) == _parse(RefParser, text, True)


def peano(n: int, zero: str = "z") -> Compound:
    t = Compound(zero)
    for _ in range(n):
        t = Compound("s", (t,))
    return t


def test_terms_5000_deep_compare_hash_and_print():
    a, b = peano(5000), peano(5000)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: "a"}[b] == "a" and b in {a} and len({a, b}) == 1
    for other in (peano(5000, "y"), peano(4999), Compound("t", a.args)):
        assert a != other and not a == other
        assert other not in {a} and {a: "a"}.get(other) is None
    assert repr(a) == "Compound(s, [" * 5000 + "Compound(z)" + "])" * 5000


def test_a_goal_nested_5000_deep_round_trips():
    depth = 5000
    text = f"p({'f(' * depth}X{')' * depth},{'g(a,' * depth}b{')' * depth})"
    (atom,) = parse_goal(text)
    assert print_item(atom) == text
    assert parse_goal(print_item(atom))[0] == atom
    assert vars_of(atom) == {Var("X")}
    assert list(vars_in_order(rename_vars(atom, {Var("X"): Var("Y")}))) == [Var("Y")]
    assert print_term(resolve(atom, {Var("X"): Compound("c")})) == text.replace("X", "c")
    (rule,) = parse_program(f"r @ {text} <=> true.").rules
    assert print_item(rule.removed[0]) == text


# ---------------------------------------------------------- work gate


def test_render_answer_solves_each_answer_once(monkeypatch):
    program = parse_program(
        "r @ p(X) <=> X = f(Y, Z), Z = Y, q(Y).\n"
        "s @ p(X) <=> X = g(W), q(W).\n"
    )
    res = search.explore(program, parse_goal("p(A), p(B), A = B"))
    finals = [fs for fs in res.finals if not fs.failed]
    assert len(finals) >= 2
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return unify(*args, **kwargs)

    monkeypatch.setattr(constraints, "unify", counting)
    monkeypatch.setattr(search, "unify", counting, raising=False)
    for fs in finals:
        render_answer(fs)
    assert len(calls) == len(finals)
