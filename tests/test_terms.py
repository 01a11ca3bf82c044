"""Herbrand terms, unification, substitution application."""

import contextlib
import copy
import io
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from chrkit.cli import main
from chrkit.equivalence import _ClassVar
from chrkit.terms import (
    Compound,
    Equation,
    FreshSupply,
    Var,
    apply_subst,
    const,
    occurs_in,
    rename_apart,
    rename_vars,
    resolve,
    solved_form,
    unify,
    vars_of,
    walk,
)

from conftest import FIXTURES

X, Y, Z, W = Var("X"), Var("Y"), Var("Z"), Var("W")
a, b = const("a"), const("b")


def f(*args):
    return Compound("f", tuple(args))


def g(*args):
    return Compound("g", tuple(args))


# ---------------------------------------------------------------- unify


def test_unify_binds_var_to_constant():
    sub = unify([(X, a)])
    assert resolve(X, sub) == a


def test_unify_decomposes_compounds():
    sub = unify([(f(X, b), f(a, Y))])
    assert resolve(X, sub) == a
    assert resolve(Y, sub) == b


def test_unify_functor_clash_fails():
    assert unify([(f(X), g(X))]) is None
    assert unify([(a, b)]) is None
    assert unify([(f(a), f(a, a))]) is None


def test_unify_occurs_check():
    assert unify([(X, f(X))]) is None
    assert unify([(X, f(Y)), (Y, f(X))]) is None


def test_unify_transitive_chain():
    sub = unify([(X, Y), (Y, Z), (Z, a)])
    assert resolve(X, sub) == a
    assert resolve(f(X, Y, Z), sub) == f(a, a, a)


def test_unify_frozen_vars_act_as_constants():
    assert unify([(X, a)], frozen={X}) is None
    assert unify([(X, Y)], frozen={X}) is not None  # Y can take X's value
    assert unify([(X, Y)], frozen={X, Y}) is None


def test_unify_prefer_orients_var_var_bindings():
    sub = unify([(X, Y)], prefer={Y})
    assert X not in sub  # Y is bound, X stays free
    assert walk(Y, sub) == X


def test_unify_extends_base_substitution():
    base = unify([(X, a)])
    sub = unify([(Y, X)], base=base)
    assert resolve(Y, sub) == a
    assert unify([(Y, b)], base=sub) is None


def test_solved_form_is_fully_resolved():
    sub = solved_form(unify([(X, f(Y)), (Y, a)]))
    assert sub[X] == f(a)


def test_occurs_in_sees_through_bindings():
    sub = unify([(Y, f(X))])
    assert occurs_in(X, Y, sub)
    assert not occurs_in(Z, Y, sub)


# ------------------------------------------------- substitution application


def test_apply_subst_maps_structures():
    sub = unify([(X, a), (Y, f(b))])
    eq = Equation(f(X), Y)
    assert apply_subst(eq, sub) == Equation(f(a), f(b))
    assert apply_subst([X, (Y,)], sub) == [a, (f(b),)]


def test_walk_stops_on_self_binding():
    # a pathological map that binds a variable to itself must not loop
    assert walk(X, {X: X}) == X


def test_rename_vars_applies_simultaneously():
    # the swap {X -> Y, Y -> X} is a bijection, not a rewrite system;
    # images must not be chased further
    out = rename_vars(f(X, Y), {X: Y, Y: X})
    assert out == f(Y, X)


def test_rename_vars_identity_entries_are_harmless():
    assert rename_vars(f(X, Y), {X: X, Y: Y}) == f(X, Y)


def test_rename_vars_three_cycle():
    out = rename_vars((X, Y, Z), {X: Y, Y: Z, Z: X})
    assert out == (Y, Z, X)


def test_rename_apart_yields_fresh_disjoint_copy():
    fresh = FreshSupply("_T")
    obj = (f(X, Y), Equation(X, a))
    renamed, mapping = rename_apart(obj, fresh=fresh)
    assert vars_of(renamed).isdisjoint(vars_of(obj))
    assert set(mapping) == {X, Y}
    # structure preserved
    assert renamed[0].functor == "f"
    assert renamed[1].rhs == a


@given(
    st.sets(st.sampled_from([f"_T{i}" for i in range(1, 8)] + ["_T", "T1", "X"])),
    st.integers(0, 12),
)
def test_a_fresh_supply_skips_avoided_names_and_never_repeats(avoid, n):
    fresh = FreshSupply("_T", {Var(name) for name in avoid})
    names = [fresh.fresh().name for _ in range(n)]
    assert len(set(names)) == n
    assert avoid.isdisjoint(names)
    # it skips only what it must: the first n names not avoided
    assert names == [name for name in (f"_T{i}" for i in range(1, 21)) if name not in avoid][:n]


def test_rename_apart_avoids_the_objects_own_names_by_default():
    renamed, mapping = rename_apart(f(Var("_V1"), X))
    assert mapping == {X: Var("_V2"), Var("_V1"): Var("_V3")}
    assert renamed == f(Var("_V3"), Var("_V2"))


# ------------------------------------------------------- interned variables


def test_a_name_gives_one_variable_per_class():
    assert Var("X") is Var("X") is X
    assert _ClassVar("X") is _ClassVar("X")
    assert _ClassVar("X") != Var("X")
    assert len({Var("X"), _ClassVar("X"), Var("X")}) == 2


def test_copies_and_pickles_give_back_the_interned_variable():
    for v in (X, _ClassVar("X")):
        assert copy.copy(v) is v
        assert copy.deepcopy(v) is v
        assert pickle.loads(pickle.dumps(v)) is v
    assert copy.deepcopy(f(X, (Y,))).args[0] is X


def test_an_interned_variable_cannot_be_changed():
    with pytest.raises(AttributeError):
        X.name = "Y"
    with pytest.raises(AttributeError):
        del X.name
    assert X.name == "X"
    # slotted: a variable costs its name and no instance dict
    assert not hasattr(X, "__dict__") and not hasattr(_ClassVar("X"), "__dict__")


def test_threads_interning_one_name_get_one_variable():
    # four threads, more than a small machine has cores, intern the same
    # new names while the interpreter switches threads as often as it can;
    # a lost race would hand two threads two objects for one name
    names = [f"_Race{i}" for i in range(3000)]
    got = [None] * 4

    def intern(k):
        got[k] = [Var(n) for n in names]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=intern, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(vs is not None and len(vs) == len(names) for vs in got)
    assert all(all(a is b for a, b in zip(got[0], vs)) for vs in got[1:])


def test_a_repeated_run_interns_no_new_name():
    argv = ["run", str(FIXTURES / "chain.chr"), "--goal", "p(X), p(Y)", "--json"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
        sizes = len(Var._interned), len(_ClassVar._interned)
        assert main(argv) == 0
    assert (len(Var._interned), len(_ClassVar._interned)) == sizes


# ------------------------------------------------------------ properties

terms_st = st.recursive(
    st.sampled_from([X, Y, Z, W, a, b]),
    lambda inner: st.builds(lambda t: f(t), inner),
    max_leaves=3,
)


@given(st.lists(st.tuples(terms_st, terms_st), min_size=1, max_size=3))
def test_unifier_solves_its_equations(pairs):
    sub = unify(pairs)
    if sub is not None:
        for s, t in pairs:
            assert resolve(s, sub) == resolve(t, sub)


@given(terms_st)
def test_rename_apart_roundtrips_through_inverse(t):
    renamed, mapping = rename_apart(t)
    inverse = {v: k for k, v in mapping.items()}
    assert rename_vars(renamed, inverse) == t
