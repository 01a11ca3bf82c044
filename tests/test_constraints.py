"""Built-in store operations checked against the frozen brute-force oracles."""

import pytest
import functools

from hypothesis import example, given, settings, strategies as st

import chrkit.constraints
import chrkit.equivalence
import chrkit.semantics
from chrkit.constraints import (
    FAILED,
    TRUE,
    Store,
    canonical_locals,
    conjoin,
    entailment_witness,
    entails_exists,
    equations_satisfiable,
    guards_equivalent,
    project,
    satisfiable,
    stores_equivalent,
)
from chrkit.semantics.search import lockstep_run, qualified_answers
from chrkit.syntax import parse_goal, parse_program
from chrkit.terms import Compound, Equation, Var, const, vars_of

from conftest import load
from oracles import (
    oracle_entails,
    oracle_equivalent,
    oracle_satisfiable,
    oracle_unifiable,
    universe,
)

X, Y, Z, W = Var("X"), Var("Y"), Var("Z"), Var("W")
a, b = const("a"), const("b")


def f(t):
    return Compound("f", (t,))


def eq(lhs, rhs):
    return Equation(lhs, rhs)


# ----------------------------------------------------------------- store


def test_conjoin_accumulates_equations():
    s = conjoin(TRUE, [eq(X, a)])
    s = conjoin(s, [eq(Y, X)])
    assert satisfiable(s)
    assert entails_exists(s, (), [eq(Y, a)])


def test_conjoin_detects_inconsistency():
    s = conjoin(TRUE, [eq(X, a), eq(X, b)])
    assert s is FAILED
    # FAILED is absorbing
    assert conjoin(s, [eq(Y, Y)]) is FAILED


def test_failed_store_entails_everything():
    assert entails_exists(FAILED, (), [eq(a, b)])


def test_entails_exists_examples():
    s = conjoin(TRUE, [eq(X, a)])
    assert entails_exists(s, {Z}, [eq(Z, X)])
    assert entails_exists(s, (), [eq(X, a)])
    assert not entails_exists(s, (), [eq(X, b)])
    # an unconstrained variable is not equal to anything in particular
    assert not entails_exists(TRUE, (), [eq(Y, a)])
    # ... but exists Y. Y=a holds
    assert entails_exists(TRUE, {Y}, [eq(Y, a)])


def test_entailment_witness_binds_only_exvars():
    s = conjoin(TRUE, [eq(X, f(Y))])
    w = entailment_witness(s, {Z}, [eq(X, f(Z))])
    assert w is not None
    assert set(w) <= {Z}


def test_entailment_does_not_depend_on_store_orientation():
    # X=Y and Y=X are the same store, and the quantified X is not the
    # store's X: both entail exists X. X=Z, and neither entails
    # exists X. (X=Y /\ X=a), which says Y=a
    for store_eq in (eq(X, Y), eq(Y, X)):
        s = conjoin(TRUE, [store_eq])
        assert entails_exists(s, {X}, [eq(X, Z)])
        assert entailment_witness(s, {X}, [eq(X, Z)]) == {X: Z}
        assert not entails_exists(s, {X}, [eq(X, Y), eq(X, a)])


def test_occurs_check_blocks_entailment():
    assert not entails_exists(TRUE, {Z}, [eq(Z, f(Z))])


def test_equations_satisfiable_frozen_vars():
    assert equations_satisfiable([eq(X, a)])
    assert not equations_satisfiable([eq(X, a)], frozen={X})
    assert equations_satisfiable([eq(X, Y)], frozen={Y})
    assert not equations_satisfiable([eq(X, Y)], frozen={X, Y})


def test_stores_equivalent_examples():
    s1 = conjoin(TRUE, [eq(X, Y), eq(Y, a)])
    s2 = conjoin(TRUE, [eq(X, a), eq(Y, a)])
    assert stores_equivalent(s1, s2)
    assert not stores_equivalent(conjoin(TRUE, [eq(X, a)]), TRUE)
    assert stores_equivalent(FAILED, FAILED)
    assert not stores_equivalent(FAILED, TRUE)


def test_guards_equivalent_examples():
    assert guards_equivalent([eq(X, Y)], [eq(Y, X)])
    assert not guards_equivalent([eq(Y, a)], [])


def test_solved_names_each_free_class_by_its_least_member():
    # one class {X, Y, Z}, chained both ways and as a star: the carried
    # unifiers leave Z, X and X free, the normal form always X
    forms = [
        conjoin(TRUE, [eq(X, Y), eq(Y, Z)]).solved(),
        conjoin(TRUE, [eq(Z, Y), eq(Y, X)]).solved(),
        Store((eq(Y, X), eq(Z, X))).solved(),
    ]
    assert forms[0] == forms[1] == forms[2] == {Y: X, Z: X}
    # a free class inside a bound term is named the same way
    assert conjoin(TRUE, [eq(W, f(Z)), eq(Z, Y)]).solved() == {W: f(Y), Z: Y}


# ------------------------------------------------------ kept reference
# stores_equivalent as it was before the normal form, by mutual entailment,
# kept verbatim with the entails_eq it called: the reference that the
# one-comparison check is tested against (tests/test_state_keys.py uses
# it as the leaf of its own reference).


def entails_eq(store: Store, eq: Equation) -> bool:
    return entails_exists(store, (), [eq])


def reference_stores_equivalent(a: Store, b: Store) -> bool:
    """Logical equivalence of two stores (mutual entailment)."""
    if a.failed or b.failed:
        return a.failed == b.failed
    bind_a = [Equation(v, t) for v, t in a.solved().items()]
    bind_b = [Equation(v, t) for v, t in b.solved().items()]
    return all(entails_eq(a, e) for e in bind_b) and all(
        entails_eq(b, e) for e in bind_a
    )


def test_store_comparisons_call_no_entailment(monkeypatch):
    """Work gate: stores_equivalent, guards_equivalent and lockstep_run's
    comparisons of the two semantics' stores entail nothing."""
    inside, calls = [0], [0]
    witness = chrkit.constraints.entailment_witness

    def counted_witness(*args):
        calls[0] += inside[0] > 0
        return witness(*args)

    def entered(compare):
        def wrapped(*args):
            inside[0] += 1
            try:
                return compare(*args)
            finally:
                inside[0] -= 1
        return wrapped

    compared = entered(stores_equivalent)
    monkeypatch.setattr(chrkit.constraints, "entailment_witness", counted_witness)
    monkeypatch.setattr(chrkit.constraints, "stores_equivalent", compared)
    monkeypatch.setattr(chrkit.equivalence, "stores_equivalent", compared)
    s1 = conjoin(TRUE, [eq(X, Y), eq(Y, f(Z))])
    s2 = conjoin(TRUE, [eq(Y, f(Z)), eq(Y, X)])
    assert chrkit.constraints.stores_equivalent(s1, s2)
    assert chrkit.constraints.guards_equivalent([eq(X, Y)], [eq(Y, X)])
    report = lockstep_run(load("mau"), parse_goal("X=a, p(X)"))
    assert report.aligned
    assert calls == [0]


# ------------------------------------------------------------- projection


def test_project_substitutes_locals_out():
    s = conjoin(TRUE, [eq(X, Z), eq(Z, a)])
    assert project(s, {X}) == (eq(X, a),)


def test_project_drops_pure_local_links():
    s = conjoin(TRUE, [eq(X, Z)])
    assert project(s, {X}) == ()


def test_project_surfaces_keep_to_keep_links():
    s = conjoin(TRUE, [eq(X, Z), eq(Z, Y)])
    out = project(s, {X, Y})
    assert guards_equivalent(out, [eq(X, Y)])
    assert vars_of(out) <= {X, Y}


def test_project_keeps_unremovable_locals_canonically():
    s = conjoin(TRUE, [eq(X, f(Z))])
    out = project(s, {X})
    assert out == (eq(X, f(Var("_L1"))),)


def test_canonical_locals_renames_by_first_appearance():
    obj = (eq(Var("Q"), f(Var("P"))), eq(Var("P"), Y))
    got = canonical_locals(obj, keep={Y})
    assert got == (eq(Var("_L1"), f(Var("_L2"))), eq(Var("_L2"), Y))


def test_canonical_locals_handles_colliding_names():
    # the mapping here swaps _L1 and _L2; a naive sequential rewrite of
    # the two entries would conflate them
    obj = (Var("_L2"), Var("_L1"))
    got = canonical_locals(obj, keep=())
    assert got == (Var("_L1"), Var("_L2"))


# ------------------------------------------------- oracle-backed properties

VARS = (X, Y, Z, W)

terms_st = st.recursive(
    st.sampled_from(VARS + (a, b)),
    lambda inner: st.builds(f, inner),
    max_leaves=2,
)
eqs_st = st.lists(st.builds(Equation, terms_st, terms_st), max_size=3)


@given(eqs_st, st.sets(st.sampled_from(VARS)))
def test_satisfiability_matches_oracle(eqs, frozen):
    assert equations_satisfiable(eqs, frozen) == oracle_satisfiable(eqs, frozen)


@given(eqs_st)
def test_store_failure_matches_oracle(eqs):
    assert satisfiable(conjoin(TRUE, eqs)) == oracle_unifiable(eqs)


# Entailment instances keep the universally quantified side small (X, Y)
# so the oracle's ground enumeration stays cheap; Z and W are existential.
outer_terms_st = st.recursive(
    st.sampled_from((X, Y, a, b)),
    lambda inner: st.builds(f, inner),
    max_leaves=2,
)
inner_terms_st = st.recursive(
    st.sampled_from(VARS + (a, b)),
    lambda inner: st.builds(f, inner),
    max_leaves=2,
)



def _depth(t):
    if isinstance(t, Var) or not t.args:
        return 0
    return 1 + max(_depth(s) for s in t.args)


@functools.lru_cache(maxsize=None)
def _universe(depth):
    return universe(depth=depth)


def universe_for(*eq_lists):
    """A ground universe deep enough for the oracles on this instance.

    The oracles enumerate X and Y over a finite universe, so a store whose
    only solutions lie deeper (X = f(f(Y)), Y = f(f(a)) at depth 3) reads
    as unsatisfiable there and entails everything. Solutions of the store
    nest no deeper than all the instance's terms stacked on one another.
    """
    total = sum(_depth(e.lhs) + _depth(e.rhs) for eqs in eq_lists for e in eqs)
    return _universe(max(3, total + 1))


@settings(deadline=None)
@given(
    st.lists(st.builds(Equation, outer_terms_st, outer_terms_st), max_size=2),
    st.lists(st.builds(Equation, inner_terms_st, inner_terms_st),
             min_size=1, max_size=2),
)
@example([eq(X, f(f(Y))), eq(Y, f(f(a)))], [eq(X, Y)])
def test_entailment_matches_oracle(store_eqs, query):
    got = entails_exists(conjoin(TRUE, store_eqs), {Z, W}, query)
    want = oracle_entails(store_eqs, {Z, W}, query,
                          terms=universe_for(store_eqs, query))
    assert got == want


@settings(deadline=None)
@given(
    st.lists(st.builds(Equation, outer_terms_st, outer_terms_st), max_size=2),
    st.lists(st.builds(Equation, outer_terms_st, outer_terms_st), max_size=2),
)
def test_store_equivalence_matches_oracle(eqs_a, eqs_b):
    sa, sb = conjoin(TRUE, eqs_a), conjoin(TRUE, eqs_b)
    if sa.failed or sb.failed:
        # oracle_equivalent has no failed-store notion; compare solvability
        assert stores_equivalent(sa, sb) == (sa.failed == sb.failed)
        return
    keep = vars_of(tuple(eqs_a)) | vars_of(tuple(eqs_b))
    got = stores_equivalent(sa, sb)
    want = oracle_equivalent(eqs_a, eqs_b, keep,
                            terms=universe_for(eqs_a, eqs_b))
    assert got == want


# var-var pairs in random order and orientation make chains and stars of
# free classes; the bindings share those classes inside bound terms
var_pairs_st = st.lists(
    st.builds(Equation, st.sampled_from(VARS), st.sampled_from(VARS)), max_size=4
)


@st.composite
def equivalent_or_near_pairs(draw):
    """An equation set, and the same set reordered and reoriented, often
    with one equation dropped or added."""
    eqs_a = draw(var_pairs_st) + draw(
        st.lists(st.builds(Equation, st.sampled_from(VARS), terms_st), max_size=2))
    eqs_a = draw(st.permutations(eqs_a))
    eqs_b = [Equation(e.rhs, e.lhs) if draw(st.booleans()) else e
             for e in draw(st.permutations(eqs_a))]
    change = draw(st.sampled_from(("none", "drop", "add")))
    if change == "drop" and eqs_b:
        del eqs_b[draw(st.integers(0, len(eqs_b) - 1))]
    elif change == "add":
        eqs_b.insert(draw(st.integers(0, len(eqs_b))),
                     draw(st.builds(Equation, st.sampled_from(VARS), terms_st)))
    return eqs_a, eqs_b


def _three_ways(eqs):
    """The store built by one conjoin, by one conjoin per equation and
    from the equation tuple (only when it is satisfiable)."""
    one = conjoin(TRUE, eqs)
    each = TRUE
    for e in eqs:
        each = conjoin(each, [e])
    return [one, each] + ([] if one.failed else [Store(tuple(eqs))])


@settings(deadline=None, max_examples=300)
@given(equivalent_or_near_pairs())
@example(([eq(X, Y), eq(Y, Z)], [eq(Z, Y), eq(Y, X)]))
@example(([eq(W, f(Z)), eq(Z, Y)], [eq(Y, Z), eq(W, f(Y))]))
def test_store_equivalence_matches_mutual_entailment(pair):
    stores_a, stores_b = (_three_ways(eqs) for eqs in pair)
    for stores in (stores_a, stores_b):
        # every construction of one store gives one normal form
        assert len({s.failed for s in stores}) == 1
        if not stores[0].failed:
            assert all(s.solved() == stores[0].solved() for s in stores)
    for sa in stores_a:
        for sb in stores_b:
            assert stores_equivalent(sa, sb) == reference_stores_equivalent(sa, sb)


# ------------------------------------------- incremental store vs scratch


def g(s, t):
    return Compound("g", (s, t))


batch_terms_st = st.recursive(
    st.sampled_from(VARS + (a, b)),
    lambda inner: st.one_of(st.builds(f, inner), st.builds(g, inner, inner)),
    max_leaves=2,
)
# mostly variable bindings, so that batches stay satisfiable on their own
# and interact with one another
batch_eqs_st = st.lists(
    st.one_of(
        st.builds(Equation, st.sampled_from(VARS), batch_terms_st),
        st.builds(Equation, batch_terms_st, batch_terms_st),
    ),
    min_size=1,
    max_size=3,
)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(batch_eqs_st, min_size=2, max_size=4),
    st.lists(batch_eqs_st, min_size=1, max_size=3),
    st.sets(st.sampled_from(VARS)),
)
# a quantified variable that also occurs in the store: the two stores keep
# the class {X, Y} oriented differently
@example(batches=[[eq(X, Y)], [eq(Y, X)]], queries=[[eq(X, Z)]], exvars={X})
def test_incremental_store_matches_solving_from_scratch(batches, queries, exvars):
    # one conjoin per batch: each extends the parent's carried unifier
    inc = TRUE
    for batch in batches:
        inc = conjoin(inc, batch)
    scratch = conjoin(TRUE, [e for batch in batches for e in batch])
    assert inc.failed == scratch.failed
    assert stores_equivalent(inc, scratch)
    if not inc.failed:
        assert inc.equations == scratch.equations
        # the variable set conjoin carries forward, against a fresh count
        assert inc.variables() == frozenset(vars_of(inc.equations))
    for query in queries:
        assert entails_exists(inc, exvars, query) == entails_exists(
            scratch, exvars, query
        )


def _linked(n):
    xs = [Var(f"X{i}") for i in range(n + 1)]
    return [eq(xs[i], f(xs[i + 1])) for i in range(n)]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
def test_conjoining_a_thousand_linked_equations_does_not_recurse(order):
    # backward, each occurs check walks the whole chain built so far
    s = TRUE
    for e in _linked(1000)[::order]:
        s = conjoin(s, [e])
    assert satisfiable(s)
    assert len(s.equations) == 1000
    assert not satisfiable(conjoin(s, [eq(Var("X1000"), Var("X0"))]))


COPY = parse_program(
    "r @ p(s(X), Y) <=> Y = s(Z), p(X, Z), d(Z).\n"
    "z @ p(z, Y) <=> Y = z.\n"
)


@pytest.mark.parametrize("semantics", ["annotated", "standard"])
def test_conjoin_unifies_each_equation_once(monkeypatch, semantics):
    """Work gate: conjoin passes unify only the equations it is given.

    Peano copy of depth n fires n times r and once z; every firing conjoins
    its two head equations and solves its one body equation, so 3(n+1)
    equations are conjoined along the single branch. Re-solving the history
    at every step would pass unify on the order of n^2 pairs instead.
    """
    depth = 40
    real_unify, real_conjoin = chrkit.constraints.unify, chrkit.constraints.conjoin
    inside = [False]
    pairs = [0]
    conjoined = [0]

    def counting_unify(eq_pairs, *args, **kwargs):
        eq_pairs = list(eq_pairs)
        if inside[0]:
            pairs[0] += len(eq_pairs)
        return real_unify(eq_pairs, *args, **kwargs)

    def counting_conjoin(store, items):
        items = tuple(items)
        conjoined[0] += sum(isinstance(i, Equation) for i in items)
        inside[0] = True
        try:
            return real_conjoin(store, items)
        finally:
            inside[0] = False

    monkeypatch.setattr(chrkit.constraints, "unify", counting_unify)
    module = getattr(chrkit.semantics, semantics)
    monkeypatch.setattr(module, "conjoin", counting_conjoin)
    goal = parse_goal(f"p({'s(' * depth}z{')' * depth}, N)")
    ans = qualified_answers(COPY, goal, semantics=semantics, max_applies=depth + 1)
    assert len(ans.answers) == 1 and not ans.truncated
    assert conjoined[0] == 3 * (depth + 1)
    assert pairs[0] == conjoined[0]
